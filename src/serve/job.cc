#include "serve/job.h"

#include <cctype>
#include <cinttypes>

#include "bio/clustal.h"
#include "bio/generator.h"
#include "bio/parsimony.h"
#include "obs/json.h"
#include "support/logging.h"

namespace bp5::serve {

namespace {

/** Case/punctuation-insensitive name form ("comp. isel" -> "compisel"). */
std::string
normalized(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += char(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

/** Minimal JSON string escape for protocol error messages. */
std::string
jsonEscape(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

} // namespace

bool
kernelFromName(const std::string &name, kernels::KernelKind &out)
{
    std::string want = normalized(name);
    for (int k = 0; k < int(kernels::KernelKind::NUM_KERNELS); ++k) {
        auto kind = kernels::KernelKind(k);
        if (normalized(kernels::kernelName(kind)) == want ||
            normalized(kernels::kernelApp(kind)) == want) {
            out = kind;
            return true;
        }
    }
    return false;
}

bool
variantFromName(const std::string &name, mpc::Variant &out)
{
    std::string want = normalized(name);
    if (want == "baseline") {
        out = mpc::Variant::Baseline;
        return true;
    }
    for (int v = 0; v < int(mpc::Variant::NUM_VARIANTS); ++v) {
        if (normalized(mpc::variantName(mpc::Variant(v))) == want) {
            out = mpc::Variant(v);
            return true;
        }
    }
    return false;
}

bool
machineFromName(const std::string &name, sim::MachineConfig &out)
{
    std::string want = normalized(name);
    if (want == "baseline")
        out = sim::MachineConfig::power5Baseline();
    else if (want == "btac")
        out = sim::MachineConfig::power5WithBtac();
    else if (want == "fxu3")
        out = sim::MachineConfig::power5WithFxu(3);
    else if (want == "fxu4")
        out = sim::MachineConfig::power5WithFxu(4);
    else if (want == "enhanced")
        out = sim::MachineConfig::power5Enhanced();
    else
        return false;
    return true;
}

bool
memsysFromName(const std::string &name, sim::MachineConfig &mc)
{
    std::string want = normalized(name);
    if (want == "classic") {
        mc.memsys = sim::MemSysParams();
        return true;
    }
    if (want != "lsq" && want != "lsqnextline" && want != "lsqstride")
        return false;
    mc.memsys.mode = sim::MemSysParams::Mode::Lsq;
    if (want == "lsqnextline")
        mc.memsys.l1dPrefetch.kind = sim::PrefetchParams::Kind::NextLine;
    else if (want == "lsqstride")
        mc.memsys.l1dPrefetch.kind = sim::PrefetchParams::Kind::Stride;
    return true;
}

bool
parseJobLine(const std::string &line, JobSpec &out, std::string &err)
{
    obs::JsonValue doc;
    if (!obs::parseJson(line, doc, err))
        return false;
    if (!doc.isObject()) {
        err = "job is not a JSON object";
        return false;
    }

    out = JobSpec();
    bool haveKernel = false;
    for (const auto &[key, v] : doc.fields) {
        if (key == "id") {
            if (!v.isNumber() || v.number < 0) {
                err = "'id' must be a non-negative number";
                return false;
            }
            out.id = uint64_t(v.number);
        } else if (key == "kernel" || key == "app") {
            if (!v.isString() || !kernelFromName(v.str, out.kind)) {
                err = "unknown kernel/app '" +
                      (v.isString() ? v.str : std::string("?")) + "'";
                return false;
            }
            haveKernel = true;
        } else if (key == "variant") {
            if (!v.isString() || !variantFromName(v.str, out.variant)) {
                err = "unknown variant '" +
                      (v.isString() ? v.str : std::string("?")) + "'";
                return false;
            }
        } else if (key == "machine") {
            if (!v.isString() || !machineFromName(v.str, out.machine)) {
                err = "unknown machine '" +
                      (v.isString() ? v.str : std::string("?")) + "'";
                return false;
            }
        } else if (key == "memsys") {
            if (!v.isString() || !memsysFromName(v.str, out.machine)) {
                err = "unknown memsys '" +
                      (v.isString() ? v.str : std::string("?")) + "'";
                return false;
            }
        } else if (key == "seed") {
            if (!v.isNumber() || v.number < 0) {
                err = "'seed' must be a non-negative number";
                return false;
            }
            out.seed = uint64_t(v.number);
        } else if (key == "n") {
            if (!v.isNumber() || v.number < 2 || v.number > 4096) {
                err = "'n' must be a number in [2, 4096]";
                return false;
            }
            out.n = unsigned(v.number);
        } else {
            err = "unknown job field '" + key + "'";
            return false;
        }
    }
    if (!haveKernel) {
        err = "job is missing 'kernel' (or 'app')";
        return false;
    }
    return true;
}

JobResult
errorResult(uint64_t id, std::string message)
{
    JobResult r;
    r.id = id;
    r.ok = false;
    r.error = std::move(message);
    return r;
}

std::string
resultLine(const JobResult &r)
{
    if (!r.ok) {
        return strprintf("{\"id\": %" PRIu64 ", \"ok\": false, "
                         "\"error\": %s}\n",
                         r.id, jsonEscape(r.error).c_str());
    }
    return strprintf(
        "{\"id\": %" PRIu64 ", \"ok\": true, \"score\": %" PRId64
        ", \"instructions\": %" PRIu64 ", \"cycles\": %" PRIu64
        ", \"ipc\": %.2f, \"lat_us\": %.1f, \"service_us\": %.1f, "
        "\"shard\": %u}\n",
        r.id, r.score, r.counters.instructions, r.counters.cycles,
        r.counters.ipc(), r.latencyUs, r.serviceUs, r.shard);
}

// --------------------------------------------------------------------
// Input synthesis.
// --------------------------------------------------------------------

/** Everything one (kernel, seed, n) invocation points into. */
struct JobInputs::InputSet
{
    // Alignment kernels (ForwardPass / Dropgsw / SemiGAlign).
    bio::Sequence a;
    bio::Sequence b;
    // P7Viterbi.
    std::vector<bio::Sequence> fam;
    bio::Plan7Model model;
    // Sankoff.
    bio::GuideTree tree;
    std::vector<uint8_t> states;
    bio::ParsimonyCost cost = bio::ParsimonyCost::transitionTransversion();
};

JobInputs::JobInputs() = default;
JobInputs::~JobInputs() = default;

size_t
JobInputs::cachedSets() const
{
    return cache_.size();
}

int64_t
JobInputs::run(kernels::KernelMachine &km, const JobSpec &spec)
{
    return kernels::KernelMachine::checked(tryRun(km, spec));
}

kernels::Invocation
JobInputs::tryRun(kernels::KernelMachine &km, const JobSpec &spec)
{
    BP5_ASSERT(km.kind() == spec.kind,
               "machine built for kernel %d, job wants %d",
               int(km.kind()), int(spec.kind));

    auto key = std::make_tuple(int(spec.kind), spec.seed, spec.n);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
        auto set = std::make_unique<InputSet>();
        switch (spec.kind) {
        case kernels::KernelKind::ForwardPass:
        case kernels::KernelKind::Dropgsw: {
            bio::SequenceGenerator g(spec.seed);
            set->a = g.random(spec.n, "a");
            set->b = g.mutate(set->a, bio::MutationModel{0.3, 0.05, 0.05},
                              "b");
            break;
        }
        case kernels::KernelKind::SemiGAlign: {
            bio::SequenceGenerator g(spec.seed);
            set->a = g.random(spec.n, "query");
            set->b = g.mutate(set->a,
                              bio::MutationModel{0.25, 0.04, 0.04},
                              "subject");
            break;
        }
        case kernels::KernelKind::P7Viterbi: {
            bio::SequenceGenerator g(spec.seed);
            set->fam =
                g.family(5, spec.n, bio::MutationModel{0.15, 0.02, 0.02});
            set->model = bio::Plan7Model::fromFamily(set->fam);
            break;
        }
        case kernels::KernelKind::Sankoff: {
            const size_t leaves = 8;
            bio::SequenceGenerator g(spec.seed, bio::Alphabet::Dna);
            set->fam = g.family(leaves, spec.n,
                                bio::MutationModel{0.2, 0.0, 0.0});
            auto dist = bio::pairwiseDistances(
                set->fam, bio::SubstitutionMatrix::dna(),
                bio::GapPenalty{10, 1});
            set->tree = bio::upgmaTree(dist);
            set->states.resize(leaves);
            size_t col = size_t(spec.seed) % spec.n;
            for (size_t i = 0; i < leaves; ++i)
                set->states[i] = set->fam[i][col];
            break;
        }
        default:
            panic("bad kernel kind %d", int(spec.kind));
        }
        it = cache_.emplace(key, std::move(set)).first;
    }

    InputSet &in = *it->second;
    switch (spec.kind) {
    case kernels::KernelKind::ForwardPass:
    case kernels::KernelKind::Dropgsw: {
        kernels::AlignProblem p{&in.a, &in.b,
                                &bio::SubstitutionMatrix::blosum62(),
                                bio::GapPenalty{10, 1}};
        return km.tryRun(p);
    }
    case kernels::KernelKind::SemiGAlign: {
        kernels::ExtendProblem p{&in.a, 0, &in.b, 0,
                                 &bio::SubstitutionMatrix::blosum62(),
                                 bio::GapPenalty{10, 1}, 30};
        return km.tryRun(p);
    }
    case kernels::KernelKind::P7Viterbi: {
        kernels::ViterbiProblem p{&in.model,
                                  &in.fam[spec.seed % in.fam.size()]};
        return km.tryRun(p);
    }
    case kernels::KernelKind::Sankoff: {
        kernels::SankoffProblem p{&in.tree, &in.states, &in.cost};
        return km.tryRun(p);
    }
    default:
        panic("bad kernel kind %d", int(spec.kind));
    }
}

} // namespace bp5::serve
