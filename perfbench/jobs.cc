#include "jobs.h"

#include <cinttypes>

#include "bio/align.h"
#include "bio/blast.h"
#include "bio/clustal.h"
#include "bio/generator.h"
#include "bio/hmm.h"
#include "bio/parsimony.h"
#include "checks.h"
#include "support/logging.h"

namespace perfbench {

using bp5::kernels::KernelKind;

namespace {

const char *const kServeVariants[] = {"Original", "comp. max"};
const char *const kServeMachines[] = {"baseline", "enhanced"};

} // namespace

std::string
requestLine(uint64_t id, const std::string &kernel, const std::string &variant,
            const std::string &machine, uint64_t jobSeed, unsigned n)
{
    return bp5::strprintf("{\"id\": %" PRIu64 ", \"kernel\": \"%s\", "
                          "\"variant\": \"%s\", \"machine\": \"%s\", "
                          "\"memsys\": \"classic\", \"seed\": %" PRIu64
                          ", \"n\": %u}",
                          id, kernel.c_str(), variant.c_str(),
                          machine.c_str(), jobSeed, n);
}

std::vector<std::string>
serveRequestLines(uint64_t seed)
{
    std::vector<std::string> lines;
    uint64_t id = 0;
    for (int k = 0; k < int(KernelKind::NUM_KERNELS); ++k) {
        for (const char *variant : kServeVariants) {
            for (const char *machine : kServeMachines) {
                for (unsigned s = 0; s < kServeSeeds; ++s) {
                    lines.push_back(requestLine(
                        id++, bp5::kernels::kernelName(KernelKind(k)),
                        variant, machine, seed * kServeSeeds + s + 1,
                        kServeN));
                }
            }
        }
    }
    return lines;
}

int64_t
JobReference::score(const bp5::serve::JobSpec &spec)
{
    namespace bio = bp5::bio;
    auto key = std::make_tuple(int(spec.kind), spec.seed, spec.n);
    auto it = scores_.find(key);
    if (it != scores_.end())
        return it->second;

    const bio::SubstitutionMatrix &blosum = bio::SubstitutionMatrix::blosum62();
    const bio::GapPenalty gap{10, 1};
    int64_t s = 0;
    switch (spec.kind) {
    case KernelKind::ForwardPass:
    case KernelKind::Dropgsw: {
        bio::SequenceGenerator g(spec.seed);
        bio::Sequence a = g.random(spec.n, "a");
        bio::Sequence b = g.mutate(a, bio::MutationModel{0.3, 0.05, 0.05}, "b");
        // forward_pass is held to bio::nwScore, not to gotohGlobal:
        // nwScore lets a gap turn at the edge of the matrix without a
        // new open, which changes the score of about 1 input in 270.
        s = spec.kind == KernelKind::ForwardPass ? bio::nwScore(a, b, blosum, gap)
                                                 : gotohLocal(a, b, blosum, gap);
        break;
    }
    case KernelKind::SemiGAlign: {
        bio::SequenceGenerator g(spec.seed);
        bio::Sequence a = g.random(spec.n, "query");
        bio::Sequence b =
            g.mutate(a, bio::MutationModel{0.25, 0.04, 0.04}, "subject");
        bio::BlastParams p;
        p.gap = gap;
        p.xDropGapped = 30;
        s = bio::semiGappedExtend(a, 0, b, 0, true, blosum, p);
        break;
    }
    case KernelKind::P7Viterbi: {
        bio::SequenceGenerator g(spec.seed);
        std::vector<bio::Sequence> fam =
            g.family(5, spec.n, bio::MutationModel{0.15, 0.02, 0.02});
        bio::Plan7Model model = bio::Plan7Model::fromFamily(fam);
        s = model.viterbi(fam[spec.seed % fam.size()]);
        break;
    }
    case KernelKind::Sankoff: {
        const size_t leaves = 8;
        bio::SequenceGenerator g(spec.seed, bio::Alphabet::Dna);
        std::vector<bio::Sequence> fam =
            g.family(leaves, spec.n, bio::MutationModel{0.2, 0.0, 0.0});
        bio::GuideTree tree = bio::upgmaTree(bio::pairwiseDistances(
            fam, bio::SubstitutionMatrix::dna(), gap));
        std::vector<uint8_t> states(leaves);
        size_t col = size_t(spec.seed) % spec.n;
        for (size_t i = 0; i < leaves; ++i)
            states[i] = fam[i][col];
        s = bio::sankoffSite(tree, states,
                             bio::ParsimonyCost::transitionTransversion());
        break;
    }
    default:
        bp5::panic("bad kernel kind %d", int(spec.kind));
    }
    scores_.emplace(key, s);
    return s;
}

} // namespace perfbench
