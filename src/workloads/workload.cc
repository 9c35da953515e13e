#include "workloads/workload.h"

#include <algorithm>

#include "bio/fasta.h"
#include "bio/generator.h"
#include "support/logging.h"

namespace bp5::workloads {

const char *
appName(App app)
{
    switch (app) {
      case App::Blast: return "Blast";
      case App::Clustalw: return "Clustalw";
      case App::Fasta: return "Fasta";
      case App::Hmmer: return "Hmmer";
      default: return "?";
    }
}

kernels::KernelKind
appKernel(App app)
{
    switch (app) {
      case App::Blast: return kernels::KernelKind::SemiGAlign;
      case App::Clustalw: return kernels::KernelKind::ForwardPass;
      case App::Fasta: return kernels::KernelKind::Dropgsw;
      case App::Hmmer: return kernels::KernelKind::P7Viterbi;
      default: panic("bad app");
    }
}

InputClass
inputClassFromString(const std::string &s)
{
    if (s == "A" || s == "a")
        return InputClass::A;
    if (s == "B" || s == "b")
        return InputClass::B;
    if (s == "C" || s == "c")
        return InputClass::C;
    fatal("unknown input class '%s' (expected A, B or C)", s.c_str());
}

namespace {

/** Per-class scale factors. */
struct Scale
{
    size_t clustalN, clustalLen;
    size_t fastaQuery, fastaDb;
    size_t hmmFamLen, hmmDb;
    size_t blastQuery, blastDb;
};

Scale
scaleFor(InputClass k)
{
    switch (k) {
      case InputClass::A:
        return {6, 50, 80, 6, 40, 8, 80, 8};
      // Clustalw needs enough sequences that the O(N^2) pairwise
      // stage dominates the N-1 profile merges as in the paper's
      // Fig 1 (68.9% forward_pass); below ~20 sequences the two
      // stages tie and the profile ordering becomes input noise.
      case InputClass::B:
        return {28, 100, 150, 16, 80, 16, 160, 20};
      case InputClass::C:
      default:
        return {40, 160, 300, 32, 140, 32, 300, 40};
    }
}

/**
 * Find a shared-word seed between query and subject (the position a
 * two-hit would fire at): the first exact 3-mer match away from the
 * sequence edges.  Returns false if none exists.
 */
bool
findSeed(const bio::Sequence &q, const bio::Sequence &s, size_t &qFrom,
         size_t &sFrom)
{
    constexpr unsigned w = 3;
    if (q.size() < w + 2 || s.size() < w + 2)
        return false;
    for (size_t sp = 1; sp + w + 1 < s.size(); ++sp) {
        for (size_t qp = 1; qp + w + 1 < q.size(); ++qp) {
            bool match = true;
            for (unsigned k = 0; k < w; ++k) {
                if (q[qp + k] != s[sp + k]) {
                    match = false;
                    break;
                }
            }
            if (match) {
                qFrom = qp;
                sFrom = sp;
                return true;
            }
        }
    }
    return false;
}

} // namespace

/** Generated inputs and derived models for one workload. */
struct Workload::Data
{
    bio::GapPenalty gap{10, 1};
    const bio::SubstitutionMatrix &matrix =
        bio::SubstitutionMatrix::blosum62();

    // Clustalw: a divergent protein family.
    std::vector<bio::Sequence> family;

    // Fasta / Blast: a query against a database with planted homologs.
    bio::Sequence query{"query", bio::Alphabet::Protein,
                        std::vector<uint8_t>{0}};
    std::vector<bio::Sequence> db;

    // Hmmer: a Plan7 model and a mixed search database.
    bio::Plan7Model model;
    std::vector<bio::Sequence> hmmDb;

    // Blast: extension seeds harvested from shared words.
    struct Seed
    {
        size_t qFrom, dbIdx, sFrom;
    };
    std::vector<Seed> seeds;
};

Workload::Workload(const WorkloadConfig &config)
    : config_(config), data_(std::make_unique<Data>())
{
    Scale sc = scaleFor(config.klass);
    bio::SequenceGenerator gen(config.seed * 1000003 +
                               static_cast<uint64_t>(config.app));
    Data &d = *data_;

    switch (config.app) {
      case App::Clustalw: {
        d.family = gen.family(sc.clustalN, sc.clustalLen,
                              bio::MutationModel{0.25, 0.03, 0.03},
                              "clu");
        break;
      }
      case App::Fasta: {
        d.query = gen.random(sc.fastaQuery, "query");
        d.db = gen.database(d.query, sc.fastaDb, sc.fastaQuery / 2,
                            sc.fastaQuery * 3 / 2, sc.fastaDb / 4,
                            bio::MutationModel{0.2, 0.03, 0.03});
        break;
      }
      case App::Hmmer: {
        d.family = gen.family(6, sc.hmmFamLen,
                              bio::MutationModel{0.15, 0.02, 0.02},
                              "hmm");
        d.model = bio::Plan7Model::fromFamily(d.family);
        for (size_t i = 0; i < sc.hmmDb; ++i) {
            if (i % 2 == 0) {
                d.hmmDb.push_back(gen.mutate(
                    d.family[i % d.family.size()],
                    bio::MutationModel{0.2, 0.03, 0.03},
                    "dbh" + std::to_string(i)));
            } else {
                d.hmmDb.push_back(
                    gen.random(sc.hmmFamLen, "dbr" + std::to_string(i)));
            }
        }
        break;
      }
      case App::Blast: {
        d.query = gen.random(sc.blastQuery, "query");
        d.db = gen.database(d.query, sc.blastDb, sc.blastQuery / 2,
                            sc.blastQuery * 3 / 2, sc.blastDb / 3,
                            bio::MutationModel{0.15, 0.02, 0.02});
        for (size_t k = 0; k < d.db.size(); ++k) {
            size_t qf = 0, sf = 0;
            if (findSeed(d.query, d.db[k], qf, sf))
                d.seeds.push_back({qf, k, sf});
        }
        BP5_ASSERT(!d.seeds.empty(), "no Blast seeds found");
        break;
      }
      default:
        panic("bad app");
    }
}

Workload::~Workload() = default;

std::vector<FunctionTime>
Workload::profileNative() const
{
    Profiler prof;
    const Data &d = *data_;

    // Repeat the pipeline until enough wall time accumulates that the
    // breakdown is stable (gprof-style sampling needs samples).
    double accumulated = 0.0;
    for (int rep = 0; rep < 64 && accumulated < 0.08; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        profileOnce(prof, d);
        accumulated += std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    }
    return prof.breakdown();
}

void
Workload::profileOnce(Profiler &prof, const Data &d) const
{
    switch (config_.app) {
      case App::Clustalw: {
        bio::DistanceMatrix dist(0);
        {
            Profiler::Scope s(prof, "forward_pass (pairalign)");
            dist = bio::pairwiseDistances(d.family, d.matrix, d.gap);
        }
        bio::GuideTree tree;
        {
            Profiler::Scope s(prof, "guide tree (upgma)");
            tree = bio::upgmaTree(dist);
        }
        {
            Profiler::Scope s(prof, "progressive (palign)");
            auto build = [&](auto &&self, int node) -> bio::Profile {
                const auto &nd = tree.nodes[size_t(node)];
                if (nd.leaf >= 0)
                    return bio::Profile(d.family[size_t(nd.leaf)],
                                        size_t(nd.leaf));
                bio::Profile l = self(self, nd.left);
                bio::Profile r = self(self, nd.right);
                return bio::Profile::align(l, r, d.matrix, d.gap);
            };
            (void)build(build, tree.root);
        }
        {
            Profiler::Scope s(prof, "input/output");
            std::string txt = bio::formatFasta(d.family);
            (void)bio::parseFasta(txt, bio::Alphabet::Protein);
        }
        break;
      }
      case App::Fasta: {
        std::vector<bio::Alignment> results;
        {
            Profiler::Scope s(prof, "dropgsw (ssearch)");
            for (const bio::Sequence &subj : d.db)
                results.push_back(
                    bio::swAlign(d.query, subj, d.matrix, d.gap));
        }
        {
            Profiler::Scope s(prof, "display/sort");
            std::sort(results.begin(), results.end(),
                      [](const bio::Alignment &a,
                         const bio::Alignment &b) {
                          return a.score > b.score;
                      });
            std::string out;
            for (const auto &r : results)
                out += r.alignedA + "\n" + r.alignedB + "\n";
        }
        {
            Profiler::Scope s(prof, "input/output");
            std::string txt = bio::formatFasta(d.db);
            (void)bio::parseFasta(txt, bio::Alphabet::Protein);
        }
        break;
      }
      case App::Hmmer: {
        // hmmpfam only: model construction is a separate program
        // (hmmbuild) and is not part of the paper's profiled run.
        std::vector<bio::HmmHit> hits;
        {
            Profiler::Scope s(prof, "P7Viterbi (hmmpfam)");
            hits = bio::hmmSearch(d.model, d.hmmDb,
                                  bio::Plan7Model::kNegInf + 1);
        }
        {
            Profiler::Scope s(prof, "PostprocessSignificantHits");
            std::string report;
            for (const auto &h : hits) {
                report += d.hmmDb[h.seqIndex].name() + " " +
                          std::to_string(h.score) + "\n";
            }
        }
        {
            Profiler::Scope s(prof, "input/output");
            std::string txt = bio::formatFasta(d.hmmDb);
            (void)bio::parseFasta(txt, bio::Alphabet::Protein);
        }
        break;
      }
      case App::Blast: {
        bio::BlastParams params;
        params.gap = d.gap;
        std::unique_ptr<bio::BlastSearch> search;
        {
            Profiler::Scope s(prof, "BlastWordIndex (setup)");
            search = std::make_unique<bio::BlastSearch>(d.query,
                                                        d.matrix, params);
        }
        {
            // Scan + two-hit + ungapped extension, with the gapped
            // stage disabled so its cost can be charged separately.
            bio::BlastParams scanOnly = params;
            scanOnly.ungappedTrigger = 1 << 20;
            bio::BlastSearch scanner(d.query, d.matrix, scanOnly);
            Profiler::Scope s(prof, "BlastScan (two-hit + ungapped)");
            size_t residues = 0;
            for (const auto &subj : d.db)
                residues += subj.size();
            for (size_t k = 0; k < d.db.size(); ++k)
                (void)scanner.searchSubject(d.db[k], k, residues);
        }
        {
            Profiler::Scope s(prof, "SEMI_G_ALIGN (gapped extension)");
            for (const auto &seed : d.seeds) {
                (void)bio::semiGappedExtend(d.query, seed.qFrom,
                                            d.db[seed.dbIdx], seed.sFrom,
                                            true, d.matrix, params);
                (void)bio::semiGappedExtend(d.query, seed.qFrom,
                                            d.db[seed.dbIdx], seed.sFrom,
                                            false, d.matrix, params);
            }
        }
        {
            Profiler::Scope s(prof, "input/output");
            std::string txt = bio::formatFasta(d.db);
            (void)bio::parseFasta(txt, bio::Alphabet::Protein);
        }
        break;
      }
      default:
        panic("bad app");
    }
}

SimResult
Workload::simulate(mpc::Variant variant, const sim::MachineConfig &mc,
                   bool branch_profile) const
{
    kernels::KernelMachine km(appKernel(config_.app), variant, mc);
    if (branch_profile)
        km.setBranchProfiling(true);
    return simulate(km);
}

SimResult
Workload::simulate(kernels::KernelMachine &km) const
{
    BP5_ASSERT(km.kind() == appKernel(config_.app),
               "machine built for the wrong kernel");
    const Data &d = *data_;

    SimResult res;
    res.compiled = km.compiled();
    uint64_t budget = config_.simInstructionBudget;

    auto exhausted = [&]() { return km.totals().instructions >= budget; };

    switch (config_.app) {
      case App::Clustalw: {
        // Step 1 of Clustalw: all-against-all pairwise alignments.
        bool done = false;
        while (!done) {
            for (size_t i = 0; i < d.family.size() && !done; ++i) {
                for (size_t j = i + 1; j < d.family.size() && !done;
                     ++j) {
                    kernels::AlignProblem p{&d.family[i], &d.family[j],
                                            &d.matrix, d.gap};
                    km.run(p);
                    ++res.invocations;
                    done = exhausted();
                }
            }
        }
        break;
      }
      case App::Fasta: {
        bool done = false;
        while (!done) {
            for (size_t k = 0; k < d.db.size() && !done; ++k) {
                kernels::AlignProblem p{&d.query, &d.db[k], &d.matrix,
                                        d.gap};
                km.run(p);
                ++res.invocations;
                done = exhausted();
            }
        }
        break;
      }
      case App::Hmmer: {
        bool done = false;
        while (!done) {
            for (size_t k = 0; k < d.hmmDb.size() && !done; ++k) {
                kernels::ViterbiProblem p{&d.model, &d.hmmDb[k]};
                km.run(p);
                ++res.invocations;
                done = exhausted();
            }
        }
        break;
      }
      case App::Blast: {
        bool done = false;
        while (!done) {
            for (size_t k = 0; k < d.seeds.size() && !done; ++k) {
                const auto &seed = d.seeds[k];
                kernels::ExtendProblem p{&d.query,        seed.qFrom,
                                         &d.db[seed.dbIdx], seed.sFrom,
                                         &d.matrix,       d.gap,
                                         30};
                km.run(p);
                ++res.invocations;
                done = exhausted();
            }
        }
        break;
      }
      default:
        panic("bad app");
    }

    res.counters = km.totals();
    res.branchProfile = km.branchProfile();
    return res;
}

} // namespace bp5::workloads
