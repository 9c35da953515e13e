/**
 * @file
 * Tests of the shared dominator / natural-loop core (analysis/graph.h)
 * on hand-built graphs: the corner cases the IR and binary loop
 * forests inherit from it.
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/graph.h"

namespace bp5::analysis {
namespace {

/** A graph given by successor lists; predecessors are derived. */
struct Graph
{
    std::vector<std::vector<int>> succs;
    std::vector<std::vector<int>> preds;

    explicit Graph(std::vector<std::vector<int>> s)
        : succs(std::move(s)), preds(succs.size())
    {
        for (size_t b = 0; b < succs.size(); ++b) {
            for (int t : succs[b])
                preds[static_cast<size_t>(t)].push_back(static_cast<int>(b));
        }
    }

    auto succOf() const
    {
        return [this](int b) -> const std::vector<int> & {
            return succs[static_cast<size_t>(b)];
        };
    }
    auto predOf() const
    {
        return [this](int b) -> const std::vector<int> & {
            return preds[static_cast<size_t>(b)];
        };
    }

    std::vector<int>
    idom(int entry = 0) const
    {
        return immediateDominators(succs.size(), entry, succOf(), predOf());
    }
    std::vector<NaturalLoop>
    loops(int entry = 0) const
    {
        return naturalLoops(succs.size(), entry, succOf(), predOf());
    }
};

using Ids = std::vector<int>;

TEST(DominatorCore, IrreducibleCycleHasNoNaturalLoop)
{
    // 1 <-> 2 entered from 0 at both nodes: neither dominates the
    // other, so the cycle has no back edge.
    Graph g({{1, 2}, {2, 3}, {1}, {}});
    EXPECT_EQ(g.idom(), (Ids{0, 0, 0, 1}));
    EXPECT_TRUE(g.loops().empty());
}

TEST(DominatorCore, UnreachableBlockHasNoIdomAndIsNeverALatch)
{
    // 3 is unreachable and jumps to 1, which dominates every reachable
    // node; the edge 3 -> 1 still is no back edge.
    Graph g({{1}, {2}, {1, 4}, {1}, {}});
    std::vector<int> idom = g.idom();
    EXPECT_EQ(idom, (Ids{0, 0, 1, -1, 2}));
    EXPECT_FALSE(dominates(idom, 0, 3));
    EXPECT_FALSE(dominates(idom, 1, 3));
    std::vector<NaturalLoop> loops = g.loops();
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].header, 1);
    EXPECT_EQ(loops[0].latches, (Ids{2}));
    EXPECT_EQ(loops[0].blocks, (Ids{1, 2}));
    EXPECT_EQ(reversePostorder(g.succs.size(), 0, g.succOf()),
              (Ids{0, 1, 2, 4}));
}

TEST(DominatorCore, SelfLoopLatchIsHeader)
{
    Graph g({{1}, {1, 2}, {}});
    std::vector<NaturalLoop> loops = g.loops();
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].header, 1);
    EXPECT_EQ(loops[0].latches, (Ids{1}));
    EXPECT_EQ(loops[0].blocks, (Ids{1}));
    EXPECT_TRUE(loops[0].contains(1));
    EXPECT_FALSE(loops[0].contains(2));
}

TEST(DominatorCore, NestedLoopsOnOneDominatorChain)
{
    // 0 -> 1 -> 2 -> 3 -> 4 -> 5 with back edges 3 -> 2 (inner) and
    // 4 -> 1 (outer): the idom tree is the chain itself and the outer
    // loop, having more blocks, comes first.
    Graph g({{1}, {2}, {3}, {2, 4}, {1, 5}, {}});
    std::vector<int> idom = g.idom();
    EXPECT_EQ(idom, (Ids{0, 0, 1, 2, 3, 4}));
    EXPECT_TRUE(dominates(idom, 1, 4));
    EXPECT_FALSE(dominates(idom, 4, 1));
    std::vector<NaturalLoop> loops = g.loops();
    ASSERT_EQ(loops.size(), 2u);
    EXPECT_EQ(loops[0].header, 1);
    EXPECT_EQ(loops[0].latches, (Ids{4}));
    EXPECT_EQ(loops[0].blocks, (Ids{1, 2, 3, 4}));
    EXPECT_EQ(loops[1].header, 2);
    EXPECT_EQ(loops[1].latches, (Ids{3}));
    EXPECT_EQ(loops[1].blocks, (Ids{2, 3}));
}

TEST(DominatorCore, EntryBlockCanBeALoopHeader)
{
    // Back edges from 1 and 2 both target the entry: one loop, two
    // latches in edge order.
    Graph g({{1, 2}, {0, 3}, {0}, {}});
    EXPECT_EQ(g.idom(), (Ids{0, 0, 0, 1}));
    std::vector<NaturalLoop> loops = g.loops();
    ASSERT_EQ(loops.size(), 1u);
    EXPECT_EQ(loops[0].header, 0);
    EXPECT_EQ(loops[0].latches, (Ids{1, 2}));
    EXPECT_EQ(loops[0].blocks, (Ids{0, 1, 2}));
}

} // namespace
} // namespace bp5::analysis
