/**
 * @file
 * Dominators and natural loops over an abstract control-flow graph,
 * shared by the IR-level loop forest (mpc/loops.h) and the binary-CFG
 * loop forest (analysis/loops.h) (DESIGN.md §4.9).  Nodes are the ints
 * 0..n-1; the edges come from successor and predecessor callables that
 * map a node to an iterable of node ids, so each level keeps its own
 * block type and only the level-specific counted-loop recognition
 * lives beside it.
 *
 * Header-only so both bp5_analysis and bp5_mpc can use it without a
 * library cycle.
 */

#ifndef BIOPERF5_ANALYSIS_GRAPH_H
#define BIOPERF5_ANALYSIS_GRAPH_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace bp5::analysis {

/** Reverse postorder of the nodes reachable from @p entry. */
template <typename Succs>
std::vector<int>
reversePostorder(size_t n, int entry, const Succs &succs)
{
    std::vector<int> order;
    std::vector<uint8_t> seen(n, 0);
    // Iterative DFS with an explicit stack of (node, next-succ index).
    std::vector<std::pair<int, size_t>> stack{{entry, 0}};
    seen[static_cast<size_t>(entry)] = 1;
    while (!stack.empty()) {
        auto [b, next] = stack.back();
        const auto &ss = succs(b);
        if (next < ss.size()) {
            int s = ss[next];
            ++stack.back().second;
            if (!seen[static_cast<size_t>(s)]) {
                seen[static_cast<size_t>(s)] = 1;
                stack.emplace_back(s, 0);
            }
        } else {
            order.push_back(b);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());
    return order;
}

/**
 * Immediate dominators (Cooper, Harvey and Kennedy's iterative
 * algorithm): idom[entry] == entry, -1 for nodes unreachable from
 * @p entry.
 */
template <typename Succs, typename Preds>
std::vector<int>
immediateDominators(size_t n, int entry, const Succs &succs,
                    const Preds &preds)
{
    std::vector<int> rpo = reversePostorder(n, entry, succs);
    std::vector<int> rpoIndex(n, -1);
    for (size_t i = 0; i < rpo.size(); ++i)
        rpoIndex[static_cast<size_t>(rpo[i])] = static_cast<int>(i);

    std::vector<int> idom(n, -1);
    idom[static_cast<size_t>(entry)] = entry;
    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpoIndex[static_cast<size_t>(a)] >
                   rpoIndex[static_cast<size_t>(b)])
                a = idom[static_cast<size_t>(a)];
            while (rpoIndex[static_cast<size_t>(b)] >
                   rpoIndex[static_cast<size_t>(a)])
                b = idom[static_cast<size_t>(b)];
        }
        return a;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : rpo) {
            if (b == entry)
                continue;
            int newIdom = -1;
            for (int p : preds(b)) {
                if (idom[static_cast<size_t>(p)] == -1)
                    continue; // unreachable or not yet processed
                newIdom = newIdom == -1 ? p : intersect(p, newIdom);
            }
            if (newIdom != -1 && idom[static_cast<size_t>(b)] != newIdom) {
                idom[static_cast<size_t>(b)] = newIdom;
                changed = true;
            }
        }
    }
    return idom;
}

/** True if @p a dominates @p b under the tree @p idom. */
inline bool
dominates(const std::vector<int> &idom, int a, int b)
{
    // Walk b's dominator chain up to the entry (idom[entry] == entry).
    while (b != -1) {
        if (b == a)
            return true;
        int up = idom[static_cast<size_t>(b)];
        if (up == b)
            return false;
        b = up;
    }
    return false;
}

/** One natural loop: all back edges into one header merged. */
struct NaturalLoop
{
    int header = -1;
    std::vector<int> latches; ///< sources of the back edges, edge order
    std::vector<int> blocks;  ///< loop body including header, sorted

    bool
    contains(int blk) const
    {
        return std::binary_search(blocks.begin(), blocks.end(), blk);
    }
};

/**
 * Every natural loop of the graph, sorted outermost first: more
 * blocks first, ties by header.  A back edge is an edge b -> h from a
 * reachable b where h dominates b, so an irreducible cycle (no
 * dominating entry) yields no loop.  The body of h is h plus every
 * node that reaches one of its latches without passing through h.
 */
template <typename Succs, typename Preds>
std::vector<NaturalLoop>
naturalLoops(size_t n, int entry, const Succs &succs, const Preds &preds)
{
    std::vector<int> idom = immediateDominators(n, entry, succs, preds);
    std::vector<std::vector<int>> latchesOf(n);
    for (size_t b = 0; b < n; ++b) {
        if (idom[b] == -1)
            continue; // unreachable: never a latch
        for (int s : succs(static_cast<int>(b))) {
            if (dominates(idom, s, static_cast<int>(b)))
                latchesOf[static_cast<size_t>(s)].push_back(
                    static_cast<int>(b));
        }
    }

    std::vector<NaturalLoop> loops;
    for (size_t h = 0; h < n; ++h) {
        if (latchesOf[h].empty())
            continue;
        NaturalLoop loop;
        loop.header = static_cast<int>(h);
        loop.latches = std::move(latchesOf[h]);
        std::vector<uint8_t> in(n, 0);
        in[h] = 1;
        std::vector<int> work;
        for (int l : loop.latches) {
            if (!in[static_cast<size_t>(l)]) {
                in[static_cast<size_t>(l)] = 1;
                work.push_back(l);
            }
        }
        while (!work.empty()) {
            int b = work.back();
            work.pop_back();
            for (int p : preds(b)) {
                if (!in[static_cast<size_t>(p)]) {
                    in[static_cast<size_t>(p)] = 1;
                    work.push_back(p);
                }
            }
        }
        for (size_t b = 0; b < n; ++b) {
            if (in[b])
                loop.blocks.push_back(static_cast<int>(b));
        }
        loops.push_back(std::move(loop));
    }
    std::stable_sort(loops.begin(), loops.end(),
                     [](const NaturalLoop &a, const NaturalLoop &b) {
                         return a.blocks.size() > b.blocks.size();
                     });
    return loops;
}

} // namespace bp5::analysis

#endif // BIOPERF5_ANALYSIS_GRAPH_H
