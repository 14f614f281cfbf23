#include "compiler/spatial.hh"

#include <algorithm>

#include "compiler/blocks.hh"
#include "dag/binarize.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace dpu {

namespace {

/**
 * One greedy systolic embedding attempt. Cells are filled in
 * wavefront (anti-diagonal) order; a cell may hold node x iff each of
 * x's two operands is either (a) the node in the required neighbour
 * cell, or (b) streamable from the array edge when the cell is on the
 * top/left border. Dies at the first cell with no candidate, which is
 * exactly how rigid nearest-neighbour dataflow starves on irregular
 * graphs.
 */
uint32_t
systolicAttempt(const Dag &dag, const SuccessorIndex &succ, uint32_t k,
                Rng &rng)
{
    const NodeId none = invalidNode;
    std::vector<NodeId> cell(k * k, none);
    std::vector<bool> used(dag.numNodes(), false);
    auto at = [&](uint32_t i, uint32_t j) -> NodeId & {
        return cell[i * k + j];
    };

    uint32_t placed = 0;
    for (uint32_t diag = 0; diag < 2 * k - 1; ++diag) {
        for (uint32_t i = 0; i < k; ++i) {
            if (diag < i || diag - i >= k)
                continue;
            uint32_t j = diag - i;
            NodeId north = i ? at(i - 1, j) : none;
            NodeId west = j ? at(i, j - 1) : none;
            // Interior cells with a dead neighbour can never fire.
            if ((i && north == none) || (j && west == none))
                continue;

            // Candidate nodes: successors of the required neighbours,
            // or (for border cells) any unused node fed by streams.
            std::vector<NodeId> candidates;
            auto try_node = [&](NodeId v) {
                if (used[v] || dag.node(v).isInput())
                    return;
                std::span<const NodeId> ops = dag.node(v).operands;
                if (ops.size() != 2)
                    return;
                auto feeds = [&](NodeId operand, NodeId neighbour,
                                 bool border) {
                    if (neighbour != none)
                        return operand == neighbour;
                    // Border side: operand streams in from the edge
                    // as long as it is not produced inside the array
                    // this pass (simplification: any non-used value).
                    return border && !used[operand];
                };
                bool ok =
                    (feeds(ops[0], north, i == 0) &&
                     feeds(ops[1], west, j == 0)) ||
                    (feeds(ops[1], north, i == 0) &&
                     feeds(ops[0], west, j == 0));
                if (ok)
                    candidates.push_back(v);
            };
            if (north != none)
                for (NodeId s : succ.of(north))
                    try_node(s);
            else if (west != none)
                for (NodeId s : succ.of(west))
                    try_node(s);
            else {
                // Corner: sample a few random nodes fed by streams.
                for (int t = 0; t < 16; ++t)
                    try_node(static_cast<NodeId>(
                        rng.below(dag.numNodes())));
            }
            if (candidates.empty())
                continue;
            NodeId pick = rng.pick(candidates);
            at(i, j) = pick;
            used[pick] = true;
            ++placed;
        }
    }
    return placed;
}

} // namespace

double
systolicPeakUtilization(const Dag &input, uint32_t inputs,
                        uint32_t restarts, uint64_t seed)
{
    dpu_assert(inputs >= 2 && inputs % 2 == 0, "inputs must be even");
    BinarizeResult bin = binarize(input);
    const Dag &dag = bin.dag;
    uint32_t k = inputs / 2;
    if (k == 1) {
        // A single PE: trivially fully utilizable.
        return dag.numOperations() > 0 ? 1.0 : 0.0;
    }
    const SuccessorIndex succ(dag);
    Rng rng(seed);
    uint32_t best = 0;
    for (uint32_t r = 0; r < restarts; ++r)
        best = std::max(best, systolicAttempt(dag, succ, k, rng));
    return static_cast<double>(best) / (double(k) * k);
}

double
treePeakUtilization(const Dag &input, uint32_t inputs)
{
    dpu_assert(inputs >= 2 && (inputs & (inputs - 1)) == 0,
               "tree inputs must be a power of two");
    BinarizeResult bin = binarize(input);
    ArchConfig cfg;
    cfg.depth = 0;
    for (uint32_t v = inputs; v > 1; v >>= 1)
        ++cfg.depth;
    cfg.banks = inputs; // one tree
    cfg.regsPerBank = 32;
    auto dec = decomposeIntoBlocks(bin.dag, cfg);
    uint32_t pe_count = cfg.numPes();
    uint32_t best = 0;
    for (const Block &b : dec.blocks) {
        uint32_t arith = 0;
        for (PeOp op : b.peOps)
            if (op == PeOp::Add || op == PeOp::Mul)
                ++arith;
        best = std::max(best, arith);
    }
    return static_cast<double>(best) / pe_count;
}

} // namespace dpu
