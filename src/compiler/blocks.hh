/**
 * @file
 * Compilation step 1: block decomposition (paper §IV-A, algorithm 1).
 *
 * The binarized DAG is decomposed into *blocks*, each executable by a
 * single exec instruction. A block consists of tree-shaped subgraphs
 * (a sink node plus all of its not-yet-mapped ancestors) packed into
 * disjoint subtree *slots* of the T PE trees — slot allocation is a
 * buddy system over subtrees (fig. 9(d)'s depth combinations arise
 * naturally from recursive slot splitting).
 *
 * A subgraph is schedulable iff the longest chain of unmapped
 * ancestors ending at its sink has length <= D (fig. 9(c): non-tree
 * cones are handled by node replication when unrolled). Candidate
 * sinks are kept in per-depth buckets ordered by DFS preorder
 * position. Picking a cone ranks, in order:
 *  - objective C, "more nodes is more fit": the deepest depth with a
 *    schedulable candidate;
 *  - latency: among that depth's 32 candidates nearest the anchor, a
 *    cone that reads no value written by the last pipelineStages() - 1
 *    blocks, so the exec need not wait for the pipeline to drain; if
 *    none qualifies, the cone with the fewest blocks left to wait;
 *  - objective D, the paper's DFS-distance fitness: the candidate
 *    nearest the block's anchor.
 * The latency rank is an addition to algorithm 1: without it each
 * block mostly reads the block just before it, and step 3 cannot hide
 * the pipeline behind a dependence chain that long. A probe whose
 * answer is already known skips the cone walk: each candidate keeps
 * the latest block its cone is known to read (a floor that only grows
 * as ancestors map) and the block in which its cone overlapped the
 * block being built.
 *
 * A bucket is a RankSet (a two-level bitset, support/bitvec.hh) over
 * the range's DFS ranks, a node's position when the range's nodes are
 * sorted by DFS position: the nearest candidates on either side of
 * the anchor are a few count-zero instructions away, and inserts and
 * erases touch two words. While a range is decomposed, its blockOf
 * table holds the block of every committed node, which is what the
 * latency rank reads.
 */

#ifndef DPU_COMPILER_BLOCKS_HH
#define DPU_COMPILER_BLOCKS_HH

#include <utility>
#include <vector>

#include "arch/config.hh"
#include "arch/isa.hh"
#include "dag/dag.hh"

namespace dpu {

/** One tree-shaped subgraph mapped to a subtree slot. */
struct Subgraph
{
    NodeId sink = invalidNode;
    std::vector<NodeId> nodes; ///< The cone (sink + unmapped ancestors).
    uint32_t depth = 0;        ///< Levels of the cone (1..D).
    uint32_t tree = 0;         ///< Slot: tree index.
    uint32_t rootLayer = 0;    ///< Slot: layer of the slot root PE.
    uint32_t rootIndex = 0;    ///< Slot: index of the slot root PE.
};

/** One register read of an exec: tree input port <- value. */
struct PortRead
{
    uint32_t port;  ///< Global port id (== the aligned bank id).
    NodeId value;   ///< Value consumed (block input or DAG input).
};

/** A block: everything one exec instruction does. */
struct Block
{
    std::vector<Subgraph> subgraphs;

    /** Per-PE opcode after unrolling (size = numPes). */
    std::vector<PeOp> peOps;

    /** Register reads, at most one per port. */
    std::vector<PortRead> reads;

    /** (node, PE) of every arithmetic placement, in placement order;
     *  a replicated node appears once per replica. */
    std::vector<std::pair<NodeId, uint32_t>> placements;

    /** Distinct values read (block inputs), ascending. */
    std::vector<NodeId> inputs;

    /** Nodes whose value must be written to the register file. */
    std::vector<NodeId> outputs;
};

/**
 * Result of step 1 for one contiguous id range [range.first,
 * range.second). Node ids inside `blocks` are global DAG ids; the
 * per-node tables are range-local, indexed by `v - range.first`, and
 * block ids are local to `blocks`. A whole-DAG decomposition is the
 * one range [0, numNodes), where local and global indexing coincide.
 */
struct RangeDecomposition
{
    std::pair<NodeId, NodeId> range{0, 0};
    std::vector<Block> blocks;

    /** Block index of every node of the range (inputs: noBlock). */
    std::vector<uint32_t> blockOf;

    /** 1 for values that live in the register file (DAG inputs and
     *  block outputs) — the io_nodes of algorithm 2. */
    std::vector<uint8_t> isIo;

    static constexpr uint32_t noBlock = static_cast<uint32_t>(-1);
};

/**
 * Run step 1 on one partition range in isolation.
 *
 * Depends only on (dag, cfg, range, dfs_positions): every node outside
 * the range is treated as already mapped, which matches the state a
 * sequential partition-by-partition pass would see, so ranges can be
 * decomposed concurrently. Ties are broken by DFS order, not a seed.
 *
 * @param succ SuccessorIndex(dag), built once by the caller.
 * @param dfs_positions dfsPreorderPositions(dag, succ), computed once
 *        by the caller and shared read-only across ranges.
 */
RangeDecomposition decomposeRangeIntoBlocks(
    const Dag &dag, const SuccessorIndex &succ, const ArchConfig &cfg,
    std::pair<NodeId, NodeId> range,
    const std::vector<uint32_t> &dfs_positions);

/**
 * Run step 1 on the whole DAG: the one range [0, numNodes).
 *
 * @param dag Binarized DAG (every compute node has 2 operands).
 * @param cfg Architecture configuration (D and T are used).
 */
RangeDecomposition decomposeIntoBlocks(const Dag &dag,
                                       const ArchConfig &cfg);

/**
 * Sanity checks of one range's decomposition; panics on a violation.
 * Every compute node of the range is in exactly one block, the one
 * blockOf names, and no block holds a node outside the range; an
 * in-range operand's block is at or before its consumer's (operands
 * below the range belong to earlier ranges, whose blocks all come
 * first); every subgraph fits the trees; each port is read at most
 * once per block.
 */
void validateDecomposition(const Dag &dag, const ArchConfig &cfg,
                           const RangeDecomposition &dec);

} // namespace dpu

#endif // DPU_COMPILER_BLOCKS_HH
