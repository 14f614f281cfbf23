/**
 * @file
 * Graph algorithms shared by the compiler, workloads, and baselines.
 */

#ifndef DPU_DAG_ALGORITHMS_HH
#define DPU_DAG_ALGORITHMS_HH

#include <cstddef>
#include <vector>

#include "dag/dag.hh"

namespace dpu {

/**
 * ASAP level of every node: inputs are level 0, a compute node is
 * 1 + max(level of operands). Level k nodes are mutually independent,
 * which is exactly the "layer-wise" parallelism the GPU baseline uses.
 */
std::vector<uint32_t> asapLevels(const Dag &dag);

/**
 * Longest path length in *compute nodes* — the paper's "l" in Table I
 * (a chain of l dependent operations).
 */
size_t longestPathLength(const Dag &dag);

/**
 * Depth-first preorder position of every node.
 *
 * Algorithm 1 approximates the distance between nodes by the difference
 * of their DFS-visit positions (paper §IV-A objective D); the traversal
 * starts from sources and explores successors, matching "a depth-first
 * traversal of the DAG performed once at the beginning".
 *
 * @param succ SuccessorIndex(dag), which a compile builds once.
 */
std::vector<uint32_t> dfsPreorderPositions(const Dag &dag,
                                           const SuccessorIndex &succ);

/** dfsPreorderPositions over a successor index built for the call. */
std::vector<uint32_t> dfsPreorderPositions(const Dag &dag);

/**
 * Group node ids by ASAP level. levels[k] lists every node with level k
 * (level 0 = inputs). Used by the GPU/CPU baselines and generators.
 */
std::vector<std::vector<NodeId>> nodesByLevel(const Dag &dag);

/** Histogram-style structural statistics (Table I rows). */
struct DagStats
{
    size_t numOperations;  ///< compute nodes ("Nodes (n)")
    size_t numInputs;
    size_t numEdges;
    size_t longestPath;    ///< "Longest path (l)"
    double parallelism;    ///< n / l
    size_t maxOutDegree;
};

/** Compute the Table I statistics of a DAG. */
DagStats computeStats(const Dag &dag);

} // namespace dpu

#endif // DPU_DAG_ALGORITHMS_HH
