/**
 * @file
 * Spatial-datapath peak-utilization probing (paper §II-B, fig. 3).
 *
 * Substitute for the constraint-solving spatial mapper of [34]: a
 * randomized greedy embedder that searches workload DAGs for the
 * largest subgraph mappable onto (a) a k x k systolic array with
 * nearest-neighbour dataflow and (b) a binary tree of PEs. The paper
 * uses this probe to argue systolic arrays starve on irregular DAGs
 * while trees stay fully utilizable.
 */

#ifndef DPU_COMPILER_SPATIAL_HH
#define DPU_COMPILER_SPATIAL_HH

#include "dag/dag.hh"

namespace dpu {

/**
 * Peak utilization of a k x k systolic array (k = inputs/2, i.e.
 * n^2/4 PEs fed by n edge streams, fig. 3(a)) over a binarized DAG:
 * each interior PE must consume exactly its north and west
 * neighbours' outputs; edge PEs may pull operands from the input
 * streams. Returns max fraction of PEs holding a mapped node over
 * `restarts` randomized greedy embeddings.
 */
double systolicPeakUtilization(const Dag &dag, uint32_t inputs,
                               uint32_t restarts = 64,
                               uint64_t seed = 1);

/**
 * Peak utilization of a PE tree with `inputs` leaf ports (inputs - 1
 * PEs, fig. 3(b)): the largest mapped-arithmetic count any single
 * block reaches, over the tree PE count.
 */
double treePeakUtilization(const Dag &dag, uint32_t inputs);

} // namespace dpu

#endif // DPU_COMPILER_SPATIAL_HH
