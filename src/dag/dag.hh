/**
 * @file
 * The directed-acyclic-graph substrate.
 *
 * A Dag is three flat arrays: the operator of every node, an offset
 * array of numNodes() + 1 entries, and one operand pool holding every
 * node's operand ids back to back (node v's operands are
 * pool[start[v], start[v + 1])). Nodes are only ever appended, so a
 * Dag keeps no per-node heap block and no successor lists; whoever
 * walks edges forward derives a SuccessorIndex once.
 *
 * Acyclicity is guaranteed by construction: a node may only reference
 * operands with smaller ids, which makes node-id order a topological
 * order for free and keeps every downstream algorithm simple.
 *
 * View invalidation: node(v).operands is a span into the operand
 * pool. Appending to the *same* Dag (addInput/addNode) may move the
 * pool and leaves every span taken before it dangling; so addNode
 * rejects operands that view its own pool (a panic, not a silent
 * read of freed memory). Reading one Dag while appending to another,
 * as binarize and optimize do, is always safe.
 */

#ifndef DPU_DAG_DAG_HH
#define DPU_DAG_DAG_HH

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "dag/node.hh"

namespace dpu {

/** An irregular computation DAG (paper §II). */
class Dag
{
  public:
    Dag() = default;

    /** Add an external input (leaf) node. @return its id. */
    NodeId addInput();

    /**
     * Add a compute node.
     *
     * @param op Operator (Add or Mul).
     * @param operands Ids of operand nodes; each must already exist.
     *        Must not view this Dag's own operand pool.
     * @return Id of the new node.
     */
    NodeId addNode(OpType op, std::span<const NodeId> operands);

    NodeId
    addNode(OpType op, std::initializer_list<NodeId> operands)
    {
        return addNode(op, std::span<const NodeId>(operands.begin(),
                                                   operands.size()));
    }

    /** Total number of nodes (inputs + compute). */
    size_t numNodes() const { return ops.size(); }

    /** Number of Input leaves. */
    size_t numInputs() const { return inputCount; }

    /** Number of compute (non-input) nodes — the paper's "n". */
    size_t numOperations() const { return ops.size() - inputCount; }

    /** Number of edges (sum of operand counts). */
    size_t numEdges() const { return operandPool.size(); }

    /** A view of node `id`; its operands stay valid until the next
     *  append to this Dag. */
    Node
    node(NodeId id) const
    {
        dpu_assert(id < ops.size(), "node id out of range");
        return {ops[id],
                std::span<const NodeId>(
                    operandPool.data() + operandStart[id],
                    operandStart[id + 1] - operandStart[id])};
    }

    /** Nodes with no successors (the DAG's results). */
    std::vector<NodeId> sinks() const;

    /** All Input node ids, in id order. */
    std::vector<NodeId> inputIds() const;

    /** True if every compute node has exactly two operands. */
    bool isBinary() const;

    /** Maximum out-degree over all nodes (the paper's Delta(G)). */
    size_t maxOutDegree() const;

  private:
    friend class SuccessorIndex;

    std::vector<OpType> ops;
    std::vector<uint32_t> operandStart{0}; ///< numNodes() + 1 offsets.
    std::vector<NodeId> operandPool;
    size_t inputCount = 0;
};

/**
 * The successors of every node of one Dag in CSR form, derived in one
 * counting pass: the consumers of `v` in ascending id order, a node
 * listed once per operand slot it reads `v` in (x*x lists x's
 * consumer twice). Built once per compile (PreparedDag owns one for a
 * sweep) by whatever walks edges forward: the DFS preorder, step 1's
 * height ripple and io marks, the spatial probes.
 */
class SuccessorIndex
{
  public:
    SuccessorIndex() = default;
    explicit SuccessorIndex(const Dag &dag);

    /** Nodes that consume the value of `v`. */
    std::span<const NodeId>
    of(NodeId v) const
    {
        dpu_assert(v + 1 < start.size(), "node id out of range");
        return {list.data() + start[v], start[v + 1] - start[v]};
    }

    /** Out-degree of a node. */
    size_t outDegree(NodeId v) const { return of(v).size(); }

  private:
    std::vector<uint32_t> start; ///< numNodes() + 1 offsets.
    std::vector<NodeId> list;
};

} // namespace dpu

#endif // DPU_DAG_DAG_HH
