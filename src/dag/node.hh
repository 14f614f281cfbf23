/**
 * @file
 * Node and operator definitions for computation DAGs.
 *
 * DPU-v2 targets DAGs whose nodes are fine-grained arithmetic operations
 * (paper §II): probabilistic circuits need sums and products, and sparse
 * triangular solves lower to multiply-accumulate chains, so `Add` and
 * `Mul` (plus `Input` leaves) cover the whole workload suite.
 */

#ifndef DPU_DAG_NODE_HH
#define DPU_DAG_NODE_HH

#include <cstdint>
#include <span>
#include <string>

namespace dpu {

/** Identifier of a node within one Dag. Ids form a topological order. */
using NodeId = uint32_t;

/** Sentinel for "no node". */
constexpr NodeId invalidNode = static_cast<NodeId>(-1);

/** Operator performed by a DAG node. */
enum class OpType : uint8_t {
    Input, ///< External input (leaf); holds no operation.
    Add,   ///< Sum of the operands.
    Mul,   ///< Product of the operands.
};

/** Printable operator name. */
inline const char *
opName(OpType op)
{
    switch (op) {
      case OpType::Input: return "input";
      case OpType::Add: return "add";
      case OpType::Mul: return "mul";
    }
    return "?";
}

/**
 * A view of one DAG node: an operator plus its operand node ids.
 * Dag::node() returns it by value; `operands` points into the Dag's
 * operand pool (see dag.hh for when that view is invalidated).
 *
 * Operand ids are always smaller than the node's own id, so iterating
 * nodes by id is a valid execution order (paper §II "Execution order").
 */
struct Node
{
    OpType op = OpType::Input;
    std::span<const NodeId> operands;

    bool isInput() const { return op == OpType::Input; }
};

} // namespace dpu

#endif // DPU_DAG_NODE_HH
