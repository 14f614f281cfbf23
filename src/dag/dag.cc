#include "dag/dag.hh"

#include <algorithm>
#include <functional>
#include <limits>

namespace dpu {

NodeId
Dag::addInput()
{
    NodeId id = static_cast<NodeId>(ops.size());
    ops.push_back(OpType::Input);
    operandStart.push_back(static_cast<uint32_t>(operandPool.size()));
    ++inputCount;
    return id;
}

NodeId
Dag::addNode(OpType op, std::span<const NodeId> operands)
{
    dpu_assert(op != OpType::Input, "use addInput() for input nodes");
    dpu_assert(!operands.empty(), "compute node needs operands");
    NodeId id = static_cast<NodeId>(ops.size());
    for (NodeId src : operands)
        dpu_assert(src < id, "operand must reference an existing node");
    dpu_assert(operands.size() <= std::numeric_limits<uint32_t>::max() -
                                      operandPool.size(),
               "operand pool exceeds 2^32 entries");
    std::less<const NodeId *> before;
    dpu_assert(before(operands.data(), operandPool.data()) ||
                   !before(operands.data(),
                           operandPool.data() + operandPool.size()),
               "operands view this DAG's own pool, which the append "
               "may move");
    operandPool.insert(operandPool.end(), operands.begin(), operands.end());
    ops.push_back(op);
    operandStart.push_back(static_cast<uint32_t>(operandPool.size()));
    return id;
}

std::vector<NodeId>
Dag::sinks() const
{
    std::vector<uint8_t> used(ops.size(), 0);
    for (NodeId o : operandPool)
        used[o] = 1;
    std::vector<NodeId> out;
    for (NodeId id = 0; id < ops.size(); ++id)
        if (!used[id])
            out.push_back(id);
    return out;
}

std::vector<NodeId>
Dag::inputIds() const
{
    std::vector<NodeId> out;
    out.reserve(inputCount);
    for (NodeId id = 0; id < ops.size(); ++id)
        if (ops[id] == OpType::Input)
            out.push_back(id);
    return out;
}

bool
Dag::isBinary() const
{
    for (NodeId id = 0; id < ops.size(); ++id)
        if (ops[id] != OpType::Input &&
            operandStart[id + 1] - operandStart[id] != 2)
            return false;
    return true;
}

size_t
Dag::maxOutDegree() const
{
    std::vector<uint32_t> degree(ops.size(), 0);
    uint32_t best = 0;
    for (NodeId o : operandPool)
        best = std::max(best, ++degree[o]);
    return best;
}

SuccessorIndex::SuccessorIndex(const Dag &dag)
{
    const size_t n = dag.numNodes();
    const std::vector<NodeId> &pool = dag.operandPool;
    // Count into start[v + 1], prefix-sum so start[v] is v's first
    // slot, then fill by consumer id (ascending) while advancing
    // start[v] to v's end; shifting by one restores the offsets.
    start.assign(n + 1, 0);
    for (NodeId o : pool)
        ++start[o + 1];
    for (size_t v = 0; v < n; ++v)
        start[v + 1] += start[v];
    list.resize(pool.size());
    for (NodeId v = 0; v < n; ++v)
        for (uint32_t e = dag.operandStart[v]; e < dag.operandStart[v + 1];
             ++e)
            list[start[pool[e]]++] = v;
    for (size_t v = n; v > 0; --v)
        start[v] = start[v - 1];
    start[0] = 0;
}

} // namespace dpu
