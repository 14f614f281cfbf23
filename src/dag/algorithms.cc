#include "dag/algorithms.hh"

#include <algorithm>

namespace dpu {

std::vector<uint32_t>
asapLevels(const Dag &dag)
{
    std::vector<uint32_t> level(dag.numNodes(), 0);
    for (NodeId id = 0; id < dag.numNodes(); ++id) {
        const Node &n = dag.node(id);
        if (n.isInput())
            continue;
        uint32_t lvl = 0;
        for (NodeId src : n.operands)
            lvl = std::max(lvl, level[src]);
        level[id] = lvl + 1;
    }
    return level;
}

size_t
longestPathLength(const Dag &dag)
{
    auto levels = asapLevels(dag);
    uint32_t best = 0;
    for (uint32_t l : levels)
        best = std::max(best, l);
    return best;
}

std::vector<uint32_t>
dfsPreorderPositions(const Dag &dag, const SuccessorIndex &succ)
{
    const size_t n = dag.numNodes();
    constexpr uint32_t unvisited = static_cast<uint32_t>(-1);
    std::vector<uint32_t> pos(n, unvisited);
    std::vector<NodeId> stack;
    uint32_t counter = 0;

    // Start from sources (inputs and any zero-operand node), in id order.
    for (NodeId root = 0; root < n; ++root) {
        if (pos[root] != unvisited || !dag.node(root).operands.empty())
            continue;
        stack.push_back(root);
        while (!stack.empty()) {
            NodeId v = stack.back();
            stack.pop_back();
            if (pos[v] != unvisited)
                continue;
            pos[v] = counter++;
            std::span<const NodeId> succs = succ.of(v);
            // Push in reverse so lower-id successors are visited first.
            for (auto it = succs.rbegin(); it != succs.rend(); ++it)
                if (pos[*it] == unvisited)
                    stack.push_back(*it);
        }
    }

    // Nodes unreachable from sources cannot exist (every node traces back
    // to a source), but keep the loop safe for empty DAGs.
    for (NodeId v = 0; v < n; ++v)
        if (pos[v] == unvisited)
            pos[v] = counter++;
    return pos;
}

std::vector<uint32_t>
dfsPreorderPositions(const Dag &dag)
{
    return dfsPreorderPositions(dag, SuccessorIndex(dag));
}

std::vector<std::vector<NodeId>>
nodesByLevel(const Dag &dag)
{
    auto level = asapLevels(dag);
    uint32_t depth = 0;
    for (uint32_t l : level)
        depth = std::max(depth, l);
    std::vector<std::vector<NodeId>> out(depth + 1);
    for (NodeId id = 0; id < dag.numNodes(); ++id)
        out[level[id]].push_back(id);
    return out;
}

DagStats
computeStats(const Dag &dag)
{
    DagStats s;
    s.numOperations = dag.numOperations();
    s.numInputs = dag.numInputs();
    s.numEdges = dag.numEdges();
    s.longestPath = longestPathLength(dag);
    s.parallelism = s.longestPath
        ? static_cast<double>(s.numOperations) /
          static_cast<double>(s.longestPath)
        : 0.0;
    s.maxOutDegree = dag.maxOutDegree();
    return s;
}

} // namespace dpu
