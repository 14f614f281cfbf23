#include "dag/optimize.hh"

#include <algorithm>
#include <map>

namespace dpu {

OptimizeResult
eliminateCommonSubexpressions(const Dag &dag)
{
    OptimizeResult res;
    res.valueOf.assign(dag.numNodes(), invalidNode);

    // Key: (op, canonicalized remapped operands) -> new node id.
    std::map<std::pair<OpType, std::vector<NodeId>>, NodeId> seen;

    for (NodeId v = 0; v < dag.numNodes(); ++v) {
        const Node &n = dag.node(v);
        if (n.isInput()) {
            res.valueOf[v] = res.dag.addInput();
            continue;
        }
        std::vector<NodeId> ops;
        ops.reserve(n.operands.size());
        for (NodeId o : n.operands)
            ops.push_back(res.valueOf[o]);
        // Add/Mul are commutative and associative; sorting the
        // operand list canonicalizes within one node.
        std::sort(ops.begin(), ops.end());
        auto key = std::make_pair(n.op, ops);
        auto it = seen.find(key);
        if (it != seen.end()) {
            res.valueOf[v] = it->second;
            ++res.removedNodes;
            continue;
        }
        NodeId nv = res.dag.addNode(n.op, ops);
        seen.emplace(std::move(key), nv);
        res.valueOf[v] = nv;
    }
    return res;
}

OptimizeResult
eliminateDeadNodes(const Dag &dag, const std::vector<NodeId> &outputs)
{
    // Live = reachable from a designated output by operand edges.
    std::vector<bool> live(dag.numNodes(), false);
    std::vector<NodeId> stack = outputs.empty() ? dag.sinks() : outputs;
    while (!stack.empty()) {
        NodeId v = stack.back();
        stack.pop_back();
        if (live[v])
            continue;
        live[v] = true;
        for (NodeId o : dag.node(v).operands)
            if (!live[o])
                stack.push_back(o);
    }

    OptimizeResult res;
    res.valueOf.assign(dag.numNodes(), invalidNode);
    for (NodeId v = 0; v < dag.numNodes(); ++v) {
        const Node &n = dag.node(v);
        if (n.isInput()) {
            // Inputs are the external interface; always kept.
            res.valueOf[v] = res.dag.addInput();
            continue;
        }
        if (!live[v]) {
            ++res.removedNodes;
            continue;
        }
        std::vector<NodeId> ops;
        ops.reserve(n.operands.size());
        for (NodeId o : n.operands) {
            dpu_assert(res.valueOf[o] != invalidNode,
                       "live node depends on dead node");
            ops.push_back(res.valueOf[o]);
        }
        res.valueOf[v] = res.dag.addNode(n.op, ops);
    }
    return res;
}

OptimizeResult
optimizeDag(const Dag &dag, const std::vector<NodeId> &outputs)
{
    OptimizeResult cse = eliminateCommonSubexpressions(dag);
    std::vector<NodeId> mapped_outputs;
    mapped_outputs.reserve(outputs.size());
    for (NodeId v : outputs)
        mapped_outputs.push_back(cse.valueOf[v]);
    OptimizeResult dce = eliminateDeadNodes(cse.dag, mapped_outputs);
    OptimizeResult res;
    res.dag = std::move(dce.dag);
    res.removedNodes = cse.removedNodes + dce.removedNodes;
    res.valueOf.assign(dag.numNodes(), invalidNode);
    for (NodeId v = 0; v < dag.numNodes(); ++v) {
        NodeId mid = cse.valueOf[v];
        if (mid != invalidNode)
            res.valueOf[v] = dce.valueOf[mid];
    }
    return res;
}

} // namespace dpu
