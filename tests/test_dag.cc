/**
 * @file
 * Unit tests for the DAG substrate: structure, algorithms,
 * binarization, evaluation, and serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "dag/algorithms.hh"
#include "dag/binarize.hh"
#include "dag/dag.hh"
#include "dag/eval.hh"
#include "dag/io.hh"
#include "support/rng.hh"
#include "text_mutator.hh"
#include "workloads/pc_generator.hh"

namespace dpu {
namespace {

/** (a+b) * (b+c) with inputs a, b, c. */
Dag
diamond()
{
    Dag d;
    NodeId a = d.addInput();
    NodeId b = d.addInput();
    NodeId c = d.addInput();
    NodeId s1 = d.addNode(OpType::Add, {a, b});
    NodeId s2 = d.addNode(OpType::Add, {b, c});
    d.addNode(OpType::Mul, {s1, s2});
    return d;
}

TEST(Dag, Counts)
{
    Dag d = diamond();
    EXPECT_EQ(d.numNodes(), 6u);
    EXPECT_EQ(d.numInputs(), 3u);
    EXPECT_EQ(d.numOperations(), 3u);
    EXPECT_EQ(d.numEdges(), 6u);
}

TEST(Dag, SuccessorsTracked)
{
    Dag d = diamond();
    const SuccessorIndex succ(d);
    EXPECT_EQ(succ.of(1).size(), 2u); // b feeds both sums
    EXPECT_EQ(succ.outDegree(0), 1u);
    EXPECT_EQ(d.maxOutDegree(), 2u);
}

TEST(Dag, SinksAreRoots)
{
    Dag d = diamond();
    auto sinks = d.sinks();
    ASSERT_EQ(sinks.size(), 1u);
    EXPECT_EQ(sinks[0], 5u);
}

TEST(Dag, OperandMustExist)
{
    Dag d;
    d.addInput();
    EXPECT_THROW(d.addNode(OpType::Add, {0, 5}), PanicError);
}

TEST(Dag, IsBinary)
{
    Dag d = diamond();
    EXPECT_TRUE(d.isBinary());
    NodeId i = d.addInput();
    d.addNode(OpType::Add, {0, 1, i});
    EXPECT_FALSE(d.isBinary());
}

/** A random DAG with n-ary nodes, duplicate operands and unused
 *  inputs, plus the per-node operand lists it was built from. */
struct RandomLayout
{
    Dag dag;
    std::vector<std::vector<NodeId>> operands; ///< empty for inputs
};

RandomLayout
randomLayout(Rng &rng, size_t nodes)
{
    RandomLayout r;
    for (size_t i = 0; i < nodes; ++i) {
        if (i == 0 || rng.chance(0.2)) {
            r.dag.addInput();
            r.operands.emplace_back();
            continue;
        }
        std::vector<NodeId> ops(1 + rng.below(4));
        for (NodeId &o : ops)
            o = static_cast<NodeId>(rng.below(i));
        if (ops.size() > 1 && rng.chance(0.2))
            ops[1] = ops[0]; // x*x
        r.dag.addNode(rng.chance(0.5) ? OpType::Add : OpType::Mul, ops);
        r.operands.push_back(ops);
    }
    return r;
}

/** The successor lists a Dag used to keep per node: each operand
 *  appends its consumer as the consumer is added. */
std::vector<std::vector<NodeId>>
referenceSuccessors(const RandomLayout &r)
{
    std::vector<std::vector<NodeId>> succ(r.operands.size());
    for (NodeId id = 0; id < r.operands.size(); ++id)
        for (NodeId src : r.operands[id])
            succ[src].push_back(id);
    return succ;
}

/** The DFS preorder as it was written over per-node successor
 *  vectors, kept to pin the flat version to it. */
std::vector<uint32_t>
referenceDfsPositions(const RandomLayout &r,
                      const std::vector<std::vector<NodeId>> &succ)
{
    const size_t n = r.operands.size();
    std::vector<uint32_t> pos(n, 0);
    std::vector<bool> visited(n, false);
    std::vector<NodeId> stack;
    uint32_t counter = 0;
    for (NodeId root = 0; root < n; ++root) {
        if (visited[root] || !r.operands[root].empty())
            continue;
        stack.push_back(root);
        while (!stack.empty()) {
            NodeId v = stack.back();
            stack.pop_back();
            if (visited[v])
                continue;
            visited[v] = true;
            pos[v] = counter++;
            const auto &succs = succ[v];
            for (auto it = succs.rbegin(); it != succs.rend(); ++it)
                if (!visited[*it])
                    stack.push_back(*it);
        }
    }
    for (NodeId v = 0; v < n; ++v)
        if (!visited[v])
            pos[v] = counter++;
    return pos;
}

TEST(DagLayout, FlatArraysMatchPerNodeReferences)
{
    Rng rng(2024);
    std::vector<size_t> sizes{0, 1, 2, 3, 2000};
    for (int i = 0; i < 40; ++i)
        sizes.push_back(rng.below(2001));
    for (size_t n : sizes) {
        SCOPED_TRACE("nodes=" + std::to_string(n));
        RandomLayout r = randomLayout(rng, n);
        const Dag &d = r.dag;
        ASSERT_EQ(d.numNodes(), n);
        std::vector<std::vector<NodeId>> succ = referenceSuccessors(r);

        size_t edges = 0, max_out = 0;
        bool binary = true;
        std::vector<NodeId> sinks, inputs;
        for (NodeId v = 0; v < n; ++v) {
            EXPECT_TRUE(std::ranges::equal(d.node(v).operands,
                                           r.operands[v]));
            edges += r.operands[v].size();
            max_out = std::max(max_out, succ[v].size());
            if (r.operands[v].empty())
                inputs.push_back(v);
            else if (r.operands[v].size() != 2)
                binary = false;
            if (succ[v].empty())
                sinks.push_back(v);
        }
        EXPECT_EQ(d.numEdges(), edges);
        EXPECT_EQ(d.maxOutDegree(), max_out);
        EXPECT_EQ(d.isBinary(), binary);
        EXPECT_EQ(d.sinks(), sinks);
        EXPECT_EQ(d.inputIds(), inputs);
        EXPECT_EQ(d.numInputs(), inputs.size());

        const SuccessorIndex index(d);
        for (NodeId v = 0; v < n; ++v) {
            EXPECT_TRUE(std::ranges::equal(index.of(v), succ[v]))
                << "node " << v;
            EXPECT_EQ(index.outDegree(v), succ[v].size());
        }
        EXPECT_EQ(dfsPreorderPositions(d, index),
                  referenceDfsPositions(r, succ));
        EXPECT_EQ(dfsPreorderPositions(d), referenceDfsPositions(r, succ));

        Dag copy = d;
        ASSERT_EQ(copy.numNodes(), n);
        for (NodeId v = 0; v < n; ++v) {
            Node a = copy.node(v), b = d.node(v);
            EXPECT_EQ(a.op, b.op);
            EXPECT_TRUE(std::ranges::equal(a.operands, b.operands));
            if (!b.operands.empty()) {
                EXPECT_NE(a.operands.data(), b.operands.data());
            }
        }
    }
}

TEST(DagLayout, AddNodeRejectsAViewOfItsOwnPool)
{
    // node(v).operands views the pool that addNode grows, so handing
    // it straight back would read a moved pool. A copy is fine.
    Dag d;
    NodeId a = d.addInput(), b = d.addInput();
    NodeId first = d.addNode(OpType::Add, {a, b, a});
    EXPECT_THROW(d.addNode(OpType::Mul, d.node(first).operands),
                 PanicError);
    EXPECT_EQ(d.numNodes(), 3u);
    std::span<const NodeId> view = d.node(first).operands;
    std::vector<NodeId> copy(view.begin(), view.end());
    NodeId second = d.addNode(OpType::Mul, copy);
    EXPECT_TRUE(std::ranges::equal(d.node(second).operands, copy));
    EXPECT_EQ(SuccessorIndex(d).outDegree(a), 4u);
}

TEST(Algorithms, AsapLevels)
{
    Dag d = diamond();
    auto lvl = asapLevels(d);
    EXPECT_EQ(lvl[0], 0u);
    EXPECT_EQ(lvl[3], 1u);
    EXPECT_EQ(lvl[5], 2u);
    EXPECT_EQ(longestPathLength(d), 2u);
}

TEST(Algorithms, LevelsGroupIndependentNodes)
{
    Dag d = diamond();
    auto by_level = nodesByLevel(d);
    ASSERT_EQ(by_level.size(), 3u);
    EXPECT_EQ(by_level[0].size(), 3u);
    EXPECT_EQ(by_level[1].size(), 2u);
    EXPECT_EQ(by_level[2].size(), 1u);
}

TEST(Algorithms, DfsPositionsAreAPermutation)
{
    Dag d = generateRandomDag(16, 200, 3);
    auto pos = dfsPreorderPositions(d);
    std::vector<bool> seen(d.numNodes(), false);
    for (uint32_t p : pos) {
        ASSERT_LT(p, d.numNodes());
        EXPECT_FALSE(seen[p]);
        seen[p] = true;
    }
}

TEST(Algorithms, StatsMatchByHand)
{
    Dag d = diamond();
    DagStats s = computeStats(d);
    EXPECT_EQ(s.numOperations, 3u);
    EXPECT_EQ(s.numInputs, 3u);
    EXPECT_EQ(s.longestPath, 2u);
    EXPECT_DOUBLE_EQ(s.parallelism, 1.5);
}

TEST(Eval, Diamond)
{
    Dag d = diamond();
    auto v = evaluate(d, {1.0, 2.0, 4.0});
    EXPECT_DOUBLE_EQ(v[3], 3.0);
    EXPECT_DOUBLE_EQ(v[4], 6.0);
    EXPECT_DOUBLE_EQ(v[5], 18.0);
    auto sinks = evaluateSinks(d, {1.0, 2.0, 4.0});
    ASSERT_EQ(sinks.size(), 1u);
    EXPECT_DOUBLE_EQ(sinks[0], 18.0);
}

TEST(Eval, MultiInputNode)
{
    Dag d;
    NodeId a = d.addInput();
    NodeId b = d.addInput();
    NodeId c = d.addInput();
    d.addNode(OpType::Mul, {a, b, c});
    auto v = evaluate(d, {2.0, 3.0, 5.0});
    EXPECT_DOUBLE_EQ(v[3], 30.0);
}

TEST(Eval, WrongInputCountPanics)
{
    Dag d = diamond();
    EXPECT_THROW(evaluate(d, {1.0}), PanicError);
}

TEST(Binarize, NoOpOnBinaryDag)
{
    Dag d = diamond();
    auto res = binarize(d);
    EXPECT_EQ(res.dag.numNodes(), d.numNodes());
    EXPECT_TRUE(res.dag.isBinary());
}

TEST(Binarize, ExpandsWideNodes)
{
    Dag d;
    std::vector<NodeId> ins;
    for (int i = 0; i < 5; ++i)
        ins.push_back(d.addInput());
    d.addNode(OpType::Add, {ins});
    auto res = binarize(d);
    EXPECT_TRUE(res.dag.isBinary());
    // 5-input add becomes 4 binary adds.
    EXPECT_EQ(res.dag.numOperations(), 4u);
}

TEST(Binarize, BalancedDepth)
{
    Dag d;
    std::vector<NodeId> ins;
    for (int i = 0; i < 8; ++i)
        ins.push_back(d.addInput());
    d.addNode(OpType::Add, {ins});
    auto res = binarize(d);
    // Balanced tree over 8 leaves has depth 3, not 7.
    EXPECT_EQ(longestPathLength(res.dag), 3u);
}

TEST(Binarize, ValuePreserving)
{
    Rng rng(99);
    Dag d;
    std::vector<NodeId> pool;
    for (int i = 0; i < 10; ++i)
        pool.push_back(d.addInput());
    for (int i = 0; i < 40; ++i) {
        size_t fanin = 2 + rng.below(4);
        std::vector<NodeId> ops;
        for (size_t k = 0; k < fanin; ++k)
            ops.push_back(rng.pick(pool));
        pool.push_back(
            d.addNode(rng.chance(0.5) ? OpType::Add : OpType::Mul, ops));
    }

    std::vector<double> inputs;
    for (int i = 0; i < 10; ++i)
        inputs.push_back(0.5 + rng.uniform());

    auto res = binarize(d);
    auto ref = evaluate(d, inputs);
    auto got = evaluate(res.dag, inputs);
    for (NodeId id = 0; id < d.numNodes(); ++id)
        EXPECT_NEAR(got[res.valueOf[id]], ref[id], 1e-9 * std::abs(ref[id]))
            << "node " << id;
}

TEST(Binarize, SingleOperandForwarded)
{
    Dag d;
    NodeId a = d.addInput();
    NodeId one = d.addNode(OpType::Add, {a});
    d.addNode(OpType::Mul, {one, a});
    auto res = binarize(d);
    EXPECT_TRUE(res.dag.isBinary());
    // The 1-input add disappears; its value is the input itself.
    EXPECT_EQ(res.valueOf[one], res.valueOf[a]);
}

TEST(Io, RoundTrip)
{
    Dag d = generateRandomDag(8, 50, 17);
    std::stringstream ss;
    writeDag(d, ss);
    Dag back = readDag(ss);
    ASSERT_EQ(back.numNodes(), d.numNodes());
    for (NodeId id = 0; id < d.numNodes(); ++id) {
        EXPECT_EQ(back.node(id).op, d.node(id).op);
        EXPECT_TRUE(std::ranges::equal(back.node(id).operands,
                                       d.node(id).operands));
    }
}

TEST(Io, RejectsGarbage)
{
    const char *bad[] = {
        "hello world 3\n",
        // A non-numeric operand used to end the operand list early.
        "dpu-dag v1 3\ni\ni\n+ 0 abc 1\n",
        "dpu-dag v1 3\ni\ni\n+ 0 1x\n",
        "dpu-dag v1 3\ni\ni\n* 0 1.5\n",
        // An input node takes no operands.
        "dpu-dag v1 2\ni junk\ni\n",
        // Lines past the declared count used to be dropped silently.
        "dpu-dag v1 2\ni\ni\n+ 0 1\n",
        "dpu-dag v1 2\ni\ni\n\n  \nx\n",
        // So did junk after the header.
        "dpu-dag v1 2 extra\ni\ni\n",
    };
    for (const char *text : bad) {
        SCOPED_TRACE(text);
        std::stringstream ss(text);
        EXPECT_THROW(readDag(ss), FatalError);
    }

    // Blank lines and trailing whitespace are not garbage.
    std::stringstream ok("dpu-dag v1 3 \ni \ni\n+ 0 1  \n\n \n");
    EXPECT_EQ(readDag(ok).numNodes(), 3u);
}

TEST(Io, MutatedDagTextNeverPanics)
{
    // dpu-dag text is external bytes: every seeded mutant of writeDag
    // output must parse to a DAG or fail with FatalError, never with a
    // PanicError, another exception or a crash. A DAG that parses
    // must round-trip.
    std::vector<std::string> texts;
    Dag nary;
    NodeId a = nary.addInput(), b = nary.addInput(), c = nary.addInput();
    NodeId s = nary.addNode(OpType::Add, {a, b, c});
    nary.addNode(OpType::Mul, {s, a, b, c});
    for (const Dag &d : {generateRandomDag(8, 50, 17), nary}) {
        std::stringstream ss;
        writeDag(d, ss);
        texts.push_back(ss.str());
    }
    Rng rng(20261017);
    size_t parsed = 0, rejected = 0;
    for (int k = 0; k < 3000; ++k) {
        std::string text = mutateText(texts[k % texts.size()], rng);
        if (rng.below(3) == 0)
            text = mutateText(text, rng); // stacked mutations
        std::stringstream in(text);
        try {
            Dag d = readDag(in);
            ++parsed;
            std::stringstream out;
            writeDag(d, out);
            EXPECT_EQ(readDag(out).numNodes(), d.numNodes()) << text;
        } catch (const FatalError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << e.what() << "\n" << text;
        }
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(Io, RejectsForwardReference)
{
    std::stringstream ss("dpu-dag v1 2\ni\n+ 0 5\n");
    EXPECT_THROW(readDag(ss), FatalError);
}

} // namespace
} // namespace dpu
