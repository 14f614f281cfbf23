/**
 * @file
 * Unit tests for the DAG substrate: structure, algorithms,
 * binarization, evaluation, and serialization.
 */

#include <gtest/gtest.h>

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
    EXPECT_EQ(d.successors(1).size(), 2u); // b feeds both sums
    EXPECT_EQ(d.outDegree(0), 1u);
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
        EXPECT_EQ(back.node(id).operands, d.node(id).operands);
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
