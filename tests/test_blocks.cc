/**
 * @file
 * Unit tests for compilation step 1: block decomposition.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/blocks.hh"
#include "compiler/partitioner.hh"
#include "dag/algorithms.hh"
#include "dag/binarize.hh"
#include "workloads/pc_generator.hh"

namespace dpu {
namespace {

ArchConfig
smallConfig(uint32_t depth = 3, uint32_t banks = 16)
{
    ArchConfig c;
    c.depth = depth;
    c.banks = banks;
    c.regsPerBank = 32;
    return c;
}

TEST(Blocks, ChainDecomposesAndValidates)
{
    Dag d;
    NodeId prev = d.addInput();
    NodeId other = d.addInput();
    for (int i = 0; i < 20; ++i)
        prev = d.addNode(OpType::Add, {prev, other});
    ArchConfig cfg = smallConfig();
    auto dec = decomposeIntoBlocks(d, cfg);
    validateDecomposition(d, cfg, dec);
    // A pure chain cannot pack more than D nodes per block.
    EXPECT_GE(dec.blocks.size(), 20u / cfg.depth);
}

TEST(Blocks, SingleNodeDag)
{
    Dag d;
    NodeId a = d.addInput();
    NodeId b = d.addInput();
    d.addNode(OpType::Mul, {a, b});
    ArchConfig cfg = smallConfig();
    auto dec = decomposeIntoBlocks(d, cfg);
    validateDecomposition(d, cfg, dec);
    ASSERT_EQ(dec.blocks.size(), 1u);
    EXPECT_EQ(dec.blocks[0].subgraphs.size(), 1u);
}

TEST(Blocks, DeepConeFillsTree)
{
    // A complete binary reduction over 8 inputs fits one D=3 tree.
    Dag d;
    std::vector<NodeId> vals;
    for (int i = 0; i < 8; ++i)
        vals.push_back(d.addInput());
    while (vals.size() > 1) {
        std::vector<NodeId> next;
        for (size_t i = 0; i + 1 < vals.size(); i += 2)
            next.push_back(d.addNode(OpType::Add, {vals[i], vals[i + 1]}));
        vals = std::move(next);
    }
    ArchConfig cfg = smallConfig(3, 8); // exactly one tree
    auto dec = decomposeIntoBlocks(d, cfg);
    validateDecomposition(d, cfg, dec);
    EXPECT_EQ(dec.blocks.size(), 1u);
    EXPECT_EQ(dec.blocks[0].subgraphs[0].depth, 3u);
    // All 7 PEs perform arithmetic.
    uint32_t active = 0;
    for (PeOp op : dec.blocks[0].peOps)
        if (op == PeOp::Add || op == PeOp::Mul)
            ++active;
    EXPECT_EQ(active, 7u);
}

TEST(Blocks, ReplicationHandlesSharedNodes)
{
    // fig. 9(c): x feeds two paths inside one cone.
    Dag d;
    NodeId i1 = d.addInput();
    NodeId i2 = d.addInput();
    NodeId x = d.addNode(OpType::Add, {i1, i2});
    NodeId y = d.addNode(OpType::Mul, {x, i1});
    d.addNode(OpType::Add, {x, y});
    ArchConfig cfg = smallConfig(3, 8);
    auto dec = decomposeIntoBlocks(d, cfg);
    validateDecomposition(d, cfg, dec);
    ASSERT_EQ(dec.blocks.size(), 1u);
    // x is replicated: placed on more than one PE.
    const auto &placed = dec.blocks[0].placements;
    EXPECT_GE(std::count_if(placed.begin(), placed.end(),
                            [&](const auto &np) { return np.first == x; }),
              2);
}

TEST(Blocks, PassThroughForDeepRegisterOperands)
{
    // A chain whose upper nodes mix register operands with tree
    // operands forces pass-through PEs.
    Dag d;
    NodeId a = d.addInput();
    NodeId b = d.addInput();
    NodeId s = d.addNode(OpType::Add, {a, b});
    NodeId t = d.addNode(OpType::Mul, {s, a});
    d.addNode(OpType::Add, {t, b});
    ArchConfig cfg = smallConfig(3, 8);
    auto dec = decomposeIntoBlocks(d, cfg);
    validateDecomposition(d, cfg, dec);
    ASSERT_EQ(dec.blocks.size(), 1u);
    bool has_pass = false;
    for (PeOp op : dec.blocks[0].peOps)
        if (op == PeOp::PassA || op == PeOp::PassB)
            has_pass = true;
    EXPECT_TRUE(has_pass);
}

TEST(Blocks, IoMarksMatchConsumers)
{
    Dag d = generateRandomDag(12, 300, 5);
    ArchConfig cfg = smallConfig();
    auto dec = decomposeIntoBlocks(d, cfg);
    validateDecomposition(d, cfg, dec);
    const SuccessorIndex succ(d);
    for (NodeId v = 0; v < d.numNodes(); ++v) {
        if (d.node(v).isInput()) {
            EXPECT_TRUE(dec.isIo[v]);
            continue;
        }
        bool crosses = succ.of(v).empty();
        for (NodeId s : succ.of(v))
            if (dec.blockOf[s] != dec.blockOf[v])
                crosses = true;
        EXPECT_EQ(dec.isIo[v] != 0, crosses) << "node " << v;
    }
}

TEST(Blocks, BlockInputsAreIoOrInputs)
{
    Dag d = generateRandomDag(10, 400, 6);
    ArchConfig cfg = smallConfig(2, 16);
    auto dec = decomposeIntoBlocks(d, cfg);
    for (const Block &b : dec.blocks)
        for (NodeId v : b.inputs)
            EXPECT_TRUE(dec.isIo[v]);
}

TEST(Blocks, UtilizationBeatsOneNodePerBlock)
{
    PcParams p;
    p.targetOperations = 2000;
    p.depth = 20;
    p.seed = 9;
    Dag d = generatePc(p);
    ArchConfig cfg = smallConfig(3, 64);
    auto dec = decomposeIntoBlocks(d, cfg);
    validateDecomposition(d, cfg, dec);
    double nodes_per_block =
        static_cast<double>(d.numOperations()) /
        static_cast<double>(dec.blocks.size());
    // 64 banks = 8 trees x 7 PEs; a sane packing squeezes well over
    // one node per exec.
    EXPECT_GT(nodes_per_block, 4.0);
}

TEST(Blocks, RespectsTreeCount)
{
    Dag d = generateRandomDag(16, 500, 7);
    ArchConfig cfg = smallConfig(1, 8); // 8 trees of a single PE
    auto dec = decomposeIntoBlocks(d, cfg);
    validateDecomposition(d, cfg, dec);
    for (const Block &b : dec.blocks) {
        EXPECT_LE(b.subgraphs.size(), 8u);
        for (const Subgraph &sg : b.subgraphs)
            EXPECT_EQ(sg.depth, 1u);
    }
}

/** Share of blocks that read a value one of the previous
 *  pipelineStages() - 1 blocks wrote: each of them would wait for
 *  that value in the pipeline if the blocks issued back to back. */
double
recentReadShare(const RangeDecomposition &dec, const ArchConfig &cfg)
{
    size_t waiting = 0;
    for (uint32_t b = 0; b < dec.blocks.size(); ++b)
        waiting += std::any_of(
            dec.blocks[b].inputs.begin(), dec.blocks[b].inputs.end(),
            [&](NodeId v) {
                const uint32_t p = dec.blockOf[v];
                return p != RangeDecomposition::noBlock &&
                       b - p < cfg.pipelineStages();
            });
    return static_cast<double>(waiting) / dec.blocks.size();
}

TEST(Blocks, BlocksRarelyReadTheLastBlocks)
{
    // Step 1 prefers cones whose operands have left the pipeline.
    // On these wide random DAGs (512 inputs, 4000 operations; D = 3,
    // B = 16) nearest-first picking gave a share of 0.733-0.738, the
    // latency-aware pick gives 0.114-0.208.
    const ArchConfig cfg = smallConfig();
    for (uint64_t seed : {1, 2, 3}) {
        Dag d = generateRandomDag(512, 4000, seed);
        auto dec = decomposeIntoBlocks(d, cfg);
        validateDecomposition(d, cfg, dec);
        EXPECT_LT(recentReadShare(dec, cfg), 0.3) << "seed " << seed;
    }
}

/** Step 1 of every range of a partitioned random DAG, as compile()
 *  runs it. */
std::vector<RangeDecomposition>
decomposeRanges(const Dag &dag, const ArchConfig &cfg,
                const std::vector<std::pair<NodeId, NodeId>> &parts)
{
    const SuccessorIndex succ(dag);
    const std::vector<uint32_t> dfs = dfsPreorderPositions(dag, succ);
    std::vector<RangeDecomposition> decs;
    for (const auto &range : parts)
        decs.push_back(decomposeRangeIntoBlocks(dag, succ, cfg, range, dfs));
    return decs;
}

TEST(Blocks, PartitionedDecompositionRespectsRanges)
{
    Dag raw = generateRandomDag(16, 2000, 8);
    auto bin = binarize(raw);
    auto parts = partitionByCount(bin.dag, 500);
    EXPECT_GE(parts.size(), 4u);

    ArchConfig cfg = smallConfig();
    auto decs = decomposeRanges(bin.dag, cfg, parts);
    ASSERT_EQ(decs.size(), parts.size());
    for (size_t p = 0; p < parts.size(); ++p) {
        // Blocks must not mix partitions.
        EXPECT_EQ(decs[p].range, parts[p]);
        validateDecomposition(bin.dag, cfg, decs[p]);
        for (const Block &b : decs[p].blocks)
            for (const Subgraph &sg : b.subgraphs)
                for (NodeId v : sg.nodes) {
                    EXPECT_GE(v, parts[p].first);
                    EXPECT_LT(v, parts[p].second);
                }
    }
}

TEST(Blocks, ValidateDecompositionRejectsBrokenRanges)
{
    Dag raw = generateRandomDag(16, 2000, 8);
    auto bin = binarize(raw);
    const Dag &d = bin.dag;
    auto parts = partitionByCount(d, 500);
    ASSERT_GE(parts.size(), 2u);
    ArchConfig cfg = smallConfig();
    // A later range: valid although its operands reach earlier ranges.
    const RangeDecomposition good = decomposeRanges(d, cfg, parts).back();
    const NodeId lo = good.range.first;
    ASSERT_GE(good.blocks.size(), 3u);
    bool reaches_back = false;
    for (const Block &b : good.blocks)
        for (NodeId v : b.inputs)
            reaches_back |= v < lo && !d.node(v).isInput();
    ASSERT_TRUE(reaches_back);
    validateDecomposition(d, cfg, good);

    // A compute node listed in two blocks.
    {
        RangeDecomposition bad = good;
        bad.blocks[1].subgraphs[0].nodes.push_back(
            bad.blocks[0].subgraphs[0].sink);
        EXPECT_THROW(validateDecomposition(d, cfg, bad), PanicError);
    }
    // A compute node in no block.
    {
        RangeDecomposition bad = good;
        bad.blocks[0].subgraphs[0].nodes.pop_back();
        EXPECT_THROW(validateDecomposition(d, cfg, bad), PanicError);
    }
    // An in-range operand moved to a later block than its consumer's.
    {
        RangeDecomposition bad = good;
        const uint32_t last = static_cast<uint32_t>(bad.blocks.size() - 1);
        auto block_of = [&](NodeId v) {
            return v < lo ? RangeDecomposition::noBlock
                          : good.blockOf[v - lo];
        };
        NodeId o = invalidNode;
        for (NodeId v = lo; v < good.range.second && o == invalidNode; ++v)
            if (block_of(v) < last)
                for (NodeId w : d.node(v).operands)
                    if (block_of(w) < block_of(v))
                        o = w;
        ASSERT_NE(o, invalidNode);
        for (Subgraph &sg : bad.blocks[block_of(o)].subgraphs)
            std::erase(sg.nodes, o);
        bad.blocks[last].subgraphs[0].nodes.push_back(o);
        bad.blockOf[o - lo] = last;
        EXPECT_THROW(validateDecomposition(d, cfg, bad), PanicError);
    }
    // Two reads on one port.
    {
        RangeDecomposition bad = good;
        ASSERT_FALSE(bad.blocks[0].reads.empty());
        bad.blocks[0].reads.push_back(bad.blocks[0].reads[0]);
        EXPECT_THROW(validateDecomposition(d, cfg, bad), PanicError);
    }
    // A subgraph node outside the range.
    {
        RangeDecomposition bad = good;
        ASSERT_GT(lo, 0u);
        bad.blocks[0].subgraphs[0].nodes.push_back(lo - 1);
        EXPECT_THROW(validateDecomposition(d, cfg, bad), PanicError);
    }
}

TEST(Partitioner, EmptyDagYieldsNoRanges)
{
    Dag d;
    EXPECT_TRUE(partitionByCount(d, 5).empty());
}

TEST(Partitioner, InputOnlyDagYieldsNoRanges)
{
    // Regression: this used to return one compute-free range.
    Dag d;
    for (int i = 0; i < 6; ++i)
        d.addInput();
    EXPECT_TRUE(partitionByCount(d, 5).empty());
}

TEST(Partitioner, ExactMultipleSplitHasNoRuntRange)
{
    // 10 compute nodes at max 5: exactly two ranges of 5 each.
    Dag d;
    NodeId a = d.addInput();
    NodeId prev = d.addInput();
    for (int i = 0; i < 10; ++i)
        prev = d.addNode(OpType::Add, {prev, a});
    auto parts = partitionByCount(d, 5);
    ASSERT_EQ(parts.size(), 2u);
    for (auto [lo, hi] : parts) {
        size_t compute = 0;
        for (NodeId v = lo; v < hi; ++v)
            if (!d.node(v).isInput())
                ++compute;
        EXPECT_EQ(compute, 5u);
    }
    EXPECT_EQ(parts.front().first, 0u);
    EXPECT_EQ(parts.back().second, d.numNodes());
}

TEST(Partitioner, InputOnlyTailMergesIntoLastRange)
{
    // Regression: a split landing exactly on the last compute node
    // with trailing inputs must not strand those inputs in a
    // compute-free range (they would lose their bank owner in the
    // partition-parallel pipeline).
    Dag d;
    NodeId a = d.addInput();
    NodeId prev = d.addInput();
    for (int i = 0; i < 10; ++i)
        prev = d.addNode(OpType::Add, {prev, a});
    d.addInput();
    d.addInput();
    auto parts = partitionByCount(d, 5);
    ASSERT_FALSE(parts.empty());
    EXPECT_EQ(parts.back().second, d.numNodes());
    for (size_t i = 1; i < parts.size(); ++i)
        EXPECT_EQ(parts[i].first, parts[i - 1].second);
    for (auto [lo, hi] : parts) {
        size_t compute = 0;
        for (NodeId v = lo; v < hi; ++v)
            if (!d.node(v).isInput())
                ++compute;
        EXPECT_GE(compute, 1u);
        EXPECT_LE(compute, 5u);
    }
}

TEST(Partitioner, CountsAndCoverage)
{
    Dag d = generateRandomDag(10, 1000, 9);
    auto parts = partitionByCount(d, 256);
    EXPECT_EQ(parts.front().first, 0u);
    EXPECT_EQ(parts.back().second, d.numNodes());
    for (size_t i = 1; i < parts.size(); ++i)
        EXPECT_EQ(parts[i].first, parts[i - 1].second);
    // Each range holds at most 256 compute nodes.
    for (auto [lo, hi] : parts) {
        size_t count = 0;
        for (NodeId v = lo; v < hi; ++v)
            if (!d.node(v).isInput())
                ++count;
        EXPECT_LE(count, 256u);
    }
    EXPECT_GT(countCrossEdges(d, parts), 0u);
}

class BlocksConfigTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{};

TEST_P(BlocksConfigTest, ValidatesOnRandomDag)
{
    auto [depth, banks] = GetParam();
    if (banks < (1u << depth))
        GTEST_SKIP() << "infeasible configuration";
    Dag d = generateRandomDag(20, 600, depth * 131 + banks);
    ArchConfig cfg = smallConfig(depth, banks);
    auto dec = decomposeIntoBlocks(d, cfg);
    validateDecomposition(d, cfg, dec);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlocksConfigTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(8u, 16u, 32u, 64u)));

} // namespace
} // namespace dpu
