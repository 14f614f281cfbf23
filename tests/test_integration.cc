/**
 * @file
 * End-to-end property tests: for arbitrary DAGs and arbitrary
 * architecture configurations, compile + simulate must reproduce the
 * golden evaluator exactly, with zero hazards and no register leaks
 * (all enforced inside the simulator).
 *
 * This is the repository's core correctness argument: the simulator
 * panics on any pipeline hazard, bank overflow, invalid read, mux
 * misroute, or functional mismatch, so a green sweep means the whole
 * compiler pipeline is sound for that configuration.
 */

#include <gtest/gtest.h>

#include <exception>
#include <string>
#include <tuple>

#include "compiler/compiler.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/sparse_matrix.hh"
#include "workloads/sptrsv.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

std::vector<double>
randomInputs(const Dag &d, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(d.numInputs());
    for (auto &x : v)
        x = 0.5 + rng.uniform();
    return v;
}

/** (D, B, R, output interconnect) sweep axis. */
using ConfigParam =
    std::tuple<uint32_t, uint32_t, uint32_t, OutputInterconnect>;

class EndToEnd : public ::testing::TestWithParam<ConfigParam>
{
  protected:
    ArchConfig
    config() const
    {
        auto [d, b, r, net] = GetParam();
        ArchConfig c;
        c.depth = d;
        c.banks = b;
        c.regsPerBank = r;
        c.outputNet = net;
        return c;
    }
};

TEST_P(EndToEnd, RandomDagMatchesReference)
{
    ArchConfig cfg = config();
    if (cfg.banks < (1u << cfg.depth))
        GTEST_SKIP() << "infeasible configuration";
    uint64_t seed = cfg.depth * 1000 + cfg.banks * 10 + cfg.regsPerBank;
    Dag d = generateRandomDag(24, 700, seed);
    CompileOptions opt;
    opt.verify = true;
    opt.seed = seed;
    auto prog = compile(d, cfg, opt);
    runAndCheck(prog, d, randomInputs(d, seed + 1));
}

TEST_P(EndToEnd, PcMatchesReference)
{
    ArchConfig cfg = config();
    if (cfg.banks < (1u << cfg.depth))
        GTEST_SKIP() << "infeasible configuration";
    PcParams p;
    p.targetOperations = 1500;
    p.depth = 18;
    p.seed = cfg.banks + cfg.depth;
    Dag d = generatePc(p);
    CompileOptions opt;
    opt.verify = true;
    auto prog = compile(d, cfg, opt);
    runAndCheck(prog, d, randomInputs(d, 5));
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, EndToEnd,
    ::testing::Combine(
        ::testing::Values(1u, 2u, 3u),
        ::testing::Values(8u, 16u, 32u, 64u),
        ::testing::Values(16u, 32u),
        ::testing::Values(OutputInterconnect::PerLayerSubtree)),
    [](const ::testing::TestParamInfo<ConfigParam> &info) {
        // Built with += (not literal + string&&): that form trips
        // GCC 12's bogus -Wrestrict diagnostic (GCC PR 105329).
        std::string s = "D";
        s += std::to_string(std::get<0>(info.param));
        s += "_B";
        s += std::to_string(std::get<1>(info.param));
        s += "_R";
        s += std::to_string(std::get<2>(info.param));
        return s;
    });

INSTANTIATE_TEST_SUITE_P(
    InterconnectSweep, EndToEnd,
    ::testing::Combine(
        ::testing::Values(2u, 3u),
        ::testing::Values(16u, 32u),
        ::testing::Values(32u),
        ::testing::Values(OutputInterconnect::Crossbar,
                          OutputInterconnect::OnePerPe)),
    [](const ::testing::TestParamInfo<ConfigParam> &info) {
        bool xbar =
            std::get<3>(info.param) == OutputInterconnect::Crossbar;
        std::string s = xbar ? "xbar" : "oneperpe";
        s += "_D";
        s += std::to_string(std::get<0>(info.param));
        s += "_B";
        s += std::to_string(std::get<1>(info.param));
        return s;
    });

TEST(EndToEndSeeds, ManyRandomDagsOnMinEdp)
{
    ArchConfig cfg = minEdpConfig();
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        Dag d = generateRandomDag(16 + seed, 300 + 40 * seed, seed);
        CompileOptions opt;
        opt.verify = true;
        opt.seed = seed;
        auto prog = compile(d, cfg, opt);
        runAndCheck(prog, d, randomInputs(d, seed * 3 + 1));
    }
}

TEST(EndToEndSeeds, SpillHeavySweep)
{
    // Tiny register files force heavy spilling on every seed.
    ArchConfig cfg;
    cfg.depth = 2;
    cfg.banks = 8;
    cfg.regsPerBank = 6;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        Dag d = generateRandomDag(32, 800, 100 + seed);
        CompileOptions opt;
        opt.verify = true;
        auto prog = compile(d, cfg, opt);
        EXPECT_GT(prog.stats.spillStores, 0u) << "seed " << seed;
        runAndCheck(prog, d, randomInputs(d, seed));
    }
}

TEST(EndToEndSeeds, RandomBankPolicyStaysCorrect)
{
    // The random mapper is slower (more copies) but must be correct.
    ArchConfig cfg;
    cfg.depth = 3;
    cfg.banks = 16;
    cfg.regsPerBank = 64;
    Dag d = generateRandomDag(24, 600, 77);
    CompileOptions opt;
    opt.bankPolicy = BankPolicy::Random;
    opt.verify = true;
    auto prog = compile(d, cfg, opt);
    runAndCheck(prog, d, randomInputs(d, 78));
}

/** Every SimStats field, for comparing two runs. */
auto
statsKey(const SimStats &s)
{
    return std::tie(s.cycles, s.kindCount, s.bankReads, s.bankWrites,
                    s.peOperations, s.pePassThroughs, s.crossbarTransfers,
                    s.memReads, s.memWrites, s.instrBitsFetched,
                    s.peakLiveRegisters, s.occupancyTrace, s.traceStride);
}

TEST(EndToEndSeeds, RandomConfigsMatchReference)
{
    // Random DAGs on random legal configurations, compiled whole or
    // partitioned, on one or four threads, must match dag/eval. Two
    // inputs on one Machine must give the same SimStats: timing and
    // events belong to the program, not to its input values.
    const OutputInterconnect nets[] = {OutputInterconnect::Crossbar,
                                       OutputInterconnect::PerLayerSubtree,
                                       OutputInterconnect::OnePerPe};
    const uint32_t regs[] = {10, 16, 32, 48};
    for (uint64_t seed = 1; seed <= 30; ++seed) {
        Rng rng(seed);
        ArchConfig cfg;
        cfg.depth = static_cast<uint32_t>(rng.range(1, 3));
        cfg.banks = 8u << rng.below(4);
        cfg.regsPerBank = regs[rng.below(4)];
        cfg.outputNet = nets[seed % 3];
        Dag d = generateRandomDag(static_cast<size_t>(rng.range(8, 32)),
                                  static_cast<size_t>(rng.range(200, 900)),
                                  seed);
        const auto quarter = static_cast<uint32_t>(d.numOperations() / 4);
        for (uint32_t part : {0u, quarter})
            for (uint32_t threads : {1u, 4u}) {
                std::string where =
                    "seed " + std::to_string(seed) + " on D" +
                    std::to_string(cfg.depth) + ".B" +
                    std::to_string(cfg.banks) + ".R" +
                    std::to_string(cfg.regsPerBank) + " " +
                    interconnectName(cfg.outputNet) + ", " +
                    std::to_string(d.numOperations()) + " ops, partition " +
                    std::to_string(part) + ", threads " +
                    std::to_string(threads);
                try {
                    CompileOptions opt;
                    opt.verify = true;
                    opt.seed = seed;
                    opt.partitionNodes = part;
                    opt.threads = threads;
                    auto prog = compile(d, cfg, opt);
                    runAndCheck(prog, d, randomInputs(d, seed + 1));
                    Machine m(prog);
                    SimStats a = m.run(randomInputs(d, seed + 2)).stats;
                    SimStats b = m.run(randomInputs(d, seed + 3)).stats;
                    EXPECT_TRUE(statsKey(a) == statsKey(b)) << where;
                } catch (const std::exception &e) {
                    ADD_FAILURE() << where << ": " << e.what();
                }
            }
    }
}

TEST(EndToEndSeeds, ChunkFirstReloadIsCovered)
{
    // RandomConfigsMatchReference's seed 538 generator draw, cut into
    // ops/4 ranges. A value spilled in an earlier chunk has no known
    // next use, so the prefetch for a chunk's second instruction
    // reloads an operand the first one shares with it one slot early;
    // the finalizer must wait for that reload with nops, not panic
    // with an unresolved pipeline hazard.
    ArchConfig cfg;
    cfg.depth = 2;
    cfg.banks = 8;
    cfg.regsPerBank = 10;
    cfg.outputNet = OutputInterconnect::PerLayerSubtree;
    Dag d = generateRandomDag(16, 311, 538);
    ASSERT_EQ(d.numOperations() / 4, 77u);
    CompileOptions opt;
    opt.verify = true;
    opt.seed = 538;
    opt.partitionNodes = 77;
    auto prog = compile(d, cfg, opt);
    EXPECT_GT(prog.stats.spillStores, 0u);
    runAndCheck(prog, d, randomInputs(d, 539));
}

TEST(EndToEndWorkloads, SmallSuiteScaledDown)
{
    // Every named workload (scaled to ~8%) through the whole stack.
    ArchConfig cfg = minEdpConfig();
    for (const auto &spec : smallSuite()) {
        Dag d = buildWorkloadDag(spec, 0.08);
        CompileOptions opt;
        opt.verify = true;
        auto prog = compile(d, cfg, opt);
        runAndCheck(prog, d, randomInputs(d, spec.seed));
    }
}

TEST(EndToEndWorkloads, SptrsvSolutionIsCorrect)
{
    LowerTriangularParams p;
    p.dim = 300;
    p.depthLevels = 25;
    p.avgOffDiagonal = 4.0;
    p.seed = 80;
    auto m = makeLowerTriangular(p);
    auto lowered = buildSpTrsvDag(m);
    auto prog = compile(lowered.dag, minEdpConfig());

    Rng rng(81);
    std::vector<double> b(m.dim());
    for (auto &x : b)
        x = rng.uniform() * 2 - 1;
    auto inputs = sptrsvInputValues(lowered, m, b);
    runAndCheck(prog, lowered.dag, inputs);
}

} // namespace
} // namespace dpu
