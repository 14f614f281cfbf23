/**
 * @file
 * Tests for the energy/area model and the design-space exploration.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "model/dse.hh"
#include "model/energy.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

ArchConfig
cfgOf(uint32_t depth, uint32_t banks, uint32_t regs)
{
    ArchConfig c;
    c.depth = depth;
    c.banks = banks;
    c.regsPerBank = regs;
    return c;
}

/** Simulate one workload and return (stats, operations). */
std::pair<SimStats, uint64_t>
simulate(const WorkloadSpec &spec, const ArchConfig &cfg, double scale)
{
    Dag d = buildWorkloadDag(spec, scale);
    auto prog = compile(d, cfg);
    Rng rng(spec.seed);
    std::vector<double> in(d.numInputs());
    for (auto &x : in)
        x = 0.5 + rng.uniform();
    auto res = Machine(prog).run(in);
    return {res.stats, prog.stats.numOperations};
}

TEST(AreaModel, MatchesTableTwoAtMinEdp)
{
    auto a = areaOf(minEdpConfig());
    // Paper Table II: 3.2 mm^2 total.
    EXPECT_NEAR(a.total, 3.2, 0.15);
    EXPECT_NEAR(a.byModule[static_cast<size_t>(Module::Pes)], 0.13,
                0.02);
    EXPECT_NEAR(a.byModule[static_cast<size_t>(Module::RegisterBanks)],
                0.35, 0.05);
    EXPECT_NEAR(a.byModule[static_cast<size_t>(Module::InstrMemory)],
                1.20, 0.05);
}

TEST(AreaModel, GrowsWithEveryParameter)
{
    ArchConfig base = minEdpConfig();
    ArchConfig fewer_banks = cfgOf(3, 32, 32);
    ArchConfig more_regs = cfgOf(3, 64, 128);
    EXPECT_LT(areaOf(fewer_banks).total, areaOf(base).total);
    EXPECT_GT(areaOf(more_regs).total, areaOf(base).total);
}

TEST(EnergyModel, PowerMatchesTableTwoOnSuite)
{
    // The tech28 event energies are fitted so that the min-EDP design
    // running the paper-size suite draws Table II's 108.9 mW. Check
    // that fit where it was made, at scale 1.0, within 1 mW: the
    // suite at scale 0.2 has other activity and reads 132.8 mW.
    ArchConfig cfg = minEdpConfig();
    double pj = 0, sec = 0;
    for (const auto &spec : smallSuite()) {
        auto [stats, ops] = simulate(spec, cfg, 1.0);
        auto e = energyOf(cfg, stats, ops);
        pj += e.totalPj;
        sec += e.seconds();
    }
    double watts = pj * 1e-12 / sec;
    EXPECT_NEAR(watts, 0.1089, 0.001);
}

TEST(EnergyModel, DerivedMetricsConsistent)
{
    ArchConfig cfg = minEdpConfig();
    auto [stats, ops] = simulate(pcSuite()[0], cfg, 0.2);
    auto e = energyOf(cfg, stats, ops);
    EXPECT_GT(e.totalPj, 0);
    EXPECT_NEAR(e.edpPjNs(), e.energyPerOpPj() * e.latencyPerOpNs(),
                1e-9);
    EXPECT_NEAR(e.seconds(), double(stats.cycles) / 300e6, 1e-12);
    EXPECT_GT(e.wallPowerWatts(), 0.01);
    EXPECT_LT(e.wallPowerWatts(), 1.0);
}

TEST(EnergyModel, MoreBanksMorePowerButFaster)
{
    ArchConfig c16 = cfgOf(3, 16, 32);
    auto [stats16, ops16] = simulate(pcSuite()[1], c16, 0.2);
    auto [stats64, ops64] = simulate(pcSuite()[1], minEdpConfig(), 0.2);
    auto e16 = energyOf(c16, stats16, ops16);
    auto e64 = energyOf(minEdpConfig(), stats64, ops64);
    EXPECT_LT(e16.wallPowerWatts(), e64.wallPowerWatts());
    EXPECT_GT(e16.latencyPerOpNs(), e64.latencyPerOpNs());
}

TEST(Dse, SmallSweepFindsSaneOptima)
{
    DseOptions o;
    o.depths = {1, 3};
    o.banks = {8, 64};
    o.regs = {32};
    o.workloadScale = 0.08;
    auto pts = exploreDesignSpace(o);
    ASSERT_EQ(pts.size(), 4u);
    // Deeper trees + more banks = fastest.
    auto &fastest = pts[minLatencyIndex(pts)];
    EXPECT_EQ(fastest.cfg.depth, 3u);
    EXPECT_EQ(fastest.cfg.banks, 64u);
    for (auto &p : pts) {
        EXPECT_TRUE(p.feasible);
        EXPECT_GT(p.throughputGops, 0);
        EXPECT_GT(p.areaMm2, 0);
    }
}

TEST(Dse, InfeasiblePointsMarked)
{
    DseOptions o;
    o.depths = {3};
    o.banks = {8};
    o.regs = {2}; // hopeless register file
    o.workloadScale = 0.05;
    auto pts = exploreDesignSpace(o);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_FALSE(pts[0].feasible);
}

TEST(Dse, EvaluateSingleDesignMatchesSweepShape)
{
    auto suite = std::vector<WorkloadSpec>{pcSuite()[0]};
    auto small = evaluateDesign(cfgOf(1, 8, 32), suite, 0.1, 1);
    auto big = evaluateDesign(minEdpConfig(), suite, 0.1, 1);
    EXPECT_GT(small.latencyPerOpNs, big.latencyPerOpNs);
    EXPECT_LT(small.powerWatts, big.powerWatts);
}

} // namespace
} // namespace dpu
