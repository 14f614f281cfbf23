/**
 * @file
 * Fleet topology + host↔device transfer model tests: the
 * HostTransferModel arithmetic, the RankSet dispatch form, transfer
 * accounting through Machine/BatchMachine, static transfer and
 * wall-cycle counts, the virtual-time fleet simulator,
 * the rank-aware AsyncBatchServer, and the DSE fleet axes. The pinned
 * contracts:
 *
 *   - the default (free) transfer model charges exactly 0 everywhere,
 *     so every pre-fleet result is byte-identical;
 *   - transfer cost is statically computable: the static counts
 *     equal what the simulated machines charge;
 *   - per-request SimResults never depend on ranks, placement, or the
 *     transfer model — fleet accounting is batch-level only.
 */

#include <gtest/gtest.h>

#include <vector>

#include "arch/topology.hh"
#include "compiler/compiler.hh"
#include "model/dse.hh"
#include "sim/async.hh"
#include "sim/batch.hh"
#include "sim/fleet.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

ArchConfig
smallConfig()
{
    ArchConfig c;
    c.depth = 2;
    c.banks = 8;
    c.regsPerBank = 32;
    return c;
}

const CompiledProgram &
testProgram()
{
    static const CompiledProgram prog = [] {
        Dag d = generateRandomDag(12, 260, 17);
        return compile(d, smallConfig());
    }();
    return prog;
}

std::vector<std::vector<double>>
testInputs(size_t n, uint64_t seed)
{
    const CompiledProgram &prog = testProgram();
    Rng rng(seed);
    std::vector<std::vector<double>> inputs(n);
    for (auto &in : inputs) {
        in.resize(prog.inputLocation.size());
        for (auto &x : in)
            x = 0.5 + rng.uniform();
    }
    return inputs;
}

TEST(Fleet, TransferModelDefaultIsFree)
{
    HostTransferModel m;
    EXPECT_TRUE(m.free());
    EXPECT_EQ(m.bytesCycles(1 << 20), 0u);
    EXPECT_EQ(m.batchCycles(4096, 1000), 0u);
}

TEST(Fleet, TransferModelFromGbps)
{
    // An infinite link is the free model, dispatch cost included.
    HostTransferModel inf = HostTransferModel::fromGbps(
        std::numeric_limits<double>::infinity(), 300e6);
    EXPECT_TRUE(inf.free());

    // 300 MHz over a 3 GB/s link: 0.1 cycles per byte.
    HostTransferModel m = HostTransferModel::fromGbps(3.0, 300e6);
    EXPECT_DOUBLE_EQ(m.cyclesPerByte, 0.1);
    EXPECT_EQ(m.dispatchCycles, 0u);
    EXPECT_EQ(m.bytesCycles(100), 10u);
    EXPECT_EQ(m.bytesCycles(101), 11u); // ceil, partial cycles round up
    EXPECT_EQ(m.batchCycles(100, 5), 50u);

    // A 1 us dispatch at 300 MHz is 300 cycles, paid once per batch.
    HostTransferModel d =
        HostTransferModel::fromGbps(3.0, 300e6, 1000.0);
    EXPECT_EQ(d.dispatchCycles, 300u);
    EXPECT_FALSE(d.free());
    EXPECT_EQ(d.batchCycles(100, 5), 300u + 50u);

    // Dispatch-only models are not free either.
    HostTransferModel disp;
    disp.dispatchCycles = 7;
    EXPECT_FALSE(disp.free());
    EXPECT_EQ(disp.batchCycles(1000, 3), 7u);
}

TEST(Fleet, TopologyAndRankSet)
{
    FleetTopology t;
    EXPECT_EQ(t.ranks, 1u);
    EXPECT_EQ(t.totalCores(), 4u);
    t.ranks = 32;
    t.coresPerRank = 4;
    EXPECT_EQ(t.totalCores(), 128u);

    RankSet rs = RankSet::firstN(4);
    EXPECT_EQ(rs.rank, 0u);
    EXPECT_EQ(rs.count(), 4u);
    EXPECT_FALSE(rs.empty());
    EXPECT_EQ(rs.cores.ids, CoreSet::firstN(4).ids);
}

TEST(Fleet, PlacementNames)
{
    Placement p = Placement::Affinity;
    EXPECT_TRUE(parsePlacementName("replicate", p));
    EXPECT_EQ(p, Placement::Replicate);
    EXPECT_TRUE(parsePlacementName("affinity", p));
    EXPECT_EQ(p, Placement::Affinity);
    EXPECT_FALSE(parsePlacementName("", p));
    EXPECT_FALSE(parsePlacementName("Replicate", p));
    EXPECT_FALSE(parsePlacementName("bogus", p));
    EXPECT_STREQ(placementName(Placement::Replicate), "replicate");
    EXPECT_STREQ(placementName(Placement::Affinity), "affinity");
}

TEST(Fleet, MachineChargesTransferSeparately)
{
    const CompiledProgram &prog = testProgram();
    auto inputs = testInputs(1, 31);

    SimResult base = Machine(prog).run(inputs[0]);
    EXPECT_EQ(base.stats.transferCycles, 0u);

    SimOptions opts;
    opts.transfer = HostTransferModel::fromGbps(2.0, 300e6, 500.0);
    SimResult fleet = Machine(prog, opts).run(inputs[0]);

    uint64_t expected =
        opts.transfer.batchCycles(hostTransferBytes(prog), 1);
    EXPECT_GT(expected, 0u);
    EXPECT_EQ(fleet.stats.transferCycles, expected);

    // Transfer is accounting only: outputs and compute stats are
    // byte-identical to the transfer-free run.
    EXPECT_EQ(fleet.outputs, base.outputs);
    EXPECT_EQ(fleet.stats.cycles, base.stats.cycles);
    EXPECT_EQ(fleet.stats.kindCount, base.stats.kindCount);
    EXPECT_EQ(fleet.stats.bankReads, base.stats.bankReads);
    EXPECT_EQ(fleet.stats.peOperations, base.stats.peOperations);
}

TEST(Fleet, BatchMachineRankSetAccounting)
{
    const CompiledProgram &prog = testProgram();
    auto inputs = testInputs(6, 47);
    HostTransferModel xfer =
        HostTransferModel::fromGbps(4.0, 300e6, 100.0);

    BatchResult base =
        BatchMachine(prog, CoreSet::firstN(2), 100).run(inputs);
    EXPECT_EQ(base.rank, 0u);
    EXPECT_EQ(base.transferCycles, 0u);
    EXPECT_EQ(base.totalWallCycles(), base.wallCycles);

    RankSet target{3, CoreSet::firstN(2)};
    BatchResult fleet =
        BatchMachine(prog, target, 100, 1, xfer).run(inputs);
    EXPECT_EQ(fleet.rank, 3u);
    EXPECT_EQ(fleet.transferCycles,
              xfer.batchCycles(hostTransferBytes(prog),
                               inputs.size()));
    EXPECT_GT(fleet.transferCycles, 0u);
    EXPECT_EQ(fleet.wallCycles, base.wallCycles);
    EXPECT_EQ(fleet.totalWallCycles(),
              fleet.wallCycles + fleet.transferCycles);

    // Per-input results are identical to the rank-less dispatch.
    ASSERT_EQ(fleet.runs.size(), base.runs.size());
    for (size_t i = 0; i < base.runs.size(); ++i)
        EXPECT_EQ(fleet.runs[i].outputs, base.runs[i].outputs);
}

TEST(Fleet, StaticTransferMatchesBatchMachine)
{
    const CompiledProgram &prog = testProgram();
    auto inputs = testInputs(1, 53);
    HostTransferModel xfer =
        HostTransferModel::fromGbps(1.5, 300e6, 250.0);

    // One run: the machine charges exactly the static cost of one
    // dispatch.
    SimOptions opts;
    opts.transfer = xfer;
    SimStats measured = Machine(prog, opts).run(inputs[0]).stats;
    EXPECT_EQ(measured.transferCycles,
              xfer.batchCycles(hostTransferBytes(prog), 1));

    // Batch dispatch: the static transfer and wall-cycle counts match
    // the simulated BatchMachine exactly, for several shapes.
    for (uint64_t runs : {1u, 3u, 6u}) {
        for (uint32_t cores : {1u, 2u, 4u}) {
            auto batch_inputs = testInputs(runs, 1000 + runs);
            BatchResult br =
                BatchMachine(prog, RankSet{0, CoreSet::firstN(cores)},
                             100, 1, xfer)
                    .run(batch_inputs);
            uint64_t transfer =
                xfer.batchCycles(hostTransferBytes(prog), runs);
            EXPECT_EQ(transfer, br.transferCycles);
            EXPECT_EQ(batchWallCycles(prog, runs, cores) + transfer,
                      br.totalWallCycles());
        }
    }
}

TEST(Fleet, FleetSimDeterministicAndConserving)
{
    FleetSimOptions opts;
    opts.topology.ranks = 4;
    opts.topology.coresPerRank = 4;
    opts.transfer = HostTransferModel::fromGbps(4.0, 300e6, 100.0);
    opts.requests = 20000;
    opts.seed = 9;

    std::vector<FleetWorkloadModel> mix = {
        {400, 256, 1.0}, {900, 512, 0.5}};

    FleetSimReport a = simulateFleet(opts, mix);
    FleetSimReport b = simulateFleet(opts, mix);

    // Pure function of (options, mix): byte-identical reports.
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.horizonCycles, b.horizonCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.transferCycles, b.transferCycles);
    EXPECT_EQ(a.p99Cycles, b.p99Cycles);
    ASSERT_EQ(a.perRank.size(), b.perRank.size());
    for (size_t r = 0; r < a.perRank.size(); ++r) {
        EXPECT_EQ(a.perRank[r].requests, b.perRank[r].requests);
        EXPECT_EQ(a.perRank[r].transferCycles,
                  b.perRank[r].transferCycles);
        EXPECT_EQ(a.perRank[r].p99Cycles, b.perRank[r].p99Cycles);
    }

    // Conservation: every request lands on exactly one rank.
    ASSERT_EQ(a.perRank.size(), 4u);
    uint64_t requests = 0, batches = 0, compute = 0, transfer = 0;
    for (const FleetRankReport &rs : a.perRank) {
        requests += rs.requests;
        batches += rs.batches;
        compute += rs.computeCycles;
        transfer += rs.transferCycles;
        EXPECT_GT(rs.requests, 0u); // replicate spreads the load
        EXPECT_GT(rs.utilization, 0.0);
        EXPECT_GT(rs.transferOverhead, 0.0);
    }
    EXPECT_EQ(requests, opts.requests);
    EXPECT_EQ(a.requests, opts.requests);
    EXPECT_EQ(batches, a.batches);
    EXPECT_EQ(compute, a.computeCycles);
    EXPECT_EQ(transfer, a.transferCycles);
    EXPECT_GT(a.transferOverhead, 0.0);
    EXPECT_GT(a.meanBatch, 1.0);
    EXPECT_GT(a.p99Cycles, 0.0);
    EXPECT_GE(a.p99Cycles, a.p50Cycles);
}

TEST(Fleet, FleetSimFreeLinkChargesNothing)
{
    FleetSimOptions opts;
    opts.topology.ranks = 2;
    opts.requests = 5000;
    FleetSimReport rep =
        simulateFleet(opts, {{500, 4096, 1.0}});
    EXPECT_EQ(rep.transferCycles, 0u);
    EXPECT_DOUBLE_EQ(rep.transferOverhead, 0.0);
    for (const FleetRankReport &rs : rep.perRank)
        EXPECT_EQ(rs.transferCycles, 0u);
}

TEST(Fleet, FleetSimAffinityPinsToHomeRanks)
{
    FleetSimOptions opts;
    opts.topology.ranks = 2;
    opts.placement = Placement::Affinity;
    opts.requests = 4000;

    // One workload, two ranks: affinity pins everything to rank 0.
    FleetSimReport one = simulateFleet(opts, {{300, 128, 1.0}});
    EXPECT_EQ(one.perRank[0].requests, opts.requests);
    EXPECT_EQ(one.perRank[1].requests, 0u);

    // Two workloads: workload w lives on rank w % 2, so both ranks
    // see traffic.
    FleetSimReport two =
        simulateFleet(opts, {{300, 128, 1.0}, {600, 128, 1.0}});
    EXPECT_GT(two.perRank[0].requests, 0u);
    EXPECT_GT(two.perRank[1].requests, 0u);
}

TEST(Fleet, AsyncServerMultiRankMatchesSerialReplay)
{
    const CompiledProgram &prog = testProgram();
    auto inputs = testInputs(8, 67);
    std::vector<SimResult> reference;
    for (const auto &in : inputs)
        reference.push_back(Machine(prog).run(in));

    AsyncServerConfig cfg;
    cfg.cores = 2;
    cfg.ranks = 3;
    cfg.workers = 4;
    cfg.maxBatch = 4;
    cfg.transfer = HostTransferModel::fromGbps(2.0, 300e6, 200.0);
    AsyncBatchServer server(cfg);

    // One replicated (hot) program and one pinned (cold) one.
    auto hot = server.addProgram(prog);
    QosSpec cold_qos;
    cold_qos.placement = Placement::Affinity;
    auto cold = server.addProgram(prog, cold_qos);

    std::vector<std::future<SimResult>> futures;
    for (int round = 0; round < 6; ++round)
        for (size_t i = 0; i < inputs.size(); ++i)
            futures.push_back(server.submit(
                (round + i) % 2 ? cold : hot, inputs[i]));
    server.drain();

    for (size_t k = 0; k < futures.size(); ++k) {
        SimResult r = futures[k].get();
        const SimResult &ref = reference[k % inputs.size()];
        EXPECT_EQ(r.outputs, ref.outputs) << "request " << k;
        EXPECT_EQ(r.stats.cycles, ref.stats.cycles);
        // Per-request results carry no fleet accounting.
        EXPECT_EQ(r.stats.transferCycles, 0u);
    }

    auto st = server.stats();
    ASSERT_EQ(st.perRank.size(), 3u);
    uint64_t rank_batches = 0, rank_requests = 0, rank_transfer = 0;
    for (const auto &rs : st.perRank) {
        rank_batches += rs.batches;
        rank_requests += rs.requests;
        rank_transfer += rs.transferCycles;
    }
    EXPECT_EQ(rank_batches, st.batches);
    EXPECT_EQ(rank_requests, st.requests);
    EXPECT_EQ(rank_transfer, st.transferCycles);
    EXPECT_GT(st.transferCycles, 0u);
    for (const auto &rec : st.completionOrder)
        EXPECT_LT(rec.rank, 3u);
}

TEST(Fleet, AsyncServerSingleRankDefaultsUnchanged)
{
    const CompiledProgram &prog = testProgram();
    auto inputs = testInputs(4, 71);

    AsyncServerConfig cfg;
    cfg.cores = 2;
    AsyncBatchServer server(cfg);
    auto h = server.addProgram(prog);
    std::vector<std::future<SimResult>> futures;
    for (const auto &in : inputs)
        futures.push_back(server.submit(h, in));
    server.drain();
    for (auto &f : futures)
        (void)f.get();

    auto st = server.stats();
    EXPECT_EQ(st.transferCycles, 0u);
    ASSERT_EQ(st.perRank.size(), 1u);
    EXPECT_EQ(st.perRank[0].batches, st.batches);
    EXPECT_EQ(st.perRank[0].requests, st.requests);
    EXPECT_EQ(st.perRank[0].wallCycles, st.modeledWallCycles);
    EXPECT_EQ(st.perRank[0].transferCycles, 0u);
}

TEST(Fleet, DseFleetAxesScaleThroughputNotLatency)
{
    auto suite = smallSuite();
    suite.resize(1);
    ArchConfig cfg = smallConfig();

    DsePoint base = evaluateDesign(cfg, suite, 0.05, 1);
    ASSERT_TRUE(base.feasible);
    EXPECT_EQ(base.fleetRanks, 1u);
    EXPECT_DOUBLE_EQ(base.transferPerOpNs, 0.0);

    // Free transfer, 4 ranks: per-op latency and energy unchanged,
    // throughput and wall power exactly 4x.
    DsePoint fleet = evaluateDesign(cfg, suite, 0.05, 1, 1, nullptr,
                                    nullptr, 4);
    ASSERT_TRUE(fleet.feasible);
    EXPECT_EQ(fleet.fleetRanks, 4u);
    EXPECT_DOUBLE_EQ(fleet.latencyPerOpNs, base.latencyPerOpNs);
    EXPECT_DOUBLE_EQ(fleet.energyPerOpPj, base.energyPerOpPj);
    EXPECT_DOUBLE_EQ(fleet.throughputGops, 4.0 * base.throughputGops);
    EXPECT_DOUBLE_EQ(fleet.powerWatts, 4.0 * base.powerWatts);
    EXPECT_DOUBLE_EQ(fleet.transferPerOpNs, 0.0);

    // A finite link stretches latency and reports its share.
    HostTransferModel xfer =
        HostTransferModel::fromGbps(0.5, 300e6, 1000.0);
    DsePoint slow = evaluateDesign(cfg, suite, 0.05, 1, 1, nullptr,
                                   nullptr, 1, xfer);
    ASSERT_TRUE(slow.feasible);
    EXPECT_GT(slow.latencyPerOpNs, base.latencyPerOpNs);
    EXPECT_GT(slow.transferPerOpNs, 0.0);
    EXPECT_LE(slow.transferPerOpNs, slow.latencyPerOpNs);
}

} // namespace
} // namespace dpu
