/**
 * @file
 * Seeded randomized stress suite for the fleet-aware serving layer:
 * the test_async_stress determinism property extended over the rank
 * dimension. N resident programs (mixed replicate/affinity placement)
 * x M concurrent submitter threads, against servers spanning 1..4
 * ranks with a finite host-transfer model. The pinned property is
 * unchanged from the single-rank suite: every accepted request must
 * resolve to a SimResult byte-identical to a serial single-threaded
 * single-rank Machine replay of the same input — rank placement,
 * host-link charges and worker interleavings are accounting, never
 * results. The suite also runs under ThreadSanitizer in CI, probing
 * the per-rank reservation and placement paths for data races.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <tuple>
#include <vector>

#include "compiler/compiler.hh"
#include "sim/async.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"

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

struct StressProgram
{
    CompiledProgram prog;
    std::vector<std::vector<double>> inputs;
    std::vector<SimResult> reference;
};

constexpr size_t kPrograms = 3;
constexpr size_t kInputsPerProgram = 4;
constexpr size_t kSubmitters = 4;
constexpr size_t kRequestsPerSubmitter = 10;

const std::vector<StressProgram> &
stressPrograms()
{
    static const std::vector<StressProgram> programs = [] {
        std::vector<StressProgram> out(kPrograms);
        const uint64_t dag_seeds[kPrograms] = {81, 82, 83};
        const uint32_t dag_inputs[kPrograms] = {10, 12, 14};
        const uint32_t dag_nodes[kPrograms] = {200, 320, 260};
        for (size_t p = 0; p < kPrograms; ++p) {
            Dag d = generateRandomDag(dag_inputs[p], dag_nodes[p],
                                      dag_seeds[p]);
            out[p].prog = compile(d, smallConfig());
            Rng rng(2000 + dag_seeds[p]);
            for (size_t k = 0; k < kInputsPerProgram; ++k) {
                std::vector<double> in(d.numInputs());
                for (auto &x : in)
                    x = 0.5 + rng.uniform();
                // The serial single-rank ground truth every served
                // result must match byte for byte.
                out[p].reference.push_back(
                    Machine(out[p].prog).run(in));
                out[p].inputs.push_back(std::move(in));
            }
        }
        return out;
    }();
    return programs;
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (size_t i = 0; i < a.outputs.size(); ++i)
        EXPECT_EQ(a.outputs[i], b.outputs[i]) << "output " << i;
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    EXPECT_EQ(a.stats.kindCount, b.stats.kindCount);
    EXPECT_EQ(a.stats.bankReads, b.stats.bankReads);
    EXPECT_EQ(a.stats.bankWrites, b.stats.bankWrites);
    EXPECT_EQ(a.stats.peOperations, b.stats.peOperations);
    EXPECT_EQ(a.stats.pePassThroughs, b.stats.pePassThroughs);
    EXPECT_EQ(a.stats.crossbarTransfers, b.stats.crossbarTransfers);
    EXPECT_EQ(a.stats.memReads, b.stats.memReads);
    EXPECT_EQ(a.stats.memWrites, b.stats.memWrites);
    EXPECT_EQ(a.stats.instrBitsFetched, b.stats.instrBitsFetched);
    EXPECT_EQ(a.stats.peakLiveRegisters, b.stats.peakLiveRegisters);
}

/** (seed, workers, ranks, placement) sweep. */
class FleetStress
    : public ::testing::TestWithParam<
          std::tuple<uint64_t, uint32_t, uint32_t, Placement>>
{
};

TEST_P(FleetStress, ServedResultsMatchSerialReplay)
{
    const uint64_t seed = std::get<0>(GetParam());
    const uint32_t workers = std::get<1>(GetParam());
    const uint32_t ranks = std::get<2>(GetParam());
    const Placement placement = std::get<3>(GetParam());
    const auto &population = stressPrograms();

    Rng shape_rng(seed);
    AsyncServerConfig cfg;
    cfg.cores = 2 + shape_rng.next() % 3;
    cfg.ranks = ranks;
    cfg.placement = placement;
    cfg.workers = workers;
    cfg.maxBatch = 1 + shape_rng.next() % 6;
    const uint64_t window_us[] = {0, 100, 2000};
    cfg.batchWindow =
        std::chrono::microseconds(window_us[shape_rng.next() % 3]);
    // A finite link with a per-dispatch cost: the accounting under
    // test is never free in this suite.
    cfg.transfer = HostTransferModel::fromGbps(
        1.0 + (double)(shape_rng.next() % 8), 300e6, 100.0);
    AsyncBatchServer server(cfg);

    std::vector<AsyncBatchServer::ProgramHandle> handles;
    for (size_t p = 0; p < population.size(); ++p) {
        QosSpec qos;
        // Mixed placement: program 1 always opposes the server-wide
        // policy, so replicated and pinned programs coexist.
        if (p == 1)
            qos.placement = placement == Placement::Replicate
                ? Placement::Affinity
                : Placement::Replicate;
        handles.push_back(
            server.addProgram(population[p].prog, qos));
    }

    struct Submitted
    {
        size_t program;
        size_t input;
        std::future<SimResult> future;
    };
    std::vector<std::vector<Submitted>> per_thread(kSubmitters);

    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            Rng rng(seed * 1000 + t);
            for (size_t k = 0; k < kRequestsPerSubmitter; ++k) {
                size_t p = rng.next() % population.size();
                size_t i = rng.next() % kInputsPerProgram;
                per_thread[t].push_back(
                    {p, i,
                     server.submit(handles[p],
                                   population[p].inputs[i])});
                if (rng.next() % 4 == 0)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(rng.next() % 200));
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    server.drain();

    size_t served = 0;
    for (auto &thread_reqs : per_thread) {
        for (Submitted &s : thread_reqs) {
            SCOPED_TRACE("program " + std::to_string(s.program) +
                         " input " + std::to_string(s.input));
            expectIdentical(
                s.future.get(),
                population[s.program].reference[s.input]);
            ++served;
        }
    }
    EXPECT_EQ(served, kSubmitters * kRequestsPerSubmitter);

    // The rank accounting must conserve what the server served.
    auto st = server.stats();
    EXPECT_EQ(st.requests, served);
    ASSERT_EQ(st.perRank.size(), ranks);
    uint64_t rank_batches = 0, rank_requests = 0;
    uint64_t rank_wall = 0, rank_transfer = 0;
    for (const auto &rs : st.perRank) {
        rank_batches += rs.batches;
        rank_requests += rs.requests;
        rank_wall += rs.wallCycles;
        rank_transfer += rs.transferCycles;
    }
    EXPECT_EQ(rank_batches, st.batches);
    EXPECT_EQ(rank_requests, st.requests);
    EXPECT_EQ(rank_wall, st.modeledWallCycles);
    EXPECT_EQ(rank_transfer, st.transferCycles);
    EXPECT_GT(st.transferCycles, 0u);
    for (const auto &rec : st.completionOrder)
        EXPECT_LT(rec.rank, ranks);
}

INSTANTIATE_TEST_SUITE_P(
    FleetStressSweep, FleetStress,
    ::testing::Combine(::testing::Values(uint64_t{61}, uint64_t{62}),
                       ::testing::Values(1u, 4u),
                       ::testing::Values(1u, 2u, 4u),
                       ::testing::Values(Placement::Replicate,
                                         Placement::Affinity)),
    [](const ::testing::TestParamInfo<FleetStress::ParamType> &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) +
               "_workers" + std::to_string(std::get<1>(info.param)) +
               "_ranks" + std::to_string(std::get<2>(info.param)) +
               "_" + placementName(std::get<3>(info.param));
    });

} // namespace
} // namespace dpu
