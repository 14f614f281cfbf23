/**
 * @file
 * Seeded randomized stress suite for the async serving subsystem: N
 * resident programs x M concurrent submitter threads firing requests
 * with random inter-arrival jitter, against server configurations
 * with random batch sizes, batching windows and queue depths. The pinned property is the serving determinism guarantee:
 * every request the server *accepts* must resolve to a SimResult
 * byte-identical to a serial single-threaded replay of the same input
 * — across seeds and 1/4/8-worker configurations. Admission outcomes
 * (queue-full rejections) are timing-dependent and deliberately not
 * pinned; rejected requests simply drop out of the comparison.
 *
 * This suite also runs under ThreadSanitizer in CI (see
 * .github/workflows/ci.yml), where the random interleavings double as
 * a data-race probe for the batch scheduler's cuts and core grants.
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

/** One resident program, its input pool, and the serial-replay
 *  reference results (the single-threaded ground truth). */
struct StressProgram
{
    CompiledProgram prog;
    std::vector<std::vector<double>> inputs;
    std::vector<SimResult> reference;
};

constexpr size_t kPrograms = 3;
constexpr size_t kInputsPerProgram = 4;
constexpr size_t kSubmitters = 4;
constexpr size_t kRequestsPerSubmitter = 12;

/** Compile the resident population once for every test instance; the
 *  per-seed randomness is all on the serving side. */
const std::vector<StressProgram> &
stressPrograms()
{
    static const std::vector<StressProgram> programs = [] {
        std::vector<StressProgram> out(kPrograms);
        const uint64_t dag_seeds[kPrograms] = {91, 92, 93};
        const uint32_t dag_inputs[kPrograms] = {10, 14, 12};
        const uint32_t dag_nodes[kPrograms] = {220, 420, 300};
        for (size_t p = 0; p < kPrograms; ++p) {
            Dag d = generateRandomDag(dag_inputs[p], dag_nodes[p],
                                      dag_seeds[p]);
            out[p].prog = compile(d, smallConfig());
            Rng rng(1000 + dag_seeds[p]);
            for (size_t k = 0; k < kInputsPerProgram; ++k) {
                std::vector<double> in(d.numInputs());
                for (auto &x : in)
                    x = 0.5 + rng.uniform();
                // Serial single-threaded replay: one private Machine,
                // no batching, no threads — the reference every
                // served result must match byte for byte.
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

/** (seed, worker count) sweep. */
class AsyncStress
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>>
{
};

TEST_P(AsyncStress, ServedResultsMatchSerialReplay)
{
    const uint64_t seed = std::get<0>(GetParam());
    const uint32_t workers = std::get<1>(GetParam());
    const auto &population = stressPrograms();

    // Server shape drawn from the seed: window, batch size and queue
    // bound.
    Rng shape_rng(seed);
    AsyncServerConfig cfg;
    cfg.cores = 4;
    cfg.workers = workers;
    cfg.maxBatch = 1 + shape_rng.next() % 8;
    const uint64_t window_us[] = {0, 100, 2000};
    cfg.batchWindow =
        std::chrono::microseconds(window_us[shape_rng.next() % 3]);
    // Either unbounded or roomy-but-finite: small depths would turn
    // most of the load into (legitimate) rejections and starve the
    // determinism comparison of samples.
    cfg.queueDepth = shape_rng.next() % 2 ? 0 : 64;
    AsyncBatchServer server(cfg);

    std::vector<AsyncBatchServer::ProgramHandle> handles;
    for (const StressProgram &p : population)
        handles.push_back(server.addProgram(p.prog));

    struct Submitted
    {
        size_t program;
        size_t input;
        std::future<SimResult> future; ///< Invalid when rejected.
    };
    std::vector<std::vector<Submitted>> per_thread(kSubmitters);

    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            // Per-thread deterministic request stream; only the
            // interleaving across threads is left to the scheduler.
            Rng rng(seed * 1000 + t);
            for (size_t k = 0; k < kRequestsPerSubmitter; ++k) {
                size_t p = rng.next() % population.size();
                size_t i = rng.next() % kInputsPerProgram;
                SubmitResult r =
                    server.trySubmit(handles[p], population[p].inputs[i]);
                per_thread[t].push_back(
                    {p, i, std::move(r.future)});
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
            if (!s.future.valid())
                continue; // rejected by admission: not pinned
            SCOPED_TRACE("program " + std::to_string(s.program) +
                         " input " + std::to_string(s.input));
            expectIdentical(
                s.future.get(),
                population[s.program].reference[s.input]);
            ++served;
        }
    }
    // The sweep must actually exercise the comparison: with these
    // depths, most of the 48 requests are admitted.
    EXPECT_GE(served, kSubmitters * kRequestsPerSubmitter / 2);

    auto st = server.stats();
    EXPECT_EQ(st.requests, served);
    EXPECT_EQ(st.completions, served);
    EXPECT_EQ(st.rejectedQueueFull,
              kSubmitters * kRequestsPerSubmitter - served);
    EXPECT_EQ(st.batchesStarted, st.batches);
    EXPECT_EQ(st.sizeDispatches + st.idleDispatches +
                  st.windowDispatches + st.drainDispatches,
              st.batches);
}

INSTANTIATE_TEST_SUITE_P(
    AsyncStressSweep, AsyncStress,
    ::testing::Combine(::testing::Values(uint64_t{71}, uint64_t{72},
                                         uint64_t{73}),
                       ::testing::Values(1u, 4u, 8u)),
    [](const ::testing::TestParamInfo<AsyncStress::ParamType> &info) {
        return "seed" +
               std::to_string(std::get<0>(info.param)) + "_workers" +
               std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace dpu
