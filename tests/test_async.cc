/**
 * @file
 * Tests for the async batch-submission server: per-request results
 * must be byte-identical to a standalone Machine run regardless of
 * arrival order, batching window, max-batch size, or worker thread
 * counts (the serving analogue of the ParallelCompile byte-identical
 * guarantee), across multiple resident programs, with the cold-submit
 * compile path going through the program cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <random>
#include <thread>

#include "compiler/compiler.hh"
#include "sim/async.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/sparse_matrix.hh"
#include "workloads/sptrsv.hh"

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

std::vector<std::vector<double>>
makeInputs(const Dag &d, size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> inputs;
    for (size_t k = 0; k < count; ++k) {
        std::vector<double> in(d.numInputs());
        for (auto &x : in)
            x = 0.5 + rng.uniform();
        inputs.push_back(std::move(in));
    }
    return inputs;
}

/** Byte-identical SimResult comparison (same bits, same counters). */
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

TEST(AsyncServer, ResultsMatchStandaloneMachine)
{
    Dag d = generateRandomDag(12, 300, 51);
    auto prog = compile(d, smallConfig());
    auto inputs = makeInputs(d, 9, 52);

    AsyncServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.batchWindow = std::chrono::microseconds(100);
    AsyncBatchServer server(cfg);
    auto h = server.addProgram(prog);

    std::vector<std::future<SimResult>> futures;
    for (const auto &in : inputs)
        futures.push_back(server.submit(h, in));
    for (size_t k = 0; k < inputs.size(); ++k)
        expectIdentical(futures[k].get(), Machine(prog).run(inputs[k]));

    auto s = server.stats();
    EXPECT_EQ(s.requests, inputs.size());
    EXPECT_GE(s.batches, 1u);
    EXPECT_LE(s.maxBatchObserved, cfg.maxBatch);
    EXPECT_EQ(s.sizeDispatches + s.idleDispatches + s.windowDispatches +
                  s.drainDispatches,
              s.batches);
}

TEST(AsyncServer, DeterministicAcrossArrivalOrdersAndConfigs)
{
    Dag d = generateRandomDag(16, 500, 53);
    auto prog = compile(d, smallConfig());
    auto inputs = makeInputs(d, 12, 54);

    // Reference: what each request must yield, independent of the
    // serving side.
    std::vector<SimResult> reference;
    for (const auto &in : inputs)
        reference.push_back(Machine(prog).run(in));

    struct Shape
    {
        size_t maxBatch;
        std::chrono::microseconds window;
        uint32_t workers;
    };
    const Shape shapes[] = {
        {1, std::chrono::microseconds(0), 1},    // no coalescing
        {3, std::chrono::microseconds(50), 2},   // tiny window
        {16, std::chrono::microseconds(5000), 4}, // big batches
    };

    std::mt19937 gen(55);
    for (const Shape &shape : shapes) {
        for (int round = 0; round < 3; ++round) {
            std::vector<size_t> order(inputs.size());
            std::iota(order.begin(), order.end(), 0);
            std::shuffle(order.begin(), order.end(), gen);

            AsyncServerConfig cfg;
            cfg.maxBatch = shape.maxBatch;
            cfg.batchWindow = shape.window;
            cfg.workers = shape.workers;
            AsyncBatchServer server(cfg);
            auto h = server.addProgram(prog);

            std::vector<std::future<SimResult>> futures(inputs.size());
            for (size_t k : order)
                futures[k] = server.submit(h, inputs[k]);
            server.drain();
            for (size_t k = 0; k < inputs.size(); ++k)
                expectIdentical(futures[k].get(), reference[k]);
        }
    }
}

TEST(AsyncServer, SpTrsvMultiRhsCoalescedByteIdentical)
{
    // The "many users, same model" serving shape: one resident SpTRSV
    // program, many right-hand sides submitted individually and
    // coalesced into batches. Every per-RHS result must be
    // byte-identical to an independent single-RHS Machine solve.
    LowerTriangularParams p;
    p.dim = 80;
    p.depthLevels = 10;
    p.avgOffDiagonal = 3.0;
    p.seed = 61;
    auto lower = makeLowerTriangular(p);
    auto lowered = buildSpTrsvDag(lower);
    auto prog = compile(lowered.dag, smallConfig());

    std::vector<std::vector<double>> rhs_batch;
    Rng rng(62);
    for (int b = 0; b < 10; ++b) {
        std::vector<double> rhs(lower.dim());
        for (auto &x : rhs)
            x = rng.uniform() * 2 - 1;
        rhs_batch.push_back(std::move(rhs));
    }
    auto inputs = sptrsvBatchInputs(lowered, lower, rhs_batch);

    std::vector<SimResult> reference;
    for (size_t b = 0; b < rhs_batch.size(); ++b)
        reference.push_back(Machine(prog).run(
            sptrsvInputValues(lowered, lower, rhs_batch[b])));

    for (uint32_t workers : {1u, 2u, 4u}) {
        AsyncServerConfig cfg;
        cfg.maxBatch = 4;
        cfg.batchWindow = std::chrono::microseconds(200);
        cfg.workers = workers;
        AsyncBatchServer server(cfg);
        auto h = server.addProgram(prog);

        std::vector<std::future<SimResult>> futures;
        for (const auto &in : inputs)
            futures.push_back(server.submit(h, in));
        server.drain();
        for (size_t b = 0; b < inputs.size(); ++b)
            expectIdentical(futures[b].get(), reference[b]);
    }
}

TEST(AsyncServer, MultipleResidentPrograms)
{
    // The paper's "execute different DAGs" mode: interleave requests
    // for two different programs; each result must match its own
    // program's standalone run.
    Dag d1 = generateRandomDag(12, 250, 56);
    Dag d2 = generateRandomDag(10, 400, 57);
    auto p1 = compile(d1, smallConfig());
    auto p2 = compile(d2, smallConfig());
    auto in1 = makeInputs(d1, 6, 58);
    auto in2 = makeInputs(d2, 6, 59);

    AsyncServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.batchWindow = std::chrono::microseconds(200);
    cfg.workers = 2;
    AsyncBatchServer server(cfg);
    auto h1 = server.addProgram(p1);
    auto h2 = server.addProgram(p2);
    EXPECT_EQ(server.numPrograms(), 2u);

    std::vector<std::future<SimResult>> f1, f2;
    for (size_t k = 0; k < 6; ++k) {
        f1.push_back(server.submit(h1, in1[k]));
        f2.push_back(server.submit(h2, in2[k]));
    }
    server.drain();
    for (size_t k = 0; k < 6; ++k) {
        expectIdentical(f1[k].get(), Machine(p1).run(in1[k]));
        expectIdentical(f2[k].get(), Machine(p2).run(in2[k]));
    }
    EXPECT_EQ(server.stats().requests, 12u);
}

TEST(AsyncServer, ColdSubmitCompilesThroughCache)
{
    Dag d = generateRandomDag(12, 300, 60);
    ArchConfig cfg = smallConfig();
    ProgramCache cache;
    auto inputs = makeInputs(d, 3, 61);

    SimResult first_result;
    {
        AsyncBatchServer server;
        auto h = server.addProgram(d, cfg, {}, &cache);
        first_result = server.submit(h, inputs[0]).get();
    }
    EXPECT_EQ(cache.stats().misses, 1u);

    // A second server loading the same DAG hits the cache — and the
    // cached program serves byte-identical results.
    {
        AsyncBatchServer server;
        auto h = server.addProgram(d, cfg, {}, &cache);
        expectIdentical(server.submit(h, inputs[0]).get(),
                        first_result);
    }
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(AsyncServer, DrainFlushesAnOpenWindow)
{
    // Whether the second request is still waiting when drain() starts
    // depends on when the worker picks up the first, so the exact
    // flush (one Drain cut of both) is pinned on the policy core
    // (CutPolicy.DrainFlushesAnOpenWindow). Under any interleaving,
    // drain() returns long before the window with both served.
    Dag d = generateRandomDag(10, 200, 62);
    auto prog = compile(d, smallConfig());
    auto inputs = makeInputs(d, 2, 63);

    AsyncServerConfig cfg;
    cfg.maxBatch = 64;
    cfg.batchWindow = std::chrono::seconds(30); // would stall a sweep
    AsyncBatchServer server(cfg);
    auto h = server.addProgram(prog);

    auto start = AsyncBatchServer::Clock::now();
    auto f0 = server.submit(h, inputs[0]);
    auto f1 = server.submit(h, inputs[1]);
    server.drain(); // must not wait out the 30s window
    EXPECT_LT(AsyncBatchServer::Clock::now() - start,
              std::chrono::seconds(10));
    expectIdentical(f0.get(), Machine(prog).run(inputs[0]));
    expectIdentical(f1.get(), Machine(prog).run(inputs[1]));

    auto s = server.stats();
    EXPECT_GE(s.batches, 1u);
    EXPECT_LE(s.batches, 2u);
    EXPECT_EQ(s.windowDispatches, 0u);
    EXPECT_EQ(s.idleDispatches + s.drainDispatches, s.batches);
    EXPECT_EQ(s.completions, 2u);
}

TEST(AsyncServer, FullBatchDispatchesWithoutDrain)
{
    Dag d = generateRandomDag(10, 200, 64);
    auto prog = compile(d, smallConfig());
    auto inputs = makeInputs(d, 4, 65);

    AsyncServerConfig cfg;
    cfg.maxBatch = 4;
    cfg.batchWindow = std::chrono::seconds(30);
    AsyncBatchServer server(cfg);
    auto h = server.addProgram(prog);

    auto start = AsyncBatchServer::Clock::now();
    std::vector<std::future<SimResult>> futures;
    for (const auto &in : inputs)
        futures.push_back(server.submit(h, in));
    // Each request is cut either for the idle worker or, once the
    // fourth fills the queue, by size (the exact size cut is pinned
    // on the policy core): the futures complete without any drain()
    // and long before the 30s window.
    for (size_t k = 0; k < futures.size(); ++k)
        expectIdentical(futures[k].get(), Machine(prog).run(inputs[k]));
    EXPECT_LT(AsyncBatchServer::Clock::now() - start,
              std::chrono::seconds(10));
    auto s = server.stats();
    EXPECT_EQ(s.windowDispatches, 0u);
    EXPECT_EQ(s.sizeDispatches + s.idleDispatches, s.batches);
}

TEST(AsyncServer, IdleCutWaitsForAFreeCore)
{
    // One model core, two workers. While r1's batch holds the core the
    // second worker is parked, but a batch cut for it could not start:
    // r2 must wait for company, and r2..r5 leave as one batch when the
    // core frees. Cutting r2 alone for the parked worker made three
    // batches where two suffice. A lone run lasts ~0.2 ms here, so an
    // attempt only counts when r1 still held the core after r5 was
    // submitted (the scheduler's exact rule is pinned in
    // BatchScheduler.IdleNeedsAFreeEligibleCore).
    static const Dag d = generateRandomDag(16, 100000, 97);
    static const CompiledProgram prog = compile(d, smallConfig());
    auto inputs = makeInputs(d, 5, 98);
    const Machine reference(prog);

    AsyncServerConfig cfg;
    cfg.cores = 1;
    cfg.workers = 2;
    cfg.maxBatch = 8;
    cfg.batchWindow = std::chrono::seconds(30);
    for (int attempt = 0; attempt < 50; ++attempt) {
        AsyncBatchServer server(cfg);
        auto h = server.addProgram(prog);
        auto f1 = server.submit(h, inputs[0]);
        // Bumped under the server lock as r1's batch takes the core.
        while (server.stats().batchesStarted < 1)
            std::this_thread::yield();
        std::vector<std::future<SimResult>> rest;
        rest.push_back(server.submit(h, inputs[1]));
        // Time for the batcher to cut r2 alone, were it to.
        auto until = AsyncBatchServer::Clock::now() +
                     std::chrono::microseconds(50);
        while (server.stats().batches < 2 &&
               AsyncBatchServer::Clock::now() < until)
            std::this_thread::yield();
        for (size_t k = 2; k < inputs.size(); ++k)
            rest.push_back(server.submit(h, inputs[k]));
        bool held = f1.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::timeout;
        // No drain(): it would cut r2..r5 at once. The freed core
        // does, long before the window.
        expectIdentical(f1.get(), reference.run(inputs[0]));
        for (size_t k = 0; k < rest.size(); ++k)
            expectIdentical(rest[k].get(), reference.run(inputs[k + 1]));
        if (!held)
            continue; // r1 finished before r5 arrived: retry
        auto s = server.stats();
        EXPECT_EQ(s.batches, 2u);
        EXPECT_EQ(s.batchesStarted, 2u);
        EXPECT_EQ(s.idleDispatches, 2u);
        EXPECT_EQ(s.maxBatchObserved, 4u);
        return;
    }
    FAIL() << "r1's batch never outlasted the four submits";
}

TEST(AsyncServer, SubmitValidatesHandleAndInputSize)
{
    Dag d = generateRandomDag(10, 200, 66);
    auto prog = compile(d, smallConfig());

    AsyncBatchServer server;
    auto h = server.addProgram(prog);
    EXPECT_THROW(server.submit(h + 1, std::vector<double>(d.numInputs())),
                 FatalError);
    EXPECT_THROW(server.submit(h, std::vector<double>(d.numInputs() + 1)),
                 FatalError);
    // Valid submits still work after the rejected ones.
    auto in = makeInputs(d, 1, 67)[0];
    expectIdentical(server.submit(h, in).get(), Machine(prog).run(in));
}

TEST(AsyncServer, ModeledCyclesAccumulate)
{
    Dag d = generateRandomDag(10, 200, 68);
    auto prog = compile(d, smallConfig());
    auto inputs = makeInputs(d, 8, 69);

    AsyncServerConfig cfg;
    cfg.cores = 4;
    cfg.maxBatch = 8;
    cfg.batchWindow = std::chrono::seconds(5);
    AsyncBatchServer server(cfg);
    auto h = server.addProgram(prog);
    // One request in flight at a time: each finds the worker parked
    // (it resolves the previous future under the server lock and
    // parks before a submit can take the lock; the first waits for
    // the worker thread's first park), so each is its own batch, cut
    // for the idle worker.
    for (const auto &in : inputs)
        server.submit(h, in).get();

    auto s = server.stats();
    EXPECT_EQ(s.batches, 8u);
    EXPECT_EQ(s.idleDispatches, 8u);
    // Eight lone runs, accumulated batch by batch.
    EXPECT_EQ(s.modeledWallCycles, 8 * prog.stats.cycles);
    EXPECT_EQ(s.totalOperations, 8 * prog.stats.numOperations);
}

TEST(AsyncServer, QueueFullRejectsWithBackpressure)
{
    Dag d = generateRandomDag(10, 200, 70);
    auto prog = compile(d, smallConfig());
    auto inputs = makeInputs(d, 4, 71);

    AsyncServerConfig cfg;
    cfg.maxBatch = 64;
    cfg.batchWindow = std::chrono::seconds(30);
    cfg.queueDepth = 2;
    AsyncBatchServer server(cfg);
    auto h = server.addProgram(prog);

    // Nothing is outstanding yet, so the first queueDepth requests
    // are admitted whatever the server does meanwhile.
    auto a = server.trySubmit(h, inputs[0]);
    auto b = server.trySubmit(h, inputs[1]);
    ASSERT_TRUE(a.accepted());
    ASSERT_TRUE(b.accepted());
    EXPECT_TRUE(a.future.valid());

    // The idle worker serves them at once, so whether the next one
    // is rejected depends on timing. A burst of submits outruns the
    // server: a rejected request enqueues nothing and carries no
    // future.
    std::vector<std::future<SimResult>> admitted;
    uint64_t rejected = 0;
    for (int k = 0; k < 100000 && rejected == 0; ++k) {
        auto c = server.trySubmit(h, inputs[2]);
        if (c.accepted()) {
            admitted.push_back(std::move(c.future));
            continue;
        }
        EXPECT_EQ(c.admission, Admission::RejectedQueueFull);
        EXPECT_FALSE(c.future.valid());
        ++rejected;
    }
    ASSERT_EQ(rejected, 1u);

    // The throwing submit() surfaces the same rejection as an error.
    bool threw = false;
    for (int k = 0; k < 100000 && !threw; ++k) {
        try {
            admitted.push_back(server.submit(h, inputs[2]));
        } catch (const FatalError &) {
            threw = true;
        }
    }
    EXPECT_TRUE(threw);

    auto s = server.stats();
    EXPECT_EQ(s.requests, 2 + admitted.size());
    EXPECT_EQ(s.rejectedQueueFull, 2u);

    // Draining frees the queue; admission recovers.
    server.drain();
    auto after = server.trySubmit(h, inputs[3]);
    EXPECT_TRUE(after.accepted());
    server.drain();
    expectIdentical(after.future.get(), Machine(prog).run(inputs[3]));
    expectIdentical(a.future.get(), Machine(prog).run(inputs[0]));
    expectIdentical(b.future.get(), Machine(prog).run(inputs[1]));
    SimResult reference = Machine(prog).run(inputs[2]);
    for (auto &f : admitted)
        expectIdentical(f.get(), reference);
}

TEST(AsyncServer, StatsIncludeEveryCompletionAClientObserved)
{
    // Regression: promises used to be fulfilled before the per-batch
    // counters were updated, so a client returning from
    // get() could read stats() without its own completion. Widen that
    // window with concurrent submitters: every completion any client
    // has observed must already be counted when it reads stats().
    Dag d = generateRandomDag(10, 200, 75);
    auto prog = compile(d, smallConfig());
    auto inputs = makeInputs(d, 4, 76);

    AsyncServerConfig cfg;
    cfg.workers = 2;
    cfg.batchWindow = std::chrono::microseconds(0);
    AsyncBatchServer server(cfg);
    auto h = server.addProgram(prog);

    constexpr size_t kSubmitters = 4;
    constexpr size_t kIterations = 200;
    std::atomic<uint64_t> observed{0};
    std::atomic<uint64_t> stale{0};
    std::vector<std::thread> submitters;
    for (size_t t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (size_t i = t; i < kIterations; i += kSubmitters) {
                auto r = server.trySubmit(h, inputs[i % inputs.size()]);
                if (!r.accepted()) {
                    ++stale;
                    continue;
                }
                r.future.get();
                uint64_t seen = ++observed;
                auto st = server.stats();
                if (st.completions < seen ||
                    st.totalOperations < seen * prog.stats.numOperations)
                    ++stale;
            }
        });
    }
    for (auto &th : submitters)
        th.join();
    EXPECT_EQ(stale.load(), 0u);
    EXPECT_EQ(observed.load(), kIterations);
    server.drain();
    EXPECT_EQ(server.stats().completions, kIterations);
}

TEST(AsyncServer, DestructorResolvesPendingFutures)
{
    // Drain-on-shutdown: a server destroyed with an open window and
    // pending requests must resolve every accepted future (no
    // deadlock, no broken promise).
    Dag d = generateRandomDag(10, 200, 82);
    auto prog = compile(d, smallConfig());
    auto inputs = makeInputs(d, 5, 83);

    std::vector<std::future<SimResult>> futures;
    {
        AsyncServerConfig cfg;
        cfg.maxBatch = 64;
        cfg.batchWindow = std::chrono::seconds(30);
        cfg.workers = 2;
        AsyncBatchServer server(cfg);
        auto h = server.addProgram(prog);
        for (const auto &in : inputs)
            futures.push_back(server.submit(h, in));
        // Destructor runs here with all five requests still pending.
    }
    for (size_t k = 0; k < inputs.size(); ++k)
        expectIdentical(futures[k].get(), Machine(prog).run(inputs[k]));
}

} // namespace
} // namespace dpu
