/**
 * @file
 * Tests for the batch scheduler (sim/batching.hh), the serving core
 * AsyncBatchServer drives. It reads no clock and starts no thread, so
 * every rule the server's threaded tests can only bound is pinned
 * exactly here under scripted ticks. CutPolicy: the cut rule alone —
 * the reason precedence (size > drain > idle > window) and the
 * wake-up times. BatchScheduler: core grants, the start order, the
 * idle rule over workers and free cores, and a pinned digest of the
 * decisions a seeded script makes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/batching.hh"
#include "support/rng.hh"

namespace dpu {
namespace {

TEST(CutPolicy, DecisionTable)
{
    // maxBatch 4, window 100 ticks; the oldest request arrived at
    // tick 1000, so the window alone cuts at 1100.
    const CutPolicy policy{4, 100};

    struct Row
    {
        const char *what;
        size_t size;
        bool idle, draining;
        int64_t now;
        bool cut;
        CutReason reason; ///< When cut.
        int64_t wakeAt;   ///< When not cut.
    };
    const Row rows[] = {
        // Every worker busy: wait out the window.
        {"window pending", 1, false, false, 1000, false,
         CutReason::Window, 1100},
        {"window pending, late in it", 3, false, false, 1099, false,
         CutReason::Window, 1100},
        {"window expires", 1, false, false, 1100, true,
         CutReason::Window, 0},
        {"window long expired", 2, false, false, 5000, true,
         CutReason::Window, 0},
        // An idle worker cuts whatever is queued at once.
        {"idle", 1, true, false, 1000, true, CutReason::Idle, 0},
        // Precedence: size > drain > idle > window.
        {"size beats all", 4, true, true, 2000, true, CutReason::Size,
         0},
        {"over-full is size", 9, false, false, 1000, true,
         CutReason::Size, 0},
        {"drain beats idle", 3, true, true, 2000, true,
         CutReason::Drain, 0},
        {"drain before window", 1, false, true, 1000, true,
         CutReason::Drain, 0},
        {"idle beats window", 3, true, false, 2000, true,
         CutReason::Idle, 0},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        QueueState q;
        q.size = row.size;
        q.oldestArrival = 1000;
        q.idle = row.idle;
        q.draining = row.draining;
        CutDecision d = decideCut(policy, q, row.now);
        ASSERT_EQ(d.cut, row.cut);
        if (row.cut)
            EXPECT_EQ(static_cast<int>(d.reason),
                      static_cast<int>(row.reason));
        else
            EXPECT_EQ(d.wakeAt, row.wakeAt);
    }
}

TEST(CutPolicy, ZeroWindowNeverWaitsForCompany)
{
    const CutPolicy policy{8, 0};
    QueueState q;
    q.oldestArrival = 42;
    CutDecision d = decideCut(policy, q, 42);
    EXPECT_TRUE(d.cut);
    EXPECT_EQ(d.reason, CutReason::Window);
}

TEST(CutPolicy, MaxBatchOneCutsEveryRequestBySize)
{
    const CutPolicy policy{1, 1000};
    QueueState q;
    q.oldestArrival = 7;
    CutDecision d = decideCut(policy, q, 7);
    EXPECT_TRUE(d.cut);
    EXPECT_EQ(d.reason, CutReason::Size);
}

/** One batch cut by replayBusy(). */
struct Cut
{
    size_t size;
    CutReason reason;
    int64_t at;
};

/**
 * A virtual-clock replay: one queue fed arrivals at the given ticks
 * while every worker stays busy (idle = false), decided at each
 * arrival and at each wake-up it asks for, as both callers do.
 * Returns the cuts in order. `drainAt`, when set (at or after the
 * last arrival), flushes whatever is still queued at that tick.
 */
std::vector<Cut>
replayBusy(const CutPolicy &policy, const std::vector<int64_t> &arrivals,
           int64_t drainAt = -1)
{
    std::vector<Cut> cuts;
    std::vector<int64_t> queue;
    int64_t wake = -1;
    auto decide = [&](int64_t now, bool draining) {
        while (!queue.empty()) {
            QueueState q;
            q.size = queue.size();
            q.oldestArrival = queue.front();
            q.draining = draining;
            CutDecision d = decideCut(policy, q, now);
            if (!d.cut) {
                wake = d.wakeAt;
                return;
            }
            size_t n = std::min(queue.size(), policy.maxBatch);
            cuts.push_back({n, d.reason, now});
            queue.erase(queue.begin(),
                        queue.begin() + static_cast<ptrdiff_t>(n));
            wake = -1;
        }
    };
    auto advance = [&](int64_t now) {
        while (wake >= 0 && wake <= now)
            decide(wake, false);
    };
    for (int64_t t : arrivals) {
        advance(t);
        queue.push_back(t);
        decide(t, false);
    }
    if (drainAt >= 0) {
        advance(drainAt);
        decide(drainAt, true);
    }
    advance(INT64_MAX);
    return cuts;
}

TEST(CutPolicy, EightBusyArrivalsBecomeOneBatch)
{
    // maxBatch 8 inside a long window: eight arrivals while every
    // worker is busy coalesce into exactly one size cut, made at the
    // eighth arrival.
    const CutPolicy policy{8, 1'000'000};
    std::vector<int64_t> arrivals;
    for (int64_t k = 0; k < 8; ++k)
        arrivals.push_back(100 + 10 * k);
    std::vector<Cut> cuts = replayBusy(policy, arrivals);
    ASSERT_EQ(cuts.size(), 1u);
    EXPECT_EQ(cuts[0].size, 8u);
    EXPECT_EQ(cuts[0].reason, CutReason::Size);
    EXPECT_EQ(cuts[0].at, 170);
}

TEST(CutPolicy, DrainFlushesAnOpenWindow)
{
    // Two requests in a 30-"second" window: a drain at tick 50 cuts
    // both at once, as one batch, without waiting out the window.
    const CutPolicy policy{64, 30'000'000};
    std::vector<Cut> cuts = replayBusy(policy, {10, 20}, 50);
    ASSERT_EQ(cuts.size(), 1u);
    EXPECT_EQ(cuts[0].size, 2u);
    EXPECT_EQ(cuts[0].reason, CutReason::Drain);
    EXPECT_EQ(cuts[0].at, 50);
}

TEST(CutPolicy, WindowCutsWhatHasCoalesced)
{
    // Without a drain, the same two requests wait out the window of
    // the oldest: one window cut at 10 + window.
    const CutPolicy policy{64, 1000};
    std::vector<Cut> cuts = replayBusy(policy, {10, 20, 2000});
    ASSERT_EQ(cuts.size(), 2u);
    EXPECT_EQ(cuts[0].size, 2u);
    EXPECT_EQ(cuts[0].reason, CutReason::Window);
    EXPECT_EQ(cuts[0].at, 1010);
    EXPECT_EQ(cuts[1].size, 1u);
    EXPECT_EQ(cuts[1].at, 3000);
}

// ------------------------------------------------------------------ //
// BatchScheduler: the policies around the cut, over scripted ticks.  //
// ------------------------------------------------------------------ //

/** Payload: the request's id, so batch compositions are visible. */
using Sched = BatchScheduler<int>;

constexpr uint64_t kAnyWorker = UINT64_MAX;

void
enqueue(Sched &s, uint32_t program, int id, int64_t at)
{
    Sched::Request rq;
    rq.payload = id;
    rq.arrival = at;
    s.enqueue(program, rq);
}

std::vector<int>
ids(const Sched::Batch &b)
{
    std::vector<int> out;
    for (const Sched::Request &rq : b.requests)
        out.push_back(rq.payload);
    return out;
}

uint64_t
cutsFor(const Sched &s, CutReason reason)
{
    return s.cuts()[static_cast<size_t>(reason)];
}

TEST(BatchScheduler, GrantsFreeCoresUpToTheBatchSize)
{
    Sched s(4, CutPolicy{8, 1000});
    EXPECT_EQ(s.addProgram(), 0u);
    EXPECT_EQ(s.addProgram(), 1u);

    // Capped by the batch size: two runs, the two lowest cores.
    for (int k = 0; k < 2; ++k)
        enqueue(s, 0, k, 0);
    s.cut(0, kAnyWorker, true);
    std::optional<Sched::Batch> a = s.start();
    ASSERT_TRUE(a);
    EXPECT_EQ(a->cores, (std::vector<uint32_t>{0, 1}));

    // Only cores free now are granted: an 8-run batch of either
    // program takes the two that are left...
    for (int k = 0; k < 8; ++k)
        enqueue(s, 1, 10 + k, 0);
    s.cut(0, kAnyWorker, false);
    std::optional<Sched::Batch> b = s.start();
    ASSERT_TRUE(b);
    EXPECT_EQ(b->cores, (std::vector<uint32_t>{2, 3}));

    // ...and, with 0 and 1 back, just those two.
    s.release(a->cores);
    for (int k = 0; k < 8; ++k)
        enqueue(s, 0, 20 + k, 1);
    s.cut(1, kAnyWorker, false);
    std::optional<Sched::Batch> c = s.start();
    ASSERT_TRUE(c);
    EXPECT_EQ(c->cores, (std::vector<uint32_t>{0, 1}));

    // With every core free, all four.
    s.release(b->cores);
    s.release(c->cores);
    for (int k = 0; k < 8; ++k)
        enqueue(s, 1, 30 + k, 2);
    s.cut(2, kAnyWorker, false);
    std::optional<Sched::Batch> d = s.start();
    ASSERT_TRUE(d);
    EXPECT_EQ(d->cores, (std::vector<uint32_t>{0, 1, 2, 3}));
    EXPECT_EQ(ids(*d), (std::vector<int>{30, 31, 32, 33, 34, 35, 36, 37}));
}

TEST(BatchScheduler, StartsTheOldestReadyBatchFirst)
{
    // One core, held while five batches are drained into the ready
    // list in an order unlike their program indices; none starts
    // while the core is held, and they then start in cut order, one
    // at a time as it frees.
    Sched s(1, CutPolicy{8, 1000});
    for (int p = 0; p < 6; ++p)
        s.addProgram();
    enqueue(s, 0, 0, 0);
    s.cut(0, kAnyWorker, false);
    std::optional<Sched::Batch> b = s.start();
    ASSERT_TRUE(b);

    int64_t t = 1;
    for (uint32_t p : {5u, 2u, 4u, 1u, 3u}) {
        enqueue(s, p, static_cast<int>(p), t);
        s.cut(t++, kAnyWorker, true);
    }
    EXPECT_EQ(cutsFor(s, CutReason::Drain), 5u);
    EXPECT_FALSE(s.start()); // no free core: every batch waits
    EXPECT_TRUE(s.hasReady());

    std::vector<int> order;
    for (;;) {
        s.release(b->cores);
        b = s.start();
        if (!b)
            break;
        order.push_back(ids(*b).front());
    }
    EXPECT_EQ(order, (std::vector<int>{5, 2, 4, 1, 3}));
    EXPECT_FALSE(s.hasReady());
}

TEST(BatchScheduler, ABatchWithNoFreeCoreWaits)
{
    // Three cores, all held by two started batches: a ready batch
    // waits, and starts on the first core given back, without waiting
    // for as many cores as it has requests.
    Sched s(3, CutPolicy{8, 1000});
    s.addProgram();
    s.addProgram();
    for (int k = 0; k < 2; ++k)
        enqueue(s, 0, k, 0);
    s.cut(0, kAnyWorker, true);
    std::optional<Sched::Batch> a = s.start();
    ASSERT_TRUE(a);
    EXPECT_EQ(a->cores, (std::vector<uint32_t>{0, 1}));
    enqueue(s, 1, 2, 1);
    s.cut(1, kAnyWorker, true);
    std::optional<Sched::Batch> b = s.start();
    ASSERT_TRUE(b);
    EXPECT_EQ(b->cores, (std::vector<uint32_t>{2}));

    for (int k = 0; k < 3; ++k)
        enqueue(s, 0, 10 + k, 2);
    s.cut(2, kAnyWorker, true);
    EXPECT_TRUE(s.hasReady());
    EXPECT_FALSE(s.start());
    EXPECT_FALSE(s.start()); // asking again grants nothing either
    EXPECT_TRUE(s.hasReady());

    s.release(b->cores);
    std::optional<Sched::Batch> c = s.start();
    ASSERT_TRUE(c);
    EXPECT_EQ(c->cores, (std::vector<uint32_t>{2}));
    EXPECT_EQ(ids(*c), (std::vector<int>{10, 11, 12}));
    EXPECT_FALSE(s.hasReady());

    // Cores 0 and 1 are still held by the first batch.
    EXPECT_FALSE(s.start());
    s.release(a->cores);
    s.release(c->cores);
    enqueue(s, 1, 20, 3);
    s.cut(3, kAnyWorker, true);
    std::optional<Sched::Batch> d = s.start();
    ASSERT_TRUE(d);
    EXPECT_EQ(d->cores, (std::vector<uint32_t>{0}));
}

TEST(BatchScheduler, IdleNeedsAFreeEligibleCore)
{
    // Every core is eligible for every program: 1 core, two programs,
    // maxBatch 4, window 1000.
    Sched s(1, CutPolicy{4, 1000});
    s.addProgram();
    s.addProgram();
    enqueue(s, 0, 0, 0);
    s.cut(0, kAnyWorker, false);
    EXPECT_EQ(cutsFor(s, CutReason::Idle), 1u);
    std::optional<Sched::Batch> held = s.start();
    ASSERT_TRUE(held);

    // No core is free: program 1's queue coalesces. Two requests wait
    // out the window of the oldest...
    enqueue(s, 1, 1, 10);
    EXPECT_EQ(s.cut(10, kAnyWorker, false), 1010);
    enqueue(s, 1, 2, 20);
    EXPECT_EQ(s.cut(20, kAnyWorker, false), 1010);
    EXPECT_FALSE(s.cut(1010, kAnyWorker, false));
    EXPECT_EQ(cutsFor(s, CutReason::Window), 1u);
    std::optional<Sched::Batch> late = s.start();
    EXPECT_FALSE(late); // and still wait for the core

    // ...and four are cut by size at the fourth.
    for (int k = 3; k < 7; ++k) {
        enqueue(s, 1, k, 1100 + k);
        s.cut(1100 + k, kAnyWorker, false);
    }
    EXPECT_EQ(cutsFor(s, CutReason::Size), 1u);
    EXPECT_EQ(s.maxBatchObserved(), 4u);

    // With the core back, a lone request is cut at once.
    s.release(held->cores);
    enqueue(s, 0, 7, 1200);
    EXPECT_FALSE(s.cut(1200, kAnyWorker, false));
    EXPECT_EQ(cutsFor(s, CutReason::Idle), 2u);

    // With a free core, the worker half decides: no idle worker, or
    // every one spoken for by a ready batch, is no idle cut.
    Sched w(1, CutPolicy{4, 1000});
    w.addProgram();
    enqueue(w, 0, 0, 0);
    EXPECT_EQ(w.cut(0, 0, false), 1000);
    EXPECT_FALSE(w.cut(0, 1, false));
    EXPECT_EQ(cutsFor(w, CutReason::Idle), 1u);
    enqueue(w, 0, 1, 1);
    EXPECT_EQ(w.cut(1, 1, false), 1001); // one ready batch
    EXPECT_FALSE(w.cut(1, 2, false));
    EXPECT_EQ(cutsFor(w, CutReason::Idle), 2u);
}

/** 64-bit FNV-1a of a decision log. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * A seeded script of arrivals over three programs, cuts with random
 * worker counts and rare drains, starts and releases on three cores.
 * The log holds every decision: each cut() wake-up, each started
 * batch's cores and requests, and the cuts by reason.
 */
std::string
decisionLog(uint64_t seed)
{
    Sched s(3, CutPolicy{4, 50});
    for (int p = 0; p < 3; ++p)
        s.addProgram();
    Rng rng(seed);
    std::vector<Sched::Batch> running;
    std::ostringstream log;
    int id = 0;
    for (int64_t t = 0; t < 2000; t += 1 + (int64_t)(rng.next() % 7)) {
        if (!running.empty() && rng.next() % 3 == 0) {
            size_t k = rng.next() % running.size();
            s.release(running[k].cores);
            running.erase(running.begin() + (ptrdiff_t)k);
        }
        enqueue(s, (uint32_t)(rng.next() % 3), id++, t);
        uint64_t workers = rng.next() % 4;
        std::optional<int64_t> wake =
            s.cut(t, workers, rng.next() % 50 == 0);
        log << t << " w" << (wake ? *wake : -1);
        while (std::optional<Sched::Batch> b = s.start()) {
            log << " |";
            for (uint32_t c : b->cores)
                log << c << ',';
            for (int r : ids(*b))
                log << ' ' << r;
            running.push_back(std::move(*b));
        }
        log << '\n';
    }
    for (CutReason r : {CutReason::Size, CutReason::Drain,
                        CutReason::Idle, CutReason::Window})
        log << cutsFor(s, r) << ' ';
    return log.str();
}

TEST(BatchScheduler, SameCallsMakeTheSameDecisions)
{
    // Two schedulers fed one script agree on every decision, and the
    // decisions are the ones the scheduler made before it lost its
    // priority classes, deadlines and core reservations: the digests
    // were taken from that scheduler running this script with every
    // program unreserved, every request in one class and no deadline.
    std::string a = decisionLog(11);
    EXPECT_EQ(a, decisionLog(11));
    EXPECT_NE(a, decisionLog(12));
    EXPECT_GT(std::count(a.begin(), a.end(), '|'), 50);
    EXPECT_EQ(fnv1a(a), 0xf4e1ab40a1c1a0b6ull);
    EXPECT_EQ(fnv1a(decisionLog(12)), 0x3086e9d53ddc0a74ull);
}

} // namespace
} // namespace dpu
