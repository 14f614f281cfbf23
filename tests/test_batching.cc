/**
 * @file
 * Tests for the batch scheduler (sim/batching.hh), the serving core
 * AsyncBatchServer drives. It reads no clock and starts no thread, so
 * every rule the server's threaded tests can only bound is pinned
 * exactly here under scripted ticks. CutPolicy: the cut rule alone —
 * the reason precedence (size > drain > idle > deadline > window),
 * the wake-up times, and the deadline lead. BatchScheduler:
 * reservations, core grants, the start order, and the idle rule over
 * workers and free cores.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "sim/batching.hh"
#include "support/logging.hh"
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
        bool hasDeadline;
        int64_t deadline, lead;
        int64_t now;
        bool cut;
        CutReason reason; ///< When cut.
        int64_t wakeAt;   ///< When not cut.
    };
    const Row rows[] = {
        // Every worker busy, no deadline: wait out the window.
        {"window pending", 1, false, false, false, 0, 0, 1000,
         false, CutReason::Window, 1100},
        {"window pending, late in it", 3, false, false, false, 0, 0,
         1099, false, CutReason::Window, 1100},
        {"window expires", 1, false, false, false, 0, 0, 1100, true,
         CutReason::Window, 0},
        {"window long expired", 2, false, false, false, 0, 0, 5000,
         true, CutReason::Window, 0},
        // An idle worker cuts whatever is queued at once.
        {"idle", 1, true, false, false, 0, 0, 1000, true,
         CutReason::Idle, 0},
        // A deadline leads the window when its cut time is earlier:
        // deadline 1080 - lead 30 = cut at 1050.
        {"deadline pending", 1, false, false, true, 1080, 30, 1000,
         false, CutReason::Deadline, 1050},
        {"deadline cut", 1, false, false, true, 1080, 30, 1050, true,
         CutReason::Deadline, 0},
        // The lead alone moves the cut: no lead, cut at the deadline.
        {"deadline without lead", 1, false, false, true, 1080, 0,
         1050, false, CutReason::Deadline, 1080},
        // A lead past the arrival cuts on the spot.
        {"lead exceeds slack", 1, false, false, true, 1080, 500,
         1000, true, CutReason::Deadline, 0},
        // A deadline later than the window leaves the window in
        // charge; so does a tie.
        {"deadline after window", 1, false, false, true, 1300, 30,
         1000, false, CutReason::Window, 1100},
        {"deadline ties window", 1, false, false, true, 1130, 30,
         1100, true, CutReason::Window, 0},
        // Precedence: size > drain > idle > deadline > window.
        {"size beats all", 4, true, true, true, 1000, 50, 2000, true,
         CutReason::Size, 0},
        {"over-full is size", 9, false, false, false, 0, 0, 1000, true,
         CutReason::Size, 0},
        {"drain beats idle", 3, true, true, true, 1000, 50, 2000, true,
         CutReason::Drain, 0},
        {"drain before window", 1, false, true, false, 0, 0, 1000,
         true, CutReason::Drain, 0},
        {"idle beats deadline", 3, true, false, true, 1000, 50, 2000,
         true, CutReason::Idle, 0},
        {"deadline beats window", 3, false, false, true, 1050, 0, 2000,
         true, CutReason::Deadline, 0},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        QueueState q;
        q.size = row.size;
        q.oldestArrival = 1000;
        q.hasDeadline = row.hasDeadline;
        q.earliestDeadline = row.deadline;
        q.deadlineLead = row.lead;
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

TEST(CutPolicy, DeadlineLeadBeatsTheWindow)
{
    // A 30-"second" window, a deadline 5 "ms" after arrival and a
    // service estimate of 1 "ms": the queue is cut 4 ms in, for the
    // deadline, not after 30 s for the window.
    const CutPolicy policy{64, 30'000'000};
    QueueState q;
    q.oldestArrival = 0;
    q.hasDeadline = true;
    q.earliestDeadline = 5'000;
    q.deadlineLead = 1'000;
    CutDecision wait = decideCut(policy, q, 0);
    ASSERT_FALSE(wait.cut);
    EXPECT_EQ(wait.wakeAt, 4'000);
    CutDecision cut = decideCut(policy, q, wait.wakeAt);
    ASSERT_TRUE(cut.cut);
    EXPECT_EQ(cut.reason, CutReason::Deadline);
    // A longer estimate brings the cut forward by the same amount.
    q.deadlineLead = 3'000;
    EXPECT_EQ(decideCut(policy, q, 0).wakeAt, 2'000);
}


// ------------------------------------------------------------------ //
// BatchScheduler: the policies around the cut, over scripted ticks.  //
// ------------------------------------------------------------------ //

/** Payload: the request's id, so batch compositions are visible. */
using Sched = BatchScheduler<int>;

constexpr uint64_t kAnyWorker = UINT64_MAX;

int64_t
noLead(uint32_t, size_t)
{
    return 0;
}

void
enqueue(Sched &s, uint32_t program, int id, int64_t at,
        Priority priority = Priority::Batch, int64_t deadline = -1)
{
    Sched::Request rq;
    rq.payload = id;
    rq.arrival = at;
    rq.hasDeadline = deadline >= 0;
    rq.deadline = deadline;
    s.enqueue(program, priority, rq);
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

TEST(BatchScheduler, GrantsOwnReservedCoresFirstThenSharedOnes)
{
    // 4 cores. Program 0 reserves 1 core (core 0) and may
    // spread to 3; program 1 has no reservation.
    Sched s(4, CutPolicy{8, 1000});
    EXPECT_EQ(s.addProgram(1, 3), 0u);
    EXPECT_EQ(s.addProgram(0, 0), 1u);

    // Capped by the batch size: two runs, two cores, own one first.
    for (int k = 0; k < 2; ++k)
        enqueue(s, 0, k, 0);
    s.cut(0, kAnyWorker, true, noLead);
    std::optional<Sched::Batch> a = s.start();
    ASSERT_TRUE(a);
    EXPECT_EQ(a->cores, (std::vector<uint32_t>{0, 1}));

    // Program 1 never takes program 0's core: only shared 2 and 3.
    for (int k = 0; k < 8; ++k)
        enqueue(s, 1, 10 + k, 0);
    s.cut(0, kAnyWorker, false, noLead);
    std::optional<Sched::Batch> b = s.start();
    ASSERT_TRUE(b);
    EXPECT_EQ(b->cores, (std::vector<uint32_t>{2, 3}));

    // Only cores free now are granted: with 0 and 1 back, an 8-run
    // batch of program 0 takes just those two.
    s.release(a->cores);
    for (int k = 0; k < 8; ++k)
        enqueue(s, 0, 20 + k, 1);
    s.cut(1, kAnyWorker, false, noLead);
    std::optional<Sched::Batch> c = s.start();
    ASSERT_TRUE(c);
    EXPECT_EQ(c->cores, (std::vector<uint32_t>{0, 1}));

    // Capped by maxCores: with every core free, 3 of 4.
    s.release(b->cores);
    s.release(c->cores);
    for (int k = 0; k < 8; ++k)
        enqueue(s, 0, 30 + k, 2);
    s.cut(2, kAnyWorker, false, noLead);
    std::optional<Sched::Batch> d = s.start();
    ASSERT_TRUE(d);
    EXPECT_EQ(d->cores, (std::vector<uint32_t>{0, 1, 2}));
}

TEST(BatchScheduler, ReservationsAreCheckedBeforeAnythingIsGranted)
{
    Sched s(4, CutPolicy{8, 1000});
    EXPECT_THROW(s.addProgram(5, 0), FatalError);
    EXPECT_THROW(s.addProgram(3, 2), FatalError);
    EXPECT_EQ(s.addProgram(0, 0), 0u);
    // Would leave the unreserved program 0 no core.
    EXPECT_THROW(s.addProgram(4, 0), FatalError);
    EXPECT_EQ(s.addProgram(3, 0), 1u);
    EXPECT_THROW(s.addProgram(2, 0), FatalError);
    // The failed attempts registered nothing: the next index is 2.
    EXPECT_EQ(s.addProgram(0, 0), 2u);
    // One more reserved core would be the last shared one.
    EXPECT_THROW(s.addProgram(1, 0), FatalError);
}

TEST(BatchScheduler, ABatchWithNoFreeCoreWaitsAndAnotherBackfills)
{
    // 2 cores: program 0 owns core 0, program 1 shares core 1.
    // Program 1's interactive batch cannot start while its
    // only core is busy; program 0's batch-class batch, cut later,
    // starts on its own core past it.
    Sched s(2, CutPolicy{8, 1000});
    s.addProgram(1, 0);
    s.addProgram(0, 0);
    enqueue(s, 1, 0, 0);
    s.cut(0, kAnyWorker, false, noLead);
    std::optional<Sched::Batch> running = s.start();
    ASSERT_TRUE(running);
    EXPECT_EQ(running->cores, std::vector<uint32_t>{1});

    enqueue(s, 1, 1, 10, Priority::Interactive);
    s.cut(10, kAnyWorker, true, noLead); // drain: cut regardless
    enqueue(s, 0, 2, 20);
    s.cut(20, kAnyWorker, false, noLead);
    std::optional<Sched::Batch> backfill = s.start();
    ASSERT_TRUE(backfill);
    EXPECT_EQ(ids(*backfill), std::vector<int>{2});
    EXPECT_EQ(backfill->cores, std::vector<uint32_t>{0});
    EXPECT_FALSE(s.start()); // the interactive batch still waits
    EXPECT_TRUE(s.hasReady());

    s.release(running->cores);
    std::optional<Sched::Batch> waited = s.start();
    ASSERT_TRUE(waited);
    EXPECT_EQ(ids(*waited), std::vector<int>{1});
    EXPECT_EQ(waited->cores, std::vector<uint32_t>{1});
}

TEST(BatchScheduler, StartsEarliestDeadlineFirstWithinBands)
{
    // One core, held while five batches are drained into the ready
    // list; they then start one at a time as it frees.
    Sched s(1, CutPolicy{8, 1000});
    for (int p = 0; p < 6; ++p)
        s.addProgram(0, 0);
    enqueue(s, 0, 0, 0);
    s.cut(0, kAnyWorker, false, noLead);
    std::optional<Sched::Batch> b = s.start();
    ASSERT_TRUE(b);

    enqueue(s, 1, 1, 1, Priority::Batch, 100);       // urgent, low band
    enqueue(s, 2, 2, 2, Priority::Interactive);      // no deadline
    enqueue(s, 3, 3, 3, Priority::Interactive, 500);
    enqueue(s, 4, 4, 4, Priority::Interactive, 200);
    enqueue(s, 5, 5, 5, Priority::Interactive);      // cut after 2
    s.cut(6, kAnyWorker, true, noLead);
    EXPECT_EQ(cutsFor(s, CutReason::Drain), 5u);

    std::vector<int> order;
    for (;;) {
        s.release(b->cores);
        b = s.start();
        if (!b)
            break;
        order.push_back(ids(*b).front());
    }
    EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 5, 1}));
}

TEST(BatchScheduler, IdleNeedsAFreeEligibleCore)
{
    // 2 cores; program 0 owns core 0, program 1 shares core 1.
    // maxBatch 4, window 1000.
    Sched s(2, CutPolicy{4, 1000});
    s.addProgram(1, 0);
    s.addProgram(0, 0);
    enqueue(s, 1, 0, 0);
    s.cut(0, kAnyWorker, false, noLead);
    EXPECT_EQ(cutsFor(s, CutReason::Idle), 1u);
    std::optional<Sched::Batch> held = s.start();
    ASSERT_TRUE(held);

    // Core 0 is free but not program 1's: its queue coalesces. Two
    // requests wait out the window of the oldest...
    enqueue(s, 1, 1, 10);
    EXPECT_EQ(s.cut(10, kAnyWorker, false, noLead), 1010);
    enqueue(s, 1, 2, 20);
    EXPECT_EQ(s.cut(20, kAnyWorker, false, noLead), 1010);
    EXPECT_FALSE(s.cut(1010, kAnyWorker, false, noLead));
    EXPECT_EQ(cutsFor(s, CutReason::Window), 1u);
    std::optional<Sched::Batch> late = s.start();
    EXPECT_FALSE(late); // and still wait for the core

    // ...and four are cut by size at the fourth.
    for (int k = 3; k < 7; ++k) {
        enqueue(s, 1, k, 1100 + k);
        s.cut(1100 + k, kAnyWorker, false, noLead);
    }
    EXPECT_EQ(cutsFor(s, CutReason::Size), 1u);
    EXPECT_EQ(s.maxBatchObserved(), 4u);

    // Program 0 may take core 0: its lone request is cut at once.
    enqueue(s, 0, 7, 1200);
    EXPECT_FALSE(s.cut(1200, kAnyWorker, false, noLead));
    EXPECT_EQ(cutsFor(s, CutReason::Idle), 2u);

    // With a free core, the worker half decides: no idle worker, or
    // every one spoken for by a ready batch, is no idle cut.
    Sched w(1, CutPolicy{4, 1000});
    w.addProgram(0, 0);
    enqueue(w, 0, 0, 0);
    EXPECT_EQ(w.cut(0, 0, false, noLead), 1000);
    EXPECT_FALSE(w.cut(0, 1, false, noLead));
    EXPECT_EQ(cutsFor(w, CutReason::Idle), 1u);
    enqueue(w, 0, 1, 1);
    EXPECT_EQ(w.cut(1, 1, false, noLead), 1001); // one ready batch
    EXPECT_FALSE(w.cut(1, 2, false, noLead));
    EXPECT_EQ(cutsFor(w, CutReason::Idle), 2u);
}

TEST(BatchScheduler, DeadlineLeadIsAskedOfDeadlinedQueuesOnly)
{
    Sched s(1, CutPolicy{8, 30'000});
    s.addProgram(0, 0);
    s.addProgram(0, 0);
    enqueue(s, 0, 0, 0);
    s.cut(0, kAnyWorker, false, noLead);
    std::optional<Sched::Batch> held = s.start();
    ASSERT_TRUE(held);

    std::vector<std::pair<uint32_t, size_t>> asked;
    auto lead = [&](uint32_t p, size_t n) {
        asked.emplace_back(p, n);
        return int64_t{300};
    };
    enqueue(s, 0, 1, 10);
    enqueue(s, 1, 2, 10, Priority::Batch, 5'000);
    enqueue(s, 1, 3, 20, Priority::Batch, 4'000);
    // Program 1 is cut at 4000 - 300, before the window.
    EXPECT_EQ(s.cut(20, kAnyWorker, false, lead), 3'700);
    EXPECT_EQ(asked, (std::vector<std::pair<uint32_t, size_t>>{{1, 2}}));
    s.cut(3'700, kAnyWorker, false, lead);
    EXPECT_EQ(cutsFor(s, CutReason::Deadline), 1u);
}

TEST(BatchScheduler, SameCallsMakeTheSameDecisions)
{
    // A seeded script of arrivals, cuts, starts and releases over
    // three cores with a reservation; two schedulers fed it agree on
    // every batch: composition, cores and cut order.
    auto replay = [](uint64_t seed) {
        Sched s(3, CutPolicy{4, 50});
        s.addProgram(1, 2);
        s.addProgram(0, 0);
        s.addProgram(0, 1);
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
            uint32_t p = (uint32_t)(rng.next() % 3);
            Priority prio = rng.next() % 4 ? Priority::Batch
                                           : Priority::Interactive;
            enqueue(s, p, id++, t, prio,
                    rng.next() % 2 ? t + 40 : int64_t{-1});
            s.cut(t, 1 + rng.next() % 3, rng.next() % 50 == 0,
                  [](uint32_t, size_t n) { return (int64_t)(5 * n); });
            while (std::optional<Sched::Batch> b = s.start()) {
                log << b->seq << ':';
                for (uint32_t c : b->cores)
                    log << c << ',';
                for (int r : ids(*b))
                    log << ' ' << r;
                log << '\n';
                running.push_back(std::move(*b));
            }
        }
        for (uint64_t n : s.cuts())
            log << n << ' ';
        return log.str();
    };
    std::string a = replay(11);
    EXPECT_EQ(a, replay(11));
    EXPECT_NE(a, replay(12));
    EXPECT_GT(std::count(a.begin(), a.end(), '\n'), 50);
}

} // namespace
} // namespace dpu
