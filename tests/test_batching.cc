/**
 * @file
 * Tests for the batch-cut policy core (sim/batching.hh), the one
 * decision AsyncBatchServer and simulateFleet share. The policy is a
 * pure function of integer ticks, so every batching rule the server's
 * threaded tests can only bound is pinned exactly here under a
 * virtual clock: the reason precedence (size > drain > idle >
 * deadline > window), the wake-up times, and the deadline lead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/batching.hh"

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

} // namespace
} // namespace dpu
