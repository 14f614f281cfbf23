/**
 * @file
 * The batch scheduler of AsyncBatchServer: the clock-free core the
 * server drives on the host's steady clock and the tests drive on
 * scripted ticks. A tick is whatever unit the caller counts in; the
 * scheduler never reads a clock. It owns one coalescing queue per
 * (program, priority class), the cut, the start order and the grants
 * of one machine's `cores` model cores.
 *
 * Cutting is work-conserving, like the dynamic batching of Clipper
 * (Crankshaw et al., NSDI 2017): a batch that could start now is cut
 * at once, and the window holds a queue only while it could not start
 * anyway, when a bigger batch costs no extra latency. Cut reasons, in
 * precedence order:
 *
 *   1. Size     — the queue holds maxBatch requests.
 *   2. Drain    — the caller is flushing every queue.
 *   3. Idle     — the batch could start now: a worker is available
 *                 (the caller counts them), and a core the program may
 *                 take — its own reserved core or a shared one — is
 *                 free.
 *   4. Deadline — waiting longer would miss the earliest deadline,
 *                 led by the caller's service-time estimate.
 *   5. Window   — the oldest request has waited out the window.
 *
 * When no reason applies, the decision names the tick at which one
 * will; a free worker, a freed core or a drain can only bring that
 * forward, so the caller must ask again when one appears.
 *
 * Ready batches start earliest deadline first within priority bands,
 * ties in cut order; one with no free core waits without blocking one
 * that can run. A grant takes only cores free now — the program's own
 * reserved ones first, then shared ones — capped by its maxCores and
 * the batch size.
 */

#ifndef DPU_SIM_BATCHING_HH
#define DPU_SIM_BATCHING_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "support/logging.hh"

namespace dpu {

/** Priority class of a request or a resident program. Lower value =
 *  more urgent; the scheduler serves bands in this order. */
enum class Priority : uint8_t
{
    Interactive = 0, ///< Latency-sensitive traffic.
    Batch = 1,       ///< Throughput traffic; yields to Interactive.
};

/** Number of priority bands (array extents in the stats). */
inline constexpr size_t kNumPriorities = 2;

/** Why a batch was cut (see the file comment for the precedence). */
enum class CutReason : uint8_t
{
    Size = 0,
    Drain = 1,
    Idle = 2,
    Deadline = 3,
    Window = 4,
};

/** Number of cut reasons (array extents in per-reason counters). */
inline constexpr size_t kNumCutReasons = 5;

/** The two knobs of the cut rule. */
struct CutPolicy
{
    /** Cut as soon as this many requests have coalesced (>= 1). */
    size_t maxBatch = 8;

    /** Ticks the oldest request may wait for company while its batch
     *  could not start anyway. */
    int64_t window = 0;
};

/** One non-empty coalescing queue at the moment of decision. */
struct QueueState
{
    size_t size = 1;           ///< Pending requests (>= 1).
    int64_t oldestArrival = 0; ///< Tick the front request arrived.

    /** Earliest pending deadline, when any request carries one. */
    bool hasDeadline = false;
    int64_t earliestDeadline = 0;

    /** Ticks before the earliest deadline at which to cut: the
     *  caller's estimate of the batch's service time. */
    int64_t deadlineLead = 0;

    bool idle = false;     ///< The batch could start now (see Idle).
    bool draining = false; ///< The caller is flushing every queue.
};

/** Either "cut now for `reason`" or "ask again at `wakeAt`". */
struct CutDecision
{
    bool cut = false;
    CutReason reason = CutReason::Window; ///< Meaningful when cut.
    int64_t wakeAt = 0;                   ///< Meaningful when !cut.
};

/** The cut rule itself: a pure function of its arguments. */
CutDecision decideCut(const CutPolicy &policy, const QueueState &queue,
                      int64_t now);

/**
 * The serving core over a caller-defined per-request Payload (the
 * server's input and promise). It owns the queues, the ready batches
 * and the model cores — their static reservation partition and which
 * are busy. Not thread-safe: the caller serializes every call.
 */
template <typename Payload>
class BatchScheduler
{
  public:
    struct Request
    {
        Payload payload{};
        int64_t arrival = 0;
        bool hasDeadline = false;
        int64_t deadline = 0;
    };

    struct Batch
    {
        uint32_t program = 0;
        Priority priority = Priority::Batch;
        std::vector<Request> requests; ///< Oldest first.
        bool hasDeadline = false;      ///< Any request has one.
        int64_t deadline = 0;          ///< Earliest request deadline.
        uint64_t seq = 0;              ///< Cut order.
        std::vector<uint32_t> cores;   ///< Granted by start().
    };

    BatchScheduler(uint32_t cores_, CutPolicy policy_)
        : policy(policy_), cores(cores_), reservedBy(cores, -1),
          busy(cores, false)
    {
        dpu_assert(cores >= 1, "the scheduler needs a core");
        policy.maxBatch = std::max<size_t>(policy.maxBatch, 1);
    }

    /**
     * Register a resident program; returns its index (0, 1, ...).
     * `minCores` cores are reserved for it alone; `maxCores` caps one
     * batch's cores (0 = no cap).
     *
     * Throws FatalError, changing nothing, when minCores exceeds the
     * machine, maxCores < minCores, the reservation no longer fits next
     * to the ones already granted, or it would leave a program
     * without a reservation no core to run on.
     */
    uint32_t
    addProgram(uint32_t minCores, uint32_t maxCores)
    {
        if (minCores > cores)
            dpu_fatal("addProgram: QosSpec::minCores " +
                      std::to_string(minCores) + " exceeds the " +
                      std::to_string(cores) + " modeled cores");
        if (maxCores != 0 && maxCores < minCores)
            dpu_fatal("addProgram: QosSpec::maxCores " +
                      std::to_string(maxCores) + " below minCores " +
                      std::to_string(minCores));
        if (reserved + minCores > cores)
            dpu_fatal("addProgram: core reservations exhausted (" +
                      std::to_string(reserved) + " of " +
                      std::to_string(cores) +
                      " already reserved, requested " +
                      std::to_string(minCores) + " more)");
        bool unreserved_resident = minCores == 0;
        for (const Program &o : programs)
            unreserved_resident |= o.minCores == 0;
        if (reserved + minCores == cores && unreserved_resident)
            dpu_fatal("addProgram: reservation would leave no shared "
                      "core for resident programs without one");
        // The lowest-numbered shared cores become the program's own,
        // for good (programs stay resident).
        int32_t index = static_cast<int32_t>(programs.size());
        uint32_t granted = 0;
        for (uint32_t c = 0; c < cores && granted < minCores; ++c) {
            if (reservedBy[c] == -1) {
                reservedBy[c] = index;
                ++granted;
            }
        }
        reserved += minCores;
        programs.push_back(Program{minCores, maxCores, {}});
        return static_cast<uint32_t>(index);
    }

    /** Append a request to its program's class queue; arrivals must
     *  not go backwards within one queue. */
    void
    enqueue(uint32_t program, Priority priority, Request request)
    {
        programs[program].pending[static_cast<size_t>(priority)]
            .push_back(std::move(request));
        ++queuedCount;
    }

    /**
     * Cut every queue the cut rule says to at `now`, until none is
     * left to cut. `freeWorkers` is how many workers wait for a batch;
     * each batch already ready is one's next job, so a worker is
     * available while freeWorkers exceeds the ready batches.
     * `deadlineLead(program, queueSize)` is the caller's service-time
     * estimate, in ticks, asked only of queues with a deadline.
     * Returns the tick at which to ask again, when any queue is left.
     */
    template <typename Lead>
    std::optional<int64_t>
    cut(int64_t now, uint64_t freeWorkers, bool draining,
        Lead &&deadlineLead)
    {
        for (;;) {
            std::optional<int64_t> wake;
            bool cutAny = false;
            for (uint32_t p = 0; p < programs.size(); ++p) {
                for (size_t cls = 0; cls < kNumPriorities; ++cls) {
                    std::vector<Request> &queue = programs[p].pending[cls];
                    if (queue.empty())
                        continue;
                    QueueState q;
                    q.size = queue.size();
                    q.oldestArrival = queue.front().arrival;
                    for (const Request &rq : queue) {
                        if (rq.hasDeadline &&
                            (!q.hasDeadline ||
                             rq.deadline < q.earliestDeadline)) {
                            q.earliestDeadline = rq.deadline;
                            q.hasDeadline = true;
                        }
                    }
                    if (q.hasDeadline)
                        q.deadlineLead = deadlineLead(p, queue.size());
                    q.idle = freeWorkers > ready.size() && hasFreeCore(p);
                    q.draining = draining;
                    CutDecision d = decideCut(policy, q, now);
                    if (d.cut) {
                        cutQueue(p, cls, d.reason);
                        cutAny = true;
                    } else if (!wake || d.wakeAt < *wake) {
                        wake = d.wakeAt;
                    }
                }
            }
            // A cut can leave a remainder, and moves the idle test:
            // scan again until a pass cuts nothing.
            if (!cutAny)
                return wake;
        }
    }

    /** Remove and return the ready batch to run next, granted its
     *  cores; nullopt when no ready batch can get a core now. */
    std::optional<Batch>
    start()
    {
        size_t best = ready.size();
        for (size_t k = 0; k < ready.size(); ++k)
            if (hasFreeCore(ready[k].program) &&
                (best == ready.size() || runsBefore(ready[k], ready[best])))
                best = k;
        if (best == ready.size())
            return std::nullopt;
        Batch b = std::move(ready[best]);
        ready.erase(ready.begin() + static_cast<ptrdiff_t>(best));
        b.cores = grant(b.program, b.requests.size());
        return b;
    }

    /** Give back the cores a started batch was granted. */
    void
    release(const std::vector<uint32_t> &granted)
    {
        for (uint32_t c : granted)
            busy[c] = false;
    }

    /** Batches cut so far, by reason (index: CutReason). */
    const std::array<uint64_t, kNumCutReasons> &
    cuts() const
    {
        return cutCounts;
    }

    uint64_t
    batches() const
    {
        return std::accumulate(cutCounts.begin(), cutCounts.end(),
                               uint64_t{0});
    }

    /** Largest batch cut so far. */
    uint64_t maxBatchObserved() const { return largestBatch; }

    /** Requests enqueued but not yet cut into a batch. */
    uint64_t queued() const { return queuedCount; }

    /** Whether any cut batch waits to start. */
    bool hasReady() const { return !ready.empty(); }

  private:
    struct Program
    {
        uint32_t minCores = 0;
        uint32_t maxCores = 0;
        /** One queue per priority class, oldest first. */
        std::array<std::vector<Request>, kNumPriorities> pending{};
    };

    /** Whether a core `program` may take is free. */
    bool
    hasFreeCore(uint32_t program) const
    {
        for (uint32_t c = 0; c < cores; ++c)
            if (!busy[c] && (reservedBy[c] == (int32_t)program ||
                             reservedBy[c] == -1))
                return true;
        return false;
    }

    /** Mark busy and return the cores a `runs`-request batch of
     *  `program` is granted: its own free reserved cores first —
     *  useless to anyone else — then free shared ones, up to its
     *  maxCores and the batch size. */
    std::vector<uint32_t>
    grant(uint32_t program, size_t runs)
    {
        const Program &p = programs[program];
        const size_t limit =
            std::min<size_t>(p.maxCores ? p.maxCores : cores, runs);
        std::vector<uint32_t> granted;
        for (int32_t owner : {(int32_t)program, -1})
            for (uint32_t c = 0; c < cores && granted.size() < limit; ++c)
                if (!busy[c] && reservedBy[c] == owner)
                    granted.push_back(c);
        dpu_assert(!granted.empty(), "started a batch with no free core");
        for (uint32_t c : granted)
            busy[c] = true;
        return granted;
    }

    /** EDF within priority bands: the more urgent band first, then a
     *  deadlined batch before an undeadlined one, then the earlier
     *  deadline, then cut order. */
    static bool
    runsBefore(const Batch &a, const Batch &b)
    {
        if (a.priority != b.priority)
            return a.priority < b.priority;
        if (a.hasDeadline != b.hasDeadline)
            return a.hasDeadline;
        if (a.hasDeadline && a.deadline != b.deadline)
            return a.deadline < b.deadline;
        return a.seq < b.seq;
    }

    /** Move up to maxBatch requests of queue (p, cls) onto `ready`. */
    void
    cutQueue(uint32_t p, size_t cls, CutReason reason)
    {
        std::vector<Request> &queue = programs[p].pending[cls];
        auto end = queue.begin() + static_cast<ptrdiff_t>(
                                       std::min(queue.size(), policy.maxBatch));
        Batch b;
        b.program = p;
        b.priority = static_cast<Priority>(cls);
        b.seq = nextSeq++;
        b.requests.assign(std::make_move_iterator(queue.begin()),
                          std::make_move_iterator(end));
        queue.erase(queue.begin(), end);
        for (const Request &rq : b.requests) {
            if (rq.hasDeadline &&
                (!b.hasDeadline || rq.deadline < b.deadline)) {
                b.deadline = rq.deadline;
                b.hasDeadline = true;
            }
        }
        queuedCount -= b.requests.size();
        ++cutCounts[static_cast<size_t>(reason)];
        largestBatch = std::max<uint64_t>(largestBatch, b.requests.size());
        ready.push_back(std::move(b));
    }

    CutPolicy policy;
    uint32_t cores;
    std::vector<Program> programs;
    std::vector<Batch> ready;
    /** Owning program index per core, or -1 = shared. */
    std::vector<int32_t> reservedBy;
    std::vector<bool> busy; ///< Held by a started batch.
    uint32_t reserved = 0;  ///< Summed minCores.
    std::array<uint64_t, kNumCutReasons> cutCounts{};
    uint64_t largestBatch = 0;
    uint64_t queuedCount = 0;
    uint64_t nextSeq = 0;
};

} // namespace dpu

#endif // DPU_SIM_BATCHING_HH
