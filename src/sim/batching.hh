/**
 * @file
 * The batch scheduler both serving models share: AsyncBatchServer
 * drives it on the host's steady clock, simulateFleet on virtual
 * device cycles, so the fleet model cannot drift from the server. A
 * tick is whatever unit the caller counts in; the scheduler never
 * reads a clock. It owns one coalescing queue per (program, priority
 * class), the cut, rank placement, the start order and core grants.
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
 *                 (the caller counts them), and the rank it would be
 *                 placed on has a free core the program may take —
 *                 its own reserved core or a shared one.
 *   4. Deadline — waiting longer would miss the earliest deadline,
 *                 led by the caller's service-time estimate.
 *   5. Window   — the oldest request has waited out the window.
 *
 * When no reason applies, the decision names the tick at which one
 * will; a free worker, a freed core or a drain can only bring that
 * forward, so the caller must ask again when one appears.
 *
 * Placement happens at cut time: a pinned (Affinity) program's batch
 * goes to its home rank, registration index % ranks; a replicated
 * one's to the rank with the fewest cores busy or asked for by its
 * waiting (cut, not started) batches, ties to the lowest id.
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

#include "arch/topology.hh"
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
 * server's input and promise; nothing for the fleet model). It owns
 * the queues, the ready batches and the model cores of every rank —
 * their static reservation partition and which are busy. Core ids are
 * global: rank * coresPerRank + local core. Not thread-safe: the
 * caller serializes every call.
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
        uint32_t rank = 0;             ///< Chosen at cut time.
        std::vector<uint32_t> cores;   ///< Granted by start().
    };

    BatchScheduler(uint32_t ranks_, uint32_t coresPerRank_,
                   CutPolicy policy_)
        : policy(policy_), ranks(ranks_), coresPerRank(coresPerRank_),
          reservedBy((size_t)ranks * coresPerRank, -1),
          busy((size_t)ranks * coresPerRank, false),
          busyPerRank(ranks, 0), waitingPerRank(ranks, 0),
          reservedPerRank(ranks, 0)
    {
        dpu_assert(ranks >= 1 && coresPerRank >= 1,
                   "the scheduler needs a rank and a core");
        policy.maxBatch = std::max<size_t>(policy.maxBatch, 1);
    }

    /**
     * Register a resident program; returns its index (0, 1, ...).
     * `minCores` cores are reserved for it alone on every rank it is
     * placed on (all ranks when replicated, its home rank when
     * pinned); `maxCores` caps one batch's cores (0 = no cap).
     *
     * Throws FatalError, changing nothing, when minCores exceeds a
     * rank, maxCores < minCores, the reservation no longer fits next
     * to the ones already granted, or it would leave a program
     * without a reservation no core to run on.
     */
    uint32_t
    addProgram(uint32_t minCores, uint32_t maxCores, Placement placement)
    {
        if (minCores > coresPerRank)
            dpu_fatal("addProgram: QosSpec::minCores " +
                      std::to_string(minCores) + " exceeds the " +
                      std::to_string(coresPerRank) + " modeled cores");
        if (maxCores != 0 && maxCores < minCores)
            dpu_fatal("addProgram: QosSpec::maxCores " +
                      std::to_string(maxCores) + " below minCores " +
                      std::to_string(minCores));
        Program prog{minCores, maxCores,
                     placement == Placement::Replicate,
                     static_cast<uint32_t>(programs.size()) % ranks};
        for (uint32_t rank = 0; rank < ranks; ++rank) {
            if (!placedOn(prog, rank))
                continue;
            if (reservedPerRank[rank] + minCores > coresPerRank)
                dpu_fatal("addProgram: core reservations exhausted (" +
                          std::to_string(reservedPerRank[rank]) + " of " +
                          std::to_string(coresPerRank) +
                          " already reserved, requested " +
                          std::to_string(minCores) + " more)");
            bool unreserved_resident = minCores == 0;
            for (const Program &o : programs)
                unreserved_resident |= placedOn(o, rank) && o.minCores == 0;
            if (reservedPerRank[rank] + minCores == coresPerRank &&
                unreserved_resident)
                dpu_fatal("addProgram: reservation would leave no shared "
                          "core for resident programs without one");
        }
        // The lowest-numbered shared cores of each rank the program is
        // placed on become its own, for good (programs stay resident).
        int32_t index = static_cast<int32_t>(programs.size());
        for (uint32_t rank = 0; rank < ranks; ++rank) {
            if (!placedOn(prog, rank))
                continue;
            uint32_t granted = 0;
            for (uint32_t c = 0; c < coresPerRank && granted < minCores;
                 ++c) {
                if (reservedBy[rank * coresPerRank + c] == -1) {
                    reservedBy[rank * coresPerRank + c] = index;
                    ++granted;
                }
            }
            reservedPerRank[rank] += minCores;
        }
        programs.push_back(std::move(prog));
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
                    uint32_t rank = placeRank(p);
                    q.idle = freeWorkers > ready.size() &&
                             hasFreeCore(p, rank);
                    q.draining = draining;
                    CutDecision d = decideCut(policy, q, now);
                    if (d.cut) {
                        cutQueue(p, cls, rank, d.reason);
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
            if (hasFreeCore(ready[k].program, ready[k].rank) &&
                (best == ready.size() || runsBefore(ready[k], ready[best])))
                best = k;
        if (best == ready.size())
            return std::nullopt;
        Batch b = std::move(ready[best]);
        ready.erase(ready.begin() + static_cast<ptrdiff_t>(best));
        waitingPerRank[b.rank] -= demand(b.program, b.requests.size());
        b.cores = grant(b.program, b.rank, b.requests.size());
        return b;
    }

    /** Give back the cores a started batch was granted. */
    void
    release(const std::vector<uint32_t> &cores)
    {
        for (uint32_t c : cores) {
            busy[c] = false;
            --busyPerRank[c / coresPerRank];
        }
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
        bool replicated = true;
        uint32_t homeRank = 0;
        /** One queue per priority class, oldest first. */
        std::array<std::vector<Request>, kNumPriorities> pending{};
    };

    static bool
    placedOn(const Program &p, uint32_t rank)
    {
        return p.replicated || p.homeRank == rank;
    }

    /** Rank a batch of `program` cut now goes to: its home rank when
     *  pinned, else the rank with the fewest cores busy or asked for
     *  by batches placed there that have not started, ties to the
     *  lowest id. */
    uint32_t
    placeRank(uint32_t program) const
    {
        if (!programs[program].replicated)
            return programs[program].homeRank;
        uint32_t best = 0;
        for (uint32_t r = 1; r < ranks; ++r)
            if (busyPerRank[r] + waitingPerRank[r] <
                busyPerRank[best] + waitingPerRank[best])
                best = r;
        return best;
    }

    /** Most cores a `runs`-request batch of `program` is granted. */
    uint32_t
    demand(uint32_t program, size_t runs) const
    {
        const Program &p = programs[program];
        return static_cast<uint32_t>(std::min<size_t>(
            p.maxCores ? p.maxCores : coresPerRank, runs));
    }

    /** Whether `rank` has a free core `program` may take. */
    bool
    hasFreeCore(uint32_t program, uint32_t rank) const
    {
        for (uint32_t g = rank * coresPerRank;
             g < (rank + 1) * coresPerRank; ++g)
            if (!busy[g] && (reservedBy[g] == (int32_t)program ||
                             reservedBy[g] == -1))
                return true;
        return false;
    }

    /** Mark busy and return the cores a `runs`-request batch of
     *  `program` on `rank` is granted: its own free reserved cores
     *  first — useless to anyone else — then free shared ones, up to
     *  its maxCores and the batch size. */
    std::vector<uint32_t>
    grant(uint32_t program, uint32_t rank, size_t runs)
    {
        const size_t limit = demand(program, runs);
        std::vector<uint32_t> granted;
        for (int32_t owner : {(int32_t)program, -1})
            for (uint32_t g = rank * coresPerRank;
                 g < (rank + 1) * coresPerRank && granted.size() < limit;
                 ++g)
                if (!busy[g] && reservedBy[g] == owner)
                    granted.push_back(g);
        dpu_assert(!granted.empty(), "started a batch with no free core");
        for (uint32_t g : granted)
            busy[g] = true;
        busyPerRank[rank] += static_cast<uint32_t>(granted.size());
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
    cutQueue(uint32_t p, size_t cls, uint32_t rank, CutReason reason)
    {
        std::vector<Request> &queue = programs[p].pending[cls];
        auto end = queue.begin() + static_cast<ptrdiff_t>(
                                       std::min(queue.size(), policy.maxBatch));
        Batch b;
        b.program = p;
        b.priority = static_cast<Priority>(cls);
        b.seq = nextSeq++;
        b.rank = rank;
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
        waitingPerRank[rank] += demand(p, b.requests.size());
        ready.push_back(std::move(b));
    }

    CutPolicy policy;
    uint32_t ranks;
    uint32_t coresPerRank;
    std::vector<Program> programs;
    std::vector<Batch> ready;
    /** Owning program index per core, or -1 = shared. */
    std::vector<int32_t> reservedBy;
    std::vector<bool> busy;                ///< Held by a started batch.
    std::vector<uint32_t> busyPerRank;     ///< Busy cores, per rank.
    /** Cores the ready batches placed on each rank ask for. */
    std::vector<uint32_t> waitingPerRank;
    std::vector<uint32_t> reservedPerRank; ///< Summed minCores.
    std::array<uint64_t, kNumCutReasons> cutCounts{};
    uint64_t largestBatch = 0;
    uint64_t queuedCount = 0;
    uint64_t nextSeq = 0;
};

} // namespace dpu

#endif // DPU_SIM_BATCHING_HH
