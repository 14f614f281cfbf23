/**
 * @file
 * The batch scheduler of AsyncBatchServer: the clock-free core the
 * server drives on the host's steady clock and the tests drive on
 * scripted ticks. A tick is whatever unit the caller counts in; the
 * scheduler never reads a clock. It owns one coalescing queue per
 * resident program, the cut, the start order and the grants of one
 * machine's `cores` model cores.
 *
 * Cutting is work-conserving, like the dynamic batching of Clipper
 * (Crankshaw et al., NSDI 2017): a batch that could start now is cut
 * at once, and the window holds a queue only while it could not start
 * anyway, when a bigger batch costs no extra latency. Cut reasons, in
 * precedence order:
 *
 *   1. Size   — the queue holds maxBatch requests.
 *   2. Drain  — the caller is flushing every queue.
 *   3. Idle   — the batch could start now: a worker is available (the
 *               caller counts them) and a core is free.
 *   4. Window — the oldest request has waited out the window.
 *
 * When no reason applies, the decision names the tick at which one
 * will; a free worker, a freed core or a drain can only bring that
 * forward, so the caller must ask again when one appears.
 *
 * Ready batches start in cut order whenever a core is free. A grant
 * takes the cores free now, up to the batch size.
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
#include <vector>

#include "support/logging.hh"

namespace dpu {

/** Why a batch was cut (see the file comment for the precedence). */
enum class CutReason : uint8_t
{
    Size = 0,
    Drain = 1,
    Idle = 2,
    Window = 3,
};

/** Number of cut reasons (array extents in per-reason counters). */
inline constexpr size_t kNumCutReasons = 4;

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
    bool idle = false;         ///< The batch could start now (see Idle).
    bool draining = false;     ///< The caller is flushing every queue.
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
 * and which model cores are busy. Not thread-safe: the caller
 * serializes every call.
 */
template <typename Payload>
class BatchScheduler
{
  public:
    struct Request
    {
        Payload payload{};
        int64_t arrival = 0;
    };

    struct Batch
    {
        uint32_t program = 0;
        std::vector<Request> requests; ///< Oldest first.
        std::vector<uint32_t> cores;   ///< Granted by start().
    };

    BatchScheduler(uint32_t cores_, CutPolicy policy_)
        : policy(policy_), busy(cores_, false)
    {
        dpu_assert(cores_ >= 1, "the scheduler needs a core");
        policy.maxBatch = std::max<size_t>(policy.maxBatch, 1);
    }

    /** Register a resident program; returns its index (0, 1, ...). */
    uint32_t
    addProgram()
    {
        pending.emplace_back();
        return static_cast<uint32_t>(pending.size() - 1);
    }

    /** Append a request to its program's queue; arrivals must not go
     *  backwards within one queue. */
    void
    enqueue(uint32_t program, Request request)
    {
        pending[program].push_back(std::move(request));
        ++queuedCount;
    }

    /**
     * Cut every queue the cut rule says to at `now`, until none is
     * left to cut. `freeWorkers` is how many workers wait for a batch;
     * each batch already ready is one's next job, so a worker is
     * available while freeWorkers exceeds the ready batches.
     * Returns the tick at which to ask again, when any queue is left.
     */
    std::optional<int64_t>
    cut(int64_t now, uint64_t freeWorkers, bool draining)
    {
        for (;;) {
            std::optional<int64_t> wake;
            bool cutAny = false;
            for (uint32_t p = 0; p < pending.size(); ++p) {
                if (pending[p].empty())
                    continue;
                QueueState q;
                q.size = pending[p].size();
                q.oldestArrival = pending[p].front().arrival;
                q.idle = freeWorkers > ready.size() && hasFreeCore();
                q.draining = draining;
                CutDecision d = decideCut(policy, q, now);
                if (d.cut) {
                    cutQueue(p, d.reason);
                    cutAny = true;
                } else if (!wake || d.wakeAt < *wake) {
                    wake = d.wakeAt;
                }
            }
            // A cut can leave a remainder, and moves the idle test:
            // scan again until a pass cuts nothing.
            if (!cutAny)
                return wake;
        }
    }

    /** Remove and return the oldest ready batch, granted its cores;
     *  nullopt when none is ready or no core is free. */
    std::optional<Batch>
    start()
    {
        if (ready.empty() || !hasFreeCore())
            return std::nullopt;
        Batch b = std::move(ready.front());
        ready.erase(ready.begin());
        b.cores = grant(b.requests.size());
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
    bool
    hasFreeCore() const
    {
        return std::find(busy.begin(), busy.end(), false) != busy.end();
    }

    /** Mark busy and return the cores a `runs`-request batch is
     *  granted: the lowest-numbered free ones, up to the batch size. */
    std::vector<uint32_t>
    grant(size_t runs)
    {
        std::vector<uint32_t> granted;
        for (uint32_t c = 0; c < busy.size() && granted.size() < runs; ++c)
            if (!busy[c])
                granted.push_back(c);
        dpu_assert(!granted.empty(), "started a batch with no free core");
        for (uint32_t c : granted)
            busy[c] = true;
        return granted;
    }

    /** Move up to maxBatch requests of program p's queue onto `ready`. */
    void
    cutQueue(uint32_t p, CutReason reason)
    {
        std::vector<Request> &queue = pending[p];
        auto end = queue.begin() + static_cast<ptrdiff_t>(
                                       std::min(queue.size(), policy.maxBatch));
        Batch b;
        b.program = p;
        b.requests.assign(std::make_move_iterator(queue.begin()),
                          std::make_move_iterator(end));
        queue.erase(queue.begin(), end);
        queuedCount -= b.requests.size();
        ++cutCounts[static_cast<size_t>(reason)];
        largestBatch = std::max<uint64_t>(largestBatch, b.requests.size());
        ready.push_back(std::move(b));
    }

    CutPolicy policy;
    /** One queue per resident program, oldest first. */
    std::vector<std::vector<Request>> pending;
    std::vector<Batch> ready; ///< Cut order.
    std::vector<bool> busy;   ///< Per core: held by a started batch.
    std::array<uint64_t, kNumCutReasons> cutCounts{};
    uint64_t largestBatch = 0;
    uint64_t queuedCount = 0;
};

} // namespace dpu

#endif // DPU_SIM_BATCHING_HH
