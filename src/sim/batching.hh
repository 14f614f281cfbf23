/**
 * @file
 * The batch-cut policy: when does a coalescing queue become a batch?
 *
 * One pure, clock-agnostic decision shared by both serving models, so
 * the fleet model cannot drift from the server it models:
 * AsyncBatchServer asks it on the host's steady clock, simulateFleet
 * on virtual device cycles. A tick is whatever unit the caller counts
 * in; the policy only compares and adds ticks.
 *
 * The policy is work-conserving, like the dynamic batching of Clipper
 * (Crankshaw et al., NSDI 2017): while a worker is idle, whatever is
 * queued is cut at once, because waiting for company would leave that
 * worker idle for nothing. The batching window holds a queue only
 * while every worker is busy, which is exactly when a bigger batch
 * costs no extra latency. Cut reasons, in precedence order:
 *
 *   1. Size     — the queue holds maxBatch requests.
 *   2. Drain    — the caller is flushing every queue.
 *   3. Idle     — a worker could start the batch right now.
 *   4. Deadline — waiting longer would miss the earliest deadline,
 *                 led by the caller's service-time estimate.
 *   5. Window   — the oldest request has waited out the window.
 *
 * When no reason applies, the decision names the tick at which one
 * will (the earlier of the deadline and window cut times); an idle
 * worker or a drain can only bring that forward, so the caller must
 * ask again when either appears.
 */

#ifndef DPU_SIM_BATCHING_HH
#define DPU_SIM_BATCHING_HH

#include <cstddef>
#include <cstdint>

namespace dpu {

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

/** The two knobs of the policy. */
struct CutPolicy
{
    /** Cut as soon as this many requests have coalesced (>= 1). */
    size_t maxBatch = 8;

    /** Ticks the oldest request may wait for company while every
     *  worker is busy. */
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

    bool idle = false;     ///< A worker could start this batch now.
    bool draining = false; ///< The caller is flushing every queue.
};

/** Either "cut now for `reason`" or "ask again at `wakeAt`". */
struct CutDecision
{
    bool cut = false;
    CutReason reason = CutReason::Window; ///< Meaningful when cut.
    int64_t wakeAt = 0;                   ///< Meaningful when !cut.
};

/** The policy itself: a pure function of its arguments. */
CutDecision decideCut(const CutPolicy &policy, const QueueState &queue,
                      int64_t now);

} // namespace dpu

#endif // DPU_SIM_BATCHING_HH
