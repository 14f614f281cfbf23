#include "sim/batching.hh"

#include "support/logging.hh"

namespace dpu {

CutDecision
decideCut(const CutPolicy &policy, const QueueState &queue, int64_t now)
{
    dpu_assert(queue.size >= 1, "decideCut: the queue is empty");
    if (queue.size >= policy.maxBatch)
        return {true, CutReason::Size, 0};
    if (queue.draining)
        return {true, CutReason::Drain, 0};
    if (queue.idle)
        return {true, CutReason::Idle, 0};

    // The batch could not start now. The window says "wait for
    // company"; a deadline says "stop waiting while it is still
    // meetable". Cut at whichever comes first.
    int64_t cut_at = queue.oldestArrival + policy.window;
    CutReason reason = CutReason::Window;
    if (queue.hasDeadline &&
        queue.earliestDeadline - queue.deadlineLead < cut_at) {
        cut_at = queue.earliestDeadline - queue.deadlineLead;
        reason = CutReason::Deadline;
    }
    if (now >= cut_at)
        return {true, reason, 0};
    return {false, reason, cut_at};
}

} // namespace dpu
