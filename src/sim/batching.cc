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
    // The batch could not start now: wait out the window for company.
    int64_t cut_at = queue.oldestArrival + policy.window;
    if (now >= cut_at)
        return {true, CutReason::Window, 0};
    return {false, CutReason::Window, cut_at};
}

} // namespace dpu
