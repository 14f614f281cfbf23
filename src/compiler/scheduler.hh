/**
 * @file
 * Compilation step 3: pipeline-aware reordering (paper §IV-C).
 *
 * The datapath has D+1 pipeline stages, so an instruction reading a
 * register must issue at least `writeLatency(producer)` cycles after
 * the producer. The scheduler reorders the IR list to hide these gaps
 * behind independent instructions, searching only a fixed-size window
 * of succeeding instructions (300, like the paper) so runtime stays
 * linear, and inserts nops for hazards it cannot hide.
 *
 * Codegen gives each block's conflict copies their own copy_4s. When
 * the scheduler issues a copy_4 with free slots, it folds in the
 * window's other ready copy_4s, in index order, while the merged
 * copy_4 keeps at most four slots, no two reading one bank and no two
 * writing one (a slot may read a bank another slot writes: the
 * machine does every read before any write).
 */

#ifndef DPU_COMPILER_SCHEDULER_HH
#define DPU_COMPILER_SCHEDULER_HH

#include "arch/config.hh"
#include "compiler/ir.hh"

namespace dpu {

struct IrFragment;

/** Scheduling statistics. */
struct ScheduleStats
{
    uint64_t nopsInserted = 0;
    uint64_t movedInstructions = 0; ///< Issued out of original order.
    /** Highest register-pressure estimate compared to the throttle's
     *  B·R/2 (RegisterCertificate::peakLive). */
    int64_t peakLive = 0;
    /** Gap-weighted longest path of the fragment's dependence graph,
     *  in issue slots: no schedule of the fragment is shorter. */
    uint64_t criticalPath = 0;
};

/**
 * Reorder one partition's IR fragment in place, before merging (an
 * unpartitioned compile's one fragment is the whole program).
 *
 * External references (values produced by earlier partitions) carry
 * no producer edge — they are treated as ready at cycle 0, and the
 * merge pads the fragment boundary until every cross-fragment write
 * has landed — but their valid_rst ordering and the fragment's local
 * hazards are scheduled like any other read, so the merged stream
 * needs no further reordering. On the last fragment, which holds the
 * final stores, every local instance must be freed.
 *
 * @param window Look-ahead window in instructions (paper: 300).
 */
ScheduleStats reorderFragment(IrFragment &frag, const ArchConfig &cfg,
                              uint32_t window = 300);

} // namespace dpu

#endif // DPU_COMPILER_SCHEDULER_HH
