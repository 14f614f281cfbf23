/**
 * @file
 * Compilation step 4: register spilling and address resolution
 * (paper §IV-D).
 *
 * Replays the scheduled IR in issue order while modelling every
 * register bank's valid bits exactly as the hardware's priority
 * encoder will see them (write addresses are reserved at issue; see
 * DESIGN.md "Write-address reservation at issue"). When a bank
 * overflows its R registers, the occupant with the furthest next use
 * (Belady) is spilled with a store; spilled values are reloaded with
 * a load + nop pair right before their next consumer. Produces the
 * final, bit-exact instruction stream.
 */

#ifndef DPU_COMPILER_FINALIZE_HH
#define DPU_COMPILER_FINALIZE_HH

#include <memory>
#include <span>

#include "compiler/blocks.hh"
#include "compiler/ir.hh"
#include "compiler/program.hh"

namespace dpu {

namespace detail {
class FinalizerImpl;
}

/**
 * Incremental step 4: consumes the scheduled IR chunk by chunk (one
 * chunk per merged partition in the pipelined compile path), emitting
 * final instructions as each chunk arrives instead of waiting for the
 * whole stream. Chunks must arrive in stream order; the result is
 * byte-identical to finalizing the concatenated stream in one pass,
 * except that spill-reload prefetching never looks across a chunk
 * boundary (the next chunk may not exist yet) — the in-order reload
 * fallback covers those reads. Spill rows are allocated relative and
 * rebased below the input/output region at finish(), when the final
 * row counts are known.
 */
class ProgramFinalizer
{
  public:
    /**
     * Resolves a global block id to its Block (peOps for execs). It
     * refers to a callable without owning it (one indirect call, no
     * allocation), so that callable must outlive the finalizer.
     */
    class BlockResolver
    {
      public:
        template <class F>
        BlockResolver(const F &f)
            : callable(&f), invoke([](const void *c, uint32_t id)
                                       -> const Block & {
                  return (*static_cast<const F *>(c))(id);
              })
        {}

        const Block &operator()(uint32_t id) const
        {
            return invoke(callable, id);
        }

      private:
        const void *callable;
        const Block &(*invoke)(const void *, uint32_t);
    };

    ProgramFinalizer(const ArchConfig &cfg, BlockResolver blocks);
    ~ProgramFinalizer();
    ProgramFinalizer(const ProgramFinalizer &) = delete;
    ProgramFinalizer &operator=(const ProgramFinalizer &) = delete;

    /**
     * Finalize ir.instrs[fromInstr..) over instances
     * ir.instances[fromInstance..) appended since the previous chunk.
     * `ir` must contain the full merged stream so far (IR indices are
     * global).
     */
    void appendChunk(const IrProgram &ir, size_t fromInstr,
                     size_t fromInstance);

    /**
     * Rebase the spill rows on ir's final input/output region, check
     * for register leaks, and fill the step 1-4 stats (workload-level
     * fields are left for the driver, as before) and the certificate's
     * peakSlots (the driver adds the scheduler's half).
     */
    CompiledProgram finish(const IrProgram &ir, size_t numBlocks);

  private:
    std::unique_ptr<detail::FinalizerImpl> impl;
};

/**
 * Run step 4 on a complete scheduled IR program (single-chunk
 * convenience wrapper around ProgramFinalizer; byte-identical to the
 * historical monolithic pass).
 *
 * @param ir Scheduled IR (consumed).
 * @param cfg Architecture configuration.
 * @param blocks Every step-1 block, indexed by global block id (the
 *        peOps of each exec); read in place, so an unpartitioned
 *        compile passes its one range's blocks — a fragment cache
 *        entry's included — without building a BlockDecomposition.
 * @return The executable program; stats fields covering steps 1-4 are
 *         filled except workload-level ones (numOperations, csrBits,
 *         compile time) which the driver adds.
 */
CompiledProgram finalizeProgram(IrProgram &&ir, const ArchConfig &cfg,
                                std::span<const Block> blocks);

} // namespace dpu

#endif // DPU_COMPILER_FINALIZE_HH
