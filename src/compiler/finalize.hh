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
 * final, bit-exact instruction stream, one merged partition at a
 * time (ProgramFinalizer).
 */

#ifndef DPU_COMPILER_FINALIZE_HH
#define DPU_COMPILER_FINALIZE_HH

#include <memory>

#include "compiler/blocks.hh"
#include "compiler/ir.hh"
#include "compiler/program.hh"

namespace dpu {

namespace detail {
class FinalizerImpl;
}

/**
 * Incremental step 4: consumes the scheduled IR chunk by chunk (one
 * chunk per merged partition; an unpartitioned compile is one chunk),
 * emitting final instructions as each chunk arrives instead of
 * waiting for the whole stream. Chunks must arrive in stream order.
 * Spill-reload prefetching never looks across a chunk boundary (the
 * next chunk may not exist yet); the in-order reload fallback covers
 * those reads. Spill rows are allocated relative and
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

} // namespace dpu

#endif // DPU_COMPILER_FINALIZE_HH
