/**
 * @file
 * IR code generation: blocks + bank assignment -> IR instruction list.
 *
 * Emits, per block: loads for not-yet-resident DAG inputs, copy_4
 * instructions resolving read conflicts (block inputs sharing a home
 * bank), and the exec itself; after the last block, stores of the
 * DAG's results. Also fixes the data-memory layout of inputs (row =
 * per-bank arrival order, column = home bank) and outputs.
 *
 * Every compile runs the pass per partition range: each range
 * generates an *IR fragment* (local instance ids; reads of values
 * produced by earlier partitions are encoded as external references),
 * and the last range's fragment also holds the final stores. An
 * unpartitioned compile is the one-range case. Step 3 schedules each
 * fragment on its own; ScheduledIrMerger then concatenates the
 * scheduled fragments in partition order, resolves the external
 * references, replays the input-load row allocation against global
 * per-bank counters and places the stores' rows.
 */

#ifndef DPU_COMPILER_CODEGEN_HH
#define DPU_COMPILER_CODEGEN_HH

#include <span>

#include "compiler/blocks.hh"
#include "compiler/ir.hh"
#include "compiler/mapper.hh"
#include "dag/dag.hh"

namespace dpu {

/**
 * Read-only context shared by every fragment of one compile,
 * precomputed once from all partitions' blocks. It carries the
 * cross-partition knowledge a fragment cannot derive locally: which
 * partition emits the load of each DAG input, and in which partition
 * each value's globally-last register read happens (so valid_rst
 * lands on the right read regardless of partition count).
 */
struct CodegenShared
{
    /** lastReaderPart value for "freed by the final store". */
    static constexpr uint32_t storeSentinel = static_cast<uint32_t>(-2);
    static constexpr uint32_t never = static_cast<uint32_t>(-1);

    /** Dense input index of DAG input nodes (others: never). */
    std::vector<uint32_t> inputIndexOf;
    uint32_t numInputs = 0;

    /** Partition whose fragment loads each DAG input (never = unread). */
    std::vector<uint32_t> firstLoaderPart;

    /** Partition holding the globally-last register read of a value;
     *  storeSentinel for compute sinks (read by the final store). */
    std::vector<uint32_t> lastReaderPart;

    /** dag.sinks(), viewed in the caller's list: the results the
     *  final stores write. */
    std::span<const NodeId> sinks;

    /** Number of partition ranges; the last one emits the stores. */
    uint32_t numParts = 0;
};

/** Precompute the shared context; `sinks` = dag.sinks() (it must
 *  outlive the context), partBlocks[p] = blocks of range p in
 *  ascending range order. */
CodegenShared computeCodegenShared(
    const Dag &dag, std::span<const NodeId> sinks,
    const std::vector<std::span<const Block>> &partBlocks);

/**
 * One partition's IR with partition-local instance ids. The last
 * range's fragment (`last`) also holds the final stores: store k
 * writes row ir.inputRows + k, past every load row of the fragment,
 * and ir.outputs lists the compute sinks by store round at those
 * rows. The merge rebases both on the program's input region.
 */
struct IrFragment
{
    IrProgram ir;
    bool last = false;

    /** Value behind each external reference, indexed by the low bits
     *  of reads whose externalFlag is set. */
    std::vector<NodeId> externals;

    /** Home bank of each external value, indexed like externals. */
    std::vector<uint32_t> externalBanks;

    /** Primary instance created here per value (loads, exec outputs;
     *  conflict-copy temporaries are not listed). */
    std::vector<std::pair<NodeId, InstanceId>> defs;

    static constexpr InstanceId externalFlag = 1u << 31;
    static bool isExternal(InstanceId id) { return id & externalFlag; }

    /** Bank of the register a read of `id` reads. */
    uint32_t
    bankOf(InstanceId id) const
    {
        return isExternal(id) ? externalBanks[id & ~externalFlag]
                              : ir.instances[id].bank;
    }
};

/**
 * Generate the IR fragment of one partition. Pure in its inputs, so
 * fragments of different partitions can run concurrently; per-node
 * working state is sized to the range (plus small maps for values
 * reached below it), so P fragments cost O(N) total, not O(P*N).
 *
 * @param blocks The partition's blocks (RangeDecomposition::blocks).
 * @param range The partition's id range (RangeDecomposition::range).
 * @param banks Merged whole-DAG bank assignment (bankOf/peOf indexed
 *        by global node id).
 * @param part This partition's index among the ranges.
 */
IrFragment generateIrForRange(const Dag &dag, const ArchConfig &cfg,
                              std::span<const Block> blocks,
                              std::pair<NodeId, NodeId> range,
                              const BankAssignment &banks,
                              const CodegenShared &shared, uint32_t part);

/**
 * Incremental merge of *already scheduled* fragments: append()
 * consumes fragments strictly in partition order — resolving
 * externals, replaying load rows against global per-bank fill levels
 * and offsetting block ids — and preserves the per-fragment
 * schedules: whenever an instruction reads a value written near the
 * end of an earlier fragment, nops pad the boundary until that
 * write's latency has elapsed, so the merged stream is hazard-free
 * without a whole-program reorder. Appending the last fragment
 * completes the program: input sinks get their rows, then the store
 * rows and the outputs are rebased past them. Deterministic given the
 * fragments, hence independent of how many threads produced them.
 * Construction does not read `shared`, so a pipelined compile may
 * build the merger before the last range's blocks exist; append()
 * needs it complete.
 */
class ScheduledIrMerger
{
  public:
    ScheduledIrMerger(const Dag &dag, const ArchConfig &cfg,
                      const BankAssignment &banks,
                      const CodegenShared &shared);

    /** Append the next partition's scheduled fragment. */
    void append(IrFragment &&frag, size_t numBlocks);

    /** The merged program (grows with each append). */
    const IrProgram &ir() const { return out; }

  private:
    /** Lay out the data memory's io region once the last fragment's
     *  instructions are in: input sinks, then store rows. */
    void placeOutputs(const IrFragment &last, size_t firstInstr);

    const Dag &dag;
    const ArchConfig &cfg;
    const BankAssignment &banks;
    const CodegenShared &shared;
    IrProgram out;
    std::vector<InstanceId> instOf; ///< Primary instance per value.
    std::vector<uint64_t> readyAt;  ///< Write-landed cycle per instance.
    std::vector<uint32_t> rowCounter;
    uint32_t blockOffset = 0;
};

} // namespace dpu

#endif // DPU_COMPILER_CODEGEN_HH
