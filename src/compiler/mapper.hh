/**
 * @file
 * Compilation step 2: register-bank (and writer-PE) mapping
 * (paper §IV-B, algorithm 2).
 *
 * Every io value — a DAG input or a block output — gets a *home bank*.
 * The mapper works toward:
 *   - Constraint F: two inputs of one block in different banks
 *     (violations survive as *read conflicts*, each resolved later by
 *     a copy instruction costing one stall cycle);
 *   - Constraint G: two outputs of one block in different banks
 *     (hard — banks have one write port; enforced exactly, with an
 *     augmenting-path repair when the greedy paints itself in);
 *   - Constraint H: the producing PE must be able to write the chosen
 *     bank under the configured output interconnect (hard);
 *   - Objective I: minimize read conflicts — nodes are processed in
 *     fewest-compatible-banks-first order via the Mnodes buckets;
 *   - Objective J: balance banks — ties are broken randomly.
 *
 * Deviation noted in DESIGN.md: PE positions are fixed by the
 * deterministic unroll of step 1, so a block output's candidate banks
 * are the union of its replicas' writable sets rather than a jointly
 * searched PE/bank space.
 *
 * A partition range maps in two halves. The *prepare* half
 * (prepareBanksForRange) reads decompositions only: it indexes the
 * range's io values, each value's readers, each reader's in-range
 * inputs and each value's replica PEs. The *assign* half
 * (assignBanksForRange) reads the banks earlier ranges chose, so a
 * boundary-aware compile runs it in range order: it ORs those banks
 * into one mask per reader, fills the Mnodes buckets from the
 * replicas' physical masks and runs the greedy.
 *
 * Boundary-aware mapping looks ahead: a block of a later range that
 * reads values of this range is one of their readers too, so two
 * values a later block reads together avoid sharing a bank (objective
 * I) although no block of their own range reads both. Its inputs of
 * earlier ranges fold into its external mask like a local block's; its
 * inputs of later ranges are not mapped yet and count for nothing; it
 * has no outputs here, so constraint G is untouched. Preparing a range
 * therefore needs every later range decomposed: compile() decomposes
 * every range first, then prepares the ranges in parallel, and only
 * the assign half is in the ordered chain.
 */

#ifndef DPU_COMPILER_MAPPER_HH
#define DPU_COMPILER_MAPPER_HH

#include <span>
#include <vector>

#include "arch/config.hh"
#include "compiler/blocks.hh"
#include "dag/dag.hh"

namespace dpu {

/** Bank-mapping policy (fig. 10(b) compares these). */
enum class BankPolicy : uint8_t {
    ConflictAware, ///< Algorithm 2.
    Random,        ///< Uniform pick among physically writable banks.
};

/** Result of step 2. */
struct BankAssignment
{
    /** Home bank per node (io values only; others: invalid). */
    std::vector<uint32_t> bankOf;

    /** Writer PE per io *compute* node (DAG inputs: invalid). */
    std::vector<uint32_t> peOf;

    /**
     * Read conflicts implied by the assignment: over all blocks, the
     * number of block inputs sharing a bank with another input of the
     * same block (each costs one copy). This is fig. 6(e)/10(b)'s
     * "bank conflicts" metric.
     */
    uint64_t readConflicts = 0;

    static constexpr uint32_t invalid = static_cast<uint32_t>(-1);
};

/**
 * Run step 2 on a whole-DAG decomposition (decomposeIntoBlocks, the
 * one range [0, numNodes), so the result is indexed by node id):
 * assignBanksForRange on prepareBanksForRange, plus the read-conflict
 * recount. The DAG must be the binarized one used for step 1.
 */
BankAssignment assignBanks(const Dag &dag, const ArchConfig &cfg,
                           const RangeDecomposition &dec,
                           BankPolicy policy = BankPolicy::ConflictAware,
                           uint64_t seed = 1);

/**
 * The decomposition-only half of step 2 for one partition range
 * (prepareBanksForRange). Value-indexed tables are range-local
 * (indexed v - range.first). Readers are numbered: the range's own
 * blocks first, then its look-ahead readers in aheadBlocks order.
 */
struct RangeBankPrep
{
    /** The range's io values, ascending. */
    std::vector<NodeId> ioValues;

    /** Look-ahead readers: the blocks of later ranges that read a
     *  value of this range, ascending, as ids numbered across the
     *  later decompositions in order (reader blocks.size() + i is
     *  aheadBlocks[i]). No Block is copied. */
    std::vector<uint32_t> aheadBlocks;

    /** CSR: in-range value -> its readers, ascending, and its slot in
     *  each one's in-range input list. */
    std::vector<uint32_t> readerStart;
    std::vector<uint32_t> readerList;
    std::vector<uint32_t> readerSlot;

    /** CSR: reader -> its in-range inputs, in input order. */
    std::vector<uint32_t> inputStart;
    std::vector<NodeId> inputList;

    /** CSR: io compute value -> its replica PEs, in placement order. */
    std::vector<uint32_t> replicaStart;
    std::vector<uint32_t> replicaPe;

    /** Banks each PE can write (constraint H), one bit per bank. */
    std::vector<uint64_t> peWritable;
};

/**
 * Prepare step 2 for one partition range: index its io values, their
 * readers, each reader's in-range inputs and each value's replica
 * PEs. `later` holds the decompositions of the ranges after dec's, in
 * order (empty: no look-ahead readers). Depends on decompositions
 * only, so compile() runs it outside the ordered chain.
 */
RangeBankPrep prepareBanksForRange(
    const Dag &dag, const ArchConfig &cfg, const RangeDecomposition &dec,
    std::span<const RangeDecomposition *const> later = {});

/**
 * Run the rest of step 2 on one prepared partition range: assigns
 * home banks to the io values the range owns (its DAG inputs and its
 * blocks' outputs). Values read from earlier partitions keep the
 * banks their owners chose.
 *
 * Without `externalBanks` the mapper sees only the range's own
 * blocks, so ranges can be mapped concurrently (the boundary-oblivious
 * mapper); conflicts between values first read together across a
 * partition boundary are then not optimized (they are still resolved
 * correctly by copies later).
 *
 * `externalBanks` makes the mapper *boundary-aware*: a whole-DAG
 * bankOf vector whose entries for earlier ranges are already fixed.
 * Cross-boundary co-read banks then shrink a value's compatibility
 * set and count toward bank contention, cutting the read conflicts
 * the boundary-oblivious mapper pays on partitioned compiles.
 * Mapping then depends on earlier ranges, so ranges must be mapped
 * in ascending order (still deterministic); only entries of earlier
 * ranges are read, so other threads may fill in later ranges
 * meanwhile — compile() maps each range in the ordered step of its
 * codegen pipeline, overlapping the codegen, reorder and finalize of
 * the earlier partitions.
 *
 * `prep` must come from prepareBanksForRange(dag, cfg, dec, later)
 * with the same `later`, which resolves its look-ahead readers; the
 * mapper only reads it. The returned bankOf/peOf are range-local
 * (indexed v - range.first) and readConflicts is left at 0 — count it
 * globally after merging.
 */
BankAssignment assignBanksForRange(
    const Dag &dag, const ArchConfig &cfg, const RangeDecomposition &dec,
    const RangeBankPrep &prep, BankPolicy policy = BankPolicy::ConflictAware,
    uint64_t seed = 1, const std::vector<uint32_t> *externalBanks = nullptr,
    std::span<const RangeDecomposition *const> later = {});

/** Recount read conflicts of an assignment over dec's blocks
 *  (test/diagnostic helper). `assignment.bankOf` is indexed by global
 *  node id: a whole-DAG range's assignment, or the merged banks. */
uint64_t countReadConflicts(const RangeDecomposition &dec,
                            const BankAssignment &assignment);

} // namespace dpu

#endif // DPU_COMPILER_MAPPER_HH
