/**
 * @file
 * The DPU-v2 compiler driver (paper §IV, fig. 8).
 *
 * Pipeline: binarize (only a non-binary input; prepareDag,
 * configuration-independent) -> (optional coarse partitioning) ->
 * step 1 block decomposition -> step 2 PE/bank mapping ->
 * IR codegen -> step 3 pipeline-aware reordering ->
 * step 4 spilling + address resolution -> executable program.
 *
 * Every compile runs step 1 of every partition in parallel on
 * CompileOptions::threads workers, then streams the rest through one
 * pipelineOrdered pool of as many: step 2's preparation of every
 * partition runs unordered (it reads the blocks of every later
 * partition, step 2's look-ahead); step 2 maps partition p in
 * partition order once p is prepared; codegen and step 3 run per
 * partition once every range is prepared, and the last partition's
 * fragment also holds the final stores; the caller merges and runs
 * step 4 in partition order. An unpartitioned compile is the
 * one-range case, a plain loop.
 */

#ifndef DPU_COMPILER_COMPILER_HH
#define DPU_COMPILER_COMPILER_HH

#include "arch/config.hh"
#include "compiler/mapper.hh"
#include "compiler/program.hh"
#include "dag/dag.hh"

namespace dpu {

class FragmentCache;

/** Knobs of the compilation pipeline. */
struct CompileOptions
{
    /** Step-2 policy (Random is the fig. 10(b) baseline). */
    BankPolicy bankPolicy = BankPolicy::ConflictAware;

    /** Boundary-aware step 2 on partitioned compiles: each range's
     *  mapper sees the bank occupancy of earlier ranges and, looking
     *  ahead, the later blocks that read its values, so values co-read
     *  across a partition boundary avoid each other's banks (fewer
     *  read conflicts, fewer copy instructions). Ranges are then
     *  mapped one at a time in partition order, inside the codegen
     *  pipeline: range p maps while earlier partitions are in codegen,
     *  reorder and finalize. No effect on unpartitioned compiles. */
    bool boundaryAwareBanks = true;

    /** Step-3 look-ahead window (paper: 300). */
    uint32_t reorderWindow = 300;

    /** Coarse partition size in compute nodes; 0 = no partitioning.
     *  The paper uses 20000 for the multi-million-node PCs. */
    uint32_t partitionNodes = 0;

    /** Seed driving every randomized tie-break. */
    uint64_t seed = 1;

    /** Check every range's block decomposition
     *  (validateDecomposition, panics on a violation) and run the
     *  static verifier (compiler/verify.hh) over the IR after codegen
     *  and scheduling and over the final program, throwing VerifyError
     *  with structured diagnostics on any violation. On by default in
     *  Debug and sanitizer builds (DPU_VERIFY_DEFAULT); off — and
     *  therefore zero-overhead — in Release. */
#if !defined(NDEBUG) || defined(DPU_VERIFY_DEFAULT)
    bool verify = true;
#else
    bool verify = false;
#endif

    /** Host worker threads for partition-parallel compilation. Each
     *  partition's block decomposition, bank mapping, IR codegen,
     *  pipeline reorder and finalize run concurrently (step 1 on a
     *  pool of this many workers, then steps 2-4 pipelined per
     *  partition on another); the merged program
     *  is byte-identical for every thread count (and to threads = 1).
     *  Only effective when partitionNodes yields more than one
     *  partition. */
    uint32_t threads = 1;

    /** Optional per-partition fragment cache (see compiler/cache.hh):
     *  partitions whose sub-DAG and configuration subset match a
     *  previous compile reuse its decomposition/mapping/codegen
     *  artifacts. Reuse is keyed to be output-preserving, so this
     *  never changes the emitted program. nullptr = off.
     *  ProgramCache wires its own instance here automatically. */
    FragmentCache *fragmentCache = nullptr;
};

/**
 * The configuration-independent front end of a compile: everything
 * compile() derives from the DAG alone, before it looks at an
 * ArchConfig or CompileOptions. A sweep that compiles one DAG for
 * many configurations (the DSE) prepares it once and hands the same
 * read-only PreparedDag to every compile, which skips binarization,
 * the successor index, the DFS preorder and the structural hashes on
 * each of them.
 *
 * Immutable once built; compiles on several threads may share one.
 */
struct PreparedDag
{
    /** The binarized DAG that every later step compiles (a copy of
     *  the input when that is already binary). */
    Dag dag;

    /** SuccessorIndex(dag): the forward edges step 1 walks. */
    SuccessorIndex successors;

    /** dfsPreorderPositions(dag), shared by the block decomposition
     *  of every partition. */
    std::vector<uint32_t> dfsPositions;

    /** dag.sinks(): the values codegen stores as results. */
    std::vector<NodeId> sinks;

    /** dagStructuralHash of the *input* DAG: what programCacheKey
     *  keys on, so a cache lookup by the unprepared DAG and one by its
     *  PreparedDag find the same entry. */
    uint64_t sourceHash = 0;

    /** dagStructuralHash of the binarized DAG: the whole-DAG term of
     *  every fragment cache key (compile reads it only when
     *  CompileOptions::fragmentCache is set). */
    uint64_t binarizedHash = 0;

    /** Input count of the input DAG (one value per input per run). */
    size_t numInputs = 0;
};

/** Run the configuration-independent front end (binarize when `dag`
 *  is not binary, successor index, DFS preorder, sinks, structural
 *  hashes) on `dag`. */
PreparedDag prepareDag(const Dag &dag);

/**
 * Compile a prepared DAG for a DPU-v2 configuration: partitioning,
 * steps 1-4 and finalization. The one compile path —
 * compile(const Dag &) runs the same core on its input, and emits
 * the bytes compiling prepareDag(dag) does.
 *
 * Throws FatalError for impossible configurations (e.g. a register
 * file too small to hold any schedule).
 */
CompiledProgram compile(const PreparedDag &prepared, const ArchConfig &cfg,
                        const CompileOptions &options = {});

/**
 * Compile a DAG for a DPU-v2 configuration.
 *
 * An input that is already binary compiles in place: no copy and no
 * binarization (binarize would rewrite it node for node in id order).
 * One with multi-input nodes is binarized into a private copy first.
 * stats.compileSeconds includes that front end, the successor index
 * and the DFS preorder.
 */
CompiledProgram compile(const Dag &dag, const ArchConfig &cfg,
                        const CompileOptions &options = {});

/**
 * The program compiling the same DAG with the same options at
 * `regsPerBank` emits, derived from `prog` without compiling: a copy
 * with the register count and the footprints that encode register
 * addresses recomputed. prog.registers must admit the new count (see
 * RegisterCertificate); the copy keeps that certificate and prog's
 * compile and verify times.
 */
CompiledProgram deriveForRegisterCount(const CompiledProgram &prog,
                                       uint32_t regsPerBank);

/**
 * Footprint of the conventional CSR-style representation of the same
 * DAG (paper §IV-E): per-node pointers + per-edge indices + per-node
 * operator tag + one 32-bit word per value.
 */
uint64_t csrFootprintBits(const Dag &binarized_dag);

} // namespace dpu

#endif // DPU_COMPILER_COMPILER_HH
