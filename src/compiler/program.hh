/**
 * @file
 * The compiler's output: an executable DPU-v2 program plus statistics.
 */

#ifndef DPU_COMPILER_PROGRAM_HH
#define DPU_COMPILER_PROGRAM_HH

#include <array>
#include <cstdint>
#include <vector>

#include "arch/config.hh"
#include "arch/isa.hh"
#include "dag/node.hh"

namespace dpu {

/** Compilation statistics (feeds Table I, fig. 13, fig. 10, §IV-E). */
struct CompileStats
{
    /** Instruction counts by kind, indexed by InstrKind. */
    std::array<uint64_t, 6> kindCount{};

    uint64_t instructions = 0; ///< Total instruction count.
    uint64_t cycles = 0;       ///< instructions + pipeline drain.

    uint64_t bankConflicts = 0; ///< Read conflicts resolved by copies.
    uint64_t nops = 0;          ///< Unhidden pipeline hazards.
    uint64_t spillStores = 0;
    uint64_t reloads = 0;

    uint64_t numOperations = 0; ///< Binarized compute nodes (for GOPS).
    uint64_t peOpsExecuted = 0; ///< Arithmetic PE slots used (replicas
                                ///  and pass-throughs excluded).
    uint64_t blocks = 0;

    uint64_t programBits = 0;   ///< Densely packed footprint.
    /** Ablation of the automatic write policy (§III-B): footprint if
     *  every register write carried an explicit address. */
    uint64_t programBitsExplicitWrites = 0;
    /** CSR-style baseline footprint of the same DAG (§IV-E). */
    uint64_t csrBits = 0;
    uint64_t dataBits = 0;      ///< Data-memory footprint in bits.

    double compileSeconds = 0.0;

    /** Wall-clock seconds spent in the three optional static-verifier
     *  passes (CompileOptions::verify); excluded from compileSeconds
     *  so Debug/sanitizer builds report like-for-like compile
     *  latency. Zero when verification is off. */
    double verifySeconds = 0.0;

    /** 1 when this program came out of a ProgramCache instead of a
     *  fresh compile (compileSeconds is then the fetch time). */
    uint64_t cacheHits = 0;
};

/**
 * Which register counts a compile's program is exact for. R enters
 * steps 3-4 in two places only: the scheduler throttles its window
 * once its live estimate reaches B·R/2, and the finalizer spills when
 * a bank has no free register. A compile that did neither records
 * its two peaks here, and a compile at any R' they admit (same DAG,
 * configuration otherwise and options) emits the same program; only
 * programBits, programBitsExplicitWrites and a run's
 * instrBitsFetched, which encode register addresses in
 * ceil(log2 R') bits, differ.
 *
 * Not part of the program image: a program read back from disk
 * carries none, and an invalid certificate admits nothing.
 */
struct RegisterCertificate
{
    /** True only for a compile that neither throttled nor spilled. */
    bool valid = false;
    /** Highest live estimate the scheduler compared to B·R/2. */
    int64_t peakLive = 0;
    /** Highest register address the finalizer placed in, plus one. */
    uint32_t peakSlots = 0;

    /** True when a compile at cfg's register count provably emits the
     *  certified program (cfg's depth, banks, output net and data
     *  memory being the certified compile's). */
    bool
    admits(const ArchConfig &cfg) const
    {
        const uint64_t high_water = uint64_t(cfg.banks) * cfg.regsPerBank / 2;
        return valid && peakLive < static_cast<int64_t>(high_water) &&
               peakSlots <= cfg.regsPerBank;
    }
};

/** A compiled, executable program. */
struct CompiledProgram
{
    ArchConfig cfg;
    Program instructions;

    /** Data-memory rows used (inputs + outputs + spills). */
    uint32_t numRows = 0;

    /** (row, col) of DAG input k (k-th Input node in id order). */
    std::vector<std::pair<uint32_t, uint32_t>> inputLocation;

    /** Where each DAG result lands. */
    struct OutputLoc
    {
        NodeId node;
        uint32_t row;
        uint32_t col;
    };
    std::vector<OutputLoc> outputs;

    CompileStats stats;

    /** Filled by the compiler; see RegisterCertificate. */
    RegisterCertificate registers;
};

} // namespace dpu

#endif // DPU_COMPILER_PROGRAM_HH
