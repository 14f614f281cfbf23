/**
 * @file
 * Static legality verifier for compiler IR and compiled programs.
 *
 * The whole-program compilation model (paper §III-B automatic write
 * addressing, §IV bank-conflict copies and hazard NOPs) means every
 * downstream consumer — Machine, BatchMachine, the serving stack, DSE
 * sweeps over thousands of cached programs — trusts that the compiler
 * emitted a *legal* program. This pass proves it statically and emits
 * structured, machine-readable diagnostics instead of panicking, so
 * tools (dpulint) and tests can inspect exactly what is wrong and where.
 *
 * Two entry points:
 *  - verifyIr(): after codegen/merge (hazards not yet resolved) and
 *    after the pipeline scheduler (hazards resolved) — register
 *    instances instead of concrete addresses.
 *  - verifyProgram(): over the final CompiledProgram, through the
 *    schedule replay a Machine runs at construction (sim/replay.hh)
 *    under a policy that collects every fault. Only lint checks are
 *    made here and not by the Machine: V003, V006 for a copy_4
 *    valid_rst that frees nothing, the V011 warning and V040.
 */

#ifndef DPU_COMPILER_VERIFY_HH
#define DPU_COMPILER_VERIFY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/ir.hh"
#include "compiler/program.hh"
#include "support/logging.hh"

namespace dpu {

/** Machine-readable diagnostic codes (stable; see README table). */
enum class VerifyCode : uint8_t {
    UseBeforeDef,         ///< V001: read of a never-written register.
    ReadAfterFree,        ///< V002: read after the valid_rst free.
    BankConflict,         ///< V003: >1 read or >1 write of one bank
                          ///  in one instruction.
    RegFileOverflow,      ///< V004: write to a full bank (occupancy
                          ///  would exceed R).
    RegisterLeak,         ///< V005: register still valid at program
                          ///  end (never freed).
    DoubleFree,           ///< V006: valid_rst that frees nothing.
    DoubleWrite,          ///< V007: one IR instance written twice.
    RowOutOfBounds,       ///< V010: load/store row out of range.
    IoLocOutOfBounds,     ///< V011: inputLocation/outputs out of
                          ///  range (warning: rows > dataMemRows).
    SelectOutOfBounds,    ///< V020: crossbar/output-mux/register-
                          ///  address select out of range.
    BlockOutOfBounds,     ///< V021: exec blockId out of range.
    MalformedInstruction, ///< V022: bank mask past B, undefined PE
                          ///  op, idle-PE routing, IR slot pairing,
                          ///  lane width or illegal config.
    PipelineHazard,       ///< V030: read while data is in flight.
    StatsMismatch,        ///< V040: recomputed CompileStats disagree.
};

/** Stable "V001-use-before-def"-style token for a code. */
const char *verifyCodeName(VerifyCode code);

/** Diagnostic severity: errors make a program illegal, warnings
 *  flag suspicious-but-runnable properties. */
enum class VerifySeverity : uint8_t { Warning, Error };

/** Sentinel instruction index for program-level diagnostics. */
constexpr uint64_t kVerifyNoInstr = static_cast<uint64_t>(-1);

/** One structured diagnostic. */
struct Diagnostic
{
    VerifySeverity severity = VerifySeverity::Error;
    VerifyCode code = VerifyCode::MalformedInstruction;

    /** Instruction (IR or final, per entry point) the diagnostic
     *  anchors to; kVerifyNoInstr for program-level findings. */
    uint64_t instrIndex = kVerifyNoInstr;

    std::string message;

    /** "instr 12: error V001-use-before-def: ..." */
    std::string format() const;
};

/** Everything one verifier run found. */
struct VerifyReport
{
    std::vector<Diagnostic> diagnostics;

    /** True when the per-run diagnostic cap was hit (the replay
     *  keeps going but stops recording). */
    bool truncated = false;

    /** No diagnostics at all (not even warnings). */
    bool clean() const { return diagnostics.empty(); }

    /** Error-severity diagnostics (what fails verification). */
    size_t errorCount() const;

    /** One-line "<N> error(s), <M> warning(s)" summary. */
    std::string summary() const;

    /** Multi-line report: summary + the first `maxShown` formatted
     *  diagnostics (all of them when 0). */
    std::string toString(size_t maxShown = 8) const;
};

/** Thrown by compile() when CompileOptions::verify finds errors. An
 *  illegal program out of the compiler is a library bug, hence a
 *  PanicError — notably it must NOT be a FatalError, which DSE
 *  sweeps legitimately swallow as "design infeasible". */
class VerifyError : public PanicError
{
  public:
    VerifyError(const std::string &stage, VerifyReport report_in);

    /** Pipeline stage whose output failed ("codegen", "schedule",
     *  "finalize"). */
    const std::string &stage() const { return failedStage; }

    const VerifyReport &report() const { return failedReport; }

  private:
    std::string failedStage;
    VerifyReport failedReport;
};

/** Knobs for the IR-level pass. */
struct VerifyIrOptions
{
    /** After the pipeline scheduler every read must issue at least
     *  the producer's write latency later (V030); before it, gaps
     *  are expected and not diagnosed. */
    bool hazardsResolved = false;

    /** Block count for exec blockId bounds (V021); the default
     *  disables the check (callers without the decomposition). */
    uint64_t numBlocks = static_cast<uint64_t>(-1);
};

/**
 * Verify an IR program: every IrRead.inst written before read and
 * never read after its lastRead free, at most one read and one write
 * per bank per instruction, no instance double-writes or leaks,
 * rows/selects/blockIds in bounds, and (hazardsResolved) pipeline
 * spacing. Never throws on malformed input — diagnostics instead.
 */
VerifyReport verifyIr(const IrProgram &ir, const ArchConfig &cfg,
                      const VerifyIrOptions &options = {});

/**
 * Verify a final compiled program: the Machine's schedule replay
 * (validity, automatic write addresses, pipeline clocks, occupancy,
 * every row/select/bank-mask range, leaks at program end), skipping
 * each faulting action and going on, then the replay's counts against
 * prog.stats (V040). Safe on arbitrary garbage (e.g. a corrupted cache
 * spill): structural checks run before any indexed access. One pass
 * over the instructions, O(1) per register access.
 */
VerifyReport verifyProgram(const CompiledProgram &prog);

/** Throw VerifyError(stage, report) when the report has errors. */
void throwIfVerifyErrors(const VerifyReport &report,
                         const std::string &stage);

} // namespace dpu

#endif // DPU_COMPILER_VERIFY_HH
