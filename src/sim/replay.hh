/**
 * @file
 * The schedule replay behind both verifyProgram() and Machine.
 *
 * A program's legality, timing, register allocation and event counts
 * follow from its instructions alone, so one engine walks it once, in
 * the order the machine performs each instruction: reads, PE steps,
 * valid_rst frees, automatic writes (the lowest free address of a
 * bank's 64-bit valid words, by count-trailing-zeros). Every check is
 * O(1) and names its VerifyCode, its diagnostic text and its Machine
 * text, so the two readings of a program cannot drift apart.
 *
 * CollectFaults records each fault as a diagnostic, skips the faulting
 * action and goes on; only it makes the lint checks, which describe
 * programs the machine runs: V003, V006 for a copy_4 valid_rst that
 * frees nothing, the V011 warning and V040. FirstFault throws the first
 * fault as a PanicError; only it builds the value-id data memory, the op
 * list, the output ids and the occupancy trace.
 */

#ifndef DPU_SIM_REPLAY_HH
#define DPU_SIM_REPLAY_HH

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/program.hh"
#include "compiler/verify.hh"
#include "sim/machine.hh"

namespace dpu::detail {

/** Concatenate text and numbers: a diagnostic message. */
template <class... Parts>
std::string
cat(const Parts &...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    return os.str();
}

/** One PE add or mul: the value v[a] + v[b], or v[a] * v[b]. */
struct ValueOp
{
    uint32_t a;
    uint32_t b;
    bool mul;
};

/**
 * A program resolved once for its configuration. Registers, timing and
 * every check are fixed by the program, not by its input values, so a
 * run only has the arithmetic left: value id 0 is the 0.0 data memory
 * starts with, ids 1..numInputs are the inputs, and ops[k] defines id
 * 1 + numInputs + k. Immutable, so any number of runs, on any number
 * of threads, may share it.
 */
struct DecodedProgram
{
    size_t numInputs = 0;
    std::vector<ValueOp> ops;
    std::vector<uint32_t> outputs; ///< value id of each output
    SimStats stats;
    /** what() of the first check the program fails; empty if none. */
    std::string fault;
};

/** Fault policy of verifyProgram(): every fault is a diagnostic. */
struct CollectFaults
{
    static constexpr bool firstFault = false;

    VerifyReport &report;

    /** Record one diagnostic. Past a fixed cap the report is only
     *  marked truncated, so garbage input cannot build an unbounded
     *  report. */
    void add(VerifyCode code, uint64_t instr, std::string message,
             VerifySeverity severity = VerifySeverity::Error);
};

/** Fault policy of Machine: the first fault is thrown as a PanicError
 *  whose what() is the Machine text, plus " (instruction N)" when an
 *  instruction failed it. The caller has checked the configuration. */
struct FirstFault
{
    static constexpr bool firstFault = true;

    const SimOptions &options;
    /** Filled with the value-id program and its stats. */
    DecodedProgram &out;
};

/** Walk `prog` through the machine model once under `policy`. */
template <class Policy>
void replaySchedule(const CompiledProgram &prog, Policy policy);

extern template void replaySchedule(const CompiledProgram &, CollectFaults);
extern template void replaySchedule(const CompiledProgram &, FirstFault);

} // namespace dpu::detail

#endif // DPU_SIM_REPLAY_HH
