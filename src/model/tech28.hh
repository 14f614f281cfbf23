/**
 * @file
 * 28nm technology calibration constants.
 *
 * Substitute for the paper's gate-level synthesis + switching-activity
 * flow (DESIGN.md): every constant is fitted so that the minimum-EDP
 * configuration (D=3, B=64, R=32) running the Table I (a)+(b) suite at
 * 300 MHz reproduces Table II's per-module area and power, and scales
 * with (D, B, R) by the stated first-order law. Measured calibration
 * activity (events per cycle, paper-size suite, cycles summed over
 * the suite): peOps 6.95, passes 3.65, bank reads 8.54, bank writes
 * 5.96, crossbar words 8.69, memory rows 0.73, instruction bits 313;
 * IL = 1188 bits. A compiler change that moves this activity re-fits
 * the event energies (not the per-cycle ones): each is scaled by
 * (paper row - the row's per-cycle part) / the row's event part.
 */

#ifndef DPU_MODEL_TECH28_HH
#define DPU_MODEL_TECH28_HH

namespace dpu {
namespace tech28 {

/** Clock frequency the paper synthesizes for. */
constexpr double frequencyHz = 300e6;

// ---------------------------------------------------------------- energy
// Dynamic event energies in picojoules; "cycle" entries burn every
// cycle and scale with the stated structure size.

/** One Add/Mul executed by a PE (fp32 datapath incl. local control). */
constexpr double peOpPj = 4.82;
/** One pass-through (mux + output register only). */
constexpr double pePassPj = 1.69;

/** Datapath pipeline registers: clock load per PE per cycle... */
constexpr double pipeClockPjPerPe = 0.238;
/** ...plus toggling when a PE actually produces a value. */
constexpr double pipeTogglePj = 1.26;

/** One word through the input crossbar, at B = 64 (scales ~B). */
constexpr double xbarWordPj = 3.84;
constexpr double xbarRefBanks = 64.0;

/** One word through the output (D:1 per bank) network, at D = 3. */
constexpr double outputWordPj = 0.28;
constexpr double outputRefDepth = 3.0;

/** Register-bank access (read or write), at R = 32 (scales mildly). */
constexpr double bankAccessPj = 2.76;
constexpr double bankAccessR0 = 0.6; ///< access = (R0 + R1 * R/32)
constexpr double bankAccessR1 = 0.4;
/** Bank clock/leakage per register per cycle. */
constexpr double bankClockPjPerReg = 0.0195;

/** Write-address generator (valid bits + priority encoder): per
 *  register per cycle (the encoders settle every cycle). */
constexpr double wagPjPerReg = 0.0127;

/** Instruction fetch (aligning shifter + buffer): per cycle at
 *  IL = 1188 (scales with IL). */
constexpr double fetchPjPerCycle = 23.3;
constexpr double refIlBits = 1188.0;

/** Decoder: per instruction bit actually decoded. */
constexpr double decodePjPerBit = 0.0277;

/** Control-signal pipeline registers: per cycle, scales with IL. */
constexpr double ctrlPipePjPerCycle = 9.0;

/** Instruction memory: per cycle, scales with IL (the memory feeds
 *  IL bits every cycle regardless of the instruction consumed). */
constexpr double imemPjPerCycle = 92.3;

/** Data memory: per row access at B = 64 words (scales with B). */
constexpr double dmemRowPj = 30.5;
constexpr double dmemRefBanks = 64.0;

// ------------------------------------------------------------------ area
// Square millimetres.

constexpr double peAreaMm2 = 0.002321;          ///< per PE
constexpr double pipeRegAreaMm2 = 0.000714;     ///< per PE
constexpr double xbarAreaMm2PerB2 = 3.418e-5;   ///< per bank^2
constexpr double outputIcAreaMm2 = 5.208e-5;    ///< per bank*layer
constexpr double bankAreaMm2PerReg = 1.709e-4;  ///< per register
constexpr double wagAreaMm2PerReg = 1.465e-5;   ///< per register
constexpr double fetchAreaMm2PerIlBit = 5.05e-5;
constexpr double decodeAreaMm2PerIlBit = 3.367e-5;
constexpr double ctrlPipeAreaMm2PerIlBit = 8.42e-6;
constexpr double memAreaMm2PerMb = 1.20;        ///< per 2^20 bytes SRAM

/** On-chip instruction memory capacity (bytes) of the small config. */
constexpr double imemBytes = 1.0 * 1024 * 1024;

} // namespace tech28
} // namespace dpu

#endif // DPU_MODEL_TECH28_HH
