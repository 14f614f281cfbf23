/**
 * @file
 * Disassembler for DPU-v2 programs.
 *
 * Renders decoded instructions (or whole programs) as readable text —
 * the debugging companion to isa.hh's binary encoder. The format is
 * stable and covered by tests, so tools may parse it, but its primary
 * audience is humans staring at compiler output.
 */

#ifndef DPU_ARCH_DISASM_HH
#define DPU_ARCH_DISASM_HH

#include <iosfwd>
#include <string>

#include "arch/isa.hh"

namespace dpu {

/** Instruction i of `prog` as text, e.g.
 *  "exec t0[L2.0:add L1.0:mul L1.1:pass_a] rd{b0@1!,b1@0} wr b3<-pe2". */
std::string disassemble(const ArchConfig &cfg, const Program &prog,
                        size_t i);

/** Whole program with cycle numbers and a kind summary. */
void disassembleProgram(const ArchConfig &cfg, const Program &program,
                        std::ostream &out);

} // namespace dpu

#endif // DPU_ARCH_DISASM_HH
