#include "arch/disasm.hh"

#include <array>
#include <bit>
#include <ostream>
#include <sstream>

#include "arch/interconnect.hh"
#include "support/logging.hh"

namespace dpu {

namespace {

const char *
peOpName(PeOp op)
{
    switch (op) {
      case PeOp::Nop: return "nop";
      case PeOp::Add: return "add";
      case PeOp::Mul: return "mul";
      case PeOp::PassA: return "pass_a";
      case PeOp::PassB: return "pass_b";
    }
    return "?";
}

void
renderLanes(std::ostringstream &os, const char *tag, uint64_t mask)
{
    if (!mask)
        return;
    os << " " << tag << "{";
    for (bool first = true; mask; first = false) {
        if (!first)
            os << ",";
        os << std::countr_zero(mask);
        mask &= mask - 1;
    }
    os << "}";
}

void
renderExec(std::ostringstream &os, const ArchConfig &cfg,
           const ExecView &in)
{
    os << "exec";
    // Trees with any active PE.
    for (uint32_t t = 0; t < cfg.trees(); ++t) {
        bool active = false;
        for (uint32_t p = 0; p < cfg.pesPerTree(); ++p)
            if (in.peOp[t * cfg.pesPerTree() + p] != PeOp::Nop)
                active = true;
        if (!active)
            continue;
        os << " t" << t << "[";
        bool first = true;
        for (uint32_t l = cfg.depth; l >= 1; --l) {
            for (uint32_t i = 0; i < cfg.pesInLayer(l); ++i) {
                uint32_t pe = cfg.peId({t, l, i});
                if (in.peOp[pe] == PeOp::Nop)
                    continue;
                if (!first)
                    os << " ";
                os << "L" << l << "." << i << ":" << peOpName(in.peOp[pe]);
                first = false;
            }
        }
        os << "]";
    }
    // Register reads: bank@addr, "!" marks valid_rst. A bank is read
    // if a port some active leaf PE consumes selects it.
    uint64_t read = 0;
    for (uint32_t t = 0; t < cfg.trees(); ++t)
        for (uint32_t i = 0; i < cfg.pesInLayer(1); ++i) {
            if (in.peOp[cfg.peId({t, 1, i})] == PeOp::Nop)
                continue;
            for (uint32_t side = 0; side < 2; ++side) {
                uint32_t bank = in.inputSel[cfg.portBank(t, i * 2 + side)];
                if (bank < cfg.banks)
                    read |= bankBit(bank);
            }
        }
    os << " rd{";
    for (bool first = true; read; first = false) {
        const uint32_t b = std::countr_zero(read);
        read &= read - 1;
        if (!first)
            os << ",";
        os << "b" << b << "@" << in.readAddr[b];
        if (in.validRst >> b & 1)
            os << "!";
    }
    os << "}";
    // Writes: bank <- PE.
    for (uint64_t m = in.writeEnable; m; m &= m - 1) {
        const uint32_t b = std::countr_zero(m);
        auto writers = writingPes(cfg, b);
        os << " wr b" << b << "<-pe"
           << writers[in.outputSel[b] % writers.size()];
    }
}

} // namespace

std::string
disassemble(const ArchConfig &cfg, const Program &prog, size_t i)
{
    dpu_assert(prog.fits(cfg), "program lanes do not fit the config");
    const Instr &in = prog[i];
    std::ostringstream os;
    switch (in.kind) {
      case InstrKind::Nop:
        os << "nop";
        break;
      case InstrKind::Load:
        os << "load row=" << in.memRow;
        renderLanes(os, "banks", in.enable);
        break;
      case InstrKind::Store: {
        std::span<const uint16_t> addr = prog.readAddr(i);
        os << "store row=" << in.memRow << " rd{";
        for (uint64_t m = in.enable; m; m &= m - 1) {
            const uint32_t b = std::countr_zero(m);
            if (m != in.enable)
                os << ",";
            os << "b" << b << "@" << addr[b];
        }
        os << "}";
        break;
      }
      case InstrKind::Store4:
        os << "store_4 row=" << in.memRow;
        for (const Slot &s : in.slots)
            if (s.active)
                os << " b" << s.bank << "@" << s.addr;
        break;
      case InstrKind::Copy4:
        os << "copy_4";
        for (const Slot &s : in.slots) {
            if (!s.active)
                continue;
            os << " b" << s.bank << "@" << s.addr;
            if (s.bank < 64 && in.validRst >> s.bank & 1)
                os << "!";
            os << "->b" << s.dst;
        }
        break;
      case InstrKind::Exec:
        renderExec(os, cfg, prog.exec(i));
        break;
    }
    return os.str();
}

void
disassembleProgram(const ArchConfig &cfg,
                   const Program &program, std::ostream &out)
{
    IsaLayout lay(cfg);
    std::array<uint64_t, 6> counts{};
    for (size_t i = 0; i < program.size(); ++i) {
        ++counts[static_cast<size_t>(program[i].kind)];
        out << i << ": " << disassemble(cfg, program, i) << "\n";
    }
    out << "; " << program.size() << " instructions, "
        << programSizeBits(cfg, program) << " bits packed (IL="
        << lay.maxLengthBits() << ")\n";
    for (size_t k = 0; k < counts.size(); ++k) {
        if (counts[k]) {
            out << "; " << kindName(static_cast<InstrKind>(k)) << ": "
                << counts[k] << "\n";
        }
    }
}

} // namespace dpu
