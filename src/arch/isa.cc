#include "arch/isa.hh"

#include <algorithm>
#include <bit>

#include "arch/interconnect.hh"
#include "support/logging.hh"

namespace dpu {

namespace {

/** ceil(log2(n)) for n >= 1, with log2(1) = 1 bit minimum field. */
uint32_t
fieldBits(uint32_t n)
{
    dpu_assert(n >= 1, "fieldBits of zero-sized domain");
    if (n <= 2)
        return 1;
    return 32u - static_cast<uint32_t>(std::countl_zero(n - 1));
}

/** Bit-stream writer: fields go in LSB first, a 64-bit word at a time. */
class BitWriter
{
  public:
    void
    put(uint64_t value, uint32_t bits)
    {
        dpu_assert(bits <= 64, "field too wide");
        dpu_assert(bits == 64 || value < (uint64_t(1) << bits),
                   "value does not fit field");
        if (bits == 0)
            return;
        acc |= value << fill; // fill < 64
        const uint32_t room = 64 - fill;
        if (bits < room) {
            fill += bits;
            return;
        }
        flush(8);
        // The high bits of `value` that did not fit start a new word.
        acc = room == 64 ? 0 : value >> room;
        fill = bits - room;
    }

    std::vector<uint8_t>
    take()
    {
        flush((fill + 7) / 8);
        return std::move(bytes);
    }

  private:
    /** Append the low `n` bytes of the accumulator, LSB first. */
    void
    flush(uint32_t n)
    {
        for (uint32_t k = 0; k < n; ++k)
            bytes.push_back(static_cast<uint8_t>(acc >> (8 * k)));
    }

    std::vector<uint8_t> bytes;
    uint64_t acc = 0;  ///< Pending bits not yet in `bytes`.
    uint32_t fill = 0; ///< Valid low bits of acc (< 64).
};

/** Sequential bit-stream reader (models the aligning shifter). */
class BitReader
{
  public:
    explicit BitReader(const std::vector<uint8_t> &image) : bytes(image) {}

    uint64_t
    get(uint32_t bits)
    {
        dpu_assert(bits <= 64, "field too wide");
        dpu_assert(pos + bits <= uint64_t(bytes.size()) * 8,
                   "bit stream underrun");
        if (bits == 0)
            return 0;
        // Load only the bytes the field spans: 1..9 from `pos`.
        const size_t at = pos / 8;
        const uint32_t shift = pos % 8;
        const uint32_t span = (shift + bits + 7) / 8;
        uint64_t v = 0;
        for (uint32_t k = 0; k < std::min(span, 8u); ++k)
            v |= uint64_t(bytes[at + k]) << (8 * k);
        v >>= shift;
        if (span == 9)
            v |= uint64_t(bytes[at + 8]) << (64 - shift);
        pos += bits;
        return bits == 64 ? v : v & ((uint64_t(1) << bits) - 1);
    }

  private:
    const std::vector<uint8_t> &bytes;
    uint64_t pos = 0;
};

} // namespace

InstrKind
kindOf(const Instruction &instr)
{
    return static_cast<InstrKind>(instr.index());
}

const char *
kindName(InstrKind kind)
{
    switch (kind) {
      case InstrKind::Nop: return "nop";
      case InstrKind::Load: return "load";
      case InstrKind::Store: return "store";
      case InstrKind::Store4: return "store_4";
      case InstrKind::Copy4: return "copy_4";
      case InstrKind::Exec: return "exec";
    }
    return "?";
}

IsaLayout::IsaLayout(const ArchConfig &cfg)
    : opcodeBits(4),
      bankBits(fieldBits(cfg.banks)),
      addrBits(fieldBits(cfg.regsPerBank)),
      memRowBits(32),
      peOpBits(4),
      outputSelBits(fieldBits(maxWritersPerBank(cfg))),
      banks(cfg.banks),
      numPes(cfg.numPes())
{}

uint32_t
IsaLayout::lengthBits(InstrKind kind) const
{
    switch (kind) {
      case InstrKind::Nop:
        return opcodeBits;
      case InstrKind::Load:
        // opcode + wide row address + per-bank enable.
        return opcodeBits + memRowBits + banks;
      case InstrKind::Store:
        // opcode + wide row address + per-bank enable + read address.
        return opcodeBits + memRowBits + banks + banks * addrBits;
      case InstrKind::Store4:
        // opcode + short row address + 4 x (bank + read address).
        return opcodeBits + memRowBits / 2 + 4 * (bankBits + addrBits);
      case InstrKind::Copy4:
        // opcode + 4 x (src bank + src addr + dst bank) + valid_rst.
        return opcodeBits + 4 * (2 * bankBits + addrBits) + banks;
      case InstrKind::Exec:
        // opcode + per-PE opcode + crossbar selects + read addresses +
        // valid_rst + write enables + output-mux selects.
        return opcodeBits + numPes * peOpBits + banks * bankBits +
               banks * addrBits + banks + banks + banks * outputSelBits;
    }
    dpu_panic("unknown instruction kind");
}

uint32_t
IsaLayout::lengthBits(const Instruction &instr) const
{
    return lengthBits(kindOf(instr));
}

uint32_t
IsaLayout::maxLengthBits() const
{
    uint32_t best = 0;
    for (auto k : {InstrKind::Nop, InstrKind::Load, InstrKind::Store,
                   InstrKind::Store4, InstrKind::Copy4, InstrKind::Exec})
        best = std::max(best, lengthBits(k));
    return best;
}

namespace {

void
encodeOne(const IsaLayout &lay, const Instruction &instr, BitWriter &w)
{
    w.put(static_cast<uint64_t>(kindOf(instr)), lay.opcodeBits);
    std::visit(
        [&](const auto &in) {
            using T = std::decay_t<decltype(in)>;
            if constexpr (std::is_same_v<T, NopInstr>) {
                // Opcode only.
            } else if constexpr (std::is_same_v<T, LoadInstr>) {
                dpu_assert(in.enable.size() == lay.banks, "bad lane count");
                w.put(in.memRow, lay.memRowBits);
                for (uint32_t b = 0; b < lay.banks; ++b)
                    w.put(in.enable[b] ? 1 : 0, 1);
            } else if constexpr (std::is_same_v<T, StoreInstr>) {
                dpu_assert(in.enable.size() == lay.banks &&
                           in.readAddr.size() == lay.banks,
                           "bad lane count");
                w.put(in.memRow, lay.memRowBits);
                for (uint32_t b = 0; b < lay.banks; ++b)
                    w.put(in.enable[b] ? 1 : 0, 1);
                for (uint32_t b = 0; b < lay.banks; ++b)
                    w.put(in.enable[b] ? in.readAddr[b] : 0, lay.addrBits);
            } else if constexpr (std::is_same_v<T, Store4Instr>) {
                // Slot 0 must be active; an inactive later slot is
                // encoded as a replica of slot 0 (storing the same
                // word twice is meaningless, so the code point is
                // free). This keeps the length at the paper's 56 bits
                // for (D=3, B=16, R=32) with no explicit enable bits.
                dpu_assert(in.slots[0].active,
                           "store_4 slot 0 must be active");
                w.put(in.memRow, lay.memRowBits / 2);
                for (const auto &s : in.slots) {
                    const auto &eff = s.active ? s : in.slots[0];
                    w.put(eff.bank, lay.bankBits);
                    w.put(eff.addr, lay.addrBits);
                }
            } else if constexpr (std::is_same_v<T, Copy4Instr>) {
                dpu_assert(in.validRst.size() == lay.banks,
                           "bad lane count");
                for (const auto &s : in.slots) {
                    // src == dst encodes "inactive" (a same-bank copy
                    // is meaningless in hardware).
                    uint16_t src = s.active ? s.srcBank : 0;
                    uint16_t dst = s.active ? s.dstBank : 0;
                    dpu_assert(!s.active || src != dst,
                               "active copy slot must move across banks");
                    w.put(src, lay.bankBits);
                    w.put(s.active ? s.srcAddr : 0, lay.addrBits);
                    w.put(dst, lay.bankBits);
                }
                for (uint32_t b = 0; b < lay.banks; ++b)
                    w.put(in.validRst[b] ? 1 : 0, 1);
            } else if constexpr (std::is_same_v<T, ExecInstr>) {
                dpu_assert(in.peOp.size() == lay.numPes, "bad PE count");
                dpu_assert(in.inputSel.size() == lay.banks &&
                           in.readAddr.size() == lay.banks &&
                           in.validRst.size() == lay.banks &&
                           in.writeEnable.size() == lay.banks &&
                           in.outputSel.size() == lay.banks,
                           "bad lane count");
                for (uint32_t p = 0; p < lay.numPes; ++p)
                    w.put(static_cast<uint64_t>(in.peOp[p]), lay.peOpBits);
                for (uint32_t b = 0; b < lay.banks; ++b)
                    w.put(in.inputSel[b], lay.bankBits);
                for (uint32_t b = 0; b < lay.banks; ++b)
                    w.put(in.readAddr[b], lay.addrBits);
                for (uint32_t b = 0; b < lay.banks; ++b)
                    w.put(in.validRst[b] ? 1 : 0, 1);
                for (uint32_t b = 0; b < lay.banks; ++b)
                    w.put(in.writeEnable[b] ? 1 : 0, 1);
                for (uint32_t b = 0; b < lay.banks; ++b)
                    w.put(in.outputSel[b], lay.outputSelBits);
            }
        },
        instr);
}

Instruction
decodeOne(const IsaLayout &lay, BitReader &r)
{
    auto kind = static_cast<InstrKind>(r.get(lay.opcodeBits));
    switch (kind) {
      case InstrKind::Nop:
        return NopInstr{};
      case InstrKind::Load: {
        LoadInstr in;
        in.memRow = static_cast<uint32_t>(r.get(lay.memRowBits));
        in.enable.resize(lay.banks);
        for (uint32_t b = 0; b < lay.banks; ++b)
            in.enable[b] = r.get(1);
        return in;
      }
      case InstrKind::Store: {
        StoreInstr in;
        in.memRow = static_cast<uint32_t>(r.get(lay.memRowBits));
        in.enable.resize(lay.banks);
        in.readAddr.resize(lay.banks);
        for (uint32_t b = 0; b < lay.banks; ++b)
            in.enable[b] = r.get(1);
        for (uint32_t b = 0; b < lay.banks; ++b)
            in.readAddr[b] = static_cast<uint16_t>(r.get(lay.addrBits));
        return in;
      }
      case InstrKind::Store4: {
        Store4Instr in;
        in.memRow = static_cast<uint32_t>(r.get(lay.memRowBits / 2));
        for (auto &s : in.slots) {
            s.bank = static_cast<uint16_t>(r.get(lay.bankBits));
            s.addr = static_cast<uint16_t>(r.get(lay.addrBits));
        }
        in.slots[0].active = true;
        for (int i = 1; i < 4; ++i) {
            auto &s = in.slots[i];
            s.active = s.bank != in.slots[0].bank ||
                       s.addr != in.slots[0].addr;
            if (!s.active)
                s = Store4Instr::Slot{}; // normalize to the null slot
        }
        return in;
      }
      case InstrKind::Copy4: {
        Copy4Instr in;
        for (auto &s : in.slots) {
            s.srcBank = static_cast<uint16_t>(r.get(lay.bankBits));
            s.srcAddr = static_cast<uint16_t>(r.get(lay.addrBits));
            s.dstBank = static_cast<uint16_t>(r.get(lay.bankBits));
            s.active = s.srcBank != s.dstBank;
        }
        in.validRst.resize(lay.banks);
        for (uint32_t b = 0; b < lay.banks; ++b)
            in.validRst[b] = r.get(1);
        return in;
      }
      case InstrKind::Exec: {
        ExecInstr in;
        in.peOp.resize(lay.numPes);
        for (uint32_t p = 0; p < lay.numPes; ++p) {
            uint64_t op = r.get(lay.peOpBits);
            if (op > static_cast<uint64_t>(PeOp::PassB))
                dpu_panic("undefined PE op " + std::to_string(op) +
                          " in instruction stream");
            in.peOp[p] = static_cast<PeOp>(op);
        }
        in.inputSel.resize(lay.banks);
        in.readAddr.resize(lay.banks);
        in.validRst.resize(lay.banks);
        in.writeEnable.resize(lay.banks);
        in.outputSel.resize(lay.banks);
        for (uint32_t b = 0; b < lay.banks; ++b)
            in.inputSel[b] = static_cast<uint16_t>(r.get(lay.bankBits));
        for (uint32_t b = 0; b < lay.banks; ++b)
            in.readAddr[b] = static_cast<uint16_t>(r.get(lay.addrBits));
        for (uint32_t b = 0; b < lay.banks; ++b)
            in.validRst[b] = r.get(1);
        for (uint32_t b = 0; b < lay.banks; ++b)
            in.writeEnable[b] = r.get(1);
        for (uint32_t b = 0; b < lay.banks; ++b)
            in.outputSel[b] = static_cast<uint16_t>(r.get(lay.outputSelBits));
        return in;
      }
    }
    dpu_panic("bad opcode in instruction stream");
}

} // namespace

std::vector<uint8_t>
encodeProgram(const ArchConfig &cfg, const std::vector<Instruction> &prog)
{
    IsaLayout lay(cfg);
    BitWriter w;
    for (const auto &instr : prog)
        encodeOne(lay, instr, w);
    return w.take();
}

std::vector<Instruction>
decodeProgram(const ArchConfig &cfg, const std::vector<uint8_t> &image,
              size_t instruction_count)
{
    IsaLayout lay(cfg);
    // Every instruction spans at least its opcode: a count the image
    // cannot hold underruns, and must not size the reservation.
    dpu_assert(instruction_count <= image.size() * 8 / lay.opcodeBits,
               "bit stream underrun");
    BitReader r(image);
    std::vector<Instruction> out;
    out.reserve(instruction_count);
    for (size_t i = 0; i < instruction_count; ++i)
        out.push_back(decodeOne(lay, r));
    return out;
}

uint64_t
programSizeBits(const ArchConfig &cfg, const std::vector<Instruction> &prog)
{
    IsaLayout lay(cfg);
    uint64_t total = 0;
    for (const auto &instr : prog)
        total += lay.lengthBits(instr);
    return total;
}

} // namespace dpu
