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

    /** Put `lanes` fields of `bits` each, as many per word as fit. */
    template <class T>
    void
    putLanes(std::span<const T> lanes, uint32_t bits)
    {
        const size_t per = 64 / bits;
        for (size_t i = 0; i < lanes.size(); i += per) {
            const size_t n = std::min(per, lanes.size() - i);
            uint64_t word = 0;
            for (size_t k = 0; k < n; ++k) {
                const auto v = static_cast<uint64_t>(lanes[i + k]);
                dpu_assert(v < (uint64_t(1) << bits),
                           "value does not fit field");
                word |= v << (k * bits);
            }
            put(word, static_cast<uint32_t>(n * bits));
        }
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
    explicit BitReader(std::span<const uint8_t> image) : bytes(image) {}

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

    /** Get `lanes.size()` fields of `bits` each (putLanes' layout). */
    template <class T>
    void
    getLanes(std::span<T> lanes, uint32_t bits)
    {
        const size_t per = 64 / bits;
        const uint64_t field = (uint64_t(1) << bits) - 1;
        for (size_t i = 0; i < lanes.size(); i += per) {
            const size_t n = std::min(per, lanes.size() - i);
            const uint64_t word = get(static_cast<uint32_t>(n * bits));
            for (size_t k = 0; k < n; ++k)
                lanes[i + k] = static_cast<T>(word >> (k * bits) & field);
        }
    }

  private:
    std::span<const uint8_t> bytes;
    uint64_t pos = 0;
};

} // namespace

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

Program::Program(const ArchConfig &cfg)
    : banks(cfg.banks), pes(cfg.numPes())
{}

bool
Program::fits(const ArchConfig &cfg) const
{
    return lanes.empty() || (banks == cfg.banks && pes == cfg.numPes());
}

ExecView
Program::exec(size_t i) const
{
    const Instr &r = records[i];
    const uint16_t *l = lanes.data() + r.lane;
    return {{ops.data() + r.op, pes},
            {l + banks, banks},
            {l, banks},
            {l + 2 * banks, banks},
            r.validRst,
            r.enable};
}

std::span<const uint16_t>
Program::readAddr(size_t i) const
{
    return {lanes.data() + records[i].lane, banks};
}

void
Program::appendNop()
{
    records.emplace_back();
}

void
Program::appendLoad(uint32_t memRow, uint64_t enable)
{
    Instr &r = records.emplace_back();
    r.kind = InstrKind::Load;
    r.memRow = memRow;
    r.enable = enable;
}

std::span<uint16_t>
Program::appendStore(uint32_t memRow, uint64_t enable)
{
    dpu_assert(banks > 0, "program lanes are not sized for a config");
    Instr &r = records.emplace_back();
    r.kind = InstrKind::Store;
    r.memRow = memRow;
    r.enable = enable;
    r.lane = static_cast<uint32_t>(lanes.size());
    lanes.resize(lanes.size() + banks, 0);
    return {lanes.data() + r.lane, banks};
}

void
Program::appendStore4(uint32_t memRow, const Slot (&slots)[4])
{
    Instr &r = records.emplace_back();
    r.kind = InstrKind::Store4;
    r.memRow = memRow;
    std::copy(slots, slots + 4, r.slots);
}

void
Program::appendCopy4(const Slot (&slots)[4], uint64_t validRst)
{
    Instr &r = records.emplace_back();
    r.kind = InstrKind::Copy4;
    r.validRst = validRst;
    std::copy(slots, slots + 4, r.slots);
}

ExecLanes
Program::appendExec(uint64_t validRst, uint64_t writeEnable)
{
    dpu_assert(banks > 0, "program lanes are not sized for a config");
    Instr &r = records.emplace_back();
    r.kind = InstrKind::Exec;
    r.validRst = validRst;
    r.enable = writeEnable;
    r.lane = static_cast<uint32_t>(lanes.size());
    r.op = static_cast<uint32_t>(ops.size());
    lanes.resize(lanes.size() + 3 * banks, 0);
    ops.resize(ops.size() + pes, PeOp::Nop);
    uint16_t *l = lanes.data() + r.lane;
    return {{ops.data() + r.op, pes},
            {l + banks, banks},
            {l, banks},
            {l + 2 * banks, banks},
            r.validRst,
            r.enable};
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
encodeOne(const IsaLayout &lay, const Program &prog, size_t i,
          BitWriter &w)
{
    const Instr &in = prog[i];
    w.put(static_cast<uint64_t>(in.kind), lay.opcodeBits);
    switch (in.kind) {
      case InstrKind::Nop:
        return;
      case InstrKind::Load:
        w.put(in.memRow, lay.memRowBits);
        w.put(in.enable, lay.banks);
        return;
      case InstrKind::Store: {
        w.put(in.memRow, lay.memRowBits);
        w.put(in.enable, lay.banks);
        std::span<const uint16_t> addr = prog.readAddr(i);
        for (uint32_t b = 0; b < lay.banks; ++b)
            w.put(in.enable >> b & 1 ? addr[b] : 0, lay.addrBits);
        return;
      }
      case InstrKind::Store4:
        // Slot 0 must be active; an inactive later slot is encoded as
        // a replica of slot 0 (storing the same word twice is
        // meaningless, so the code point is free). This keeps the
        // length at the paper's 56 bits for (D=3, B=16, R=32) with no
        // explicit enable bits.
        dpu_assert(in.slots[0].active, "store_4 slot 0 must be active");
        w.put(in.memRow, lay.memRowBits / 2);
        for (const Slot &s : in.slots) {
            const Slot &eff = s.active ? s : in.slots[0];
            w.put(eff.bank, lay.bankBits);
            w.put(eff.addr, lay.addrBits);
        }
        return;
      case InstrKind::Copy4:
        for (const Slot &s : in.slots) {
            // src == dst encodes "inactive" (a same-bank copy is
            // meaningless in hardware).
            dpu_assert(!s.active || s.bank != s.dst,
                       "active copy slot must move across banks");
            w.put(s.active ? s.bank : 0, lay.bankBits);
            w.put(s.active ? s.addr : 0, lay.addrBits);
            w.put(s.active ? s.dst : 0, lay.bankBits);
        }
        w.put(in.validRst, lay.banks);
        return;
      case InstrKind::Exec: {
        ExecView ex = prog.exec(i);
        w.putLanes(ex.peOp, lay.peOpBits);
        w.putLanes(ex.inputSel, lay.bankBits);
        w.putLanes(ex.readAddr, lay.addrBits);
        w.put(ex.validRst, lay.banks);
        w.put(ex.writeEnable, lay.banks);
        w.putLanes(ex.outputSel, lay.outputSelBits);
        return;
      }
    }
    dpu_panic("unknown instruction kind");
}

void
decodeOne(const IsaLayout &lay, BitReader &r, Program &prog)
{
    auto kind = static_cast<InstrKind>(r.get(lay.opcodeBits));
    switch (kind) {
      case InstrKind::Nop:
        prog.appendNop();
        return;
      case InstrKind::Load: {
        auto row = static_cast<uint32_t>(r.get(lay.memRowBits));
        prog.appendLoad(row, r.get(lay.banks));
        return;
      }
      case InstrKind::Store: {
        auto row = static_cast<uint32_t>(r.get(lay.memRowBits));
        r.getLanes(prog.appendStore(row, r.get(lay.banks)), lay.addrBits);
        return;
      }
      case InstrKind::Store4: {
        auto row = static_cast<uint32_t>(r.get(lay.memRowBits / 2));
        Slot slots[4];
        for (Slot &s : slots) {
            s.bank = static_cast<uint16_t>(r.get(lay.bankBits));
            s.addr = static_cast<uint16_t>(r.get(lay.addrBits));
        }
        slots[0].active = true;
        for (int k = 1; k < 4; ++k) {
            Slot &s = slots[k];
            if (s.bank == slots[0].bank && s.addr == slots[0].addr)
                s = Slot{}; // a replica of slot 0 is the null slot
            else
                s.active = true;
        }
        prog.appendStore4(row, slots);
        return;
      }
      case InstrKind::Copy4: {
        Slot slots[4];
        for (Slot &s : slots) {
            s.bank = static_cast<uint16_t>(r.get(lay.bankBits));
            s.addr = static_cast<uint16_t>(r.get(lay.addrBits));
            s.dst = static_cast<uint16_t>(r.get(lay.bankBits));
            s.active = s.bank != s.dst;
        }
        prog.appendCopy4(slots, r.get(lay.banks));
        return;
      }
      case InstrKind::Exec: {
        ExecLanes ex = prog.appendExec();
        r.getLanes(ex.peOp, lay.peOpBits);
        for (PeOp op : ex.peOp)
            if (op > PeOp::PassB)
                dpu_panic("undefined PE op " +
                          std::to_string(static_cast<unsigned>(op)) +
                          " in instruction stream");
        r.getLanes(ex.inputSel, lay.bankBits);
        r.getLanes(ex.readAddr, lay.addrBits);
        ex.validRst = r.get(lay.banks);
        ex.writeEnable = r.get(lay.banks);
        r.getLanes(ex.outputSel, lay.outputSelBits);
        return;
      }
    }
    dpu_panic("bad opcode in instruction stream");
}

} // namespace

std::vector<uint8_t>
encodeProgram(const ArchConfig &cfg, const Program &prog)
{
    dpu_assert(prog.fits(cfg), "program lanes do not fit the config");
    IsaLayout lay(cfg);
    BitWriter w;
    for (size_t i = 0; i < prog.size(); ++i)
        encodeOne(lay, prog, i, w);
    return w.take();
}

Program
decodeProgram(const ArchConfig &cfg, std::span<const uint8_t> image,
              size_t instruction_count)
{
    IsaLayout lay(cfg);
    // Every instruction spans at least its opcode: a count the image
    // cannot hold underruns, and must not size the reservation.
    dpu_assert(instruction_count <= image.size() * 8 / lay.opcodeBits,
               "bit stream underrun");
    BitReader r(image);
    Program out(cfg);
    out.reserve(instruction_count);
    for (size_t i = 0; i < instruction_count; ++i)
        decodeOne(lay, r, out);
    return out;
}

uint64_t
programSizeBits(const ArchConfig &cfg, const Program &prog)
{
    IsaLayout lay(cfg);
    uint64_t total = 0;
    for (const Instr &in : prog)
        total += lay.lengthBits(in.kind);
    return total;
}

} // namespace dpu
