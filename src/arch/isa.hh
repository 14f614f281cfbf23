/**
 * @file
 * The DPU-v2 variable-length VLIW instruction set (paper §III-E, fig. 7).
 *
 * Six instruction kinds. Lengths depend on (D, B, R); instructions are
 * packed densely in instruction memory with no padding, and the fetch
 * unit shifts/aligns them (fig. 7(b)) — execution is stall-free at one
 * instruction per cycle, so *cycles = instruction count* and program
 * size in bits = sum of instruction lengths.
 *
 * Register-write addressing is automatic (paper §III-B): no write
 * addresses appear in any instruction. Register reads are freed by
 * per-bank `valid_rst` bits on their last read. Stores always free the
 * registers they read (the compiler schedules a store as the final
 * access of a value), which keeps the store encoding at the paper's
 * length.
 *
 * In memory a Program mirrors the encoding. The one-bit-per-bank
 * fields (load/store enables, valid_rst, write enables) are 64-bit
 * bank masks, bank b in bit b; ArchConfig::check caps B at 64, so one
 * word holds every bank. Each instruction is a fixed-size, trivially
 * copyable record that holds its kind, row address, masks and the
 * store_4/copy_4 slots inline. The fixed-width per-PE and per-bank
 * fields (PE opcodes, crossbar selects, read addresses, output-mux
 * selects) live in two per-program pools that exec and store records
 * index. A program is therefore three flat buffers, so a copy or a
 * free costs three allocations, not several per instruction, and a
 * walker visits the banks a mask names with count-trailing-zeros.
 */

#ifndef DPU_ARCH_ISA_HH
#define DPU_ARCH_ISA_HH

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "arch/config.hh"

namespace dpu {

/** Operation a PE performs during one exec (4-bit field). */
enum class PeOp : uint8_t {
    Nop = 0,   ///< Output undefined / unused.
    Add = 1,   ///< left + right.
    Mul = 2,   ///< left * right.
    PassA = 3, ///< Forward the left input.
    PassB = 4, ///< Forward the right input.
};

/** Instruction kind tags (opcode values; also fig. 13 categories). */
enum class InstrKind : uint8_t {
    Nop = 0,    ///< No-operation (fills unresolvable pipeline hazards).
    Load = 1,   ///< Vector load: data-memory row -> register banks.
    Store = 2,  ///< Vector store: register banks -> data-memory row.
    Store4 = 3, ///< Narrow store of up to four words.
    Copy4 = 4,  ///< Copy of up to four words between banks.
    Exec = 5,   ///< One block on the PE trees.
};

/** Printable kind name. */
const char *kindName(InstrKind kind);

/** Bank b's bit in a bank mask. */
constexpr uint64_t
bankBit(uint32_t b)
{
    return uint64_t(1) << b;
}

/** Every bank of a B-bank machine as a mask. */
constexpr uint64_t
allBanks(uint32_t banks)
{
    return banks >= 64 ? ~uint64_t(0) : bankBit(banks) - 1;
}

/**
 * One slot of a store_4 or copy_4. A store_4 slot reads bank@addr into
 * column `bank` of its row. A copy_4 slot moves bank@addr through the
 * input crossbar to bank `dst` (fig. 5(c)), the compiler's tool for
 * resolving bank conflicts; the destination address is automatic.
 */
struct Slot
{
    bool active = false;
    uint16_t bank = 0;
    uint16_t addr = 0;
    uint16_t dst = 0; ///< copy_4 only.

    bool operator==(const Slot &) const = default;
};

/**
 * One instruction record. The fields each kind uses:
 * - load: memRow; `enable` names the banks that take word b of the
 *   row, each at an automatically generated address.
 * - store: memRow, `enable`, and readAddr[B] in the lane pool. Word b
 *   of the row comes from bank b, and the read frees its register.
 * - store_4: memRow (16-bit in the encoding) and up to four slots.
 * - copy_4: up to four slots; `validRst` bit b frees the register the
 *   slot reading bank b read, if that was its last read.
 * - exec: `validRst`, the write enables in `enable`, peOp[numPes] in
 *   the op pool and readAddr/inputSel/outputSel[B] in the lane pool.
 * Unused fields stay zero, so records compare memberwise.
 */
struct Instr
{
    InstrKind kind = InstrKind::Nop;
    uint32_t memRow = 0;
    uint64_t enable = 0;   ///< Bank mask.
    uint64_t validRst = 0; ///< Bank mask.
    uint32_t lane = 0;     ///< First lane-pool entry (exec, store).
    uint32_t op = 0;       ///< First op-pool entry (exec).
    Slot slots[4] = {};

    bool operator==(const Instr &) const = default;
};
static_assert(std::is_trivially_copyable_v<Instr>);

/** An exec's fields, read in place. */
struct ExecView
{
    std::span<const PeOp> peOp;          ///< numPes.
    std::span<const uint16_t> inputSel;  ///< B: source bank per port.
    std::span<const uint16_t> readAddr;  ///< B.
    std::span<const uint16_t> outputSel; ///< B: writer mux select.
    uint64_t validRst;
    uint64_t writeEnable;
};

/** A just-appended exec to fill in: PEs start Nop, lanes zero. */
struct ExecLanes
{
    std::span<PeOp> peOp;
    std::span<uint16_t> inputSel;
    std::span<uint16_t> readAddr;
    std::span<uint16_t> outputSel;
    uint64_t &validRst;
    uint64_t &writeEnable;
};

/**
 * A program: instruction records plus the per-program lane pools (see
 * the file comment). It grows only by appending. The one field that
 * may change afterwards is a record's row address: the finalizer
 * rebases spill rows once the final data layout is known.
 */
class Program
{
  public:
    Program() = default;

    /** An empty program whose lanes are sized for `cfg`. */
    explicit Program(const ArchConfig &cfg);

    size_t size() const { return records.size(); }
    bool empty() const { return records.empty(); }
    const Instr &operator[](size_t i) const { return records[i]; }
    auto begin() const { return records.begin(); }
    auto end() const { return records.end(); }

    /** True when every lane the program holds has cfg's width (an
     *  exec/store-free program fits any configuration). */
    bool fits(const ArchConfig &cfg) const;

    /** The fields of exec i. */
    ExecView exec(size_t i) const;

    /** The per-bank read addresses of store i. */
    std::span<const uint16_t> readAddr(size_t i) const;

    void appendNop();
    void appendLoad(uint32_t memRow, uint64_t enable);

    /** @return the store's read addresses (zero) to fill in. */
    std::span<uint16_t> appendStore(uint32_t memRow, uint64_t enable);

    void appendStore4(uint32_t memRow, const Slot (&slots)[4]);
    void appendCopy4(const Slot (&slots)[4], uint64_t validRst);

    /** The returned spans and references are valid until the next
     *  append. */
    ExecLanes appendExec(uint64_t validRst = 0, uint64_t writeEnable = 0);

    /** Patch the row address of load, store or store_4 i. */
    void setMemRow(size_t i, uint32_t row) { records[i].memRow = row; }

    void reserve(size_t n) { records.reserve(n); }

    bool operator==(const Program &) const = default;

  private:
    uint32_t banks = 0; ///< B of every lane.
    uint32_t pes = 0;   ///< numPes of every exec's ops.
    std::vector<Instr> records;
    /** store: readAddr; exec: readAddr, inputSel, outputSel. */
    std::vector<uint16_t> lanes;
    std::vector<PeOp> ops;
};

/** Bit widths of all ISA fields for a configuration. */
struct IsaLayout
{
    explicit IsaLayout(const ArchConfig &cfg);

    uint32_t opcodeBits;   ///< 4.
    uint32_t bankBits;     ///< ceil(log2 B).
    uint32_t addrBits;     ///< ceil(log2 R).
    uint32_t memRowBits;   ///< 32 (wide) / 16 (short form).
    uint32_t peOpBits;     ///< 4.
    uint32_t outputSelBits;///< ceil(log2 maxWritersPerBank).
    uint32_t banks;
    uint32_t numPes;

    /** Encoded length in bits of each instruction kind. */
    uint32_t lengthBits(InstrKind kind) const;

    /** IL: fetch width = longest instruction (the exec). */
    uint32_t maxLengthBits() const;
};

/**
 * Encode instructions into a densely packed bit stream (fig. 7(b)).
 * @return the packed program image.
 */
std::vector<uint8_t> encodeProgram(const ArchConfig &cfg,
                                   const Program &prog);

/** Decode a packed bit stream back into instructions. */
Program decodeProgram(const ArchConfig &cfg,
                      std::span<const uint8_t> image,
                      size_t instruction_count);

/** Total encoded size in bits (the program footprint of §IV-E). */
uint64_t programSizeBits(const ArchConfig &cfg, const Program &prog);

} // namespace dpu

#endif // DPU_ARCH_ISA_HH
