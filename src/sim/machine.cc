#include "sim/machine.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "arch/interconnect.hh"
#include "dag/binarize.hh"
#include "dag/dag.hh"
#include "dag/eval.hh"
#include "support/logging.hh"

namespace dpu {

namespace detail {

/**
 * A register read or valid_rst of a decoded instruction. `reg` is the
 * register's flat index, bank * stride + address, where the bank stride
 * rounds R up to whole 64-bit valid words. `slot` says where a read
 * value goes: a scratch slot of the run for exec and copy_4, a
 * data-memory column for store and store_4.
 */
struct RegOp
{
    uint32_t reg;
    uint32_t slot;
};

/** An automatic register write: bank `bank` takes the value in
 *  `slot` (a scratch slot, or a data-memory column for load). */
struct WriteOp
{
    uint16_t bank;
    uint16_t slot;
};

/**
 * One active PE of an exec. Scratch slot b < B holds what bank b read
 * this cycle; slot B + pe holds PE pe's output. `sel` picks the result:
 * 0 = a + b, 1 = a * b, 2 = a (a pass-through keeps the input it
 * forwards in `a` and `b`).
 */
struct PeStep
{
    uint16_t out;
    uint16_t a;
    uint16_t b;
    uint16_t sel;
};

/**
 * One instruction resolved against its configuration. Its operations
 * are the next nReads/nSteps/nFrees/nWrites entries of the program's
 * pools, in the order the machine performs them.
 */
struct DecodedInstr
{
    InstrKind kind = InstrKind::Nop;
    uint8_t latency = 0; ///< cycles until a written value is readable
    uint8_t nReads = 0;
    uint8_t nSteps = 0;
    uint8_t nFrees = 0;
    uint8_t nWrites = 0;
    uint8_t bankReads = 0; ///< event counts, see SimStats
    uint8_t crossbarTransfers = 0;
    uint8_t peOperations = 0;
    uint8_t pePassThroughs = 0;
    uint32_t memRow = 0;
    /** A check that fails on this instruction once its listed
     *  operations ran (index into DecodedProgram::faults), or -1. */
    int32_t fault = -1;
};

/**
 * A program decoded once for its configuration: flat instruction
 * records, pools of pre-resolved operations, and the constants the run
 * loop needs. Immutable after decoding, so any number of runs, on any
 * number of threads, may share it.
 */
struct DecodedProgram
{
    uint32_t banks = 0;
    uint32_t stride = 0;    ///< registers per bank, R rounded up to 64
    uint64_t padMask = 0;   ///< bits past R in a bank's last valid word
    uint32_t drainCycles = 0;
    uint64_t transferBytes = 0;
    std::array<uint32_t, 6> lengthBits{};

    std::vector<DecodedInstr> code;
    std::vector<RegOp> reads, frees;
    std::vector<PeStep> steps;
    std::vector<WriteOp> writes;
    std::vector<std::string> faults;

    /** Flat data-memory index (row * B + col) of every input and
     *  output value; kNoIndex where the location is out of range. */
    size_t memWords = 0;
    std::vector<size_t> inputAt, outputAt;
    static constexpr size_t kNoIndex = std::numeric_limits<size_t>::max();
};

} // namespace detail

namespace {

using detail::DecodedInstr;
using detail::DecodedProgram;
using detail::PeStep;
using detail::RegOp;
using detail::WriteOp;

/** A B-lane flag field as a bank mask (lane b in bit b; B <= 64). */
uint64_t
maskOf(const std::vector<bool> &lanes)
{
#if defined(__GLIBCXX__)
    // libstdc++ packs the flags into unsigned long words, lane 0 in
    // bit 0. Reading the word is ~30x faster than 64 element accesses,
    // which would otherwise dominate decoding.
    static_assert(sizeof(*lanes.begin()._M_p) == sizeof(uint64_t));
    if (lanes.empty())
        return 0;
    uint64_t m = *lanes.begin()._M_p;
    return lanes.size() < 64 ? m & ((uint64_t(1) << lanes.size()) - 1) : m;
#else
    uint64_t m = 0;
    for (size_t b = 0; b < lanes.size(); ++b)
        m |= uint64_t(lanes[b]) << b;
    return m;
#endif
}

/** Index of the lowest set bit of m, which is cleared. */
uint32_t
takeLowest(uint64_t &m)
{
    uint32_t b = static_cast<uint32_t>(std::countr_zero(m));
    m &= m - 1;
    return b;
}

/**
 * Lowers each Instruction into a DecodedInstr. Every check that depends
 * only on the instruction (selects, addresses, rows, idle PEs) is
 * decided here. One that fails becomes the instruction's fault, placed
 * after exactly the operations the machine performs before reaching
 * that check, so a run reports the same first failure, on the same
 * instruction, as evaluating the instruction field by field.
 */
class Decoder
{
  public:
    Decoder(const CompiledProgram &prog, DecodedProgram &out)
        : prog(prog), cfg(prog.cfg), out(out)
    {
        for (uint32_t b = 0; b < cfg.banks; ++b)
            writers.push_back(writingPes(cfg, b));
        for (uint32_t pe = 0; pe < cfg.numPes(); ++pe) {
            PeCoord c = cfg.peCoord(pe);
            PeInputs &in = inputs.emplace_back();
            in.leaf = c.layer == 1;
            for (uint32_t side = 0; side < 2; ++side)
                in.src[side] = static_cast<uint16_t>(
                    in.leaf ? cfg.portBank(c.tree, c.index * 2 + side)
                            : cfg.peId({c.tree, c.layer - 1,
                                        c.index * 2 + side}));
        }
    }

    void
    decode(const Instruction &instr)
    {
        d = DecodedInstr{};
        d.kind = kindOf(instr);
        nReads = nSteps = nFrees = nWrites = 0;
        std::visit([&](const auto &in) { lower(in); }, instr);
        d.nReads = static_cast<uint8_t>(nReads);
        d.nSteps = static_cast<uint8_t>(nSteps);
        d.nFrees = static_cast<uint8_t>(nFrees);
        d.nWrites = static_cast<uint8_t>(nWrites);
        out.code.push_back(d);
        out.reads.insert(out.reads.end(), reads.begin(),
                         reads.begin() + nReads);
        out.steps.insert(out.steps.end(), steps.begin(),
                         steps.begin() + nSteps);
        out.frees.insert(out.frees.end(), frees.begin(),
                         frees.begin() + nFrees);
        out.writes.insert(out.writes.end(), writes.begin(),
                          writes.begin() + nWrites);
    }

  private:
    /** Record the check this instruction fails; the caller stops
     *  lowering it, since nothing after the check is reachable. */
    bool
    fail(const std::string &what)
    {
        d.fault = static_cast<int32_t>(out.faults.size());
        out.faults.push_back(what + " (instruction " +
                             std::to_string(out.code.size()) + ")");
        return false;
    }

    bool
    lanes(size_t n, const char *field)
    {
        if (n == cfg.banks)
            return true;
        return fail(std::string("malformed instruction: ") + field +
                    " has " + std::to_string(n) + " lanes, expected " +
                    std::to_string(cfg.banks));
    }

    bool
    row(uint32_t r, const char *what)
    {
        if (r >= prog.numRows)
            return fail(what);
        d.memRow = r;
        return true;
    }

    bool
    read(uint32_t bank, uint32_t addr, uint32_t slot)
    {
        if (bank >= cfg.banks || addr >= cfg.regsPerBank)
            return fail("register index out of range");
        reads[nReads++] = {bank * out.stride + addr, slot};
        return true;
    }

    void
    release(uint32_t bank, uint32_t addr)
    {
        frees[nFrees++] = {bank * out.stride + addr, 0};
    }

    void
    write(uint32_t bank, uint32_t slot)
    {
        writes[nWrites++] = {uint16_t(bank), uint16_t(slot)};
    }

    void lower(const NopInstr &) {}

    void
    lower(const LoadInstr &in)
    {
        d.latency = 2;
        if (!lanes(in.enable.size(), "enable") ||
            !row(in.memRow, "load row out of range"))
            return;
        for (uint64_t m = maskOf(in.enable); m;) {
            uint32_t b = takeLowest(m);
            write(b, b);
        }
    }

    void
    lower(const StoreInstr &in)
    {
        if (!lanes(in.enable.size(), "enable") ||
            !lanes(in.readAddr.size(), "readAddr") ||
            !row(in.memRow, "store row out of range"))
            return;
        for (uint64_t m = maskOf(in.enable); m;) {
            uint32_t b = takeLowest(m);
            if (!read(b, in.readAddr[b], b))
                return;
            ++d.bankReads;
        }
    }

    void
    lower(const Store4Instr &in)
    {
        if (!row(in.memRow, "store_4 row out of range"))
            return;
        for (const auto &s : in.slots) {
            if (!s.active)
                continue;
            if (!read(s.bank, s.addr, s.bank))
                return;
            ++d.bankReads;
        }
    }

    void
    lower(const Copy4Instr &in)
    {
        // Reads first, then valid_rst, then the automatic writes —
        // the issue-stage ordering contract shared with the compiler.
        d.latency = 2;
        if (!lanes(in.validRst.size(), "validRst"))
            return;
        for (uint32_t k = 0; k < 4; ++k) {
            const auto &s = in.slots[k];
            if (!s.active)
                continue;
            if (!read(s.srcBank, s.srcAddr, k))
                return;
            ++d.bankReads;
            ++d.crossbarTransfers;
        }
        // valid_rst frees the register this copy read in bank b.
        for (uint64_t m = maskOf(in.validRst); m;) {
            uint32_t b = takeLowest(m);
            for (const auto &s : in.slots)
                if (s.active && s.srcBank == b)
                    release(b, s.srcAddr);
        }
        for (uint32_t k = 0; k < 4; ++k) {
            const auto &s = in.slots[k];
            if (!s.active)
                continue;
            if (s.dstBank >= cfg.banks)
                return (void)fail("copy_4 destination bank out of range");
            write(s.dstBank, k);
        }
    }

    void
    lower(const ExecInstr &in)
    {
        d.latency = static_cast<uint8_t>(cfg.pipelineStages());
        if (in.peOp.size() != cfg.numPes())
            return (void)fail("malformed instruction: peOp has " +
                              std::to_string(in.peOp.size()) +
                              " entries, expected " +
                              std::to_string(cfg.numPes()));
        if (!lanes(in.inputSel.size(), "inputSel") ||
            !lanes(in.readAddr.size(), "readAddr") ||
            !lanes(in.validRst.size(), "validRst") ||
            !lanes(in.writeEnable.size(), "writeEnable") ||
            !lanes(in.outputSel.size(), "outputSel"))
            return;

        // 1. Evaluate the active PEs in evaluation order (tree, then
        // layer 1..D, then index), which is ascending PE id. Only
        // ports an active PE consumes are read (an idle port's select
        // is a don't-care and may point at garbage); a bank read by
        // several ports is read once.
        const uint32_t B = cfg.banks;
        uint64_t active = 0;
        for (uint32_t pe = 0; pe < cfg.numPes(); ++pe)
            active |= uint64_t(in.peOp[pe] != PeOp::Nop) << pe;
        uint64_t banks_read = 0;
        uint32_t transfers = 0, ops = 0, passes = 0;
        for (uint64_t m = active; m;) {
            uint32_t pe = takeLowest(m);
            PeOp op = in.peOp[pe];
            if (op > PeOp::PassB)
                return (void)fail("malformed instruction: unknown PE op");
            // The inputs the op consumes: both, or the one it forwards.
            bool pass = op == PeOp::PassA || op == PeOp::PassB;
            uint32_t first = op == PeOp::PassB, last = pass ? first : 1;
            uint32_t src[2] = {0, 0};
            for (uint32_t side = first; side <= last; ++side) {
                uint32_t from = inputs[pe].src[side];
                if (!inputs[pe].leaf) {
                    if (!(active >> from & 1))
                        return (void)fail("active PE fed by idle child");
                    src[side] = B + from;
                    continue;
                }
                uint32_t bank = in.inputSel[from];
                if (bank >= B)
                    return (void)fail("bad crossbar select");
                if (!(banks_read >> bank & 1)) {
                    if (!read(bank, in.readAddr[bank], bank))
                        return;
                    banks_read |= uint64_t(1) << bank;
                }
                ++transfers;
                src[side] = bank;
            }
            steps[nSteps++] = {uint16_t(B + pe), uint16_t(src[first]),
                               uint16_t(src[last]),
                               uint16_t(pass ? 2 : op == PeOp::Mul)};
            ++(pass ? passes : ops);
        }
        d.bankReads = static_cast<uint8_t>(std::popcount(banks_read));
        d.crossbarTransfers = static_cast<uint8_t>(transfers);
        d.peOperations = static_cast<uint8_t>(ops);
        d.pePassThroughs = static_cast<uint8_t>(passes);

        // 2. valid_rst lanes free the registers read this cycle.
        for (uint64_t m = maskOf(in.validRst); m;) {
            uint32_t b = takeLowest(m);
            if (!(banks_read >> b & 1))
                return (void)fail(
                    "valid_rst on a bank this exec did not read");
            release(b, in.readAddr[b]);
        }

        // 3. Output interconnect: one write per enabled bank, from
        // the PE the bank's output mux selects.
        for (uint64_t m = maskOf(in.writeEnable); m;) {
            uint32_t b = takeLowest(m);
            if (in.outputSel[b] >= writers[b].size())
                return (void)fail("output mux select out of range");
            uint32_t pe = writers[b][in.outputSel[b]];
            if (!(active >> pe & 1))
                return (void)fail("store-back from an idle PE");
            write(b, B + pe);
        }
    }

    /** Where a PE's two inputs come from: tree input ports for a
     *  leaf-layer PE, child PE ids otherwise. */
    struct PeInputs
    {
        bool leaf = false;
        uint16_t src[2] = {0, 0};
    };

    const CompiledProgram &prog;
    const ArchConfig &cfg;
    DecodedProgram &out;
    DecodedInstr d;
    std::vector<std::vector<uint32_t>> writers; ///< writingPes per bank
    std::vector<PeInputs> inputs;               ///< per PE

    /** The current instruction's operations, appended to the pools
     *  once it is lowered. Each kind touches at most one entry per
     *  bank or per PE, and B <= 64. */
    std::array<RegOp, 64> reads, frees;
    std::array<PeStep, 64> steps;
    std::array<WriteOp, 64> writes;
    uint32_t nReads = 0, nSteps = 0, nFrees = 0, nWrites = 0;
};

std::shared_ptr<const DecodedProgram>
decodeFor(const CompiledProgram &prog)
{
    const ArchConfig &cfg = prog.cfg;
    auto p = std::make_shared<DecodedProgram>();
    p->banks = cfg.banks;
    p->stride = (cfg.regsPerBank + 63) / 64 * 64;
    p->padMask = cfg.regsPerBank % 64
                     ? ~uint64_t(0) << (cfg.regsPerBank % 64)
                     : 0;
    p->drainCycles = cfg.pipelineStages();
    p->transferBytes = hostTransferBytes(prog);
    IsaLayout lay(cfg);
    for (size_t k = 0; k < p->lengthBits.size(); ++k)
        p->lengthBits[k] = lay.lengthBits(static_cast<InstrKind>(k));

    p->code.reserve(prog.instructions.size());
    Decoder dec(prog, *p);
    for (const Instruction &instr : prog.instructions)
        dec.decode(instr);

    p->memWords = (size_t)prog.numRows * cfg.banks;
    auto flat = [&](uint32_t row, uint32_t col) {
        return row < prog.numRows && col < cfg.banks
                   ? (size_t)row * cfg.banks + col
                   : DecodedProgram::kNoIndex;
    };
    for (auto [row, col] : prog.inputLocation)
        p->inputAt.push_back(flat(row, col));
    for (const auto &o : prog.outputs)
        p->outputAt.push_back(flat(o.row, o.col));
    return p;
}

/**
 * One run's machine state: a flat register file whose valid bits are
 * 64-bit words (bit i of word w is register 64w + i), flat row-major
 * data memory, and the live-register count kept incrementally. Every
 * check costs O(1).
 */
class Engine
{
  public:
    Engine(const DecodedProgram &p, const SimOptions &opts)
        : p(p), opts(opts), regs((size_t)p.banks * p.stride),
          valid(regs.size() / 64, 0), mem(p.memWords, 0.0)
    {
        // Bits past R are permanently valid, so the lowest-free search
        // never hands them out.
        const size_t words = p.stride / 64;
        for (size_t w = words - 1; w < valid.size(); w += words)
            valid[w] = p.padMask;
    }

    SimResult
    run(const std::vector<double> &inputs)
    {
        dpu_assert(inputs.size() == p.inputAt.size(),
                   "wrong number of input values");
        for (size_t k = 0; k < inputs.size(); ++k) {
            dpu_assert(p.inputAt[k] != DecodedProgram::kNoIndex,
                       "input location out of range");
            mem[p.inputAt[k]] = inputs[k];
        }
        // A zero interval would mean "sample every cycle modulo
        // nothing" — treat it as 1 instead of dividing by zero.
        stats.traceStride = opts.traceOccupancy
                                ? std::max<uint64_t>(opts.traceInterval, 1)
                                : 0;

        const RegOp *rd = p.reads.data();
        const PeStep *st = p.steps.data();
        const RegOp *fr = p.frees.data();
        const WriteOp *wr = p.writes.data();
        for (now = 0; now < p.code.size(); ++now) {
            const DecodedInstr &d = p.code[now];
            size_t kind = static_cast<size_t>(d.kind);
            ++stats.kindCount[kind];
            stats.instrBitsFetched += p.lengthBits[kind];
            if (opts.traceOccupancy && now % stats.traceStride == 0)
                sampleOccupancy();
            execute(d, rd, st, fr, wr);
            if (d.fault >= 0)
                dpu_panic(p.faults[d.fault]);
            rd += d.nReads;
            st += d.nSteps;
            fr += d.nFrees;
            wr += d.nWrites;
            stats.bankReads += d.bankReads;
            stats.crossbarTransfers += d.crossbarTransfers;
            stats.peOperations += d.peOperations;
            stats.pePassThroughs += d.pePassThroughs;
            stats.peakLiveRegisters =
                std::max(stats.peakLiveRegisters, live);
        }

        // Let the pipeline drain.
        stats.cycles = p.code.size() + p.drainCycles;

        // Host↔rank transfer for this run: one dispatch moving the
        // input vector down and the output vector back. Statically
        // determined by the program; 0 under the default free model.
        stats.transferCycles = opts.transfer.batchCycles(p.transferBytes, 1);

        // Every register must have been freed by a final read; a
        // leak means the compiler lost track of a value.
        dpu_assert(live == 0, "register leak at end");

        SimResult res;
        res.stats = std::move(stats);
        res.outputs.reserve(p.outputAt.size());
        for (size_t at : p.outputAt) {
            dpu_assert(at != DecodedProgram::kNoIndex,
                       "output location out of range");
            res.outputs.push_back(mem[at]);
        }
        return res;
    }

  private:
    void
    execute(const DecodedInstr &d, const RegOp *rd, const PeStep *st,
            const RegOp *fr, const WriteOp *wr)
    {
        double *row = mem.data() + (size_t)d.memRow * p.banks;
        switch (d.kind) {
          case InstrKind::Nop:
            break;
          case InstrKind::Load:
            ++stats.memReads;
            for (uint32_t k = 0; k < d.nWrites; ++k)
                writeReg(wr[k].bank, row[wr[k].slot], d.latency);
            break;
          case InstrKind::Store:
          case InstrKind::Store4:
            ++stats.memWrites;
            for (uint32_t k = 0; k < d.nReads; ++k) {
                double v = readReg(rd[k].reg);
                freeReg(rd[k].reg); // stores are final reads
                row[rd[k].slot] = v;
            }
            break;
          case InstrKind::Copy4:
          case InstrKind::Exec:
            for (uint32_t k = 0; k < d.nReads; ++k)
                val[rd[k].slot] = readReg(rd[k].reg);
            for (uint32_t k = 0; k < d.nSteps; ++k) {
                // Select the result instead of branching on the op.
                const PeStep &s = st[k];
                double a = val[s.a], b = val[s.b];
                const double result[3] = {a + b, a * b, a};
                val[s.out] = result[s.sel];
            }
            for (uint32_t k = 0; k < d.nFrees; ++k)
                freeReg(fr[k].reg);
            for (uint32_t k = 0; k < d.nWrites; ++k)
                writeReg(wr[k].bank, val[wr[k].slot], d.latency);
            break;
        }
    }

    /** Read a register, enforcing validity and pipeline timing. */
    double
    readReg(uint32_t reg)
    {
        dpu_assert(valid[reg / 64] >> (reg % 64) & 1,
                   "read of invalid register");
        dpu_assert(regs[reg].arrivesAt <= now,
                   "pipeline hazard: data still in flight");
        return regs[reg].value;
    }

    /** Clear a valid bit (valid_rst semantics). */
    void
    freeReg(uint32_t reg)
    {
        uint64_t bit = uint64_t(1) << (reg % 64);
        dpu_assert(valid[reg / 64] & bit, "valid_rst of an empty register");
        valid[reg / 64] &= ~bit;
        --live;
    }

    /** Automatic write: priority-encode the lowest free address. */
    void
    writeReg(uint32_t bank, double value, uint32_t latency)
    {
        size_t first = (size_t)bank * p.stride / 64;
        for (size_t w = first; w < first + p.stride / 64; ++w) {
            if (~valid[w] == 0)
                continue;
            uint32_t bit = std::countr_zero(~valid[w]);
            valid[w] |= uint64_t(1) << bit;
            regs[w * 64 + bit] = {value, now + latency};
            ++live;
            ++stats.bankWrites;
            return;
        }
        dpu_panic("write to a full register bank");
    }

    void
    sampleOccupancy()
    {
        std::vector<uint32_t> row(p.banks);
        const size_t words = p.stride / 64;
        const uint32_t pad = std::popcount(p.padMask);
        for (uint32_t b = 0; b < p.banks; ++b) {
            uint32_t n = 0;
            for (size_t w = b * words; w < (b + 1) * words; ++w)
                n += std::popcount(valid[w]);
            row[b] = n - pad;
        }
        stats.occupancyTrace.push_back(std::move(row));
        if (opts.maxTraceSamples &&
            stats.occupancyTrace.size() >= opts.maxTraceSamples) {
            // Stride-doubling decimation: drop the odd-index rows
            // and sample half as often from here on, so a run of any
            // length keeps a whole-run trace within the bound
            // (instead of the trace growing without limit, or
            // truncation losing the tail).
            auto &trace = stats.occupancyTrace;
            for (size_t i = 1; 2 * i < trace.size(); ++i)
                trace[i] = std::move(trace[2 * i]);
            trace.resize((trace.size() + 1) / 2);
            stats.traceStride *= 2;
        }
    }

    /** One register's payload; its valid bit lives in `valid`. */
    struct Reg
    {
        double value = 0.0;
        uint64_t arrivesAt = 0; ///< First cycle the data may be read.
    };

    const DecodedProgram &p;
    const SimOptions &opts;

    std::vector<Reg> regs;       ///< bank-major, B x stride
    std::vector<uint64_t> valid; ///< one bit per entry of regs
    std::vector<double> mem;     ///< row-major, numRows x B
    uint64_t live = 0;           ///< valid registers across all banks
    /** Exec/copy_4 scratch: B bank reads, then one slot per PE. */
    std::array<double, 128> val{};
    SimStats stats;
    uint64_t now = 0;
};

} // namespace

CoreSet
CoreSet::firstN(uint32_t n)
{
    CoreSet s;
    s.ids.resize(n);
    for (uint32_t k = 0; k < n; ++k)
        s.ids[k] = k;
    return s;
}

void
CoreSet::validate() const
{
    for (size_t i = 0; i < ids.size(); ++i)
        for (size_t j = i + 1; j < ids.size(); ++j)
            dpu_assert(ids[i] != ids[j],
                       "core id " + std::to_string(ids[i]) +
                           " appears twice in a CoreSet");
}

Machine::Machine(const CompiledProgram &program, SimOptions options)
    : opts(options)
{
    program.cfg.check();
    code = decodeFor(program);
}

SimResult
Machine::run(const std::vector<double> &input_values) const
{
    return Engine(*code, opts).run(input_values);
}

uint64_t
Machine::transferBytes() const
{
    return code->transferBytes;
}

SimResult
runAndCheck(const CompiledProgram &program, const Dag &dag,
            const std::vector<double> &input_values, SimOptions options)
{
    Machine m(program, options);
    SimResult res = m.run(input_values);

    // Reference: evaluate the same binarized DAG the compiler saw.
    BinarizeResult bin = binarize(dag);
    auto ref = evaluate(bin.dag, input_values);

    dpu_assert(res.outputs.size() == program.outputs.size(),
               "output count mismatch");
    for (size_t k = 0; k < program.outputs.size(); ++k) {
        NodeId node = program.outputs[k].node;
        double want = ref[node];
        double got = res.outputs[k];
        double tol = 1e-12 * std::max(1.0, std::abs(want));
        if (std::abs(got - want) > tol) {
            dpu_panic("functional mismatch at output node " +
                      std::to_string(node) + ": simulator " +
                      std::to_string(got) + " vs reference " +
                      std::to_string(want));
        }
    }
    return res;
}

} // namespace dpu
