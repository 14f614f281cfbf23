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
    uint64_t transferBytes = 0;
    /** what() of the first check the program fails; empty if none. */
    std::string fault;
};

} // namespace detail

namespace {

using detail::DecodedProgram;
using detail::ValueOp;

/** Index of the lowest set bit of m, which is cleared. */
uint32_t
takeLowest(uint64_t &m)
{
    uint32_t b = static_cast<uint32_t>(std::countr_zero(m));
    m &= m - 1;
    return b;
}

/**
 * Replays a program once, on value ids instead of values, through the
 * whole machine model: a flat register file whose valid bits are
 * 64-bit words per bank (the lowest free address is a count-trailing-
 * zeros), the cycle each register's data arrives, flat row-major data
 * memory, the live-register count and every event count. Each
 * instruction is evaluated field by field in the order the machine
 * performs it: reads, PE steps, valid_rst frees, automatic writes. It
 * reads a record's bank masks directly, visiting the banks a mask names
 * with count-trailing-zeros, and an exec's lanes in place from the
 * program's pools; a mask bit at or past B is a malformed instruction.
 * The first check that fails panics, so a program's fault is the first
 * one in that order. Every check is O(1).
 */
class Replay
{
  public:
    Replay(const CompiledProgram &prog, const SimOptions &opts,
           DecodedProgram &out)
        : prog(prog), cfg(prog.cfg), opts(opts), out(out),
          stride((cfg.regsPerBank + 63) / 64 * 64),
          padMask(cfg.regsPerBank % 64
                      ? ~uint64_t(0) << (cfg.regsPerBank % 64)
                      : 0),
          regs((size_t)cfg.banks * stride), valid(regs.size() / 64, 0),
          mem((size_t)prog.numRows * cfg.banks, 0),
          firstOpId(1 + prog.inputLocation.size()),
          inputs(peSources(cfg))
    {
        // Bits past R are permanently valid, so the lowest-free search
        // never hands them out.
        const size_t words = stride / 64;
        for (size_t w = words - 1; w < valid.size(); w += words)
            valid[w] = padMask;
        for (uint32_t b = 0; b < cfg.banks; ++b)
            writers.push_back(writingPes(cfg, b));
        IsaLayout lay(cfg);
        for (size_t k = 0; k < lengthBits.size(); ++k)
            lengthBits[k] = lay.lengthBits(static_cast<InstrKind>(k));
    }

    /** Resolve the program into `out`; panics on its first fault. */
    void
    run()
    {
        SimStats &stats = out.stats;
        if (!prog.instructions.fits(cfg))
            dpu_panic("malformed program: its lanes are not sized for " +
                      cfg.label());
        checkIdSpace();
        for (size_t k = 0; k < prog.inputLocation.size(); ++k) {
            auto [row, col] = prog.inputLocation[k];
            dpu_assert(row < prog.numRows && col < cfg.banks,
                       "input location out of range");
            mem[(size_t)row * cfg.banks + col] = static_cast<uint32_t>(k + 1);
        }
        // A zero interval would mean "sample every cycle modulo
        // nothing" — treat it as 1 instead of dividing by zero.
        stats.traceStride = opts.traceOccupancy
                                ? std::max<uint64_t>(opts.traceInterval, 1)
                                : 0;

        const Program &code = prog.instructions;
        for (now = 0; now < code.size(); ++now) {
            const Instr &in = code[now];
            size_t kind = static_cast<size_t>(in.kind);
            ++stats.kindCount[kind];
            stats.instrBitsFetched += lengthBits[kind];
            if (opts.traceOccupancy && now % stats.traceStride == 0)
                sampleOccupancy();
            switch (in.kind) {
              case InstrKind::Nop:
                break;
              case InstrKind::Load:
                load(in);
                break;
              case InstrKind::Store:
                store(in, code.readAddr(now));
                break;
              case InstrKind::Store4:
                store4(in);
                break;
              case InstrKind::Copy4:
                copy4(in);
                break;
              case InstrKind::Exec:
                exec(code.exec(now));
                break;
            }
            stats.peakLiveRegisters =
                std::max(stats.peakLiveRegisters, live);
        }

        // Let the pipeline drain.
        stats.cycles = prog.instructions.size() + cfg.pipelineStages();

        // Host↔rank transfer for one run: one dispatch moving the
        // input vector down and the output vector back. 0 under the
        // default free model.
        stats.transferCycles =
            opts.transfer.batchCycles(out.transferBytes, 1);

        // Every register must have been freed by a final read; a
        // leak means the compiler lost track of a value.
        dpu_assert(live == 0, "register leak at end");

        out.ops.resize(numOps);
        out.ops.shrink_to_fit();
        for (const auto &o : prog.outputs) {
            dpu_assert(o.row < prog.numRows && o.col < cfg.banks,
                       "output location out of range");
            out.outputs.push_back(mem[(size_t)o.row * cfg.banks + o.col]);
        }
    }

  private:
    /** Value ids are 32-bit: 0.0, the inputs, then one per add or mul. */
    void
    checkIdSpace() const
    {
        if (firstOpId + numOps - 1 > std::numeric_limits<uint32_t>::max())
            dpu_fatal("program defines more values than 32-bit value "
                      "ids can name");
    }

    [[noreturn]] void
    fail(const std::string &what)
    {
        dpu_panic(what + " (instruction " + std::to_string(now) + ")");
    }

    /** A bank mask, checked to name only banks the machine has. */
    uint64_t
    banksOf(uint64_t mask, const char *field)
    {
        if (mask & ~allBanks(cfg.banks))
            fail(std::string("malformed instruction: ") + field +
                 " names bank " +
                 std::to_string(63 - std::countl_zero(mask)) + " of " +
                 std::to_string(cfg.banks));
        return mask;
    }

    /** The ids in data-memory row r. */
    uint32_t *
    rowAt(uint32_t r, const char *what)
    {
        if (r >= prog.numRows)
            fail(what);
        return mem.data() + (size_t)r * cfg.banks;
    }

    /** Read a register, enforcing validity and pipeline timing. */
    uint32_t
    read(uint32_t bank, uint32_t addr)
    {
        if (bank >= cfg.banks || addr >= cfg.regsPerBank)
            fail("register index out of range");
        const uint32_t reg = bank * stride + addr;
        dpu_assert(valid[reg / 64] >> (reg % 64) & 1,
                   "read of invalid register");
        dpu_assert(regs[reg].arrivesAt <= now,
                   "pipeline hazard: data still in flight");
        return regs[reg].id;
    }

    /** Clear a valid bit (valid_rst semantics) of a register that was
     *  read, so in range. */
    void
    release(uint32_t bank, uint32_t addr)
    {
        const uint32_t reg = bank * stride + addr;
        uint64_t bit = uint64_t(1) << (reg % 64);
        dpu_assert(valid[reg / 64] & bit, "valid_rst of an empty register");
        valid[reg / 64] &= ~bit;
        --live;
    }

    /** Automatic write: priority-encode the lowest free address. */
    void
    write(uint32_t bank, uint32_t id, uint32_t latency)
    {
        size_t first = (size_t)bank * stride / 64;
        for (size_t w = first; w < first + stride / 64; ++w) {
            if (~valid[w] == 0)
                continue;
            uint32_t bit = std::countr_zero(~valid[w]);
            valid[w] |= uint64_t(1) << bit;
            regs[w * 64 + bit] = {id, now + latency};
            ++live;
            ++out.stats.bankWrites;
            return;
        }
        dpu_panic("write to a full register bank");
    }

    void
    load(const Instr &in)
    {
        const uint64_t enable = banksOf(in.enable, "load enable");
        const uint32_t *r = rowAt(in.memRow, "load row out of range");
        ++out.stats.memReads;
        for (uint64_t m = enable; m;) {
            uint32_t b = takeLowest(m);
            write(b, r[b], 2);
        }
    }

    void
    store(const Instr &in, std::span<const uint16_t> addr)
    {
        const uint64_t enable = banksOf(in.enable, "store enable");
        uint32_t *r = rowAt(in.memRow, "store row out of range");
        ++out.stats.memWrites;
        for (uint64_t m = enable; m;) {
            uint32_t b = takeLowest(m);
            r[b] = read(b, addr[b]);
            release(b, addr[b]); // stores are final reads
            ++out.stats.bankReads;
        }
    }

    void
    store4(const Instr &in)
    {
        uint32_t *r = rowAt(in.memRow, "store_4 row out of range");
        ++out.stats.memWrites;
        for (const Slot &s : in.slots) {
            if (!s.active)
                continue;
            r[s.bank] = read(s.bank, s.addr);
            release(s.bank, s.addr);
            ++out.stats.bankReads;
        }
    }

    void
    copy4(const Instr &in)
    {
        // Reads first, then valid_rst, then the automatic writes —
        // the issue-stage ordering contract shared with the compiler.
        const uint64_t rst = banksOf(in.validRst, "copy_4 valid_rst");
        uint32_t got[4] = {};
        for (uint32_t k = 0; k < 4; ++k) {
            const Slot &s = in.slots[k];
            if (!s.active)
                continue;
            got[k] = read(s.bank, s.addr);
            ++out.stats.bankReads;
            ++out.stats.crossbarTransfers;
        }
        // valid_rst frees the register this copy read in bank b.
        for (uint64_t m = rst; m;) {
            uint32_t b = takeLowest(m);
            for (const Slot &s : in.slots)
                if (s.active && s.bank == b)
                    release(b, s.addr);
        }
        for (uint32_t k = 0; k < 4; ++k) {
            const Slot &s = in.slots[k];
            if (!s.active)
                continue;
            if (s.dst >= cfg.banks)
                fail("copy_4 destination bank out of range");
            write(s.dst, got[k], 2);
        }
    }

    void
    exec(const ExecView &in)
    {
        const uint64_t rst = banksOf(in.validRst, "exec valid_rst");
        const uint64_t enable =
            banksOf(in.writeEnable, "exec write enable");

        // 1. Evaluate the active PEs in evaluation order (tree, then
        // layer 1..D, then index), which is ascending PE id. Only
        // ports an active PE consumes are read (an idle port's select
        // is a don't-care and may point at garbage). A read changes no
        // state, so a bank feeding several ports is simply read again.
        const uint32_t B = cfg.banks;
        uint64_t active = 0;
        for (uint32_t pe = 0; pe < in.peOp.size(); ++pe)
            active |= uint64_t(in.peOp[pe] != PeOp::Nop) << pe;
        uint64_t banks_read = 0, transfers = 0;
        auto source = [&](uint32_t pe, uint32_t side) {
            const uint32_t from = inputs[pe].src[side];
            if (!inputs[pe].leaf) {
                if (!(active >> from & 1))
                    fail("active PE fed by idle child");
                return peOut[from];
            }
            const uint32_t bank = in.inputSel[from];
            if (bank >= B)
                fail("bad crossbar select");
            banks_read |= bankBit(bank);
            ++transfers;
            return read(bank, in.readAddr[bank]);
        };
        // Room for one op per PE (at most 63) past the ops so far.
        if (out.ops.size() < numOps + 64)
            out.ops.resize(2 * (numOps + 64));
        const uint64_t ops_before = numOps;
        for (uint64_t m = active; m;) {
            uint32_t pe = takeLowest(m);
            PeOp op = in.peOp[pe];
            if (op > PeOp::PassB)
                fail("malformed instruction: unknown PE op");
            // The inputs the op consumes: both, or the one it forwards.
            const uint32_t a = op != PeOp::PassB ? source(pe, 0) : 0;
            const uint32_t b = op != PeOp::PassA ? source(pe, 1) : 0;
            // Select instead of branching: a pass-through forwards an
            // id, an add or mul takes the next one. The op slot is
            // written either way and kept only for an add or mul.
            out.ops[numOps] = {a, b, op == PeOp::Mul};
            const auto id = static_cast<uint32_t>(firstOpId + numOps);
            peOut[pe] = op == PeOp::PassA   ? a
                        : op == PeOp::PassB ? b
                                            : id;
            numOps += op < PeOp::PassA;
        }
        checkIdSpace();
        const uint64_t ops = numOps - ops_before;
        SimStats &stats = out.stats;
        stats.bankReads += std::popcount(banks_read);
        stats.crossbarTransfers += transfers;
        stats.peOperations += ops;
        stats.pePassThroughs += std::popcount(active) - ops;

        // 2. valid_rst lanes free the registers read this cycle.
        for (uint64_t m = rst; m;) {
            uint32_t b = takeLowest(m);
            if (!(banks_read >> b & 1))
                fail("valid_rst on a bank this exec did not read");
            release(b, in.readAddr[b]);
        }

        // 3. Output interconnect: one write per enabled bank, from
        // the PE the bank's output mux selects.
        for (uint64_t m = enable; m;) {
            uint32_t b = takeLowest(m);
            if (in.outputSel[b] >= writers[b].size())
                fail("output mux select out of range");
            uint32_t pe = writers[b][in.outputSel[b]];
            if (!(active >> pe & 1))
                fail("store-back from an idle PE");
            write(b, peOut[pe], cfg.pipelineStages());
        }
    }

    void
    sampleOccupancy()
    {
        SimStats &stats = out.stats;
        std::vector<uint32_t> row(cfg.banks);
        const size_t words = stride / 64;
        const uint32_t pad = std::popcount(padMask);
        for (uint32_t b = 0; b < cfg.banks; ++b) {
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
        uint32_t id = 0;
        uint64_t arrivesAt = 0; ///< First cycle the data may be read.
    };

    const CompiledProgram &prog;
    const ArchConfig &cfg;
    const SimOptions &opts;
    DecodedProgram &out;
    std::vector<std::vector<uint32_t>> writers; ///< writingPes per bank
    std::array<uint32_t, 6> lengthBits{};       ///< per InstrKind

    const uint32_t stride; ///< registers per bank, R rounded up to 64
    const uint64_t padMask; ///< bits past R in a bank's last valid word
    std::vector<Reg> regs;       ///< bank-major, B x stride
    std::vector<uint64_t> valid; ///< one bit per entry of regs
    std::vector<uint32_t> mem;   ///< row-major, numRows x B
    uint64_t live = 0;           ///< valid registers across all banks
    /** Exec scratch: the id each PE outputs (B <= 64, so < 64 PEs). */
    std::array<uint32_t, 64> peOut{};
    const uint64_t firstOpId; ///< 1 + inputs: 0.0 and the inputs first
    const std::vector<PeSources> inputs; ///< per PE
    uint64_t numOps = 0;      ///< ops[0, numOps) are resolved
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
{
    program.cfg.check();
    auto p = std::make_shared<DecodedProgram>();
    p->numInputs = program.inputLocation.size();
    p->transferBytes = hostTransferBytes(program);
    try {
        Replay(program, options, *p).run();
    } catch (const PanicError &e) {
        // The fault belongs to the program: every run raises it.
        p->fault = e.what();
        p->ops = {};
    }
    code = std::move(p);
}

SimResult
Machine::run(const std::vector<double> &input_values) const
{
    const DecodedProgram &p = *code;
    dpu_assert(input_values.size() == p.numInputs,
               "wrong number of input values");
    if (!p.fault.empty())
        throw PanicError(p.fault);

    auto v = std::make_unique_for_overwrite<double[]>(
        1 + p.numInputs + p.ops.size());
    v[0] = 0.0;
    std::copy(input_values.begin(), input_values.end(), &v[1]);
    double *next = &v[1 + p.numInputs];
    for (const ValueOp &op : p.ops) {
        // Select the result instead of branching on the op: the
        // add/mul pattern has no regularity a branch predictor learns.
        const double a = v[op.a], b = v[op.b];
        const double result[2] = {a + b, a * b};
        *next++ = result[op.mul];
    }

    SimResult res;
    res.outputs.reserve(p.outputs.size());
    for (uint32_t id : p.outputs)
        res.outputs.push_back(v[id]);
    res.stats = p.stats;
    return res;
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
