#include "sim/replay.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <string_view>

#include "arch/interconnect.hh"
#include "support/logging.hh"

namespace dpu::detail {

namespace {

/** Diagnostics a CollectFaults report records before truncating. */
constexpr size_t kMaxDiagnostics = 256;

/** Index of the lowest set bit of m, which is cleared. */
uint32_t
takeLowest(uint64_t &m)
{
    uint32_t b = static_cast<uint32_t>(std::countr_zero(m));
    m &= m - 1;
    return b;
}

template <class P>
class Replay
{
    static constexpr bool kFirstFault = P::firstFault;

  public:
    Replay(const CompiledProgram &prog, P policy)
        : prog(prog), code(prog.instructions), cfg(prog.cfg),
          policy(policy), stride((cfg.regsPerBank + 63) / 64 * 64),
          padMask(cfg.regsPerBank % 64
                      ? ~uint64_t(0) << (cfg.regsPerBank % 64)
                      : 0),
          regs(size_t(cfg.banks) * stride), valid(regs.size() / 64, 0),
          everFreed(kFirstFault ? 0 : valid.size(), 0),
          inputs(peSources(cfg)), firstOpId(1 + prog.inputLocation.size())
    {
        // Bits past R are permanently valid, so the lowest-free search
        // never hands them out.
        const size_t words = stride / 64;
        for (size_t w = words - 1; w < valid.size(); w += words)
            valid[w] = padMask;
        for (uint32_t b = 0; b < cfg.banks; ++b)
            writers.push_back(writingPes(cfg, b));
        const IsaLayout layout(cfg);
        for (size_t k = 0; k < lengthBits.size(); ++k)
            lengthBits[k] = layout.lengthBits(static_cast<InstrKind>(k));
    }

    void
    run()
    {
        if (!code.fits(cfg)) {
            fault(VerifyCode::MalformedInstruction,
                  "malformed program: its lanes are not sized for " +
                      cfg.label(),
                  "instruction lanes are not sized for ", cfg.label());
            return;
        }
        if constexpr (kFirstFault) {
            nameRows();
            checkIdSpace();
            // A zero interval is taken as 1, not divided by.
            const SimOptions &opts = policy.options;
            stats.traceStride = opts.traceOccupancy
                                    ? std::max(opts.traceInterval, 1u)
                                    : 0;
        }
        ioLayout();
        for (at = 0; at < code.size(); ++at)
            step(at);
        at = kVerifyNoInstr;
        // Let the pipeline drain.
        stats.cycles = code.size() + cfg.pipelineStages();
        for (uint32_t b = 0; b < cfg.banks; ++b)
            if (const uint32_t n = occupancy(b))
                fault(VerifyCode::RegisterLeak, "register leak at end",
                      "bank ", b, " ends with ", n,
                      " register(s) still valid (never freed)");
        if constexpr (kFirstFault)
            finish();
        else
            crossCheckStats();
    }

  private:
    /** A failed check at instruction `at` (kVerifyNoInstr: the program).
     *  First fault throws the `machine` text; collect records `which`
     *  with the `diag` parts concatenated, and the caller goes on. */
    template <class... Parts>
    void
    fault(VerifyCode which, std::string_view machine,
          [[maybe_unused]] const Parts &...diag)
    {
        if constexpr (kFirstFault)
            panic(machine);
        else
            lint(which, diag...);
    }

    /** Collect: a diagnostic. Alone, a check the Machine skips (lint). */
    template <class... Parts>
    [[gnu::cold, gnu::noinline]] void
    lint(VerifyCode which, [[maybe_unused]] const Parts &...diag)
    {
        if constexpr (!kFirstFault)
            policy.add(which, at, cat(diag...));
    }

    /** First fault: the failed check's Machine text, as a PanicError. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    panic(std::string_view machine) const
    {
        dpu_panic(at == kVerifyNoInstr
                      ? std::string(machine)
                      : cat(machine, " (instruction ", at, ")"));
    }

    /** First fault: data memory. The first min(numRows, inputs +
     *  outputs) rows, which hold every row of a compiled program, are
     *  indexed directly. A row past them that the program names (an I/O
     *  location or an in-range load/store row) is held after them, found
     *  by binary search. So data memory is at most two rows per input,
     *  output, load or store, however many rows an image claims. */
    void
    nameRows()
    {
        window = std::min<uint64_t>(
            prog.numRows, prog.inputLocation.size() + prog.outputs.size());
        auto name = [&](uint32_t row) {
            if (row >= window && row < prog.numRows)
                pastWindow.push_back(row);
        };
        if (window < prog.numRows) { // else no row is past the window
            for (const auto &loc : prog.inputLocation)
                name(loc.first);
            for (const auto &o : prog.outputs)
                name(o.row);
            for (const Instr &in : code)
                if (in.kind >= InstrKind::Load &&
                    in.kind <= InstrKind::Store4)
                    name(in.memRow);
            std::ranges::sort(pastWindow);
            const auto dups = std::ranges::unique(pastWindow);
            pastWindow.erase(dups.begin(), dups.end());
        }
        mem.assign((window + pastWindow.size()) * cfg.banks, 0);
    }

    /** First fault: the value ids of a row below numRows. */
    uint32_t *
    rowAt(uint32_t row)
    {
        if (row < window)
            return mem.data() + size_t(row) * cfg.banks;
        const auto past = std::ranges::lower_bound(pastWindow, row);
        return mem.data() +
               (window + (past - pastWindow.begin())) * cfg.banks;
    }

    /** The row a `what` ("load", "store", "store_4") addresses: its
     *  value ids under first fault, null under collect. */
    uint32_t *
    memRow(uint32_t row, const char *what)
    {
        if (row >= prog.numRows) {
            fault(VerifyCode::RowOutOfBounds,
                  cat(what, " row out of range"), what, " of row ",
                  row, " outside the ", prog.numRows,
                  " data-memory rows this program uses");
            return nullptr;
        }
        return kFirstFault ? rowAt(row) : nullptr;
    }

    void
    ioLayout()
    {
        const uint32_t rows_n = prog.numRows, B = cfg.banks;
        auto outside = [&](const char *what, size_t k, uint32_t row,
                           uint32_t col) {
            fault(VerifyCode::IoLocOutOfBounds,
                  cat(what, " location out of range"), what, " ", k, " at (",
                  row, ", ", col, ") outside data memory (", rows_n,
                  " rows x ", B, " cols)");
        };
        for (size_t k = 0; k < prog.inputLocation.size(); ++k) {
            const auto [row, col] = prog.inputLocation[k];
            if (row >= rows_n || col >= B)
                outside("input", k, row, col);
            else if constexpr (kFirstFault)
                rowAt(row)[col] = static_cast<uint32_t>(k + 1);
        }
        for (size_t k = 0; k < prog.outputs.size(); ++k) {
            const auto &o = prog.outputs[k];
            if (o.row >= rows_n || o.col >= B)
                outside("output", k, o.row, o.col);
        }
        if constexpr (!kFirstFault)
            if (rows_n > cfg.dataMemRows)
                policy.add(VerifyCode::IoLocOutOfBounds, at,
                           cat("program uses ", rows_n,
                               " data-memory rows but the configuration "
                               "provides ", cfg.dataMemRows),
                           VerifySeverity::Warning);
    }

    /** Read a register, checking its range, validity and pipeline
     *  timing; its value id under first fault. */
    uint32_t
    read(uint32_t bank, uint32_t addr)
    {
        if (bank >= cfg.banks || addr >= cfg.regsPerBank) {
            fault(VerifyCode::SelectOutOfBounds,
                  "register index out of range", "read of register b", bank,
                  "@", addr, " outside the ", cfg.banks, "x",
                  cfg.regsPerBank, " register file");
            return 0;
        }
        const size_t reg = size_t(bank) * stride + addr;
        if (!(valid[reg / 64] >> (reg % 64) & 1)) {
            const bool freed =
                !kFirstFault && (everFreed[reg / 64] >> (reg % 64) & 1);
            fault(freed ? VerifyCode::ReadAfterFree : VerifyCode::UseBeforeDef,
                  "read of invalid register", "read of ",
                  freed ? "freed" : "never-written", " register b", bank, "@",
                  addr);
            return 0;
        }
        if (regs[reg].arrivesAt > at)
            fault(VerifyCode::PipelineHazard,
                  "pipeline hazard: data still in flight",
                  "read of register b", bank, "@", addr,
                  " while its data is in flight until cycle ",
                  regs[reg].arrivesAt);
        return regs[reg].id;
    }

    /** valid_rst: free a register this instruction read. */
    void
    release(uint32_t bank, uint32_t addr)
    {
        if (!kFirstFault && (bank >= cfg.banks || addr >= cfg.regsPerBank))
            return; // read() faulted on the range (first fault: threw)
        const size_t reg = size_t(bank) * stride + addr;
        const uint64_t bit = uint64_t(1) << (reg % 64);
        if (!(valid[reg / 64] & bit)) {
            fault(VerifyCode::DoubleFree, "valid_rst of an empty register",
                  "valid_rst of empty register b", bank, "@", addr);
            return;
        }
        valid[reg / 64] &= ~bit;
        if constexpr (!kFirstFault)
            everFreed[reg / 64] |= bit;
        --live;
    }

    /** Automatic write: the lowest free address of `bank` takes `id`,
     *  readable `latency` cycles from now. */
    void
    write(uint32_t bank, uint32_t id, uint32_t latency)
    {
        const size_t first = size_t(bank) * stride / 64;
        for (size_t w = first; w < first + stride / 64; ++w) {
            if (~valid[w] == 0)
                continue;
            const uint32_t bit = std::countr_zero(~valid[w]);
            valid[w] |= uint64_t(1) << bit;
            regs[w * 64 + bit] = {id, at + latency};
            ++live;
            ++stats.bankWrites;
            return;
        }
        fault(VerifyCode::RegFileOverflow, "write to a full register bank",
              "write to full bank ", bank, " (occupancy would exceed R=",
              cfg.regsPerBank, ")");
    }

    /** Valid registers of one bank. */
    uint32_t
    occupancy(uint32_t bank) const
    {
        const size_t words = stride / 64;
        uint32_t n = 0;
        for (size_t w = bank * words; w < (bank + 1) * words; ++w)
            n += std::popcount(valid[w]);
        return n - std::popcount(padMask);
    }

    /** A bank mask names only banks the machine has; false skips the
     *  instruction. */
    bool
    inBanks(uint64_t mask, const char *field)
    {
        if (!(mask & ~allBanks(cfg.banks)))
            return true;
        const std::string names =
            cat(field, " names bank ", 63 - std::countl_zero(mask), " of ",
                cfg.banks);
        fault(VerifyCode::MalformedInstruction,
              "malformed instruction: " + names, names);
        return false;
    }

    /** V003 lint: `bank` is in `seen` already; adds it. */
    template <class... Parts>
    void
    conflict(uint64_t &seen, uint32_t bank, const Parts &...diag)
    {
        if (kFirstFault || bank >= cfg.banks)
            return; // read() faults on the range
        if (seen & bankBit(bank))
            lint(VerifyCode::BankConflict, diag...);
        seen |= bankBit(bank);
    }

    void
    step(size_t i)
    {
        const Instr &in = code[i];
        const size_t kind = static_cast<size_t>(in.kind);
        ++stats.kindCount[kind];
        stats.instrBitsFetched += lengthBits[kind];
        if constexpr (kFirstFault) {
            if (policy.options.traceOccupancy &&
                at % stats.traceStride == 0)
                sampleOccupancy();
        }
        switch (in.kind) {
          case InstrKind::Nop:
            break;
          case InstrKind::Load:
            load(in);
            break;
          case InstrKind::Store:
            store(in, code.readAddr(i));
            break;
          case InstrKind::Store4:
            store4(in);
            break;
          case InstrKind::Copy4:
            copy4(in);
            break;
          case InstrKind::Exec:
            exec(code.exec(i));
            break;
        }
        stats.peakLiveRegisters = std::max(stats.peakLiveRegisters, live);
    }

    void
    load(const Instr &in)
    {
        if (!inBanks(in.enable, "load enable"))
            return;
        const uint32_t *r = memRow(in.memRow, "load");
        ++stats.memReads;
        for (uint64_t m = in.enable; m;) {
            const uint32_t b = takeLowest(m);
            write(b, kFirstFault ? r[b] : 0, 2);
        }
    }

    /** A store's final read of a register into its lane of row r. */
    void
    storeLane(uint32_t *r, uint32_t bank, uint32_t addr)
    {
        const uint32_t id = read(bank, addr);
        if constexpr (kFirstFault)
            r[bank] = id;
        release(bank, addr);
        ++stats.bankReads;
    }

    void
    store(const Instr &in, std::span<const uint16_t> addr)
    {
        if (!inBanks(in.enable, "store enable"))
            return;
        uint32_t *r = memRow(in.memRow, "store");
        ++stats.memWrites;
        for (uint64_t m = in.enable; m;) {
            const uint32_t b = takeLowest(m);
            storeLane(r, b, addr[b]);
        }
    }

    void
    store4(const Instr &in)
    {
        uint32_t *r = memRow(in.memRow, "store_4");
        ++stats.memWrites;
        uint64_t ports = 0;
        for (const Slot &s : in.slots) {
            if (s.active) {
                conflict(ports, s.bank, "two store_4 slots read bank ",
                         s.bank, " (one read port per bank)");
                storeLane(r, s.bank, s.addr);
            }
        }
    }

    void
    copy4(const Instr &in)
    {
        if (!inBanks(in.validRst, "copy_4 valid_rst"))
            return;
        // Reads first, then valid_rst, then the automatic writes —
        // the issue-stage ordering contract shared with the compiler.
        uint32_t got[4] = {};
        uint64_t ports = 0; // banks the slots read (collect only)
        for (uint32_t k = 0; k < 4; ++k) {
            const Slot &s = in.slots[k];
            if (!s.active)
                continue;
            conflict(ports, s.bank, "two copy_4 slots read bank ", s.bank,
                     " (one read port per bank)");
            got[k] = read(s.bank, s.addr);
            ++stats.bankReads;
            ++stats.crossbarTransfers;
        }
        // valid_rst frees the register each slot read in bank b.
        for (uint64_t m = in.validRst; m;) {
            const uint32_t b = takeLowest(m);
            for (const Slot &s : in.slots)
                if (s.active && s.bank == b)
                    release(b, s.addr);
            if (!kFirstFault && !(ports & bankBit(b)))
                lint(VerifyCode::DoubleFree, "copy_4 valid_rst on bank ", b,
                     " which no slot reads (frees nothing)");
        }
        uint64_t written = 0;
        for (uint32_t k = 0; k < 4; ++k) {
            const Slot &s = in.slots[k];
            if (!s.active)
                continue;
            if (s.dst >= cfg.banks) {
                fault(VerifyCode::SelectOutOfBounds,
                      "copy_4 destination bank out of range",
                      "copy_4 destination bank ", s.dst, " of ", cfg.banks);
                continue;
            }
            conflict(written, s.dst, "two copy_4 slots write bank ", s.dst,
                     " (one write per bank per cycle)");
            write(s.dst, got[k], 2);
        }
    }

    void
    exec(const ExecView &in)
    {
        if (!inBanks(in.validRst, "exec valid_rst") ||
            !inBanks(in.writeEnable, "exec write enable"))
            return;

        // 1. Evaluate the active PEs in evaluation order (tree, layer
        // 1..D, index), which is ascending PE id. Only ports an active
        // PE consumes are read (an idle port's select is a don't-care).
        // A bank feeding several ports is checked once: a read changes
        // no state.
        const uint32_t B = cfg.banks;
        uint64_t active = 0;
        for (uint32_t pe = 0; pe < in.peOp.size(); ++pe)
            active |= uint64_t(in.peOp[pe] != PeOp::Nop) << pe;
        uint64_t banks_read = 0, transfers = 0;
        auto source = [&](uint32_t pe, uint32_t side) -> uint32_t {
            const uint32_t from = inputs[pe].src[side];
            if (!inputs[pe].leaf) {
                if (!(active >> from & 1))
                    fault(VerifyCode::MalformedInstruction,
                          "active PE fed by idle child", "active PE ", pe,
                          " is fed by idle PE ", from);
                return peOut[from];
            }
            const uint32_t bank = in.inputSel[from];
            if (bank >= B) {
                fault(VerifyCode::SelectOutOfBounds, "bad crossbar select",
                      "crossbar select ", bank, " on port ", from, " of ",
                      B, " banks");
                return 0;
            }
            ++transfers;
            const uint32_t addr = in.readAddr[bank];
            if (!(banks_read & bankBit(bank))) {
                banks_read |= bankBit(bank);
                return read(bank, addr);
            }
            return kFirstFault ? regs[size_t(bank) * stride + addr].id : 0;
        };
        if constexpr (kFirstFault) // room for one op per PE (< 64)
            if (policy.out.ops.size() < numOps + 64)
                policy.out.ops.resize(2 * (numOps + 64));
        const uint64_t ops_before = numOps;
        for (uint64_t m = active; m;) {
            const uint32_t pe = takeLowest(m);
            const PeOp op = in.peOp[pe];
            if (op > PeOp::PassB)
                fault(VerifyCode::MalformedInstruction,
                      "malformed instruction: unknown PE op",
                      "undefined PE op ", unsigned(op), " on PE ", pe);
            // The inputs the op consumes: both, or the one it forwards.
            const uint32_t a = op != PeOp::PassB ? source(pe, 0) : 0;
            const uint32_t b = op != PeOp::PassA ? source(pe, 1) : 0;
            if constexpr (kFirstFault) {
                // Select instead of branching: a pass-through forwards
                // an id, an add or mul takes the next one. The op slot
                // is written either way and kept only for an add or mul.
                policy.out.ops[numOps] = {a, b, op == PeOp::Mul};
                const auto id = static_cast<uint32_t>(firstOpId + numOps);
                peOut[pe] = op == PeOp::PassA   ? a
                            : op == PeOp::PassB ? b
                                                : id;
            }
            numOps += op < PeOp::PassA;
        }
        if constexpr (kFirstFault)
            checkIdSpace();
        const uint64_t ops = numOps - ops_before;
        stats.bankReads += std::popcount(banks_read);
        stats.crossbarTransfers += transfers;
        stats.peOperations += ops;
        stats.pePassThroughs += std::popcount(active) - ops;

        // 2. valid_rst lanes free the registers read this cycle.
        for (uint64_t m = in.validRst; m;) {
            const uint32_t b = takeLowest(m);
            if (banks_read >> b & 1)
                release(b, in.readAddr[b]);
            else
                fault(VerifyCode::DoubleFree,
                      "valid_rst on a bank this exec did not read",
                      "exec valid_rst on bank ", b,
                      " which this exec does not read (frees nothing)");
        }

        // 3. Output interconnect: one write per enabled bank, from
        // the PE the bank's output mux selects.
        for (uint64_t m = in.writeEnable; m;) {
            const uint32_t b = takeLowest(m);
            if (in.outputSel[b] >= writers[b].size()) {
                fault(VerifyCode::SelectOutOfBounds,
                      "output mux select out of range", "output mux select ",
                      in.outputSel[b], " on bank ", b, " of ",
                      writers[b].size(), " writer PEs");
                continue;
            }
            const uint32_t pe = writers[b][in.outputSel[b]];
            if (!(active >> pe & 1))
                fault(VerifyCode::MalformedInstruction,
                      "store-back from an idle PE", "bank ", b,
                      " stores back from idle PE ", pe);
            write(b, peOut[pe], cfg.pipelineStages());
        }
    }

    /** V040: the program's CompileStats against the walk's counts. */
    void
    crossCheckStats()
    {
        const CompileStats &s = prog.stats;
        auto check = [&](std::string_view what, uint64_t want,
                         uint64_t got) {
            if (want != got)
                lint(VerifyCode::StatsMismatch, "stats.", what, " claims ",
                     got, " but the program has ", want);
        };
        for (size_t k = 0; k < s.kindCount.size(); ++k)
            if (stats.kindCount[k] != s.kindCount[k])
                check(cat("kindCount[", kindName(InstrKind(k)), "]"),
                      stats.kindCount[k], s.kindCount[k]);
        check("instructions", code.size(), s.instructions);
        check("cycles", stats.cycles, s.cycles);
        check("nops", stats.kindCount[size_t(InstrKind::Nop)], s.nops);
        check("peOpsExecuted", stats.peOperations, s.peOpsExecuted);
        check("programBits", stats.instrBitsFetched, s.programBits);
        check("dataBits", uint64_t(prog.numRows) * cfg.banks * 32,
              s.dataBits);
    }

    /** First fault: hand the value-id program to the Machine. */
    void
    finish()
    {
        DecodedProgram &out = policy.out;
        out.ops.resize(numOps);
        out.ops.shrink_to_fit();
        for (const auto &o : prog.outputs)
            out.outputs.push_back(rowAt(o.row)[o.col]);
        out.stats = std::move(stats);
    }

    /** Value ids are 32-bit: 0.0, the inputs, then one per add or mul. */
    void
    checkIdSpace() const
    {
        if (firstOpId + numOps - 1 > std::numeric_limits<uint32_t>::max())
            dpu_fatal("program defines more values than 32-bit value "
                      "ids can name");
    }

    void
    sampleOccupancy()
    {
        auto &trace = stats.occupancyTrace;
        trace.emplace_back(cfg.banks);
        for (uint32_t b = 0; b < cfg.banks; ++b)
            trace.back()[b] = occupancy(b);
        const uint32_t cap = policy.options.maxTraceSamples;
        if (cap && trace.size() >= cap) {
            // Stride-doubling decimation: drop the odd-index rows and
            // sample half as often, so a run of any length keeps a
            // whole-run trace within the bound.
            for (size_t i = 1; 2 * i < trace.size(); ++i)
                trace[i] = std::move(trace[2 * i]);
            trace.resize((trace.size() + 1) / 2);
            stats.traceStride *= 2;
        }
    }

    /** One register's payload; its valid bit lives in `valid`. */
    struct Reg
    {
        uint32_t id = 0;        ///< value id (first fault)
        uint64_t arrivesAt = 0; ///< First cycle the data may be read.
    };

    const CompiledProgram &prog;
    const Program &code;
    const ArchConfig &cfg;
    P policy;
    SimStats stats;
    std::vector<std::vector<uint32_t>> writers; ///< writingPes per bank
    std::array<uint32_t, 6> lengthBits{};       ///< per InstrKind

    const uint32_t stride; ///< registers per bank, R rounded up to 64
    const uint64_t padMask; ///< bits past R in a bank's last valid word
    std::vector<Reg> regs;       ///< bank-major, B x stride
    std::vector<uint64_t> valid; ///< one bit per entry of regs
    /** Collect: registers ever freed, telling V002 from V001. */
    std::vector<uint64_t> everFreed;
    uint64_t live = 0; ///< valid registers across all banks
    const std::vector<PeSources> inputs; ///< per PE
    uint64_t at = kVerifyNoInstr;        ///< the instruction being replayed

    // First fault only.
    uint64_t window = 0; ///< rows indexed directly
    /** The rows past the window the program names, ascending. */
    std::vector<uint32_t> pastWindow;
    std::vector<uint32_t> mem; ///< value ids, B per held row
    /** Exec scratch: the id each PE outputs (B <= 64, so < 64 PEs). */
    std::array<uint32_t, 64> peOut{};
    const uint64_t firstOpId; ///< 1 + inputs: 0.0 and the inputs first
    uint64_t numOps = 0;      ///< adds and muls so far
};

} // namespace

void
CollectFaults::add(VerifyCode code, uint64_t instr, std::string message,
                   VerifySeverity severity)
{
    if (report.diagnostics.size() >= kMaxDiagnostics) {
        report.truncated = true;
        return;
    }
    report.diagnostics.push_back({severity, code, instr, std::move(message)});
}

template <class Policy>
void
replaySchedule(const CompiledProgram &prog, Policy policy)
{
    if constexpr (!Policy::firstFault) {
        // A corrupt image can carry an impossible ArchConfig; without a
        // valid one none of the derived parameters mean anything.
        try {
            prog.cfg.check();
        } catch (const std::exception &e) {
            policy.add(VerifyCode::MalformedInstruction, kVerifyNoInstr,
                       std::string("illegal ArchConfig: ") + e.what());
            return;
        }
    }
    Replay<Policy>(prog, policy).run();
}

template void replaySchedule(const CompiledProgram &, CollectFaults);
template void replaySchedule(const CompiledProgram &, FirstFault);

} // namespace dpu::detail
