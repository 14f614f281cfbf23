/**
 * @file
 * Tests for the static program verifier (compiler/verify.hh): one
 * golden-diagnostic test per code over hand-corrupted programs, the
 * VerifyError contract, and a sweep asserting the verifier is clean
 * on every suite workload across arch configs and thread counts, and
 * a mutation fuzz of serialized program images.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <functional>
#include <new>
#include <type_traits>

#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "compiler/verify.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/suite.hh"

/** Bytes operator new has handed out, so a test can bound what one call
 *  allocates. The replacements below stay out of line: inlined, GCC
 *  pairs malloc with delete, or new with free, and warns of a mismatch. */
static std::atomic<uint64_t> newBytes{0};

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    newBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace dpu {
namespace {

ArchConfig
cfgOf(uint32_t depth, uint32_t banks, uint32_t regs)
{
    ArchConfig c;
    c.depth = depth;
    c.banks = banks;
    c.regsPerBank = regs;
    return c;
}

/** The hand-built test machine: one tree, one PE, two banks of two
 *  registers, two pipeline stages. Small enough that every corrupt
 *  program below is auditable by hand. */
ArchConfig
tinyCfg()
{
    return cfgOf(1, 2, 2);
}

/** One instruction of a hand-built test program. */
using Build = std::function<void(Program &)>;

/** Wrap instructions into a CompiledProgram whose CompileStats are
 *  exactly consistent, so only the deliberately planted corruption
 *  fires (and never a collateral V040). */
CompiledProgram
makeProgram(const std::vector<Build> &instrs, uint32_t num_rows = 2)
{
    CompiledProgram prog;
    prog.cfg = tinyCfg();
    prog.instructions = Program(prog.cfg);
    for (const Build &build : instrs)
        build(prog.instructions);
    prog.numRows = num_rows;
    CompileStats &s = prog.stats;
    const Program &code = prog.instructions;
    for (size_t i = 0; i < code.size(); ++i) {
        ++s.kindCount[static_cast<size_t>(code[i].kind)];
        if (code[i].kind == InstrKind::Exec)
            for (PeOp op : code.exec(i).peOp)
                if (op == PeOp::Add || op == PeOp::Mul)
                    ++s.peOpsExecuted;
    }
    s.instructions = code.size();
    s.cycles = s.instructions + prog.cfg.pipelineStages();
    s.nops = s.kindCount[static_cast<size_t>(InstrKind::Nop)];
    s.programBits = programSizeBits(prog.cfg, code);
    s.dataBits = uint64_t(prog.numRows) * prog.cfg.banks * 32;
    return prog;
}

/** Per-bank flags, bank 0 first, as a bank mask. */
uint64_t
maskOf(std::initializer_list<bool> lanes)
{
    uint64_t m = 0, bit = 1;
    for (bool on : lanes) {
        if (on)
            m |= bit;
        bit <<= 1;
    }
    return m;
}

Build
nop()
{
    return [](Program &p) { p.appendNop(); };
}

Build
load(uint32_t row, std::initializer_list<bool> enable)
{
    uint64_t m = maskOf(enable);
    return [=](Program &p) { p.appendLoad(row, m); };
}

Build
store(uint32_t row, std::initializer_list<bool> enable,
      std::vector<uint16_t> addr)
{
    uint64_t m = maskOf(enable);
    return [=](Program &p) {
        std::span<uint16_t> lanes = p.appendStore(row, m);
        std::copy(addr.begin(), addr.end(), lanes.begin());
    };
}

/** Exec on the tiny machine: one PE, selects/addresses per bank. */
Build
exec(PeOp op, std::vector<uint16_t> sel, std::vector<uint16_t> addr,
     std::initializer_list<bool> rst, std::initializer_list<bool> we)
{
    uint64_t r = maskOf(rst), w = maskOf(we);
    return [=](Program &p) {
        ExecLanes in = p.appendExec(r, w);
        in.peOp[0] = op;
        std::copy(sel.begin(), sel.end(), in.inputSel.begin());
        std::copy(addr.begin(), addr.end(), in.readAddr.begin());
    };
}

/** The only diagnostic in the report, formatted. */
std::string
soleDiagnostic(const VerifyReport &report)
{
    EXPECT_EQ(report.diagnostics.size(), 1u) << report.toString(0);
    return report.diagnostics.empty()
               ? std::string()
               : report.diagnostics.front().format();
}

// ------------------------------------------------------------------ //
// A legal baseline, then one golden test per diagnostic code.        //
// ------------------------------------------------------------------ //

/** load both banks -> exec add (frees both, writes b0) -> store. */
std::vector<Build>
legalBaseline()
{
    return {
        load(0, {true, true}),
        nop(),
        nop(),
        exec(PeOp::Add, {0, 1}, {0, 0}, {true, true}, {true, false}),
        nop(),
        nop(),
        store(1, {true, false}, {0, 0}),
    };
}

TEST(Verify, LegalProgramIsClean)
{
    VerifyReport report = verifyProgram(makeProgram(legalBaseline()));
    EXPECT_TRUE(report.clean()) << report.toString(0);
    EXPECT_EQ(report.errorCount(), 0u);
    EXPECT_EQ(report.summary(), "0 error(s), 0 warning(s)");
}

TEST(Verify, V001UseBeforeDef)
{
    // An exec reading bank 0 of a fresh machine: nothing was written.
    VerifyReport report = verifyProgram(makeProgram({
        exec(PeOp::PassA, {0, 0}, {0, 0}, {false, false},
             {false, false}),
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 0: error V001-use-before-def: read of "
              "never-written register b0@0");
}

TEST(Verify, V002ReadAfterFree)
{
    // The store is b0@0's final read; the exec reads it afterwards.
    VerifyReport report = verifyProgram(makeProgram({
        load(0, {true, false}),
        nop(),
        nop(),
        store(1, {true, false}, {0, 0}),
        exec(PeOp::PassA, {0, 0}, {0, 0}, {false, false},
             {false, false}),
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 4: error V002-read-after-free: read of freed "
              "register b0@0");
}

TEST(Verify, V003BankDoubleWrite)
{
    // Both copy_4 slots land in bank 0: two writes, one write port.
    Build copy = [](Program &p) {
        p.appendCopy4({{true, 0, 0, 0}, {true, 1, 0, 0}}, bankBit(0));
    };
    VerifyReport report = verifyProgram(makeProgram({
        load(0, {true, true}),
        nop(),
        nop(),
        copy,
        nop(),
        nop(),
        store(1, {true, true}, {0, 0}),
        store(1, {true, false}, {1, 0}),
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 3: error V003-bank-conflict: two copy_4 slots "
              "write bank 0 (one write per bank per cycle)");
}

TEST(Verify, V004RegisterFileOverflow)
{
    // Three loads into a two-register bank.
    VerifyReport report = verifyProgram(makeProgram({
        load(0, {true, false}),
        load(0, {true, false}),
        load(0, {true, false}),
        store(1, {true, false}, {0, 0}),
        store(1, {true, false}, {1, 0}),
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 2: error V004-regfile-overflow: write to full "
              "bank 0 (occupancy would exceed R=2)");
}

TEST(Verify, V005RegisterLeak)
{
    // A load whose register is never freed by a last read.
    VerifyReport report = verifyProgram(makeProgram({
        load(0, {true, false}),
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "program: error V005-register-leak: bank 0 ends with 1 "
              "register(s) still valid (never freed)");
}

TEST(Verify, V006DoubleFree)
{
    // valid_rst on bank 1, which this exec does not read.
    VerifyReport report = verifyProgram(makeProgram({
        load(0, {true, true}),
        nop(),
        nop(),
        exec(PeOp::PassA, {0, 0}, {0, 0}, {true, true},
             {false, false}),
        store(1, {false, true}, {0, 0}),
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 3: error V006-double-free: exec valid_rst on "
              "bank 1 which this exec does not read (frees nothing)");
}

TEST(Verify, V010RowOutOfBounds)
{
    VerifyReport report = verifyProgram(makeProgram({
        load(7, {false, false}),
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 0: error V010-row-out-of-bounds: load of row 7 "
              "outside the 2 data-memory rows this program uses");
}

TEST(Verify, V011IoLocationOutOfBounds)
{
    CompiledProgram prog = makeProgram(legalBaseline());
    prog.inputLocation.push_back({5, 0});
    VerifyReport report = verifyProgram(prog);
    EXPECT_EQ(soleDiagnostic(report),
              "program: error V011-io-location-out-of-bounds: input 0 "
              "at (5, 0) outside data memory (2 rows x 2 cols)");
}

TEST(Verify, V011RowsAboveDataMemIsAWarning)
{
    // Using more rows than the configured data memory is suspicious
    // (the workload will not fit on the real machine) but the program
    // itself is legal — a warning, not an error.
    CompiledProgram prog = makeProgram({}, /*num_rows=*/4097);
    VerifyReport report = verifyProgram(prog);
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.toString(0);
    EXPECT_EQ(report.diagnostics[0].severity, VerifySeverity::Warning);
    EXPECT_EQ(report.errorCount(), 0u);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.diagnostics[0].format(),
              "program: warning V011-io-location-out-of-bounds: "
              "program uses 4097 data-memory rows but the "
              "configuration provides 4096");
}

TEST(Verify, V020SelectOutOfBounds)
{
    VerifyReport report = verifyProgram(makeProgram({
        exec(PeOp::PassA, {5, 0}, {0, 0}, {false, false},
             {false, false}),
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 0: error V020-select-out-of-bounds: crossbar "
              "select 5 on port 0 of 2 banks");
}

TEST(Verify, V022MalformedInstruction)
{
    VerifyReport report = verifyProgram(makeProgram({
        load(0, {false, false, true}), // bank 2 of a two-bank machine
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 0: error V022-malformed-instruction: load enable "
              "names bank 2 of 2");
}

TEST(Verify, V022UndefinedPeOp)
{
    // Opcodes above PassB have no meaning; the simulator would panic
    // on one, so the verifier must flag it.
    std::vector<Build> instrs = legalBaseline();
    instrs[3] = exec(static_cast<PeOp>(7), {0, 1}, {0, 0}, {true, true},
                     {true, false});
    VerifyReport report = verifyProgram(makeProgram(std::move(instrs)));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 3: error V022-malformed-instruction: undefined PE "
              "op 7 on PE 0");
}

TEST(Verify, V030PipelineHazard)
{
    // The load's data is in flight for 2 cycles; the exec reads at 1.
    VerifyReport report = verifyProgram(makeProgram({
        load(0, {true, false}),
        exec(PeOp::PassA, {0, 0}, {0, 0}, {true, false},
             {false, false}),
    }));
    EXPECT_EQ(soleDiagnostic(report),
              "instr 1: error V030-pipeline-hazard: read of register "
              "b0@0 while its data is in flight until cycle 2");
}

TEST(Verify, V040StatsMismatch)
{
    CompiledProgram prog = makeProgram(legalBaseline());
    prog.stats.instructions += 1;
    VerifyReport report = verifyProgram(prog);
    EXPECT_EQ(soleDiagnostic(report),
              "program: error V040-stats-mismatch: "
              "stats.instructions claims 8 but the program has 7");
}

TEST(Verify, IllegalConfigIsASingleDiagnosticNotACrash)
{
    // A corrupt spill image can carry garbage configs; the verifier
    // must diagnose, never assert.
    CompiledProgram prog = makeProgram(legalBaseline());
    prog.cfg.banks = 3; // not a power of two
    VerifyReport report = verifyProgram(prog);
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.toString(0);
    EXPECT_EQ(report.diagnostics[0].code,
              VerifyCode::MalformedInstruction);
    EXPECT_EQ(report.diagnostics[0].instrIndex, kVerifyNoInstr);
}

TEST(Verify, OversizedRegisterFileIsAnIllegalConfig)
{
    // Diagnosed before any per-register state is allocated.
    CompiledProgram prog = makeProgram(legalBaseline());
    prog.cfg.regsPerBank = 536870976;
    VerifyReport report = verifyProgram(prog);
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.toString(0);
    EXPECT_NE(report.diagnostics[0].message.find("illegal ArchConfig"),
              std::string::npos);
}

// ------------------------------------------------------------------ //
// IR-level pass.                                                     //
// ------------------------------------------------------------------ //

/** Minimal IR: one instance in bank 0, loaded then stored. */
IrProgram
tinyIr()
{
    IrProgram ir;
    ir.instances.push_back({invalidNode, 0, static_cast<uint32_t>(-1)});
    ir.inputRows = 1;
    ir.outputRows = 1;

    IrInstr ld;
    ld.kind = InstrKind::Load;
    ld.memRow = 0;
    ld.writes.push_back({0});
    ir.instrs.push_back(ld);

    IrInstr st;
    st.kind = InstrKind::Store;
    st.memRow = 1;
    st.reads.push_back({0, true});
    ir.instrs.push_back(st);
    return ir;
}

TEST(VerifyIr, CleanWithoutHazardResolution)
{
    // Pre-reorder IR: the store reads 1 cycle after the load's write
    // (latency 2) — a hazard, but not diagnosed until resolved.
    VerifyReport report = verifyIr(tinyIr(), tinyCfg());
    EXPECT_TRUE(report.clean()) << report.toString(0);
}

TEST(VerifyIr, V030AfterHazardResolution)
{
    VerifyIrOptions opt;
    opt.hazardsResolved = true;
    VerifyReport report = verifyIr(tinyIr(), tinyCfg(), opt);
    EXPECT_EQ(soleDiagnostic(report),
              "instr 1: error V030-pipeline-hazard: read of instance "
              "#0 while its data is in flight until t=2");
}

TEST(VerifyIr, V007DoubleWrite)
{
    IrProgram ir = tinyIr();
    IrInstr ld2 = ir.instrs[0];
    ir.instrs.insert(ir.instrs.begin() + 1, ld2);
    VerifyReport report = verifyIr(ir, tinyCfg());
    EXPECT_EQ(soleDiagnostic(report),
              "instr 1: error V007-double-write: instance #0 is "
              "written twice (instances are single-assignment)");
}

TEST(VerifyIr, V021BlockOutOfBounds)
{
    IrProgram ir;
    ir.inputRows = 1;
    IrInstr ex;
    ex.kind = InstrKind::Exec;
    ex.blockId = 5;
    ex.inputSel = {0, 0};
    ir.instrs.push_back(ex);

    VerifyIrOptions opt;
    opt.numBlocks = 2;
    VerifyReport report = verifyIr(ir, tinyCfg(), opt);
    EXPECT_EQ(soleDiagnostic(report),
              "instr 0: error V021-block-out-of-bounds: exec "
              "references block 5 of 2");
}

TEST(VerifyIr, V005UnfreedInstanceLeaks)
{
    IrProgram ir = tinyIr();
    ir.instrs.pop_back(); // drop the store: never freed
    VerifyReport report = verifyIr(ir, tinyCfg());
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.toString(0);
    EXPECT_EQ(report.diagnostics[0].code, VerifyCode::RegisterLeak);
}

// ------------------------------------------------------------------ //
// Report / error plumbing.                                           //
// ------------------------------------------------------------------ //

TEST(Verify, ThrowIfVerifyErrorsContract)
{
    VerifyReport clean;
    EXPECT_NO_THROW(throwIfVerifyErrors(clean, "codegen"));

    VerifyReport warn_only;
    warn_only.diagnostics.push_back({VerifySeverity::Warning,
                                     VerifyCode::IoLocOutOfBounds,
                                     kVerifyNoInstr, "w"});
    EXPECT_NO_THROW(throwIfVerifyErrors(warn_only, "codegen"));

    VerifyReport bad;
    bad.diagnostics.push_back({VerifySeverity::Error,
                               VerifyCode::UseBeforeDef, 3, "boom"});
    try {
        throwIfVerifyErrors(bad, "schedule");
        FAIL() << "expected VerifyError";
    } catch (const VerifyError &e) {
        EXPECT_EQ(e.stage(), "schedule");
        ASSERT_EQ(e.report().diagnostics.size(), 1u);
        EXPECT_NE(std::string(e.what()).find("V001-use-before-def"),
                  std::string::npos);
    }
}

TEST(Verify, VerifyErrorIsAPanicNotAFatal)
{
    // DSE sweeps swallow FatalError as "design infeasible"; a
    // verifier failure is a compiler bug and must never be swallowed.
    static_assert(std::is_base_of_v<PanicError, VerifyError>);
    static_assert(!std::is_base_of_v<FatalError, VerifyError>);
}

TEST(Verify, CodeNamesAreStable)
{
    EXPECT_STREQ(verifyCodeName(VerifyCode::UseBeforeDef),
                 "V001-use-before-def");
    EXPECT_STREQ(verifyCodeName(VerifyCode::ReadAfterFree),
                 "V002-read-after-free");
    EXPECT_STREQ(verifyCodeName(VerifyCode::BankConflict),
                 "V003-bank-conflict");
    EXPECT_STREQ(verifyCodeName(VerifyCode::RegFileOverflow),
                 "V004-regfile-overflow");
    EXPECT_STREQ(verifyCodeName(VerifyCode::RegisterLeak),
                 "V005-register-leak");
    EXPECT_STREQ(verifyCodeName(VerifyCode::DoubleFree),
                 "V006-double-free");
    EXPECT_STREQ(verifyCodeName(VerifyCode::DoubleWrite),
                 "V007-double-write");
    EXPECT_STREQ(verifyCodeName(VerifyCode::RowOutOfBounds),
                 "V010-row-out-of-bounds");
    EXPECT_STREQ(verifyCodeName(VerifyCode::IoLocOutOfBounds),
                 "V011-io-location-out-of-bounds");
    EXPECT_STREQ(verifyCodeName(VerifyCode::SelectOutOfBounds),
                 "V020-select-out-of-bounds");
    EXPECT_STREQ(verifyCodeName(VerifyCode::BlockOutOfBounds),
                 "V021-block-out-of-bounds");
    EXPECT_STREQ(verifyCodeName(VerifyCode::MalformedInstruction),
                 "V022-malformed-instruction");
    EXPECT_STREQ(verifyCodeName(VerifyCode::PipelineHazard),
                 "V030-pipeline-hazard");
    EXPECT_STREQ(verifyCodeName(VerifyCode::StatsMismatch),
                 "V040-stats-mismatch");
}

TEST(Verify, ReportTruncatesAtTheCap)
{
    // 300 never-written reads: the cap (256) stops recording but the
    // replay (and the truncated marker) keep going.
    std::vector<Build> instrs(
        300, exec(PeOp::PassA, {0, 0}, {0, 0}, {false, false},
                  {false, false}));
    VerifyReport report = verifyProgram(makeProgram(std::move(instrs)));
    EXPECT_TRUE(report.truncated);
    EXPECT_EQ(report.diagnostics.size(), 256u);
    EXPECT_NE(report.summary().find("truncated"), std::string::npos);
}

// ------------------------------------------------------------------ //
// The whole workload suite verifies clean.                           //
// ------------------------------------------------------------------ //

TEST(VerifySweep, SuiteIsCleanAcrossConfigsAndThreads)
{
    const double scale = 0.05;
    const std::vector<ArchConfig> cfgs = {minEdpConfig(),
                                          cfgOf(2, 16, 8)};
    for (const WorkloadSpec &spec : smallSuite()) {
        for (const ArchConfig &cfg : cfgs) {
            for (uint32_t threads : {1u, 3u}) {
                CompileOptions opt;
                opt.verify = true; // throws VerifyError on any issue
                opt.threads = threads;
                opt.partitionNodes = threads > 1 ? 400 : 0;
                CompiledProgram prog =
                    compileWorkload(spec, scale, cfg, opt);
                VerifyReport report = verifyProgram(prog);
                EXPECT_EQ(report.errorCount(), 0u)
                    << spec.name << " @ " << cfg.label() << " t"
                    << threads << ": " << report.toString();
            }
        }
    }
}

// ------------------------------------------------------------------ //
// Program images are external bytes.                                 //
// ------------------------------------------------------------------ //

TEST(ProgramImage, MutatedImagesNeverPanic)
{
    // Every bit-flipped image of a real program must end as a rejected
    // image (deserializeProgram false), as verifier errors, or as a
    // clean simulation — never as an unexpected PanicError or bad_alloc
    // anywhere on the way. Every image that deserializes also gets a
    // Machine, and the two readings of it must agree: (a) a Machine
    // fault means verifier errors, and (b) an error the Machine also
    // checks means a Machine fault. The shapes span 2 to 56 PEs per
    // exec and 3 to 6 register address bits.
    struct Shape
    {
        uint32_t depth, banks, regs;
    };
    const Shape shapes[] = {{2, 8, 32}, {3, 16, 16}, {1, 4, 8},
                            {3, 64, 64}};
    const VerifyCode machine_codes[] = {
        VerifyCode::UseBeforeDef,      VerifyCode::ReadAfterFree,
        VerifyCode::RegFileOverflow,   VerifyCode::RegisterLeak,
        VerifyCode::RowOutOfBounds,    VerifyCode::IoLocOutOfBounds,
        VerifyCode::SelectOutOfBounds, VerifyCode::MalformedInstruction,
        VerifyCode::PipelineHazard};
    Rng rng(20261017);
    size_t rejected = 0, flagged = 0, ran = 0;
    for (const Shape &sh : shapes) {
        const ArchConfig cfg = cfgOf(sh.depth, sh.banks, sh.regs);
        Dag d = generateRandomDag(6, 48, 17 + sh.banks);
        const std::vector<uint8_t> image =
            serializeProgram(compile(d, cfg));
        for (int k = 0; k < 1500; ++k) {
            std::vector<uint8_t> bytes = image;
            for (uint64_t f = 1 + rng.below(4); f > 0; --f) {
                uint64_t bit = rng.below(bytes.size() * 8);
                bytes[bit / 8] ^= uint8_t(1u << (bit % 8));
            }
            SCOPED_TRACE(cfg.label() + " mutant " + std::to_string(k));
            try {
                CompiledProgram prog;
                if (!deserializeProgram(bytes, prog)) {
                    ++rejected;
                    continue;
                }
                const VerifyReport report = verifyProgram(prog);
                std::string fault;
                try {
                    Machine m(prog);
                    std::vector<double> inputs(prog.inputLocation.size(),
                                               0.5);
                    try {
                        m.run(inputs);
                    } catch (const PanicError &e) {
                        fault = e.what();
                    }
                } catch (const FatalError &e) {
                    fault = e.what();
                }
                bool machine_error = false;
                for (const Diagnostic &diag : report.diagnostics)
                    machine_error |=
                        diag.severity == VerifySeverity::Error &&
                        std::find(std::begin(machine_codes),
                                  std::end(machine_codes),
                                  diag.code) != std::end(machine_codes);
                if (!fault.empty()) {
                    EXPECT_GT(report.errorCount(), 0u) << fault;
                }
                if (machine_error) {
                    EXPECT_FALSE(fault.empty()) << report.toString();
                }
                ++(report.errorCount() > 0 ? flagged : ran);
            } catch (const std::exception &e) {
                ADD_FAILURE() << e.what();
            }
        }
    }
    // The seed reaches all three outcomes.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(flagged, 0u);
    EXPECT_GT(ran, 0u);
}

TEST(ProgramImage, HugeRowCountIsNotAllocated)
{
    // An image's row count is a raw u32. When its stats.dataBits agree,
    // the verifier reports only the V011 warning, so the Machine must
    // hold just the rows the program names, not numRows of them — also
    // when those are far from row 0.
    const ArchConfig cfg = cfgOf(2, 8, 32);
    const CompiledProgram base =
        compile(generateRandomDag(6, 48, 17 + cfg.banks), cfg);
    std::vector<double> inputs(base.inputLocation.size());
    for (size_t k = 0; k < inputs.size(); ++k)
        inputs[k] = 0.5 + double(k) / 7;
    const std::vector<double> want = Machine(base).run(inputs).outputs;
    // Round-trip `crafted` through an image and check it runs like
    // `base`; returns the bytes its Machine construction allocated.
    auto check = [&](const CompiledProgram &crafted) {
        CompiledProgram prog;
        EXPECT_TRUE(deserializeProgram(serializeProgram(crafted), prog));
        const VerifyReport report = verifyProgram(prog);
        EXPECT_EQ(report.errorCount(), 0u) << report.toString();
        const uint64_t before = newBytes;
        const Machine m(prog);
        const uint64_t bytes = newBytes - before;
        const std::vector<double> got = m.run(inputs).outputs;
        EXPECT_EQ(got.size(), want.size());
        for (size_t k = 0; k < std::min(got.size(), want.size()); ++k)
            EXPECT_EQ(std::bit_cast<uint64_t>(got[k]),
                      std::bit_cast<uint64_t>(want[k]))
                << "output " << k;
        return bytes;
    };
    // Data memory holds at most two rows of B words per input, output,
    // load and store: one indexed directly, one named past those. With
    // its bookkeeping, a crafted copy of `base` costs at most twice that
    // more, never numRows rows.
    size_t refs = base.inputLocation.size() + base.outputs.size();
    for (size_t i = 0; i < base.instructions.size(); ++i) {
        const InstrKind kind = base.instructions[i].kind;
        refs += kind >= InstrKind::Load && kind <= InstrKind::Store4;
    }
    const uint64_t bound =
        check(base) + 4 * refs * cfg.banks * sizeof(uint32_t);
    struct Case
    {
        uint32_t rows;
        bool moveRows;
    };
    for (const Case c : {Case{1u << 27, false}, Case{1u << 30, false},
                         Case{1u << 30, true}}) {
        SCOPED_TRACE(std::to_string(c.rows) +
                     (c.moveRows ? " rows, rows moved up" : " rows"));
        CompiledProgram crafted = base;
        crafted.numRows = c.rows;
        crafted.stats.dataBits = uint64_t(c.rows) * cfg.banks * 32;
        if (c.moveRows) {
            // Past the rows the Machine indexes directly; store_4 rows
            // are 16 bits.
            const uint32_t by = 1u << 15;
            for (auto &loc : crafted.inputLocation)
                loc.first += by;
            for (auto &o : crafted.outputs)
                o.row += by;
            Program &code = crafted.instructions;
            for (size_t i = 0; i < code.size(); ++i)
                if (code[i].kind >= InstrKind::Load &&
                    code[i].kind <= InstrKind::Store4)
                    code.setMemRow(i, code[i].memRow + by);
        }
        EXPECT_LE(check(crafted), bound);
    }
    // A nop is a few bits of image and names no row, so a row count of
    // twice the program's size must not cost data memory either.
    SCOPED_TRACE("nop-padded, rows = 2 x size");
    CompiledProgram padded = base;
    const uint64_t nops = 1u << 18;
    for (uint64_t k = 0; k < nops; ++k)
        padded.instructions.appendNop();
    CompileStats &s = padded.stats;
    s.kindCount[size_t(InstrKind::Nop)] += nops;
    s.nops += nops;
    s.instructions += nops;
    s.cycles += nops;
    s.programBits += nops * IsaLayout(cfg).lengthBits(InstrKind::Nop);
    padded.numRows = static_cast<uint32_t>(
        2 * (padded.inputLocation.size() + padded.outputs.size() +
             padded.instructions.size()));
    s.dataBits = uint64_t(padded.numRows) * cfg.banks * 32;
    EXPECT_LE(check(padded), bound);
}

} // namespace
} // namespace dpu
