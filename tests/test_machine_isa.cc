/**
 * @file
 * Machine-level ISA semantics tests: hand-crafted programs executed
 * on the simulator, independent of the compiler. These pin down the
 * architecture contract — automatic write addressing, valid_rst,
 * pass-through routing, pipeline timing, and the panics that guard
 * them.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>

#include "compiler/program.hh"
#include "compiler/verify.hh"
#include "sim/machine.hh"

namespace dpu {
namespace {

/** A D=1, B=2, R=4 machine: one tree of one PE, two banks. */
ArchConfig
tinyCfg()
{
    ArchConfig c;
    c.depth = 1;
    c.banks = 2;
    c.regsPerBank = 4;
    c.check();
    return c;
}

void
load(Program &p, uint32_t row, std::initializer_list<uint32_t> banks)
{
    uint64_t enable = 0;
    for (uint32_t k : banks)
        enable |= bankBit(k);
    p.appendLoad(row, enable);
}

void
store(Program &p, uint32_t row, uint32_t bank, uint32_t addr)
{
    p.appendStore(row, bankBit(bank))[bank] = static_cast<uint16_t>(addr);
}

/** Single-PE exec: out = a(bank0@addr0) op b(bank1@addr1) -> bank. */
ExecLanes
exec1(Program &p, PeOp op, uint32_t addr0, uint32_t addr1,
      uint32_t dst_bank, bool rst0 = false, bool rst1 = false)
{
    ExecLanes e = p.appendExec();
    e.peOp[0] = op;
    e.inputSel[0] = 0;
    e.inputSel[1] = 1;
    e.readAddr[0] = static_cast<uint16_t>(addr0);
    e.readAddr[1] = static_cast<uint16_t>(addr1);
    e.validRst = (rst0 ? bankBit(0) : 0) | (rst1 ? bankBit(1) : 0);
    e.writeEnable = bankBit(dst_bank);
    return e;
}

/** A program of `cfg` built by `build`. */
template <class F>
Program
programOf(const ArchConfig &cfg, F build)
{
    Program p(cfg);
    build(p);
    return p;
}

/** Wrap raw instructions into a runnable program. */
CompiledProgram
makeProgram(const ArchConfig &cfg, Program instrs,
            std::vector<std::pair<uint32_t, uint32_t>> inputs,
            std::vector<CompiledProgram::OutputLoc> outputs,
            uint32_t rows)
{
    CompiledProgram p;
    p.cfg = cfg;
    p.instructions = std::move(instrs);
    p.numRows = rows;
    p.inputLocation = std::move(inputs);
    p.outputs = std::move(outputs);
    return p;
}

/**
 * Run `p` and require a PanicError whose message contains `what`.
 * Matching the message (not just the type) keeps each check from
 * silently turning into a different one.
 */
void
expectPanic(const CompiledProgram &p, const std::vector<double> &in,
            const std::string &what)
{
    try {
        Machine(p).run(in);
        ADD_FAILURE() << "expected a panic containing \"" << what << "\"";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << "panic was: " << e.what();
    }
}

/** An exec with every PE idle and nothing read, freed or written. */
ExecLanes
idleExec(Program &p)
{
    return p.appendExec();
}

/** A D=2, B=4, R=4 machine: one tree of three PEs. */
ArchConfig
deepCfg()
{
    ArchConfig c;
    c.depth = 2;
    c.banks = 4;
    c.regsPerBank = 4;
    c.check();
    return c;
}

TEST(MachineIsa, LoadStoreRoundTrip)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0}); // mem[0][0] -> bank0@0
    prog.appendNop();
    store(prog, 1, 0, 0); // bank0@0 -> mem[1][0]
    auto p = makeProgram(c, prog, {{0, 0}}, {{0, 1, 0}}, 2);
    auto res = Machine(p).run({42.5});
    EXPECT_DOUBLE_EQ(res.outputs[0], 42.5);
}

TEST(MachineIsa, AutoWriteTakesLowestFreeAddress)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0}); // -> bank0@0
    load(prog, 1, {0}); // -> bank0@1
    load(prog, 2, {0}); // -> bank0@2
    prog.appendNop();
    // Read them back at the addresses the priority encoder chose.
    store(prog, 3, 0, 1);
    store(prog, 4, 0, 0);
    store(prog, 5, 0, 2);
    auto p = makeProgram(c, prog, {{0, 0}, {1, 0}, {2, 0}},
                         {{0, 3, 0}, {1, 4, 0}, {2, 5, 0}}, 6);
    auto res = Machine(p).run({10, 20, 30});
    EXPECT_DOUBLE_EQ(res.outputs[0], 20); // row3 = @1 = 2nd load
    EXPECT_DOUBLE_EQ(res.outputs[1], 10);
    EXPECT_DOUBLE_EQ(res.outputs[2], 30);
}

TEST(MachineIsa, ValidRstFreesForReuse)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0});   // v1 -> bank0@0
    prog.appendNop();
    store(prog, 2, 0, 0); // store frees @0
    load(prog, 1, {0});   // v2 -> bank0@0 again
    prog.appendNop();
    store(prog, 3, 0, 0);
    auto p = makeProgram(c, prog, {{0, 0}, {1, 0}},
                         {{0, 2, 0}, {1, 3, 0}}, 4);
    auto res = Machine(p).run({7, 9});
    EXPECT_DOUBLE_EQ(res.outputs[0], 7);
    EXPECT_DOUBLE_EQ(res.outputs[1], 9);
}

TEST(MachineIsa, ExecAddsThroughTheTree)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0, 1}); // a -> b0@0, b -> b1@0
    prog.appendNop();
    exec1(prog, PeOp::Add, 0, 0, 0, true, true);
    // D+1 = 2 stages: result readable 2 cycles after issue.
    prog.appendNop();
    // Output reused bank0@0 (freed by rst at exec issue).
    store(prog, 1, 0, 0);
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {{0, 1, 0}}, 2);
    auto res = Machine(p).run({2.25, 3.5});
    EXPECT_DOUBLE_EQ(res.outputs[0], 5.75);
}

TEST(MachineIsa, PassThroughForwardsOneInput)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0, 1});
    prog.appendNop();
    // PassB reads only its right port (bank1), so only bank1 may
    // carry valid_rst; bank0 is drained by a store instead.
    exec1(prog, PeOp::PassB, 0, 0, 0, false, true);
    store(prog, 2, 0, 0); // frees the unused input
    store(prog, 1, 0, 1); // the forwarded value
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}},
                         {{0, 1, 0}, {1, 2, 0}}, 3);
    auto res = Machine(p).run({111, 222});
    EXPECT_DOUBLE_EQ(res.outputs[0], 222); // PassB forwards the right
    EXPECT_DOUBLE_EQ(res.outputs[1], 111);
}

TEST(MachineIsa, Copy4MovesAcrossBanks)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0}); // v -> bank0@0
    prog.appendNop();
    // valid_rst: last read of the source.
    prog.appendCopy4({{true, 0, 0, 1}}, bankBit(0));
    prog.appendNop();
    store(prog, 1, 1, 0); // read it from bank1
    auto p = makeProgram(c, prog, {{0, 0}}, {{0, 1, 1}}, 2);
    auto res = Machine(p).run({64.0});
    EXPECT_DOUBLE_EQ(res.outputs[0], 64.0);
}

TEST(MachineIsa, ReadInFlightPanics)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0});
    store(prog, 1, 0, 0); // 1 cycle later: too soon
    auto p = makeProgram(c, prog, {{0, 0}}, {{0, 1, 0}}, 2);
    expectPanic(p, {1.0}, "pipeline hazard: data still in flight");
}

TEST(MachineIsa, ReadInvalidRegisterPanics)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    store(prog, 0, 0, 0); // nothing was written
    auto p = makeProgram(c, prog, {}, {}, 1);
    expectPanic(p, {}, "read of invalid register");
}

TEST(MachineIsa, BankOverflowPanics)
{
    ArchConfig c = tinyCfg(); // R = 4
    Program prog(c);
    for (uint32_t i = 0; i < 5; ++i)
        load(prog, i, {0});
    auto p = makeProgram(c, prog, {{0, 0}, {1, 0}, {2, 0}, {3, 0},
                                   {4, 0}},
                         {}, 5);
    expectPanic(p, {1, 2, 3, 4, 5}, "write to a full register bank");
}

TEST(MachineIsa, LeakedRegisterPanicsAtEnd)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0}); // never read, never freed
    prog.appendNop();
    auto p = makeProgram(c, prog, {{0, 0}}, {}, 1);
    expectPanic(p, {5.0}, "register leak at end");
}

TEST(MachineIsa, RstWithoutReadPanics)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0, 1});
    prog.appendNop();
    // Exec reads only bank0/bank1 port-wise... build an exec whose
    // validRst names a bank the instruction does not read.
    ExecLanes e = prog.appendExec();
    e.peOp[0] = PeOp::PassA; // reads only port 0 (bank0)
    e.validRst = bankBit(1); // but frees bank1: illegal
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {}, 1);
    expectPanic(p, {1, 2}, "valid_rst on a bank this exec did not read");
}

TEST(MachineIsa, DeepTreeComputesBalancedReduction)
{
    // D=2, one tree, 4 ports: ((a+b) * (c+d)).
    ArchConfig c = deepCfg();
    Program prog(c);
    load(prog, 0, {0, 1, 2, 3});
    prog.appendNop();
    ExecLanes e = prog.appendExec();
    e.peOp[c.peId({0, 1, 0})] = PeOp::Add;
    e.peOp[c.peId({0, 1, 1})] = PeOp::Add;
    e.peOp[c.peId({0, 2, 0})] = PeOp::Mul;
    for (uint16_t port = 0; port < 4; ++port)
        e.inputSel[port] = port;
    e.validRst = allBanks(4);
    e.writeEnable = bankBit(0);
    // Bank 0's writers (per-layer): layer1 PE covering port 0, then
    // the root; select the root.
    e.outputSel[0] = 1;
    prog.appendNop();
    prog.appendNop(); // D+1 = 3 stages
    store(prog, 1, 0, 0);
    auto p = makeProgram(
        c, prog, {{0, 0}, {0, 1}, {0, 2}, {0, 3}}, {{0, 1, 0}}, 2);
    auto res = Machine(p).run({1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(res.outputs[0], 21); // (1+2)*(3+4)
}

TEST(MachineIsa, AutoWriteCrossesMaskWords)
{
    // R = 130 spans three 64-register valid words, the last one
    // partial: fill bank 0 completely, read back values living in
    // each word, then overflow it.
    ArchConfig c = tinyCfg();
    c.regsPerBank = 130;
    Program prog(c);
    Program over(c);
    std::vector<std::pair<uint32_t, uint32_t>> inputs;
    std::vector<double> values;
    for (uint32_t i = 0; i < c.regsPerBank; ++i) {
        load(prog, i, {0}); // -> bank0@i
        load(over, i, {0});
        inputs.push_back({i, 0});
        values.push_back(1000.0 + i);
    }
    prog.appendNop();
    // Drain in an order that crosses every word boundary.
    std::vector<uint32_t> order;
    for (uint32_t a : {129u, 0u, 63u, 64u, 127u, 128u})
        order.push_back(a);
    for (uint32_t a = 1; a < 129; ++a)
        if (a != 63 && a != 64 && a != 127 && a != 128)
            order.push_back(a);
    uint32_t rows = c.regsPerBank;
    std::vector<CompiledProgram::OutputLoc> outputs;
    for (uint32_t k = 0; k < order.size(); ++k) {
        store(prog, rows + k, 0, order[k]);
        outputs.push_back({k, rows + k, 0});
    }
    auto p = makeProgram(c, prog, inputs, outputs,
                         rows + static_cast<uint32_t>(order.size()));
    auto res = Machine(p).run(values);
    for (uint32_t k = 0; k < order.size(); ++k)
        EXPECT_DOUBLE_EQ(res.outputs[k], 1000.0 + order[k]) << k;
    EXPECT_EQ(res.stats.peakLiveRegisters, c.regsPerBank);

    // One write past R fails even though R is not a multiple of 64.
    load(over, 0, {0});
    auto q = makeProgram(c, over, inputs, {}, rows);
    expectPanic(q, values, "write to a full register bank");
}

TEST(MachineIsa, ReadAddressOutOfRangePanics)
{
    ArchConfig c = tinyCfg(); // R = 4
    Program prog(c);
    store(prog, 0, 0, 9);
    auto p = makeProgram(c, prog, {}, {}, 1);
    expectPanic(p, {}, "register index out of range");
}

TEST(MachineIsa, Store4ReadingOneRegisterTwicePanics)
{
    // The first slot's read frees the register, so the second slot
    // reads an invalid one.
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0});
    prog.appendNop();
    prog.appendStore4(1, {{true, 0, 0}, {true, 0, 0}});
    auto p = makeProgram(c, prog, {{0, 0}}, {}, 2);
    expectPanic(p, {1.0}, "read of invalid register");
}

TEST(MachineIsa, Copy4DoubleValidRstPanics)
{
    // Two copy_4 slots read the same register; valid_rst frees it
    // once per slot, and the second free finds it empty.
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0});
    prog.appendNop();
    prog.appendCopy4({{true, 0, 0, 1}, {true, 0, 0, 1}}, bankBit(0));
    auto p = makeProgram(c, prog, {{0, 0}}, {}, 1);
    expectPanic(p, {1.0}, "valid_rst of an empty register");
}

TEST(MachineIsa, BadCrossbarSelectPanics)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0, 1});
    prog.appendNop();
    exec1(prog, PeOp::Add, 0, 0, 0, true, true).inputSel[1] = 5; // no bank 5
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {}, 1);
    expectPanic(p, {1, 2}, "bad crossbar select");
}

TEST(MachineIsa, FirstFailingCheckInEvaluationOrderWins)
{
    // Port 0 is read before port 1, so whichever of the two checks
    // sits on port 0 is the one reported.
    ArchConfig c = tinyCfg();
    {
        Program prog(c);
        ExecLanes e = exec1(prog, PeOp::Add, 0, 0, 0);
        e.inputSel[1] = 5; // port 1: bad select
        // port 0: bank 0 was never written
        auto p = makeProgram(c, prog, {}, {}, 1);
        expectPanic(p, {}, "read of invalid register");
    }
    {
        Program prog(c);
        ExecLanes e = exec1(prog, PeOp::Add, 0, 0, 0);
        e.inputSel[0] = 5; // port 0: bad select
        auto p = makeProgram(c, prog, {}, {}, 1);
        expectPanic(p, {}, "bad crossbar select");
    }
}

TEST(MachineIsa, OutputMuxSelectOutOfRangePanics)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0, 1});
    prog.appendNop();
    // Bank 0 has a single writer.
    exec1(prog, PeOp::Add, 0, 0, 0, true, true).outputSel[0] = 7;
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {}, 1);
    expectPanic(p, {1, 2}, "output mux select out of range");
}

TEST(MachineIsa, StoreBackFromIdlePePanics)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    idleExec(prog).writeEnable = bankBit(0); // the only PE is idle
    auto p = makeProgram(c, prog, {}, {}, 1);
    expectPanic(p, {}, "store-back from an idle PE");
}

TEST(MachineIsa, ActivePeFedByIdleChildPanics)
{
    ArchConfig c = deepCfg();
    Program prog(c);
    load(prog, 0, {0, 1});
    prog.appendNop();
    ExecLanes e = idleExec(prog);
    e.peOp[c.peId({0, 1, 0})] = PeOp::Add;
    e.peOp[c.peId({0, 2, 0})] = PeOp::Add; // right child is idle
    for (uint16_t port = 0; port < 4; ++port)
        e.inputSel[port] = port;
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {}, 1);
    expectPanic(p, {1, 2}, "active PE fed by idle child");
}

TEST(MachineIsa, MemoryRowOutOfRangePanics)
{
    ArchConfig c = tinyCfg();
    {
        Program prog(c);
        load(prog, 3, {0});
        auto p = makeProgram(c, prog, {}, {}, 2);
        expectPanic(p, {}, "load row out of range");
    }
    {
        Program prog(c);
        store(prog, 2, 0, 0);
        auto p = makeProgram(c, prog, {}, {}, 2);
        expectPanic(p, {}, "store row out of range");
    }
    {
        Program prog(c);
        prog.appendStore4(2, {{true, 0, 0}});
        auto p = makeProgram(c, prog, {}, {}, 2);
        expectPanic(p, {}, "store_4 row out of range");
    }
}

TEST(MachineIsa, WrongInputCountPanics)
{
    ArchConfig c = tinyCfg();
    Program prog(c);
    load(prog, 0, {0});
    auto p = makeProgram(c, prog, {{0, 0}}, {}, 1);
    expectPanic(p, {1.0, 2.0}, "wrong number of input values");
}

/** A program whose instruction 1 has a bank-mask bit at B, a bank the
 *  machine does not have. */
struct MaskFixture
{
    std::string what; ///< the Machine's panic
    CompiledProgram prog;
};

std::vector<MaskFixture>
maskBitPastLastBank()
{
    ArchConfig c = tinyCfg(); // B = 2
    const uint64_t bad = bankBit(0) | bankBit(c.banks);
    const std::string tail = " names bank 2 of 2 (instruction 1)";
    auto fixture = [&](const std::string &field, auto build) {
        Program prog(c);
        prog.appendNop();
        build(prog);
        return MaskFixture{"malformed instruction: " + field + tail,
                           makeProgram(c, prog, {}, {}, 1)};
    };
    return {
        fixture("load enable",
                [&](Program &p) { p.appendLoad(0, bad); }),
        fixture("store enable",
                [&](Program &p) { p.appendStore(0, bad); }),
        fixture("copy_4 valid_rst",
                [&](Program &p) { p.appendCopy4({}, bad); }),
        fixture("exec valid_rst",
                [&](Program &p) { p.appendExec(bad, 0); }),
        fixture("exec write enable",
                [&](Program &p) { p.appendExec(0, bad); }),
    };
}

TEST(MachineIsa, MaskBitPastLastBankIsMalformed)
{
    // The verifier flags the same instruction the machine rejects.
    for (const MaskFixture &f : maskBitPastLastBank()) {
        SCOPED_TRACE(f.what);
        VerifyReport report = verifyProgram(f.prog);
        bool found = false;
        for (const Diagnostic &d : report.diagnostics)
            found |= d.code == VerifyCode::MalformedInstruction &&
                     d.severity == VerifySeverity::Error &&
                     d.instrIndex == 1;
        EXPECT_TRUE(found) << report.toString(0);
        expectPanic(f.prog, {}, f.what);
    }
}

TEST(MachineIsa, LanesSizedForAnotherConfigAreMalformed)
{
    // An exec built for a 4-bank machine run as a 2-bank program: its
    // lanes are never read at the wrong width.
    Program prog(deepCfg());
    prog.appendExec();
    CompiledProgram p = makeProgram(tinyCfg(), prog, {}, {}, 1);
    VerifyReport report = verifyProgram(p);
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.toString(0);
    EXPECT_EQ(report.diagnostics[0].code,
              VerifyCode::MalformedInstruction);
    EXPECT_EQ(report.diagnostics[0].instrIndex, kVerifyNoInstr);
    expectPanic(p, {}, "malformed program: its lanes are not sized for");
}

TEST(MachineIsa, FaultIsRaisedByEveryRunNotByConstruction)
{
    // A program's faults are found once, when the Machine is built, and
    // belong to the program: construction succeeds, and every run, from
    // any thread, raises the same panic. A wrong-size input is still
    // reported ahead of the program's fault.
    struct Case
    {
        std::string what;
        CompiledProgram prog;
        std::vector<double> in;
    };
    ArchConfig c = tinyCfg();
    std::vector<Case> cases;
    cases.push_back({"pipeline hazard: data still in flight",
                     makeProgram(c,
                                 programOf(c,
                                           [](Program &p) {
                                               load(p, 0, {0});
                                               store(p, 1, 0, 0);
                                           }),
                                 {{0, 0}}, {{0, 1, 0}}, 2),
                     {1.0}});
    cases.push_back(
        {"read of invalid register",
         makeProgram(c,
                     programOf(c, [](Program &p) { store(p, 0, 0, 0); }),
                     {}, {}, 1),
         {}});
    {
        Program prog(c);
        for (uint32_t i = 0; i < 5; ++i)
            load(prog, i, {0});
        cases.push_back({"write to a full register bank",
                         makeProgram(c, prog,
                                     {{0, 0}, {1, 0}, {2, 0}, {3, 0},
                                      {4, 0}},
                                     {}, 5),
                         {1, 2, 3, 4, 5}});
    }
    cases.push_back({"register leak at end",
                     makeProgram(c,
                                 programOf(c,
                                           [](Program &p) {
                                               load(p, 0, {0});
                                               p.appendNop();
                                           }),
                                 {{0, 0}}, {}, 1),
                     {5.0}});
    {
        Program prog(c);
        load(prog, 0, {0, 1});
        prog.appendNop();
        exec1(prog, PeOp::Add, 0, 0, 0, true, true).inputSel[1] =
            5; // no bank 5
        cases.push_back({"bad crossbar select",
                         makeProgram(c, prog, {{0, 0}, {0, 1}}, {}, 1),
                         {1, 2}});
    }
    cases.push_back(
        {"load row out of range",
         makeProgram(c, programOf(c, [](Program &p) { load(p, 3, {0}); }),
                     {}, {}, 2),
         {}});
    {
        Program prog(c);
        idleExec(prog).writeEnable = bankBit(0); // the only PE is idle
        cases.push_back({"store-back from an idle PE",
                         makeProgram(c, prog, {}, {}, 1), {}});
    }
    cases.push_back(
        {"input location out of range",
         makeProgram(c, programOf(c, [](Program &p) { p.appendNop(); }),
                     {{1, 0}}, {}, 1),
         {1.0}});
    for (MaskFixture &f : maskBitPastLastBank())
        cases.push_back({f.what, std::move(f.prog), {}});

    for (const Case &k : cases) {
        SCOPED_TRACE(k.what);
        std::optional<Machine> m;
        ASSERT_NO_THROW(m.emplace(k.prog));
        auto panicOf = [&](const std::vector<double> &in) {
            try {
                m->run(in);
            } catch (const PanicError &e) {
                return std::string(e.what());
            }
            return std::string("no panic");
        };
        const std::string first = panicOf(k.in);
        EXPECT_NE(first.find(k.what), std::string::npos) << first;
        for (int run = 0; run < 2; ++run)
            EXPECT_EQ(panicOf(k.in), first);
        std::string seen[2];
        std::thread t0([&] { seen[0] = panicOf(k.in); });
        std::thread t1([&] { seen[1] = panicOf(k.in); });
        t0.join();
        t1.join();
        EXPECT_EQ(seen[0], first);
        EXPECT_EQ(seen[1], first);

        std::vector<double> wrong(k.in.size() + 1, 0.0);
        const std::string size_panic = panicOf(wrong);
        EXPECT_NE(size_panic.find("wrong number of input values"),
                  std::string::npos)
            << size_panic;
    }
}

} // namespace
} // namespace dpu
