/**
 * @file
 * Machine-level ISA semantics tests: hand-crafted programs executed
 * on the simulator, independent of the compiler. These pin down the
 * architecture contract — automatic write addressing, valid_rst,
 * pass-through routing, pipeline timing, and the panics that guard
 * them.
 */

#include <gtest/gtest.h>

#include <string>

#include "compiler/program.hh"
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

LoadInstr
load(uint32_t row, std::initializer_list<uint32_t> banks, uint32_t b)
{
    LoadInstr in;
    in.memRow = row;
    in.enable.assign(b, false);
    for (uint32_t k : banks)
        in.enable[k] = true;
    return in;
}

StoreInstr
store(uint32_t row, uint32_t bank, uint32_t addr, uint32_t b)
{
    StoreInstr in;
    in.memRow = row;
    in.enable.assign(b, false);
    in.readAddr.assign(b, 0);
    in.enable[bank] = true;
    in.readAddr[bank] = static_cast<uint16_t>(addr);
    return in;
}

/** Single-PE exec: out = a(bank0@addr0) op b(bank1@addr1) -> bank. */
ExecInstr
exec1(const ArchConfig &c, PeOp op, uint32_t addr0, uint32_t addr1,
      uint32_t dst_bank, bool rst0 = false, bool rst1 = false)
{
    ExecInstr e;
    e.peOp.assign(c.numPes(), PeOp::Nop);
    e.peOp[0] = op;
    e.inputSel = {0, 1};
    e.readAddr = {static_cast<uint16_t>(addr0),
                  static_cast<uint16_t>(addr1)};
    e.validRst = {rst0, rst1};
    e.writeEnable.assign(c.banks, false);
    e.outputSel.assign(c.banks, 0);
    e.writeEnable[dst_bank] = true;
    return e;
}

/** Wrap raw instructions into a runnable program. */
CompiledProgram
makeProgram(const ArchConfig &cfg, std::vector<Instruction> instrs,
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
ExecInstr
idleExec(const ArchConfig &c)
{
    ExecInstr e;
    e.peOp.assign(c.numPes(), PeOp::Nop);
    e.inputSel.assign(c.banks, 0);
    e.readAddr.assign(c.banks, 0);
    e.validRst.assign(c.banks, false);
    e.writeEnable.assign(c.banks, false);
    e.outputSel.assign(c.banks, 0);
    return e;
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
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0}, c.banks)); // mem[0][0] -> bank0@0
    prog.push_back(NopInstr{});
    prog.push_back(store(1, 0, 0, c.banks)); // bank0@0 -> mem[1][0]
    auto p = makeProgram(c, prog, {{0, 0}}, {{0, 1, 0}}, 2);
    auto res = Machine(p).run({42.5});
    EXPECT_DOUBLE_EQ(res.outputs[0], 42.5);
}

TEST(MachineIsa, AutoWriteTakesLowestFreeAddress)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0}, c.banks)); // -> bank0@0
    prog.push_back(load(1, {0}, c.banks)); // -> bank0@1
    prog.push_back(load(2, {0}, c.banks)); // -> bank0@2
    prog.push_back(NopInstr{});
    // Read them back at the addresses the priority encoder chose.
    prog.push_back(store(3, 0, 1, c.banks));
    prog.push_back(store(4, 0, 0, c.banks));
    prog.push_back(store(5, 0, 2, c.banks));
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
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0}, c.banks));    // v1 -> bank0@0
    prog.push_back(NopInstr{});
    prog.push_back(store(2, 0, 0, c.banks));  // store frees @0
    prog.push_back(load(1, {0}, c.banks));    // v2 -> bank0@0 again
    prog.push_back(NopInstr{});
    prog.push_back(store(3, 0, 0, c.banks));
    auto p = makeProgram(c, prog, {{0, 0}, {1, 0}},
                         {{0, 2, 0}, {1, 3, 0}}, 4);
    auto res = Machine(p).run({7, 9});
    EXPECT_DOUBLE_EQ(res.outputs[0], 7);
    EXPECT_DOUBLE_EQ(res.outputs[1], 9);
}

TEST(MachineIsa, ExecAddsThroughTheTree)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0, 1}, c.banks)); // a -> b0@0, b -> b1@0
    prog.push_back(NopInstr{});
    prog.push_back(exec1(c, PeOp::Add, 0, 0, 0, true, true));
    // D+1 = 2 stages: result readable 2 cycles after issue.
    prog.push_back(NopInstr{});
    // Output reused bank0@0 (freed by rst at exec issue).
    prog.push_back(store(1, 0, 0, c.banks));
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {{0, 1, 0}}, 2);
    auto res = Machine(p).run({2.25, 3.5});
    EXPECT_DOUBLE_EQ(res.outputs[0], 5.75);
}

TEST(MachineIsa, PassThroughForwardsOneInput)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0, 1}, c.banks));
    prog.push_back(NopInstr{});
    // PassB reads only its right port (bank1), so only bank1 may
    // carry valid_rst; bank0 is drained by a store instead.
    prog.push_back(exec1(c, PeOp::PassB, 0, 0, 0, false, true));
    prog.push_back(store(2, 0, 0, c.banks)); // frees the unused input
    prog.push_back(store(1, 0, 1, c.banks)); // the forwarded value
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}},
                         {{0, 1, 0}, {1, 2, 0}}, 3);
    auto res = Machine(p).run({111, 222});
    EXPECT_DOUBLE_EQ(res.outputs[0], 222); // PassB forwards the right
    EXPECT_DOUBLE_EQ(res.outputs[1], 111);
}

TEST(MachineIsa, Copy4MovesAcrossBanks)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0}, c.banks)); // v -> bank0@0
    prog.push_back(NopInstr{});
    Copy4Instr cp;
    cp.validRst.assign(c.banks, false);
    cp.validRst[0] = true; // last read of the source
    cp.slots[0] = {true, 0, 0, 1};
    prog.push_back(cp);
    prog.push_back(NopInstr{});
    prog.push_back(store(1, 1, 0, c.banks)); // read it from bank1
    auto p = makeProgram(c, prog, {{0, 0}}, {{0, 1, 1}}, 2);
    auto res = Machine(p).run({64.0});
    EXPECT_DOUBLE_EQ(res.outputs[0], 64.0);
}

TEST(MachineIsa, ReadInFlightPanics)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0}, c.banks));
    prog.push_back(store(1, 0, 0, c.banks)); // 1 cycle later: too soon
    auto p = makeProgram(c, prog, {{0, 0}}, {{0, 1, 0}}, 2);
    expectPanic(p, {1.0}, "pipeline hazard: data still in flight");
}

TEST(MachineIsa, ReadInvalidRegisterPanics)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(store(0, 0, 0, c.banks)); // nothing was written
    auto p = makeProgram(c, prog, {}, {}, 1);
    expectPanic(p, {}, "read of invalid register");
}

TEST(MachineIsa, BankOverflowPanics)
{
    ArchConfig c = tinyCfg(); // R = 4
    std::vector<Instruction> prog;
    for (uint32_t i = 0; i < 5; ++i)
        prog.push_back(load(i, {0}, c.banks));
    auto p = makeProgram(c, prog, {{0, 0}, {1, 0}, {2, 0}, {3, 0},
                                   {4, 0}},
                         {}, 5);
    expectPanic(p, {1, 2, 3, 4, 5}, "write to a full register bank");
}

TEST(MachineIsa, LeakedRegisterPanicsAtEnd)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0}, c.banks)); // never read, never freed
    prog.push_back(NopInstr{});
    auto p = makeProgram(c, prog, {{0, 0}}, {}, 1);
    expectPanic(p, {5.0}, "register leak at end");
}

TEST(MachineIsa, RstWithoutReadPanics)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0, 1}, c.banks));
    prog.push_back(NopInstr{});
    // Exec reads only bank0/bank1 port-wise... build an exec whose
    // validRst names a bank the instruction does not read.
    ExecInstr e;
    e.peOp.assign(c.numPes(), PeOp::Nop);
    e.peOp[0] = PeOp::PassA; // reads only port 0 (bank0)
    e.inputSel = {0, 0};
    e.readAddr = {0, 0};
    e.validRst = {false, true}; // but frees bank1: illegal
    e.writeEnable.assign(c.banks, false);
    e.outputSel.assign(c.banks, 0);
    e.writeEnable[0] = false;
    prog.push_back(e);
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {}, 1);
    expectPanic(p, {1, 2}, "valid_rst on a bank this exec did not read");
}

TEST(MachineIsa, DeepTreeComputesBalancedReduction)
{
    // D=2, one tree, 4 ports: ((a+b) * (c+d)).
    ArchConfig c = deepCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0, 1, 2, 3}, c.banks));
    prog.push_back(NopInstr{});
    ExecInstr e;
    e.peOp.assign(c.numPes(), PeOp::Nop);
    e.peOp[c.peId({0, 1, 0})] = PeOp::Add;
    e.peOp[c.peId({0, 1, 1})] = PeOp::Add;
    e.peOp[c.peId({0, 2, 0})] = PeOp::Mul;
    e.inputSel = {0, 1, 2, 3};
    e.readAddr = {0, 0, 0, 0};
    e.validRst = {true, true, true, true};
    e.writeEnable.assign(c.banks, false);
    e.outputSel.assign(c.banks, 0);
    e.writeEnable[0] = true;
    // Bank 0's writers (per-layer): layer1 PE covering port 0, then
    // the root; select the root.
    e.outputSel[0] = 1;
    prog.push_back(e);
    prog.push_back(NopInstr{});
    prog.push_back(NopInstr{}); // D+1 = 3 stages
    prog.push_back(store(1, 0, 0, c.banks));
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
    std::vector<Instruction> prog;
    std::vector<std::pair<uint32_t, uint32_t>> inputs;
    std::vector<double> values;
    for (uint32_t i = 0; i < c.regsPerBank; ++i) {
        prog.push_back(load(i, {0}, c.banks)); // -> bank0@i
        inputs.push_back({i, 0});
        values.push_back(1000.0 + i);
    }
    prog.push_back(NopInstr{});
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
        prog.push_back(store(rows + k, 0, order[k], c.banks));
        outputs.push_back({k, rows + k, 0});
    }
    auto p = makeProgram(c, prog, inputs, outputs,
                         rows + static_cast<uint32_t>(order.size()));
    auto res = Machine(p).run(values);
    for (uint32_t k = 0; k < order.size(); ++k)
        EXPECT_DOUBLE_EQ(res.outputs[k], 1000.0 + order[k]) << k;
    EXPECT_EQ(res.stats.peakLiveRegisters, c.regsPerBank);

    // One write past R fails even though R is not a multiple of 64.
    std::vector<Instruction> over(prog.begin(),
                                  prog.begin() + c.regsPerBank);
    over.push_back(load(0, {0}, c.banks));
    auto q = makeProgram(c, over, inputs, {}, rows);
    expectPanic(q, values, "write to a full register bank");
}

TEST(MachineIsa, ReadAddressOutOfRangePanics)
{
    ArchConfig c = tinyCfg(); // R = 4
    std::vector<Instruction> prog;
    prog.push_back(store(0, 0, 9, c.banks));
    auto p = makeProgram(c, prog, {}, {}, 1);
    expectPanic(p, {}, "register index out of range");
}

TEST(MachineIsa, Store4ReadingOneRegisterTwicePanics)
{
    // The first slot's read frees the register, so the second slot
    // reads an invalid one.
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0}, c.banks));
    prog.push_back(NopInstr{});
    Store4Instr st;
    st.memRow = 1;
    st.slots[0] = {true, 0, 0};
    st.slots[1] = {true, 0, 0};
    prog.push_back(st);
    auto p = makeProgram(c, prog, {{0, 0}}, {}, 2);
    expectPanic(p, {1.0}, "read of invalid register");
}

TEST(MachineIsa, Copy4DoubleValidRstPanics)
{
    // Two copy_4 slots read the same register; valid_rst frees it
    // once per slot, and the second free finds it empty.
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0}, c.banks));
    prog.push_back(NopInstr{});
    Copy4Instr cp;
    cp.validRst.assign(c.banks, false);
    cp.validRst[0] = true;
    cp.slots[0] = {true, 0, 0, 1};
    cp.slots[1] = {true, 0, 0, 1};
    prog.push_back(cp);
    auto p = makeProgram(c, prog, {{0, 0}}, {}, 1);
    expectPanic(p, {1.0}, "valid_rst of an empty register");
}

TEST(MachineIsa, BadCrossbarSelectPanics)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0, 1}, c.banks));
    prog.push_back(NopInstr{});
    ExecInstr e = exec1(c, PeOp::Add, 0, 0, 0, true, true);
    e.inputSel[1] = 5; // no bank 5
    prog.push_back(e);
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {}, 1);
    expectPanic(p, {1, 2}, "bad crossbar select");
}

TEST(MachineIsa, FirstFailingCheckInEvaluationOrderWins)
{
    // Port 0 is read before port 1, so whichever of the two checks
    // sits on port 0 is the one reported.
    ArchConfig c = tinyCfg();
    {
        ExecInstr e = exec1(c, PeOp::Add, 0, 0, 0);
        e.inputSel[1] = 5; // port 1: bad select
        // port 0: bank 0 was never written
        auto p = makeProgram(c, {e}, {}, {}, 1);
        expectPanic(p, {}, "read of invalid register");
    }
    {
        ExecInstr e = exec1(c, PeOp::Add, 0, 0, 0);
        e.inputSel[0] = 5; // port 0: bad select
        auto p = makeProgram(c, {e}, {}, {}, 1);
        expectPanic(p, {}, "bad crossbar select");
    }
}

TEST(MachineIsa, OutputMuxSelectOutOfRangePanics)
{
    ArchConfig c = tinyCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0, 1}, c.banks));
    prog.push_back(NopInstr{});
    ExecInstr e = exec1(c, PeOp::Add, 0, 0, 0, true, true);
    e.outputSel[0] = 7; // bank 0 has a single writer
    prog.push_back(e);
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {}, 1);
    expectPanic(p, {1, 2}, "output mux select out of range");
}

TEST(MachineIsa, StoreBackFromIdlePePanics)
{
    ArchConfig c = tinyCfg();
    ExecInstr e = idleExec(c);
    e.writeEnable[0] = true; // the only PE is idle
    auto p = makeProgram(c, {e}, {}, {}, 1);
    expectPanic(p, {}, "store-back from an idle PE");
}

TEST(MachineIsa, ActivePeFedByIdleChildPanics)
{
    ArchConfig c = deepCfg();
    std::vector<Instruction> prog;
    prog.push_back(load(0, {0, 1}, c.banks));
    prog.push_back(NopInstr{});
    ExecInstr e = idleExec(c);
    e.peOp[c.peId({0, 1, 0})] = PeOp::Add;
    e.peOp[c.peId({0, 2, 0})] = PeOp::Add; // right child is idle
    e.inputSel = {0, 1, 2, 3};
    prog.push_back(e);
    auto p = makeProgram(c, prog, {{0, 0}, {0, 1}}, {}, 1);
    expectPanic(p, {1, 2}, "active PE fed by idle child");
}

TEST(MachineIsa, MemoryRowOutOfRangePanics)
{
    ArchConfig c = tinyCfg();
    {
        auto p = makeProgram(c, {load(3, {0}, c.banks)}, {}, {}, 2);
        expectPanic(p, {}, "load row out of range");
    }
    {
        auto p = makeProgram(c, {store(2, 0, 0, c.banks)}, {}, {}, 2);
        expectPanic(p, {}, "store row out of range");
    }
    {
        Store4Instr st;
        st.memRow = 2;
        st.slots[0] = {true, 0, 0};
        auto p = makeProgram(c, {st}, {}, {}, 2);
        expectPanic(p, {}, "store_4 row out of range");
    }
}

TEST(MachineIsa, WrongInputCountPanics)
{
    ArchConfig c = tinyCfg();
    auto p = makeProgram(c, {load(0, {0}, c.banks)}, {{0, 0}}, {}, 1);
    expectPanic(p, {1.0, 2.0}, "wrong number of input values");
}

} // namespace
} // namespace dpu
