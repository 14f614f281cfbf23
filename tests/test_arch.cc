/**
 * @file
 * Unit tests for the architecture template: config geometry,
 * interconnect topologies, and the variable-length ISA.
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/config.hh"
#include "arch/interconnect.hh"
#include "arch/isa.hh"

namespace dpu {
namespace {

TEST(ArchConfig, DerivedParameters)
{
    ArchConfig c = minEdpConfig();
    c.check();
    EXPECT_EQ(c.trees(), 8u);       // 64 / 2^3
    EXPECT_EQ(c.pesPerTree(), 7u);  // 2^3 - 1
    EXPECT_EQ(c.numPes(), 56u);
    EXPECT_EQ(c.portsPerTree(), 8u);
    EXPECT_EQ(c.pipelineStages(), 4u);
    EXPECT_EQ(c.label(), "D3.B64.R32");
}

TEST(ArchConfig, RejectsNonPowerOfTwoBanks)
{
    ArchConfig c;
    c.banks = 48;
    EXPECT_THROW(c.check(), PanicError);
}

TEST(ArchConfig, RejectsTooFewBanks)
{
    ArchConfig c;
    c.depth = 3;
    c.banks = 4;
    EXPECT_THROW(c.check(), PanicError);
}

TEST(ArchConfig, PeIdRoundTrip)
{
    ArchConfig c;
    c.depth = 3;
    c.banks = 32;
    c.check();
    for (uint32_t id = 0; id < c.numPes(); ++id) {
        PeCoord coord = c.peCoord(id);
        EXPECT_EQ(c.peId(coord), id);
    }
}

TEST(ArchConfig, LayerSizes)
{
    ArchConfig c;
    c.depth = 3;
    c.banks = 8; // single tree
    c.check();
    EXPECT_EQ(c.pesInLayer(1), 4u);
    EXPECT_EQ(c.pesInLayer(2), 2u);
    EXPECT_EQ(c.pesInLayer(3), 1u);
}

TEST(Interconnect, CrossbarReachesEverything)
{
    ArchConfig c = minEdpConfig();
    c.outputNet = OutputInterconnect::Crossbar;
    for (uint32_t pe : {0u, 5u, c.numPes() - 1})
        EXPECT_EQ(writableBanks(c, pe).size(), c.banks);
    EXPECT_EQ(writingPes(c, 0).size(), c.numPes());
    EXPECT_EQ(maxWritersPerBank(c), c.numPes());
}

TEST(Interconnect, PerLayerSubtreeSpans)
{
    ArchConfig c;
    c.depth = 3;
    c.banks = 16; // two trees
    c.outputNet = OutputInterconnect::PerLayerSubtree;
    c.check();
    // Leaf PE 0 of tree 0 covers ports 0..1.
    auto leaf = writableBanks(c, c.peId({0, 1, 0}));
    EXPECT_EQ(leaf, (std::vector<uint32_t>{0, 1}));
    // Root of tree 1 covers all 8 ports of tree 1.
    auto root = writableBanks(c, c.peId({1, 3, 0}));
    ASSERT_EQ(root.size(), 8u);
    EXPECT_EQ(root.front(), 8u);
    EXPECT_EQ(root.back(), 15u);
    // Each bank sees exactly one PE per layer: the D:1 mux.
    for (uint32_t b = 0; b < c.banks; ++b) {
        auto pes = writingPes(c, b);
        EXPECT_EQ(pes.size(), c.depth);
        std::set<uint32_t> layers;
        for (uint32_t p : pes)
            layers.insert(c.peCoord(p).layer);
        EXPECT_EQ(layers.size(), c.depth);
    }
    EXPECT_EQ(maxWritersPerBank(c), c.depth);
}

TEST(Interconnect, PerLayerInverseConsistent)
{
    for (uint32_t depth : {1u, 2u, 3u}) {
        ArchConfig c;
        c.depth = depth;
        c.banks = 32;
        c.outputNet = OutputInterconnect::PerLayerSubtree;
        c.check();
        for (uint32_t pe = 0; pe < c.numPes(); ++pe)
            for (uint32_t b : writableBanks(c, pe)) {
                auto pes = writingPes(c, b);
                EXPECT_NE(std::find(pes.begin(), pes.end(), pe),
                          pes.end())
                    << "pe " << pe << " bank " << b;
            }
    }
}

TEST(Interconnect, OnePerPeIsNearlyOneToOne)
{
    ArchConfig c;
    c.depth = 3;
    c.banks = 8; // one tree
    c.outputNet = OutputInterconnect::OnePerPe;
    c.check();
    // 7 PEs map to 7 distinct banks; the root gets a second bank.
    std::set<uint32_t> used;
    for (uint32_t pe = 0; pe < c.numPes(); ++pe) {
        auto banks = writableBanks(c, pe);
        bool is_root = c.peCoord(pe).layer == c.depth;
        EXPECT_EQ(banks.size(), is_root ? 2u : 1u);
        used.insert(banks.begin(), banks.end());
    }
    EXPECT_EQ(used.size(), 8u);
}

TEST(Interconnect, OutputSelectIdentifiesPe)
{
    ArchConfig c = minEdpConfig();
    OutputSelectTable select(c);
    for (uint32_t b = 0; b < c.banks; ++b) {
        auto pes = writingPes(c, b);
        for (uint32_t i = 0; i < pes.size(); ++i)
            EXPECT_EQ(select(b, pes[i]), i);
    }
    EXPECT_THROW(select(0, c.peId({1, 1, 0})), PanicError);
    EXPECT_THROW(select(0, c.numPes()), PanicError);
    EXPECT_THROW(select(c.banks, 0), PanicError);
}

/** The paper's example lengths: D=3, B=16, R=32 (fig. 7(a)). */
TEST(Isa, PaperExampleLengths)
{
    ArchConfig c;
    c.depth = 3;
    c.banks = 16;
    c.regsPerBank = 32;
    c.outputNet = OutputInterconnect::PerLayerSubtree;
    c.check();
    IsaLayout lay(c);
    EXPECT_EQ(lay.lengthBits(InstrKind::Nop), 4u);
    EXPECT_EQ(lay.lengthBits(InstrKind::Load), 52u);
    EXPECT_EQ(lay.lengthBits(InstrKind::Store), 132u);
    EXPECT_EQ(lay.lengthBits(InstrKind::Store4), 56u);
    EXPECT_EQ(lay.lengthBits(InstrKind::Copy4), 72u);
    // Paper: 272. Our encoding reaches 268 (see isa.cc field widths).
    EXPECT_EQ(lay.lengthBits(InstrKind::Exec), 268u);
    EXPECT_EQ(lay.maxLengthBits(), lay.lengthBits(InstrKind::Exec));
}

TEST(Isa, LengthsGrowWithBanks)
{
    ArchConfig small = minEdpConfig();
    ArchConfig big = minEdpConfig();
    big.banks = 128;
    IsaLayout a(small), b(big);
    EXPECT_LT(a.lengthBits(InstrKind::Exec), b.lengthBits(InstrKind::Exec));
    EXPECT_LT(a.lengthBits(InstrKind::Load), b.lengthBits(InstrKind::Load));
}

Instruction
sampleExec(const ArchConfig &c)
{
    ExecInstr e;
    e.peOp.assign(c.numPes(), PeOp::Nop);
    e.peOp[0] = PeOp::Add;
    e.peOp[1] = PeOp::Mul;
    e.inputSel.assign(c.banks, 0);
    e.readAddr.assign(c.banks, 0);
    e.validRst.assign(c.banks, false);
    e.writeEnable.assign(c.banks, false);
    e.outputSel.assign(c.banks, 0);
    e.inputSel[0] = 3;
    e.readAddr[3] = 7;
    e.validRst[3] = true;
    e.writeEnable[1] = true;
    e.outputSel[1] = 1;
    return e;
}

TEST(Isa, EncodeDecodeRoundTrip)
{
    ArchConfig c;
    c.depth = 2;
    c.banks = 16;
    c.regsPerBank = 32;
    c.check();

    std::vector<Instruction> prog;
    prog.push_back(NopInstr{});

    LoadInstr ld;
    ld.memRow = 12345;
    ld.enable.assign(c.banks, false);
    ld.enable[2] = ld.enable[9] = true;
    prog.push_back(ld);

    StoreInstr st;
    st.memRow = 77;
    st.enable.assign(c.banks, false);
    st.readAddr.assign(c.banks, 0);
    st.enable[5] = true;
    st.readAddr[5] = 31;
    prog.push_back(st);

    Store4Instr s4;
    s4.memRow = 9;
    s4.slots[0] = {true, 3, 11};
    s4.slots[1] = {true, 8, 1};
    prog.push_back(s4);

    Copy4Instr cp;
    cp.slots[0] = {true, 1, 5, 2};
    cp.slots[1] = {true, 7, 0, 3};
    cp.validRst.assign(c.banks, false);
    cp.validRst[1] = true;
    prog.push_back(cp);

    prog.push_back(sampleExec(c));

    auto image = encodeProgram(c, prog);
    auto back = decodeProgram(c, image, prog.size());
    ASSERT_EQ(back.size(), prog.size());
    for (size_t i = 0; i < prog.size(); ++i)
        EXPECT_EQ(back[i], prog[i]) << "instruction " << i;
}

TEST(Isa, PackedImageSizeMatchesSum)
{
    ArchConfig c;
    c.depth = 2;
    c.banks = 16;
    c.regsPerBank = 32;
    c.check();
    std::vector<Instruction> prog{NopInstr{}, NopInstr{}, sampleExec(c)};
    uint64_t bits = programSizeBits(c, prog);
    auto image = encodeProgram(c, prog);
    EXPECT_EQ(image.size(), (bits + 7) / 8);
}

TEST(Isa, KindNames)
{
    EXPECT_STREQ(kindName(InstrKind::Exec), "exec");
    EXPECT_STREQ(kindName(InstrKind::Copy4), "copy_4");
    EXPECT_EQ(kindOf(Instruction{NopInstr{}}), InstrKind::Nop);
}

} // namespace
} // namespace dpu
