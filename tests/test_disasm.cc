/**
 * @file
 * Tests for the disassembler.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "arch/disasm.hh"
#include "compiler/compiler.hh"
#include "workloads/pc_generator.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

ArchConfig
smallCfg()
{
    ArchConfig c;
    c.depth = 2;
    c.banks = 8;
    c.regsPerBank = 16;
    return c;
}

TEST(Disasm, Nop)
{
    Program prog(smallCfg());
    prog.appendNop();
    EXPECT_EQ(disassemble(smallCfg(), prog, 0), "nop");
}

TEST(Disasm, LoadListsBanks)
{
    Program prog(smallCfg());
    prog.appendLoad(7, bankBit(1) | bankBit(5));
    std::string s = disassemble(smallCfg(), prog, 0);
    EXPECT_EQ(s, "load row=7 banks{1,5}");
}

TEST(Disasm, StoreShowsAddresses)
{
    Program prog(smallCfg());
    prog.appendStore(3, bankBit(2))[2] = 9;
    std::string s = disassemble(smallCfg(), prog, 0);
    EXPECT_NE(s.find("store row=3"), std::string::npos);
    EXPECT_NE(s.find("b2@9"), std::string::npos);
}

TEST(Disasm, CopyShowsRoutesAndRst)
{
    Program prog(smallCfg());
    prog.appendCopy4({{true, 1, 4, 6}}, bankBit(1));
    std::string s = disassemble(smallCfg(), prog, 0);
    EXPECT_NE(s.find("copy_4"), std::string::npos);
    EXPECT_NE(s.find("b1@4!->b6"), std::string::npos);
}

TEST(Disasm, ExecShowsTreeShape)
{
    ArchConfig cfg = smallCfg(); // 2 trees of 3 PEs
    Program prog(cfg);
    ExecLanes ex = prog.appendExec();
    ex.peOp[cfg.peId({0, 1, 0})] = PeOp::Mul;
    ex.peOp[cfg.peId({0, 1, 1})] = PeOp::PassA;
    ex.peOp[cfg.peId({0, 2, 0})] = PeOp::Add;
    ex.writeEnable = bankBit(3);
    std::string s = disassemble(cfg, prog, 0);
    EXPECT_NE(s.find("t0["), std::string::npos);
    EXPECT_NE(s.find("L2.0:add"), std::string::npos);
    EXPECT_NE(s.find("L1.0:mul"), std::string::npos);
    EXPECT_NE(s.find("wr b3<-pe"), std::string::npos);
    // Tree 1 is idle and must not appear.
    EXPECT_EQ(s.find("t1["), std::string::npos);
}

TEST(Disasm, WholeProgramHasSummary)
{
    PcParams p;
    p.targetOperations = 200;
    p.depth = 8;
    p.seed = 2;
    Dag d = generatePc(p);
    ArchConfig cfg = smallCfg();
    auto prog = compile(d, cfg);
    std::ostringstream os;
    disassembleProgram(cfg, prog.instructions, os);
    std::string s = os.str();
    EXPECT_NE(s.find("instructions,"), std::string::npos);
    EXPECT_NE(s.find("exec:"), std::string::npos);
    // One line per instruction plus summary lines.
    size_t lines = std::count(s.begin(), s.end(), '\n');
    EXPECT_GT(lines, prog.instructions.size());
}

TEST(Disasm, EveryInstructionOfARealProgramRenders)
{
    Dag d = generateRandomDag(16, 500, 9);
    ArchConfig cfg;
    cfg.depth = 3;
    cfg.banks = 16;
    cfg.regsPerBank = 8; // force spills -> store_4 traffic
    auto prog = compile(d, cfg);
    for (size_t i = 0; i < prog.instructions.size(); ++i) {
        std::string s = disassemble(cfg, prog.instructions, i);
        EXPECT_FALSE(s.empty());
    }
}

/** FNV-1a-64 of a program's whole disassembly. */
std::string
disasmDigest(const CompiledProgram &prog)
{
    std::ostringstream os;
    disassembleProgram(prog.cfg, prog.instructions, os);
    uint64_t h = 0xcbf29ce484222325ull;
    for (char c : os.str()) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

struct DisasmGolden
{
    const char *name;
    const char *digest; ///< disasmDigest, or "fatal" if infeasible.
};

// A change to the disassembler or the program type that keeps the
// text must pass these unedited; one that changes the text re-pins
// them deliberately. Rows whose copy_4 count fell were last re-pinned
// when step 3 began to co-issue ready copies into one copy_4; the
// other rows when step 1 became latency-aware.
const std::vector<DisasmGolden> kDisasmGolden = {
    {"tretail D1.B8.R16", "6aa7dc3b8ff4f8d9"},
    {"tretail D3.B8.R16", "9ebc228454cefa91"},
    {"mnist D1.B8.R16", "c2a684303e44cbdb"},
    {"mnist D3.B8.R16", "6b9909b250143d75"},
    {"nltcs D1.B8.R16", "01ce2d602fb7dbe0"},
    {"nltcs D3.B8.R16", "9e08c89348392f9f"},
    {"msnbc D1.B8.R16", "dd5563d6427fb815"},
    {"msnbc D3.B8.R16", "1a4ae91a9515c1de"},
    {"msweb D1.B8.R16", "8302d71a8bd30b24"},
    {"msweb D3.B8.R16", "60b71fb994d39f74"},
    {"bnetflix D1.B8.R16", "25484ff75cc53e90"},
    {"bnetflix D3.B8.R16", "c790556f31da593b"},
    {"bp_200 D1.B8.R16", "66f88b436b7a7bbe"},
    {"bp_200 D3.B8.R16", "4f4fd1d945a31c60"},
    {"west2021 D1.B8.R16", "aabc8a08bce15b72"},
    {"west2021 D3.B8.R16", "d59938447fde52a7"},
    {"sieber D1.B8.R16", "11d8eb95c364fb60"},
    {"sieber D3.B8.R16", "175e5caebd171bf5"},
    {"jagmesh4 D1.B8.R16", "7c706df666bdf270"},
    {"jagmesh4 D3.B8.R16", "0f0f5f16e4a67c01"},
    {"rdb968 D1.B8.R16", "0c0a567fcf644c41"},
    {"rdb968 D3.B8.R16", "53f57b1e13c19a4a"},
    {"dw2048 D1.B8.R16", "9529413648133fb6"},
    {"dw2048 D3.B8.R16", "640335fe4eaa8e09"},
    {"pigs partitioned", "d5e773ed36f87e23"},
};

TEST(DisasmGolden, WholeProgramTextIsPinned)
{
    std::vector<std::pair<std::string, std::string>> got;
    for (const WorkloadSpec &spec : smallSuite()) {
        Dag d = buildWorkloadDag(spec, 0.1);
        for (uint32_t depth : {1u, 3u}) {
            ArchConfig cfg = smallCfg();
            cfg.depth = depth;
            std::string name = spec.name + " " + cfg.label();
            try {
                got.push_back({name, disasmDigest(compile(d, cfg))});
            } catch (const FatalError &) {
                got.push_back({name, "fatal"}); // register file too small
            }
        }
    }
    // A partitioned large PC: every kind, spills and 64-bank lanes.
    CompileOptions opt;
    opt.partitionNodes = 4000;
    opt.threads = 2;
    got.push_back(
        {"pigs partitioned",
         disasmDigest(compile(buildWorkloadDag(findWorkload("pigs"), 0.05),
                              largeConfig(), opt))});

    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(got[i].first);
        if (i >= kDisasmGolden.size()) {
            ADD_FAILURE() << "missing golden:\n    {\"" << got[i].first
                          << "\", \"" << got[i].second << "\"},";
            continue;
        }
        EXPECT_EQ(got[i].first, kDisasmGolden[i].name);
        EXPECT_EQ(got[i].second, kDisasmGolden[i].digest);
    }
    EXPECT_EQ(got.size(), kDisasmGolden.size());
}

} // namespace
} // namespace dpu
