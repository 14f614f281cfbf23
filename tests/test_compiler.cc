/**
 * @file
 * Tests for the compiler driver: step 4 spilling, statistics, program
 * footprint, and end-to-end compilation of structured workloads.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "compiler/finalize.hh"
#include "compiler/verify.hh"
#include "dag/algorithms.hh"
#include "dag/binarize.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/sparse_matrix.hh"
#include "workloads/sptrsv.hh"
#include "workloads/suite.hh"

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

std::vector<double>
randomInputs(const Dag &d, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(d.numInputs());
    for (auto &x : v)
        x = 0.5 + rng.uniform();
    return v;
}

TEST(Compiler, TinyDagCompilesAndRuns)
{
    Dag d;
    NodeId a = d.addInput();
    NodeId b = d.addInput();
    NodeId c = d.addInput();
    NodeId s1 = d.addNode(OpType::Add, {a, b});
    NodeId s2 = d.addNode(OpType::Add, {b, c});
    d.addNode(OpType::Mul, {s1, s2});

    ArchConfig cfg = cfgOf(2, 8, 16);
    CompileOptions opt;
    opt.verify = true;
    auto prog = compile(d, cfg, opt);
    EXPECT_GT(prog.instructions.size(), 0u);
    EXPECT_EQ(prog.stats.numOperations, 3u);

    auto res = runAndCheck(prog, d, {1.0, 2.0, 4.0});
    ASSERT_EQ(res.outputs.size(), 1u);
    EXPECT_DOUBLE_EQ(res.outputs[0], 18.0);
}

TEST(Compiler, MultiInputNodesAreBinarized)
{
    Dag d;
    std::vector<NodeId> ins;
    for (int i = 0; i < 6; ++i)
        ins.push_back(d.addInput());
    d.addNode(OpType::Add, {ins});
    ArchConfig cfg = cfgOf(3, 8, 16);
    CompileOptions opt;
    opt.verify = true;
    auto prog = compile(d, cfg, opt);
    auto inputs = randomInputs(d, 40);
    runAndCheck(prog, d, inputs);
    EXPECT_EQ(prog.stats.numOperations, 5u); // 6-input add -> 5 nodes
}

TEST(Compiler, SpillingKicksInForTinyRegisterFile)
{
    Dag d = generateRandomDag(32, 1200, 41);
    ArchConfig big = cfgOf(2, 8, 128);
    ArchConfig tiny = cfgOf(2, 8, 8);
    CompileOptions opt;
    opt.verify = true;
    auto prog_big = compile(d, big, opt);
    auto prog_tiny = compile(d, tiny, opt);
    EXPECT_EQ(prog_big.stats.spillStores, 0u);
    EXPECT_GT(prog_tiny.stats.spillStores, 0u);
    EXPECT_GT(prog_tiny.stats.reloads, 0u);
    // And both still compute the right thing.
    auto inputs = randomInputs(d, 42);
    runAndCheck(prog_big, d, inputs);
    runAndCheck(prog_tiny, d, inputs);
}

TEST(Compiler, SpillingCostsCycles)
{
    Dag d = generateRandomDag(32, 1200, 43);
    auto a = compile(d, cfgOf(2, 8, 128));
    auto b = compile(d, cfgOf(2, 8, 8));
    EXPECT_GT(b.stats.cycles, a.stats.cycles);
}

TEST(Compiler, StatsAreConsistent)
{
    Dag d = generateRandomDag(24, 900, 44);
    auto prog = compile(d, cfgOf(3, 16, 32));
    const auto &s = prog.stats;
    uint64_t total = 0;
    for (uint64_t k : s.kindCount)
        total += k;
    EXPECT_EQ(total, s.instructions);
    EXPECT_EQ(s.instructions, prog.instructions.size());
    EXPECT_EQ(s.cycles, s.instructions + prog.cfg.pipelineStages());
    EXPECT_GT(s.kindCount[static_cast<size_t>(InstrKind::Exec)], 0u);
    EXPECT_GT(s.kindCount[static_cast<size_t>(InstrKind::Load)], 0u);
    EXPECT_GT(s.programBits, 0u);
    EXPECT_EQ(s.numOperations, 900u);
}

TEST(Compiler, AutomaticWritePolicyShrinksPrograms)
{
    // §III-B: ~30% program-size reduction on average. Insist on >10%.
    PcParams p;
    p.targetOperations = 3000;
    p.depth = 24;
    p.seed = 45;
    Dag d = generatePc(p);
    auto prog = compile(d, cfgOf(3, 16, 32));
    EXPECT_LT(prog.stats.programBits,
              prog.stats.programBitsExplicitWrites * 0.9)
        << "auto " << prog.stats.programBits << " explicit "
        << prog.stats.programBitsExplicitWrites;
}

TEST(Compiler, FootprintBeatsCsrForPc)
{
    // §IV-E: instructions + data beat the CSR representation.
    PcParams p;
    p.targetOperations = 4000;
    p.depth = 30;
    p.seed = 46;
    Dag d = generatePc(p);
    auto prog = compile(d, minEdpConfig());
    EXPECT_LT(prog.stats.programBits + prog.stats.dataBits,
              prog.stats.csrBits * 1.3)
        << "program " << prog.stats.programBits << " + data "
        << prog.stats.dataBits << " vs CSR " << prog.stats.csrBits;
}

TEST(Compiler, PartitionedCompileMatchesUnpartitioned)
{
    Dag d = generateRandomDag(64, 3000, 47);
    ArchConfig cfg = cfgOf(3, 16, 64);
    CompileOptions part;
    part.partitionNodes = 500;
    part.verify = true;
    auto prog = compile(d, cfg, part);
    auto inputs = randomInputs(d, 48);
    runAndCheck(prog, d, inputs);
}

TEST(Compiler, SptrsvEndToEnd)
{
    LowerTriangularParams p;
    p.dim = 200;
    p.depthLevels = 20;
    p.avgOffDiagonal = 3.0;
    p.seed = 49;
    auto m = makeLowerTriangular(p);
    auto lowered = buildSpTrsvDag(m);

    ArchConfig cfg = minEdpConfig();
    CompileOptions opt;
    opt.verify = true;
    auto prog = compile(lowered.dag, cfg, opt);

    Rng rng(50);
    std::vector<double> b(m.dim());
    for (auto &x : b)
        x = rng.uniform() * 2 - 1;
    auto inputs = sptrsvInputValues(lowered, m, b);
    runAndCheck(prog, lowered.dag, inputs);
}

TEST(Compiler, DeterministicForFixedSeed)
{
    Dag d = generateRandomDag(16, 500, 51);
    ArchConfig cfg = cfgOf(3, 16, 32);
    CompileOptions opt;
    opt.seed = 7;
    auto a = compile(d, cfg, opt);
    auto b = compile(d, cfg, opt);
    EXPECT_EQ(a.instructions.size(), b.instructions.size());
    EXPECT_EQ(a.stats.programBits, b.stats.programBits);
    EXPECT_EQ(encodeProgram(cfg, a.instructions),
              encodeProgram(cfg, b.instructions));
}

TEST(Compiler, EncodedProgramDecodesToSameInstructions)
{
    Dag d = generateRandomDag(16, 300, 52);
    ArchConfig cfg = cfgOf(2, 16, 32);
    auto prog = compile(d, cfg);
    auto image = encodeProgram(cfg, prog.instructions);
    auto back = decodeProgram(cfg, image, prog.instructions.size());
    ASSERT_EQ(back.size(), prog.instructions.size());
    for (size_t i = 0; i < back.size(); ++i)
        EXPECT_EQ(back[i], prog.instructions[i]) << "instr " << i;

    // Random legal configs: every lane width and all three output
    // nets round-trip, and so do the serialized bytes.
    const OutputInterconnect nets[] = {OutputInterconnect::Crossbar,
                                       OutputInterconnect::PerLayerSubtree,
                                       OutputInterconnect::OnePerPe};
    Rng rng(52);
    for (int k = 0; k < 12; ++k) {
        ArchConfig c = cfgOf(1 + static_cast<uint32_t>(rng.below(3)),
                             8u << rng.below(4), 64);
        c.outputNet = nets[k % 3];
        SCOPED_TRACE(c.label() + " " + interconnectName(c.outputNet));
        CompiledProgram p =
            compile(generateRandomDag(12, 250, 60 + k), c);
        EXPECT_EQ(decodeProgram(c, encodeProgram(c, p.instructions),
                                p.instructions.size()),
                  p.instructions);
        const std::vector<uint8_t> bytes = serializeProgram(p);
        CompiledProgram q;
        ASSERT_TRUE(deserializeProgram(bytes, q));
        EXPECT_EQ(q.instructions, p.instructions);
        EXPECT_EQ(serializeProgram(q), bytes);
    }
}

TEST(Compiler, FewNopsOnTheSmallSuite)
{
    // Step 1 keeps back-to-back blocks independent, so step 3 fills
    // nearly every pipeline slot. Nearest-first block picking left
    // 58 % (mnist) and 49 % (bp_200) of the instructions nops.
    for (const char *name : {"mnist", "bp_200"}) {
        const CompiledProgram p =
            compile(buildWorkloadDag(findWorkload(name)), minEdpConfig());
        EXPECT_LE(p.stats.nops * 100, p.stats.instructions * 15) << name;
    }
}

TEST(Compiler, RegisterFileTooSmallFails)
{
    Dag d = generateRandomDag(64, 2000, 53);
    ArchConfig cfg = cfgOf(3, 8, 2);
    EXPECT_THROW(compile(d, cfg), FatalError);
}

TEST(Finalizer, Copy4FreesBeforeItWrites)
{
    // Two inputs load into banks 0 and 1 (address 0 each). One copy_4
    // moves a: bank 0 -> 1 and b: bank 1 -> 2, both slots freeing
    // their source. The machine frees b's register before any slot
    // writes, so a's copy lands at bank 1 address 0, where b was; a
    // finalizer that placed slot 0's write before slot 1's read
    // resolved it to address 1, which the machine never writes.
    Dag d;
    const NodeId a = d.addInput();
    const NodeId b = d.addInput();
    const ArchConfig cfg = cfgOf(1, 4, 2);
    IrProgram ir;
    ir.inputRows = 1;
    ir.outputRows = 1;
    ir.inputLocation = {{0, 0}, {0, 1}};
    ir.instances = {{a, 0}, {b, 1}, {a, 1}, {b, 2}};
    IrInstr load;
    load.kind = InstrKind::Load;
    load.writes = {{0}, {1}};
    IrInstr copy;
    copy.kind = InstrKind::Copy4;
    copy.reads = {{0, true}, {1, true}};
    copy.writes = {{2}, {3}};
    IrInstr store;
    store.kind = InstrKind::Store;
    store.memRow = 1;
    store.reads = {{2, true}, {3, true}};
    ir.instrs = {load, IrInstr{}, copy, IrInstr{}, store};
    ir.outputs = {{a, 1, 1}, {b, 1, 2}};

    ProgramFinalizer fin(cfg, [](uint32_t) -> const Block & {
        dpu_panic("no exec in this program");
    });
    fin.appendChunk(ir, 0, 0);
    CompiledProgram prog = fin.finish(ir, 0);
    prog.stats.programBits = programSizeBits(cfg, prog.instructions);
    prog.stats.dataBits = uint64_t(prog.numRows) * cfg.banks * 32;
    ASSERT_EQ(prog.instructions.size(), 5u);
    ASSERT_EQ(prog.instructions[4].kind, InstrKind::Store);
    EXPECT_EQ(prog.instructions.readAddr(4)[1], 0u);
    const VerifyReport report = verifyProgram(prog);
    EXPECT_TRUE(report.clean()) << report.toString();
    runAndCheck(prog, d, randomInputs(d, 7));
}

/** FNV-1a-64 of a byte sequence, as 16 hex digits. */
template <typename Bytes>
std::string
fnvDigest(const Bytes &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (auto b : bytes) {
        h ^= static_cast<uint8_t>(b);
        h *= 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

/** FNV-1a-64 of the serialized program. */
std::string
programDigest(const CompiledProgram &prog)
{
    return fnvDigest(serializeProgram(prog));
}

struct ProgramGolden
{
    const char *name;
    const char *digest; ///< programDigest, or "fatal" if infeasible.
};

// A compiler change that keeps its output must pass these unedited;
// one that changes the output re-pins them deliberately. Rows whose
// copy_4 count fell were last re-pinned when step 3 began to co-issue
// ready copies into one copy_4; the other rows when step 1 became
// latency-aware and the image dropped its host times.
const std::vector<ProgramGolden> kProgramGolden = {
    {"tretail D1.B8.R16", "14d3db002167f626"},
    {"tretail D3.B64.R32", "db8b3bbcbc160ca8"},
    {"mnist D1.B8.R16", "66345f9cd5ecfd93"},
    {"mnist D3.B64.R32", "5005578c9f26ae04"},
    {"nltcs D1.B8.R16", "24586c818003ad9b"},
    {"nltcs D3.B64.R32", "a65bc700570f852a"},
    {"msnbc D1.B8.R16", "31a798501a35fe02"},
    {"msnbc D3.B64.R32", "2c869f6761692301"},
    {"msweb D1.B8.R16", "0403a76aae9074f9"},
    {"msweb D3.B64.R32", "567624bebb6a32e6"},
    {"bnetflix D1.B8.R16", "8666b3d8cb0bdfbe"},
    {"bnetflix D3.B64.R32", "75173ff678810c47"},
    {"bp_200 D1.B8.R16", "c74cba90d6853a65"},
    {"bp_200 D3.B64.R32", "f99c357f3cb4fadb"},
    {"west2021 D1.B8.R16", "3321d16e5925bbfa"},
    {"west2021 D3.B64.R32", "41f48a36c23eeb97"},
    {"sieber D1.B8.R16", "321b5ce5adffcc3c"},
    {"sieber D3.B64.R32", "3b7c9fdc81ed4ba5"},
    {"jagmesh4 D1.B8.R16", "155f0dbbd04a3b37"},
    {"jagmesh4 D3.B64.R32", "d87d27fa36a25b5d"},
    {"rdb968 D1.B8.R16", "31c51460314d26b2"},
    {"rdb968 D3.B64.R32", "bf287b60ab9324ff"},
    {"dw2048 D1.B8.R16", "0affbfb74dc343e7"},
    {"dw2048 D3.B64.R32", "ce23e35d95ea6c7d"},
    {"pigs partitioned threads=1", "d78f8f14a7f30801"},
    {"pigs partitioned threads=4", "d78f8f14a7f30801"},
    {"tretail D3.B64.R32 random", "82dbab45b211d4b2"},
    {"pigs partitioned boundary-oblivious", "201023826953b916"},
    {"tretail D3.B64.R32 crossbar", "f5b5581afd9c8773"},
    {"tretail D3.B64.R32 one-per-pe", "0444af338792f717"},
};

TEST(CompileGolden, ProgramBytesArePinned)
{
    std::vector<std::pair<std::string, std::string>> got;
    for (const WorkloadSpec &spec : smallSuite()) {
        Dag d = buildWorkloadDag(spec, 0.1);
        for (ArchConfig cfg : {cfgOf(1, 8, 16), cfgOf(3, 64, 32)}) {
            std::string name = spec.name + " D" +
                               std::to_string(cfg.depth) + ".B" +
                               std::to_string(cfg.banks) + ".R" +
                               std::to_string(cfg.regsPerBank);
            try {
                got.push_back({name, programDigest(compile(d, cfg))});
            } catch (const FatalError &) {
                got.push_back({name, "fatal"}); // register file too small
            }
        }
    }
    // The partitioned pipeline: a Table I(c) twin in 4000-node
    // partitions, sequential and threaded.
    Dag pigs = buildWorkloadDag(findWorkload("pigs"), 0.05);
    for (uint32_t threads : {1u, 4u}) {
        CompileOptions opt;
        opt.partitionNodes = 4000;
        opt.threads = threads;
        got.push_back({"pigs partitioned threads=" +
                           std::to_string(threads),
                       programDigest(compile(pigs, largeConfig(), opt))});
    }
    // Step-2 paths the rows above never take: the Random policy, the
    // boundary-oblivious partitioned mapper and the other two output
    // nets.
    Dag tretail = buildWorkloadDag(findWorkload("tretail"), 0.1);
    {
        CompileOptions opt;
        opt.bankPolicy = BankPolicy::Random;
        got.push_back({"tretail D3.B64.R32 random",
                       programDigest(compile(tretail, cfgOf(3, 64, 32),
                                             opt))});
    }
    {
        CompileOptions opt;
        opt.partitionNodes = 4000;
        opt.boundaryAwareBanks = false;
        got.push_back({"pigs partitioned boundary-oblivious",
                       programDigest(compile(pigs, largeConfig(), opt))});
    }
    for (auto [net, label] :
         {std::pair{OutputInterconnect::Crossbar, "crossbar"},
          std::pair{OutputInterconnect::OnePerPe, "one-per-pe"}}) {
        ArchConfig cfg = cfgOf(3, 64, 32);
        cfg.outputNet = net;
        got.push_back({std::string("tretail D3.B64.R32 ") + label,
                       programDigest(compile(tretail, cfg))});
    }

    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(got[i].first);
        if (i >= kProgramGolden.size()) {
            ADD_FAILURE() << "missing golden:\n    {\"" << got[i].first
                          << "\", \"" << got[i].second << "\"},";
            continue;
        }
        EXPECT_EQ(got[i].first, kProgramGolden[i].name);
        EXPECT_EQ(got[i].second, kProgramGolden[i].digest);
    }
    EXPECT_EQ(got.size(), kProgramGolden.size());
}

// One digest per (D, B) group of the DSE's classic grid at R = 32: the
// FNV-1a-64 of the small suite's serialized programs at scale 0.05,
// in suite order, a program that does not fit counting as "fatal".
// Last re-pinned when step 3 began to co-issue ready copies.
const std::vector<ProgramGolden> kDseGridGolden = {
    {"D1.B8", "e6ad2b52ca08d7fb"},
    {"D1.B16", "fe8d596f318c8304"},
    {"D1.B32", "93aba6006c72ccae"},
    {"D1.B64", "27af65f65aafd0d6"},
    {"D2.B8", "d1a2f97f8d6bea81"},
    {"D2.B16", "6c048ca0936ec307"},
    {"D2.B32", "deee214287d45756"},
    {"D2.B64", "c360b8b66e360042"},
    {"D3.B8", "a6a4439fd70c4b1d"},
    {"D3.B16", "f5c3977c77d32394"},
    {"D3.B32", "92082fa4e412656e"},
    {"D3.B64", "054338ca20f42376"},
};

TEST(CompileGolden, DseGridProgramsArePinned)
{
    // The DSE compiles every group through fragment-cache hits: each
    // group is compiled without a cache, then twice through one shared
    // FragmentCache, a pass of misses and a pass of hits, and all
    // three give the pinned bytes.
    std::vector<PreparedDag> suite;
    for (const WorkloadSpec &spec : smallSuite())
        suite.push_back(prepareDag(buildWorkloadDag(spec, 0.05)));
    FragmentCache fragments(suite.size());
    size_t row = 0;
    for (uint32_t depth : {1u, 2u, 3u})
        for (uint32_t banks : {8u, 16u, 32u, 64u}) {
            const ArchConfig cfg = cfgOf(depth, banks, 32);
            const std::string name =
                "D" + std::to_string(depth) + ".B" + std::to_string(banks);
            SCOPED_TRACE(name);
            auto group_digest = [&](FragmentCache *cache) {
                CompileOptions opt;
                opt.fragmentCache = cache;
                std::string all;
                for (const PreparedDag &dag : suite) {
                    try {
                        all += programDigest(compile(dag, cfg, opt));
                    } catch (const FatalError &) {
                        all += "fatal";
                    }
                }
                return fnvDigest(all);
            };
            const std::string cold = group_digest(nullptr);
            const FragmentCache::Stats before = fragments.stats();
            const std::string missed = group_digest(&fragments);
            const FragmentCache::Stats mid = fragments.stats();
            const std::string hit = group_digest(&fragments);
            const FragmentCache::Stats after = fragments.stats();
            EXPECT_EQ(mid.misses - before.misses, suite.size());
            EXPECT_EQ(mid.hits, before.hits);
            EXPECT_EQ(after.hits - mid.hits, suite.size());
            EXPECT_EQ(after.misses, mid.misses);
            EXPECT_EQ(missed, cold);
            EXPECT_EQ(hit, cold);
            ASSERT_LT(row, kDseGridGolden.size());
            EXPECT_EQ(name, kDseGridGolden[row].name);
            EXPECT_EQ(cold, kDseGridGolden[row].digest);
            ++row;
        }
    EXPECT_EQ(row, kDseGridGolden.size());
}

} // namespace
} // namespace dpu
