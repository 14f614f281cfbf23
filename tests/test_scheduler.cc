/**
 * @file
 * Unit tests for compilation step 3: pipeline-aware reordering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "compiler/blocks.hh"
#include "compiler/codegen.hh"
#include "compiler/compiler.hh"
#include "compiler/mapper.hh"
#include "compiler/scheduler.hh"
#include "compiler/verify.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

ArchConfig
cfgOf(uint32_t depth, uint32_t banks)
{
    ArchConfig c;
    c.depth = depth;
    c.banks = banks;
    c.regsPerBank = 64;
    return c;
}

/** Verify a scheduled IR: every read issues at least the producer's
 *  write latency after it (V030), after its write (V001), before its
 *  free (V002), and every instance is written once (V007) and freed
 *  (V005). */
VerifyReport
verifyScheduled(const IrProgram &ir, const ArchConfig &cfg)
{
    VerifyIrOptions opt;
    opt.hazardsResolved = true;
    return verifyIr(ir, cfg, opt);
}

/** A load of row 0 whose value a store to row 1 frees, `gap`
 *  instructions later. */
IrProgram
loadThenStore(uint32_t gap)
{
    IrProgram ir;
    ir.inputRows = 1;
    ir.outputRows = 1;
    ir.instances.push_back({0, 0, 0});
    IrInstr load;
    load.kind = InstrKind::Load;
    load.writes.push_back({0});
    IrInstr store;
    store.kind = InstrKind::Store;
    store.memRow = 1;
    store.reads.push_back({0, true});
    ir.instrs.push_back(load);
    for (uint32_t i = 1; i < gap; ++i)
        ir.instrs.push_back(IrInstr{}); // nop
    ir.instrs.push_back(store);
    return ir;
}

/** The unscheduled IR of an unpartitioned compile: one fragment
 *  covering the whole DAG, final stores included. */
IrFragment
fragmentFor(const Dag &d, const ArchConfig &cfg)
{
    auto dec = decomposeIntoBlocks(d, cfg);
    auto ba = assignBanks(d, cfg, dec);
    const std::vector<NodeId> sinks = d.sinks();
    const std::vector<std::span<const Block>> parts{dec.blocks};
    const CodegenShared shared = computeCodegenShared(d, sinks, parts);
    return generateIrForRange(d, cfg, parts[0],
                              {0, static_cast<NodeId>(d.numNodes())}, ba,
                              shared, 0);
}

TEST(Scheduler, ChainNeedsNops)
{
    // A pure dependency chain cannot hide any latency: expect nops.
    Dag d;
    NodeId prev = d.addInput();
    NodeId other = d.addInput();
    for (int i = 0; i < 12; ++i)
        prev = d.addNode(OpType::Add, {prev, other});
    ArchConfig cfg = cfgOf(3, 8);
    IrFragment f = fragmentFor(d, cfg);
    auto stats = reorderFragment(f, cfg);
    EXPECT_TRUE(verifyScheduled(f.ir, cfg).clean());
    EXPECT_GT(stats.nopsInserted, 0u);
}

TEST(Scheduler, WideDagNeedsFewNops)
{
    // Thousands of independent two-level reductions: the scheduler
    // should hide nearly all hazards.
    Dag d;
    Rng rng(31);
    std::vector<NodeId> ins;
    for (int i = 0; i < 64; ++i)
        ins.push_back(d.addInput());
    for (int i = 0; i < 500; ++i) {
        NodeId a = d.addNode(OpType::Add,
                             {rng.pick(ins), rng.pick(ins)});
        d.addNode(OpType::Mul, {a, rng.pick(ins)});
    }
    ArchConfig cfg = cfgOf(3, 16);
    IrFragment f = fragmentFor(d, cfg);
    size_t before = f.ir.instrs.size();
    auto stats = reorderFragment(f, cfg);
    EXPECT_TRUE(verifyScheduled(f.ir, cfg).clean());
    EXPECT_LT(stats.nopsInserted, before / 10);
}

TEST(Scheduler, ReorderedFragmentIsNearItsLowerBound)
{
    // No schedule is shorter than the gap-weighted longest path of
    // the dependence graph or than its instruction count. With blocks
    // that rarely read the last few blocks, the count binds on mnist
    // (549 instructions, path 446) and step 3 ends 11 % above it
    // (610 slots); when step 1 chained every block to the one before,
    // the path bound (1,364) and the schedule (1,385) were 1.5 % apart.
    const PreparedDag p = prepareDag(buildWorkloadDag(findWorkload("mnist")));
    const ArchConfig cfg = minEdpConfig();
    IrFragment f = fragmentFor(p.dag, cfg);
    const uint64_t count = f.ir.instrs.size();
    const ScheduleStats stats = reorderFragment(f, cfg);
    EXPECT_TRUE(verifyScheduled(f.ir, cfg).clean());
    const uint64_t bound = std::max(stats.criticalPath, count);
    EXPECT_GE(f.ir.instrs.size(), bound);
    EXPECT_LE(f.ir.instrs.size() * 100, bound * 112);
}

TEST(Scheduler, HazardCheckerCatchesRawViolation)
{
    // A back-to-back producer/consumer violates the 2-cycle load
    // latency: exactly one V030.
    VerifyReport report = verifyScheduled(loadThenStore(1), cfgOf(1, 2));
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.toString();
    EXPECT_EQ(report.diagnostics[0].code, VerifyCode::PipelineHazard);
    EXPECT_EQ(report.diagnostics[0].instrIndex, 1u);
}

TEST(Scheduler, HazardCheckerAcceptsPaddedVersion)
{
    VerifyReport report = verifyScheduled(loadThenStore(2), cfgOf(1, 2));
    EXPECT_TRUE(report.clean()) << report.toString();
}

/** One copy_4 slot: the instance it reads, whether that read frees
 *  it, and the instance it writes. */
using CopySlot = std::tuple<InstanceId, bool, InstanceId>;

/** Every copy_4 slot of an IR list, sorted. */
std::vector<CopySlot>
copySlotsOf(const IrProgram &ir)
{
    std::vector<CopySlot> slots;
    for (const IrInstr &in : ir.instrs)
        if (in.kind == InstrKind::Copy4)
            for (size_t k = 0; k < in.reads.size(); ++k)
                slots.emplace_back(in.reads[k].inst, in.reads[k].lastRead,
                                   in.writes[k].inst);
    std::sort(slots.begin(), slots.end());
    return slots;
}

TEST(Scheduler, PreservesInstructionMultiset)
{
    // Step 3 reorders, adds nops and may issue several ready copies
    // as one copy_4. So every other kind keeps its count, nops only
    // grow, copy_4s never do, and the copy slots (read instance,
    // valid_rst, written instance) are the same multiset.
    Dag d = generateRandomDag(16, 400, 33);
    ArchConfig cfg = cfgOf(2, 16);
    IrFragment f = fragmentFor(d, cfg);
    std::array<size_t, 6> before{};
    for (const auto &in : f.ir.instrs)
        ++before[static_cast<size_t>(in.kind)];
    const std::vector<CopySlot> slots = copySlotsOf(f.ir);
    ASSERT_FALSE(slots.empty());
    reorderFragment(f, cfg);
    std::array<size_t, 6> after{};
    for (const auto &in : f.ir.instrs)
        ++after[static_cast<size_t>(in.kind)];
    for (size_t k = 0; k < 6; ++k) {
        if (k == static_cast<size_t>(InstrKind::Nop))
            EXPECT_GE(after[k], before[k]);
        else if (k == static_cast<size_t>(InstrKind::Copy4))
            EXPECT_LE(after[k], before[k]);
        else
            EXPECT_EQ(after[k], before[k]) << "kind " << k;
    }
    EXPECT_EQ(copySlotsOf(f.ir), slots);
}

/**
 * A fragment in which two blocks each copy a loaded value out of a
 * conflicting bank: load a (bank 0) and b (`bBank`), then per block a
 * copy_4 of one value (a -> bank 2, b -> `bDst`) and the exec reading
 * the copy. Both copies become ready when the load lands.
 */
IrFragment
twoBlockCopies(uint32_t bBank, uint32_t bDst, const ArchConfig &cfg)
{
    IrFragment f;
    f.last = true;
    IrProgram &ir = f.ir;
    ir.inputRows = 2;
    ir.instances = {{0, 0}, {1, bBank}, {0, 2}, {1, bDst}};
    auto instr = [&](InstrKind kind, std::vector<IrRead> reads,
                     std::vector<IrWrite> writes, uint32_t row = 0) {
        IrInstr in;
        in.kind = kind;
        in.memRow = row;
        in.reads = std::move(reads);
        in.writes = std::move(writes);
        if (kind == InstrKind::Exec) {
            in.blockId = 0;
            in.inputSel.assign(cfg.banks, 0);
        }
        ir.instrs.push_back(std::move(in));
    };
    if (bBank == 0) { // one load writes a bank once
        instr(InstrKind::Load, {}, {{0}}, 0);
        instr(InstrKind::Load, {}, {{1}}, 1);
    } else {
        instr(InstrKind::Load, {}, {{0}, {1}}, 0);
    }
    instr(InstrKind::Copy4, {{0, true}}, {{2}});
    instr(InstrKind::Exec, {{2, true}}, {});
    instr(InstrKind::Copy4, {{1, true}}, {{3}});
    instr(InstrKind::Exec, {{3, true}}, {});
    return f;
}

size_t
copy4Count(const IrProgram &ir)
{
    return std::count_if(ir.instrs.begin(), ir.instrs.end(),
                         [](const IrInstr &in) {
                             return in.kind == InstrKind::Copy4;
                         });
}

TEST(Scheduler, CoIssuesReadyCopies)
{
    const ArchConfig cfg = cfgOf(1, 8);
    IrFragment f = twoBlockCopies(1, 3, cfg);
    const std::vector<CopySlot> slots = copySlotsOf(f.ir);
    reorderFragment(f, cfg);
    EXPECT_TRUE(verifyScheduled(f.ir, cfg).clean());
    ASSERT_EQ(copy4Count(f.ir), 1u);
    auto copy = std::find_if(f.ir.instrs.begin(), f.ir.instrs.end(),
                             [](const IrInstr &in) {
                                 return in.kind == InstrKind::Copy4;
                             });
    EXPECT_EQ(copy->reads.size(), 2u);
    EXPECT_EQ(copySlotsOf(f.ir), slots);
}

TEST(Scheduler, NeverCoIssuesCopiesSharingABank)
{
    // The two copies read one bank, or write one: each keeps its own
    // copy_4 (one read port and one write per bank per cycle).
    const ArchConfig cfg = cfgOf(1, 8);
    for (auto [bBank, bDst] : {std::pair{0u, 3u}, std::pair{1u, 2u}}) {
        IrFragment f = twoBlockCopies(bBank, bDst, cfg);
        reorderFragment(f, cfg);
        EXPECT_TRUE(verifyScheduled(f.ir, cfg).clean());
        EXPECT_EQ(copy4Count(f.ir), 2u) << bBank << " " << bDst;
    }
    // Codegen's copies on a random DAG: wherever step 3 merges them,
    // no two slots of a copy_4 read one bank or write one (V003).
    Dag d = generateRandomDag(16, 600, 37);
    IrFragment f = fragmentFor(d, cfgOf(2, 16));
    const size_t before = copy4Count(f.ir);
    reorderFragment(f, cfgOf(2, 16));
    EXPECT_LT(copy4Count(f.ir), before);
    EXPECT_TRUE(verifyScheduled(f.ir, cfgOf(2, 16)).clean());
}

TEST(Scheduler, TightWindowInsertsMoreNops)
{
    Dag d = generateRandomDag(16, 800, 34);
    ArchConfig cfg = cfgOf(3, 16);
    IrFragment a = fragmentFor(d, cfg);
    IrFragment b = fragmentFor(d, cfg);
    auto wide = reorderFragment(a, cfg, 300);
    auto tight = reorderFragment(b, cfg, 1);
    EXPECT_TRUE(verifyScheduled(a.ir, cfg).clean());
    EXPECT_TRUE(verifyScheduled(b.ir, cfg).clean());
    EXPECT_LE(wide.nopsInserted, tight.nopsInserted);
}

TEST(Scheduler, RawIrFromCodegenHasNoUseBeforeDef)
{
    // Codegen emits in block order: no read-before-write even before
    // scheduling (only latencies are violated).
    Dag d = generateRandomDag(12, 300, 35);
    ArchConfig cfg = cfgOf(2, 8);
    IrFragment f = fragmentFor(d, cfg);
    std::vector<bool> written(f.ir.instances.size(), false);
    for (const auto &in : f.ir.instrs) {
        for (const auto &r : in.reads)
            EXPECT_TRUE(written[r.inst]);
        for (const auto &w : in.writes)
            written[w.inst] = true;
    }
}

TEST(Scheduler, LastFragmentMustFreeEveryInstance)
{
    // The fragment holding the final stores frees every instance it
    // writes; a store that no longer frees its source is a leak the
    // scheduler reports. An earlier fragment may export the value.
    Dag d = generateRandomDag(8, 100, 36);
    ArchConfig cfg = cfgOf(2, 8);
    IrFragment f = fragmentFor(d, cfg);
    ASSERT_TRUE(f.last);
    auto store = std::find_if(f.ir.instrs.begin(), f.ir.instrs.end(),
                              [](const IrInstr &in) {
                                  return in.kind == InstrKind::Store4 ||
                                         in.kind == InstrKind::Store;
                              });
    ASSERT_NE(store, f.ir.instrs.end());
    store->reads[0].lastRead = false;

    IrFragment exported = f;
    exported.last = false;
    EXPECT_NO_THROW(reorderFragment(exported, cfg));
    try {
        reorderFragment(f, cfg);
        ADD_FAILURE() << "leak not reported";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("instance never freed"),
                  std::string::npos)
            << "panic was: " << e.what();
    }
}

} // namespace
} // namespace dpu
