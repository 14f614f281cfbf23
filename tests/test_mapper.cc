/**
 * @file
 * Unit tests for compilation step 2: PE/register-bank mapping.
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/interconnect.hh"
#include "compiler/blocks.hh"
#include "compiler/mapper.hh"
#include "workloads/pc_generator.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

ArchConfig
cfgOf(uint32_t depth, uint32_t banks,
      OutputInterconnect net = OutputInterconnect::PerLayerSubtree)
{
    ArchConfig c;
    c.depth = depth;
    c.banks = banks;
    c.regsPerBank = 32;
    c.outputNet = net;
    return c;
}

/** The PEs holding v in a block, in placement order. */
std::vector<uint32_t>
replicasOf(const Block &b, NodeId v)
{
    std::vector<uint32_t> pes;
    for (const auto &[node, pe] : b.placements)
        if (node == v)
            pes.push_back(pe);
    return pes;
}

/** Structural invariants every assignment must satisfy. */
void
checkAssignment(const Dag &d, const ArchConfig &cfg,
                const RangeDecomposition &dec, const BankAssignment &ba)
{
    for (NodeId v = 0; v < d.numNodes(); ++v) {
        if (!dec.isIo[v]) {
            EXPECT_EQ(ba.bankOf[v], BankAssignment::invalid);
            continue;
        }
        ASSERT_NE(ba.bankOf[v], BankAssignment::invalid) << "node " << v;
        ASSERT_LT(ba.bankOf[v], cfg.banks);
        if (d.node(v).isInput())
            continue;
        // Constraint H: the chosen writer PE reaches the chosen bank
        // and holds a replica of v.
        uint32_t pe = ba.peOf[v];
        ASSERT_NE(pe, BankAssignment::invalid);
        auto banks = writableBanks(cfg, pe);
        EXPECT_NE(std::find(banks.begin(), banks.end(), ba.bankOf[v]),
                  banks.end());
        auto reps = replicasOf(dec.blocks[dec.blockOf[v]], v);
        EXPECT_NE(std::find(reps.begin(), reps.end(), pe), reps.end());
    }
    // Constraint G: block outputs occupy distinct banks.
    for (const Block &b : dec.blocks) {
        std::set<uint32_t> used;
        for (NodeId v : b.outputs) {
            EXPECT_TRUE(used.insert(ba.bankOf[v]).second)
                << "write conflict in a block";
        }
    }
}

TEST(Mapper, InvariantsOnRandomDag)
{
    Dag d = generateRandomDag(24, 800, 11);
    ArchConfig cfg = cfgOf(3, 16);
    auto dec = decomposeIntoBlocks(d, cfg);
    auto ba = assignBanks(d, cfg, dec);
    checkAssignment(d, cfg, dec, ba);
}

TEST(Mapper, InvariantsUnderCrossbar)
{
    Dag d = generateRandomDag(24, 800, 12);
    ArchConfig cfg = cfgOf(3, 16, OutputInterconnect::Crossbar);
    auto dec = decomposeIntoBlocks(d, cfg);
    auto ba = assignBanks(d, cfg, dec);
    checkAssignment(d, cfg, dec, ba);
}

TEST(Mapper, InvariantsUnderOnePerPe)
{
    Dag d = generateRandomDag(24, 800, 13);
    ArchConfig cfg = cfgOf(3, 16, OutputInterconnect::OnePerPe);
    auto dec = decomposeIntoBlocks(d, cfg);
    auto ba = assignBanks(d, cfg, dec);
    checkAssignment(d, cfg, dec, ba);
}

TEST(Mapper, RandomPolicyAlsoSatisfiesHardConstraints)
{
    Dag d = generateRandomDag(24, 800, 14);
    ArchConfig cfg = cfgOf(3, 16);
    auto dec = decomposeIntoBlocks(d, cfg);
    auto ba = assignBanks(d, cfg, dec, BankPolicy::Random);
    checkAssignment(d, cfg, dec, ba);
}

TEST(Mapper, WriterPeIsFirstCapableReplicaInPlacementOrder)
{
    // Replicas of one node can often all write its bank; the writer
    // is then the first of them in placement order, for both
    // policies, so the choice never depends on container order.
    Dag d = generateRandomDag(24, 800, 15);
    for (auto net : {OutputInterconnect::PerLayerSubtree,
                     OutputInterconnect::Crossbar}) {
        ArchConfig cfg = cfgOf(3, 16, net);
        auto dec = decomposeIntoBlocks(d, cfg);
        for (BankPolicy policy :
             {BankPolicy::ConflictAware, BankPolicy::Random}) {
            auto ba = assignBanks(d, cfg, dec, policy);
            size_t later_capable = 0;
            for (NodeId v = 0; v < d.numNodes(); ++v) {
                if (!dec.isIo[v] || d.node(v).isInput())
                    continue;
                auto reps = replicasOf(dec.blocks[dec.blockOf[v]], v);
                uint32_t first = BankAssignment::invalid;
                for (uint32_t pe : reps) {
                    auto banks = writableBanks(cfg, pe);
                    if (std::find(banks.begin(), banks.end(),
                                  ba.bankOf[v]) != banks.end()) {
                        first = pe;
                        break;
                    }
                }
                EXPECT_EQ(ba.peOf[v], first) << "node " << v;
                if (reps.size() >= 2 && first != reps.back())
                    ++later_capable;
            }
            // Under the crossbar every replica can write every bank,
            // so each replicated output had a later capable replica.
            if (net == OutputInterconnect::Crossbar) {
                EXPECT_GT(later_capable, 0u);
            }
        }
    }
}

TEST(Mapper, ConflictAwareBeatsRandomByALot)
{
    // fig. 10(b): the paper reports 292x on a real workload; on a
    // mid-size synthetic PC we only insist on a large gap.
    PcParams p;
    p.targetOperations = 6000;
    p.depth = 30;
    p.seed = 21;
    Dag d = generatePc(p);
    ArchConfig cfg = cfgOf(3, 64);
    auto dec = decomposeIntoBlocks(d, cfg);
    auto smart = assignBanks(d, cfg, dec, BankPolicy::ConflictAware, 3);
    auto naive = assignBanks(d, cfg, dec, BankPolicy::Random, 3);
    EXPECT_LT(smart.readConflicts * 5, naive.readConflicts)
        << "smart=" << smart.readConflicts
        << " naive=" << naive.readConflicts;
}

TEST(Mapper, CrossbarOutputNoWorseThanPerLayer)
{
    // fig. 6(e): design (a) <= design (b) <= design (c) in conflicts.
    Dag d = generateRandomDag(32, 3000, 15);
    auto dec_a = decomposeIntoBlocks(
        d, cfgOf(3, 32, OutputInterconnect::Crossbar));
    auto dec_b = decomposeIntoBlocks(
        d, cfgOf(3, 32, OutputInterconnect::PerLayerSubtree));
    auto dec_c = decomposeIntoBlocks(
        d, cfgOf(3, 32, OutputInterconnect::OnePerPe));
    auto a = assignBanks(d, cfgOf(3, 32, OutputInterconnect::Crossbar),
                         dec_a);
    auto b = assignBanks(
        d, cfgOf(3, 32, OutputInterconnect::PerLayerSubtree), dec_b);
    auto c = assignBanks(d, cfgOf(3, 32, OutputInterconnect::OnePerPe),
                         dec_c);
    EXPECT_LE(a.readConflicts, b.readConflicts + 1);
    EXPECT_LT(b.readConflicts, c.readConflicts + 1);
}

TEST(Mapper, BankLoadIsBalanced)
{
    // Objective J: io values spread across banks.
    PcParams p;
    p.targetOperations = 4000;
    p.depth = 25;
    p.seed = 22;
    Dag d = generatePc(p);
    ArchConfig cfg = cfgOf(3, 16);
    auto dec = decomposeIntoBlocks(d, cfg);
    auto ba = assignBanks(d, cfg, dec);
    std::vector<uint32_t> count(cfg.banks, 0);
    uint64_t total = 0;
    for (NodeId v = 0; v < d.numNodes(); ++v)
        if (ba.bankOf[v] != BankAssignment::invalid) {
            ++count[ba.bankOf[v]];
            ++total;
        }
    double mean = static_cast<double>(total) / cfg.banks;
    for (uint32_t b = 0; b < cfg.banks; ++b)
        EXPECT_LT(count[b], mean * 2.0) << "bank " << b;
}

TEST(Mapper, CountReadConflictsMatchesField)
{
    Dag d = generateRandomDag(16, 500, 23);
    ArchConfig cfg = cfgOf(2, 16);
    auto dec = decomposeIntoBlocks(d, cfg);
    auto ba = assignBanks(d, cfg, dec);
    EXPECT_EQ(ba.readConflicts, countReadConflicts(dec, ba));
}

TEST(Mapper, CountReadConflictsBeyond64Banks)
{
    // The helper is public and must size its scratch from the
    // assignment, not a hardcoded 64 — bank ids past 63 used to write
    // out of bounds (caught by ASAN).
    RangeDecomposition dec;
    Block b;
    b.inputs = {0, 1, 2};
    dec.blocks.push_back(b);
    BankAssignment ba;
    ba.bankOf = {127, 127, 5};
    EXPECT_EQ(countReadConflicts(dec, ba), 1u);
}

TEST(Mapper, ConfigRejectsMoreThan64Banks)
{
    // Every conflict bookkeeping path keys banks into 64-bit masks,
    // so configurations beyond 64 banks must die at check() instead
    // of corrupting a compile.
    ArchConfig cfg = cfgOf(2, 128);
    EXPECT_THROW(cfg.check(), FatalError);
}

} // namespace
} // namespace dpu
