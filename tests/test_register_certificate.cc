/**
 * @file
 * Tests for register certificates (RegisterCertificate in
 * compiler/program.hh): a compile that neither throttled nor spilled
 * is exact for every register count its peaks admit, so a program
 * derived for such a count must equal a direct compile there, byte
 * for byte and in every simulated count; a DSE sweep task serves
 * admitted counts by derivation, and the DSE's points do not move.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "compiler/cache.hh"
#include "model/dse.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

/** Every SimStats field. */
auto
statsKey(const SimStats &s)
{
    return std::tie(s.cycles, s.kindCount, s.bankReads, s.bankWrites,
                    s.peOperations, s.pePassThroughs, s.crossbarTransfers,
                    s.memReads, s.memWrites, s.instrBitsFetched,
                    s.peakLiveRegisters, s.occupancyTrace, s.traceStride);
}

SimStats
runStats(const CompiledProgram &prog, size_t numInputs, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> inputs(numInputs);
    for (double &x : inputs)
        x = 0.5 + rng.uniform();
    return Machine(prog).run(inputs).stats;
}

/** A compile, or nothing when the configuration cannot fit. */
template <typename Fn>
std::optional<CompiledProgram>
compiledOrInfeasible(Fn &&fn)
{
    try {
        return fn();
    } catch (const FatalError &) {
        return std::nullopt;
    }
}

ArchConfig
cfgOf(uint32_t depth, uint32_t banks, uint32_t regs)
{
    ArchConfig c;
    c.depth = depth;
    c.banks = banks;
    c.regsPerBank = regs;
    return c;
}

TEST(RegisterCertificate, DerivedEqualsDirectCompile)
{
    // Random DAGs x random legal (D, B) x every output net x whole and
    // partitioned compiles (boundary-aware mapping on and off) x both
    // bank policies, compiled at several R, half of them over a warm
    // fragment cache. Wherever the compile at R admits R', the program
    // derived from it must equal a cold compile at R' byte for byte
    // and in every SimStats field, and that compile must carry the
    // same certificate.
    const uint32_t regs[] = {4, 8, 16, 24, 32, 64, 128};
    const BankPolicy policies[] = {BankPolicy::ConflictAware,
                                   BankPolicy::Random};
    Rng rng(20261018);
    FragmentCache fragments(8);
    size_t derived = 0, spilled = 0, throttledOnly = 0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
        const size_t ops = 150 + rng.below(350);
        Dag d = generateRandomDag(8 + rng.below(24), ops, seed);
        ArchConfig cfg;
        cfg.depth = 1 + static_cast<uint32_t>(rng.below(3));
        cfg.banks = (1u << cfg.depth) << rng.below(3);
        cfg.outputNet = static_cast<OutputInterconnect>(seed % 3);
        CompileOptions opt;
        opt.seed = seed;
        opt.bankPolicy = policies[(seed / 3) % 2];
        opt.partitionNodes = seed % 2 ? 0 : static_cast<uint32_t>(ops / 3);
        opt.boundaryAwareBanks = (seed / 2) % 2 == 0;
        opt.verify = true;
        CompileOptions warm = opt;
        warm.fragmentCache = seed % 4 < 2 ? &fragments : nullptr;

        std::vector<std::optional<CompiledProgram>> cold, base;
        for (uint32_t r : regs) {
            cfg.regsPerBank = r;
            cold.push_back(
                compiledOrInfeasible([&] { return compile(d, cfg, opt); }));
            base.push_back(
                compiledOrInfeasible([&] { return compile(d, cfg, warm); }));
        }
        for (size_t i = 0; i < std::size(regs); ++i) {
            if (!base[i])
                continue;
            const CompiledProgram &from = *base[i];
            const RegisterCertificate &cert = from.registers;
            const uint64_t high_water =
                uint64_t(cfg.banks) * regs[i] / 2;
            spilled += from.stats.spillStores > 0;
            throttledOnly += from.stats.spillStores == 0 &&
                             cert.peakLive >=
                                 static_cast<int64_t>(high_water);
            EXPECT_EQ(cert.valid, from.stats.spillStores == 0 &&
                                      cert.peakLive <
                                          static_cast<int64_t>(high_water));
            for (size_t j = 0; j < std::size(regs); ++j) {
                cfg.regsPerBank = regs[j];
                if (!cert.admits(cfg))
                    continue;
                EXPECT_TRUE(cert.valid);
                SCOPED_TRACE("seed " + std::to_string(seed) + " " +
                             cfg.label() + " from R" +
                             std::to_string(regs[i]) + " net" +
                             std::to_string(static_cast<int>(
                                 cfg.outputNet)) +
                             " p" + std::to_string(opt.partitionNodes));
                ASSERT_TRUE(cold[j].has_value());
                const CompiledProgram &direct = *cold[j];
                CompiledProgram got = deriveForRegisterCount(from, regs[j]);
                EXPECT_EQ(serializeProgram(got), serializeProgram(direct));
                EXPECT_EQ(direct.registers.valid, true);
                EXPECT_EQ(direct.registers.peakLive, cert.peakLive);
                EXPECT_EQ(direct.registers.peakSlots, cert.peakSlots);
                EXPECT_TRUE(statsKey(runStats(got, d.numInputs(), seed)) ==
                            statsKey(runStats(direct, d.numInputs(),
                                              seed + 1)));
                derived += i != j;
            }
        }
    }
    // The sweep must exercise both sides of the certificate.
    EXPECT_GT(derived, 40u);
    EXPECT_GT(spilled, 0u);
    EXPECT_GT(throttledOnly, 0u);
    EXPECT_GT(fragments.stats().hits, 0u);
}

TEST(RegisterCertificate, SpilledCompileAdmitsNothing)
{
    // Four registers a bank cannot hold this DAG's working set: the
    // finalizer spills, and no register count is admitted, not even
    // the compile's own.
    Dag d = generateRandomDag(16, 600, 5);
    CompiledProgram prog = compile(d, cfgOf(1, 8, 4));
    ASSERT_GT(prog.stats.spillStores, 0u);
    EXPECT_FALSE(prog.registers.valid);
    for (uint32_t r : {4u, 8u, 64u, 256u})
        EXPECT_FALSE(prog.registers.admits(cfgOf(1, 8, r))) << r;
}

TEST(RegisterCertificate, DefaultAndDiskReadProgramsAdmitNothing)
{
    // Zero peaks must not read as "fits every R": only a compile sets
    // valid. The certificate is not in the image, so a program read
    // back from disk admits nothing either.
    RegisterCertificate none;
    EXPECT_FALSE(none.admits(cfgOf(2, 16, 64)));

    Dag d = generateRandomDag(16, 300, 6);
    CompiledProgram prog = compile(d, cfgOf(2, 16, 64));
    ASSERT_TRUE(prog.registers.valid);
    CompiledProgram read;
    ASSERT_TRUE(deserializeProgram(serializeProgram(prog), read));
    EXPECT_FALSE(read.registers.valid);
    EXPECT_FALSE(read.registers.admits(cfgOf(2, 16, 128)));
    EXPECT_EQ(serializeProgram(read), serializeProgram(prog));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** A small grid over three workloads: four (D, B) groups of four R. */
DseSweepOptions
smallSweep()
{
    DseSweepOptions o;
    o.space.depths = {1, 2};
    o.space.banks = {8, 16};
    o.space.regs = {16, 32, 64, 128};
    o.space.workloadScale = 0.03;
    o.space.suite = {pcSuite()[0], pcSuite()[1], sptrsvSuite()[0]};
    return o;
}

/** The journal of `space` with every point evaluated on its own
 *  (evaluateDesign, which never derives): the no-reuse reference. */
std::string
perPointJournal(const DseOptions &space)
{
    const std::vector<ArchConfig> grid = expandDseGrid(space);
    std::string out =
        dseJournalHeaderLine(dseSpaceSignature(space), grid.size()) + "\n";
    for (size_t i = 0; i < grid.size(); ++i)
        out += dseJournalPointLine(
                   i, evaluateDesign(grid[i], space.suite,
                                     space.workloadScale, space.seed)) +
               "\n";
    return out;
}

uint64_t
derivedPoints(const DseSweepResult &res)
{
    uint64_t n = 0;
    for (const DseShardReport &r : res.shardReports)
        n += r.certified;
    return n;
}

TEST(RegisterCertificate, DerivedPointsEqualPerPointEvaluation)
{
    // A sweep task derives every R its held certificate admits; each
    // point must still be evaluateDesign of its coordinates, verified
    // or not.
    DseSweepOptions o = smallSweep();
    o.verify = true;
    const std::string path = ::testing::TempDir() + "dse_derived.jsonl";
    std::remove(path.c_str());
    o.journalPath = path;
    ProgramCache cache;
    o.cache = &cache;
    DseSweepResult res = runDseSweep(o);
    EXPECT_GT(derivedPoints(res), 0u);
    EXPECT_EQ(readFile(path), perPointJournal(o.space));
    std::remove(path.c_str());
}

TEST(RegisterCertificate, WarmSpillServesDerivedPoints)
{
    // The first sweep spills the programs it derived; a second sweep
    // on a fresh cache over the same directory reads every program
    // back, derived ones included, and compiles nothing.
    const std::filesystem::path dir =
        std::filesystem::current_path() / "progcache_test_warm_spill";
    std::filesystem::remove_all(dir);
    DseSweepOptions o = smallSweep();
    ProgramCacheConfig cc;
    cc.diskDir = dir.string();
    std::vector<DsePoint> cold;
    {
        ProgramCache cache(cc);
        o.cache = &cache;
        DseSweepResult res = runDseSweep(o);
        ASSERT_GT(derivedPoints(res), 0u);
        cold = res.points;
    }
    ProgramCache cache(cc);
    o.cache = &cache;
    DseSweepResult warm = runDseSweep(o);
    const ProgramCache::Stats cs = cache.stats();
    EXPECT_EQ(cs.misses, 0u);
    EXPECT_GT(cs.diskHits, 0u);
    ASSERT_EQ(warm.points.size(), cold.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_EQ(dseJournalPointLine(i, warm.points[i]),
                  dseJournalPointLine(i, cold[i]));
    std::filesystem::remove_all(dir);
}

TEST(RegisterCertificate, SweepJournalsDoNotDependOnReuse)
{
    // Certified points skip steps 3-4 and the Machine, with or without
    // a cache; the journal must be the bytes of evaluating every point
    // on its own, at one thread or four.
    DseSweepOptions o = smallSweep();
    const std::string path =
        ::testing::TempDir() + "dse_certificate.jsonl";
    const std::string reference = perPointJournal(o.space);
    for (bool cached : {true, false})
        for (uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(cached ? "cached, " : "no cache, ") +
                         std::to_string(threads) + " threads");
            ProgramCache cache;
            o.cache = cached ? &cache : nullptr;
            o.threads = threads;
            o.shards = threads;
            o.journalPath = path;
            std::remove(path.c_str());
            DseSweepResult res = runDseSweep(o);
            EXPECT_EQ(readFile(path), reference);
            EXPECT_GT(derivedPoints(res), 0u);
        }
    std::remove(path.c_str());
}

TEST(RegisterCertificate, ParallelSweepMakesTheSerialCacheTraffic)
{
    // A sweep task is one (D, B) group x one workload, and no two tasks
    // share a program or fragment key, so every thread/shard count
    // makes the serial sweep's cache traffic: each fragment compiled
    // once, each derivation a serial walk makes. Eight shards cut the
    // 48-point grid every 6 points, through (D, B) groups of 4.
    DseSweepOptions o;
    o.space.depths = {1, 2, 3};
    o.space.banks = {8, 16, 32, 64};
    o.space.regs = {16, 32, 64, 128};
    o.space.workloadScale = 0.03;
    o.space.suite = {pcSuite()[0], pcSuite()[1], sptrsvSuite()[0]};
    const size_t workloads = o.space.suite.size();
    const std::string path = ::testing::TempDir() + "dse_traffic.jsonl";
    std::string serial_journal;
    ProgramCache::Stats serial;
    uint64_t serial_certified = 0;
    for (uint32_t threads : {1u, 4u})
        for (uint32_t shards : {1u, 3u, 8u}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, " +
                         std::to_string(shards) + " shards");
            ProgramCache cache;
            o.cache = &cache;
            o.threads = threads;
            o.shards = shards;
            o.journalPath = path;
            std::remove(path.c_str());
            DseSweepResult res = runDseSweep(o);
            const ProgramCache::Stats cs = cache.stats();
            const uint64_t certified = derivedPoints(res);
            const std::string journal = readFile(path);

            // The comparison rests on every point being feasible: a
            // task skips a point another workload found infeasible,
            // and whether that happened first depends on timing.
            bool all_feasible = true;
            for (const DsePoint &p : res.points)
                all_feasible = all_feasible && p.feasible;
            ASSERT_TRUE(all_feasible);

            if (threads == 1 && shards == 1) {
                serial_journal = journal;
                serial = cs;
                serial_certified = certified;
            }
            EXPECT_EQ(journal, serial_journal);
            EXPECT_EQ(cs.misses, serial.misses);
            EXPECT_EQ(certified, serial_certified);
            EXPECT_EQ(cs.fragHits, serial.fragHits);
            EXPECT_EQ(cs.fragMisses, serial.fragMisses);

            // Each point's compiles land in the shard that holds it,
            // also when its (D, B) group spans two shards. A derived
            // point is served without a cache lookup.
            uint64_t compiles = 0, hits = 0;
            for (const DseShardReport &r : res.shardReports) {
                EXPECT_EQ(r.compiles, r.points * workloads);
                compiles += r.compiles;
                hits += r.cacheHits;
            }
            EXPECT_EQ(compiles, cs.lookups() + certified);
            EXPECT_EQ(hits, cs.hits + cs.diskHits + certified);
        }
    std::remove(path.c_str());
    EXPECT_GT(serial_certified, 0u);
}

} // namespace
} // namespace dpu
