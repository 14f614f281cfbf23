/**
 * @file
 * Tests for register certificates (RegisterCertificate in
 * compiler/program.hh): a compile that neither throttled nor spilled
 * is exact for every register count its peaks admit, so a program
 * derived for such a count must equal a direct compile there, byte
 * for byte and in every simulated count; ProgramCache serves admitted
 * counts by derivation, and the DSE's journals do not move.
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

/** Serialized program with the host timings and hit flag zeroed. */
std::vector<uint8_t>
programBytes(CompiledProgram prog)
{
    prog.stats.compileSeconds = 0;
    prog.stats.verifySeconds = 0;
    prog.stats.cacheHits = 0;
    return serializeProgram(prog);
}

/** Every SimStats field. */
auto
statsKey(const SimStats &s)
{
    return std::tie(s.cycles, s.kindCount, s.bankReads, s.bankWrites,
                    s.peOperations, s.pePassThroughs, s.crossbarTransfers,
                    s.memReads, s.memWrites, s.instrBitsFetched,
                    s.peakLiveRegisters, s.occupancyTrace, s.traceStride,
                    s.transferCycles);
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
                EXPECT_EQ(programBytes(got), programBytes(direct));
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
    EXPECT_EQ(programBytes(read), programBytes(prog));
}

TEST(RegisterCertificate, CacheDerivesAdmittedRegisterCounts)
{
    // A certified miss founds its group's entry; a later miss at an
    // admitted R is derived from it without a compile or a fragment
    // probe, and carries the group's run stats once they are stored.
    Dag d = generateRandomDag(16, 400, 7);
    PreparedDag p = prepareDag(d);
    ProgramCache cache;
    ProgramCache::Fetched first = cache.fetch(p, cfgOf(2, 16, 64));
    ASSERT_TRUE(first.prog->registers.valid);
    EXPECT_FALSE(first.certified);
    EXPECT_FALSE(first.runStats);
    EXPECT_FALSE(first.group.empty());
    const ProgramCache::Stats before = cache.stats();

    ProgramCache::Fetched second = cache.fetch(p, cfgOf(2, 16, 128));
    EXPECT_TRUE(second.hit);
    EXPECT_TRUE(second.certified);
    EXPECT_FALSE(second.runStats); // nothing simulated yet
    EXPECT_EQ(second.group, first.group);
    EXPECT_EQ(second.prog->cfg.regsPerBank, 128u);
    EXPECT_EQ(programBytes(*second.prog),
              programBytes(compile(d, cfgOf(2, 16, 128))));
    ProgramCache::Stats after = cache.stats();
    EXPECT_EQ(after.certHits, 1u);
    EXPECT_EQ(after.misses, 1u);
    EXPECT_EQ(after.fragHits + after.fragMisses,
              before.fragHits + before.fragMisses);

    cache.storeRunStats(second.group,
                        runStats(*second.prog, d.numInputs(), 1));
    ProgramCache::Fetched third = cache.fetch(p, cfgOf(2, 16, 256));
    EXPECT_TRUE(third.certified);
    ASSERT_TRUE(third.runStats);
    CompiledProgram direct = compile(d, cfgOf(2, 16, 256));
    EXPECT_EQ(programBytes(*third.prog), programBytes(direct));
    EXPECT_EQ(third.runStats->instrBitsFetched, direct.stats.programBits);
    EXPECT_TRUE(statsKey(*third.runStats) ==
                statsKey(runStats(direct, d.numInputs(), 2)));

    // A memory hit of a certified program carries them too.
    ProgramCache::Fetched again = cache.fetch(p, cfgOf(2, 16, 64));
    EXPECT_TRUE(again.hit);
    EXPECT_FALSE(again.certified);
    ASSERT_TRUE(again.runStats);
    EXPECT_EQ(again.runStats->instrBitsFetched,
              first.prog->stats.programBits);

    after = cache.stats();
    EXPECT_EQ(after.lookups(), 4u);
    EXPECT_EQ(after.certHits, 2u);
    EXPECT_EQ(after.hits, 1u);
    EXPECT_DOUBLE_EQ(after.hitRate(), 0.75);
}

TEST(RegisterCertificate, DiskFetchedProgramCertifiesNothing)
{
    // A second cache reading the first's spill directory serves R=64
    // from disk, without a certificate, so R=128 compiles.
    const std::filesystem::path dir =
        std::filesystem::current_path() / "progcache_test_certificate";
    std::filesystem::remove_all(dir);
    Dag d = generateRandomDag(16, 400, 8);
    PreparedDag p = prepareDag(d);
    {
        ProgramCache writer({.diskDir = dir.string()});
        ASSERT_TRUE(writer.fetch(p, cfgOf(2, 16, 64))
                        .prog->registers.valid);
    }
    ProgramCache reader({.diskDir = dir.string()});
    ProgramCache::Fetched disk = reader.fetch(p, cfgOf(2, 16, 64));
    EXPECT_TRUE(disk.hit);
    EXPECT_FALSE(disk.prog->registers.valid);
    EXPECT_TRUE(disk.group.empty());
    ProgramCache::Fetched next = reader.fetch(p, cfgOf(2, 16, 128));
    EXPECT_FALSE(next.hit);
    EXPECT_FALSE(next.certified);
    EXPECT_EQ(reader.stats().diskHits, 1u);
    EXPECT_EQ(reader.stats().certHits, 0u);
    EXPECT_EQ(reader.stats().misses, 1u);
    std::filesystem::remove_all(dir);
}

TEST(RegisterCertificate, EntryLeavesWithItsProgram)
{
    // A one-program LRU: evicting a group's certified program releases
    // the group's entry, so the next R of that group compiles.
    Dag a = generateRandomDag(16, 400, 9);
    Dag b = generateRandomDag(16, 400, 10);
    PreparedDag pa = prepareDag(a), pb = prepareDag(b);
    ProgramCacheConfig cc;
    cc.maxEntries = 1;
    ProgramCache cache(cc);
    ASSERT_TRUE(cache.fetch(pa, cfgOf(2, 16, 64)).prog->registers.valid);
    cache.fetch(pb, cfgOf(2, 16, 64));
    ProgramCache::Fetched got = cache.fetch(pa, cfgOf(2, 16, 128));
    EXPECT_FALSE(got.certified);
    EXPECT_EQ(cache.stats().certHits, 0u);
    // Its own group is still served: b's program was evicted by a's
    // R=128 compile, which now stands for a's group.
    EXPECT_TRUE(cache.fetch(pa, cfgOf(2, 16, 256)).certified);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(RegisterCertificate, SweepJournalsDoNotDependOnReuse)
{
    // Certified points skip steps 3-4 and the Machine; the journal
    // must be the bytes of a sweep that compiles and simulates every
    // point (no cache), at one thread or four.
    DseSweepOptions o;
    o.space.depths = {1, 2};
    o.space.banks = {8, 16};
    o.space.regs = {16, 32, 64, 128};
    o.space.workloadScale = 0.03;
    o.space.suite = {pcSuite()[0], pcSuite()[1], sptrsvSuite()[0]};
    const std::string path =
        ::testing::TempDir() + "dse_certificate.jsonl";
    std::vector<std::string> journals;
    uint64_t certified_serial = 0;
    for (bool cached : {true, false})
        for (uint32_t threads : {1u, 4u}) {
            ProgramCache cache;
            o.cache = cached ? &cache : nullptr;
            o.threads = threads;
            o.shards = threads;
            o.journalPath = path;
            std::remove(path.c_str());
            DseSweepResult res = runDseSweep(o);
            journals.push_back(readFile(path));
            uint64_t certified = 0;
            for (const DseShardReport &r : res.shardReports)
                certified += r.certified;
            EXPECT_EQ(certified, cache.stats().certHits);
            if (cached && threads == 1)
                certified_serial = certified;
        }
    std::remove(path.c_str());
    EXPECT_GT(certified_serial, 0u);
    for (size_t k = 1; k < journals.size(); ++k)
        EXPECT_EQ(journals[k], journals[0]) << "run " << k;
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
            }
            EXPECT_EQ(journal, serial_journal);
            EXPECT_EQ(cs.misses, serial.misses);
            EXPECT_EQ(cs.certHits, serial.certHits);
            EXPECT_EQ(cs.fragHits, serial.fragHits);
            EXPECT_EQ(cs.fragMisses, serial.fragMisses);

            // Each point's lookups land in the shard that holds it,
            // also when its (D, B) group spans two shards.
            uint64_t compiles = 0, hits = 0, certified = 0;
            for (const DseShardReport &r : res.shardReports) {
                EXPECT_EQ(r.compiles, r.points * workloads);
                compiles += r.compiles;
                hits += r.cacheHits;
                certified += r.certified;
            }
            EXPECT_EQ(compiles, cs.lookups());
            EXPECT_EQ(hits, cs.hits + cs.diskHits + cs.certHits);
            EXPECT_EQ(certified, cs.certHits);
        }
    std::remove(path.c_str());
    EXPECT_GT(serial.certHits, 0u);
}

} // namespace
} // namespace dpu
