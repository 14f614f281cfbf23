/**
 * @file
 * Tests for the compiled-program cache: hit/miss/eviction behaviour
 * of the in-memory LRU, the on-disk spill, key sensitivity, and the
 * serialization round trip.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "arch/isa.hh"
#include "compiler/cache.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"

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

/** Scratch directory under the test's working directory, removed on
 *  destruction (keeps everything inside the build tree). */
struct ScratchDir
{
    std::filesystem::path path;

    explicit ScratchDir(const std::string &name)
        : path(std::filesystem::current_path() / name)
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

void
expectSamePrograms(const CompiledProgram &a, const CompiledProgram &b)
{
    EXPECT_EQ(encodeProgram(a.cfg, a.instructions),
              encodeProgram(b.cfg, b.instructions));
    EXPECT_EQ(a.numRows, b.numRows);
    EXPECT_EQ(a.inputLocation, b.inputLocation);
    EXPECT_EQ(a.stats.instructions, b.stats.instructions);
}

TEST(ProgramCache, SecondCompileIsAHit)
{
    Dag d = generateRandomDag(16, 400, 71);
    ArchConfig cfg = cfgOf(2, 8, 32);
    ProgramCache cache;

    auto first = cache.compile(d, cfg);
    EXPECT_EQ(first.stats.cacheHits, 0u);
    auto second = cache.compile(d, cfg);
    EXPECT_EQ(second.stats.cacheHits, 1u);
    expectSamePrograms(first, second);

    auto s = cache.stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(cache.size(), 1u);
    // The derived counters the sweep drivers report per shard.
    EXPECT_EQ(s.lookups(), 2u);
    EXPECT_DOUBLE_EQ(s.hitRate(), 0.5);
    EXPECT_DOUBLE_EQ(ProgramCache::Stats{}.hitRate(), 0.0);
}

TEST(ProgramCache, KeyCoversDagConfigAndOptions)
{
    Dag d1 = generateRandomDag(16, 400, 72);
    Dag d2 = generateRandomDag(16, 400, 73);
    ArchConfig cfg = cfgOf(2, 8, 32);
    ProgramCache cache;

    cache.compile(d1, cfg);
    // Different DAG, config or compile options: all misses.
    EXPECT_EQ(cache.compile(d2, cfg).stats.cacheHits, 0u);
    EXPECT_EQ(cache.compile(d1, cfgOf(2, 8, 64)).stats.cacheHits, 0u);
    CompileOptions seeded;
    seeded.seed = 9;
    EXPECT_EQ(cache.compile(d1, cfg, seeded).stats.cacheHits, 0u);
    CompileOptions windowed;
    windowed.reorderWindow = 10;
    EXPECT_EQ(cache.compile(d1, cfg, windowed).stats.cacheHits, 0u);
    EXPECT_EQ(cache.stats().misses, 5u);
}

TEST(ProgramCache, ThreadsAndValidateDoNotChangeTheKey)
{
    // The parallel compiler is byte-identical for every thread count,
    // so a threads=8 compile may reuse a threads=1 artifact.
    Dag d = generateRandomDag(24, 900, 74);
    ArchConfig cfg = cfgOf(3, 16, 32);
    ProgramCache cache;
    CompileOptions opt;
    opt.partitionNodes = 200;
    opt.threads = 1;
    auto seq = cache.compile(d, cfg, opt);
    opt.threads = 8;
    opt.validate = true;
    auto par = cache.compile(d, cfg, opt);
    EXPECT_EQ(par.stats.cacheHits, 1u);
    expectSamePrograms(seq, par);
}

TEST(ProgramCache, FragmentReuseAcrossRegisterCounts)
{
    // regsPerBank only matters from step 3 on, so two compiles
    // differing only in R miss the program cache but share their
    // (single) fragment — and the reuse is output-preserving.
    Dag d = generateRandomDag(16, 600, 84);
    ProgramCache cache;
    cache.compile(d, cfgOf(2, 8, 32));
    auto s1 = cache.stats();
    EXPECT_EQ(s1.fragMisses, 1u);
    EXPECT_EQ(s1.fragHits, 0u);
    auto warm = cache.compile(d, cfgOf(2, 8, 64));
    EXPECT_EQ(warm.stats.cacheHits, 0u); // program-level miss...
    auto s2 = cache.stats();
    EXPECT_EQ(s2.fragMisses, 1u); // ...but the fragment was reused
    EXPECT_EQ(s2.fragHits, 1u);
    CompiledProgram cold = compile(d, cfgOf(2, 8, 64));
    EXPECT_EQ(encodeProgram(cold.cfg, cold.instructions),
              encodeProgram(warm.cfg, warm.instructions));
}

TEST(ProgramCache, FragmentReusePartitionedCompile)
{
    Dag d = generateRandomDag(32, 2000, 85);
    ProgramCache cache;
    CompileOptions opt;
    opt.partitionNodes = 400;
    opt.threads = 4;
    cache.compile(d, cfgOf(3, 16, 32), opt);
    uint64_t parts = cache.stats().fragMisses;
    EXPECT_GE(parts, 4u); // 2000 ops / 400 per partition
    auto warm = cache.compile(d, cfgOf(3, 16, 64), opt);
    auto s = cache.stats();
    EXPECT_EQ(s.fragHits, parts); // every partition reused
    EXPECT_EQ(s.fragMisses, parts);
    CompiledProgram cold = compile(d, cfgOf(3, 16, 64), opt);
    EXPECT_EQ(encodeProgram(cold.cfg, cold.instructions),
              encodeProgram(warm.cfg, warm.instructions));
}

TEST(ProgramCache, InsertSeedsLaterHits)
{
    // Benches that must time a real compile still feed the cache.
    ScratchDir dir("progcache_test_insert");
    ProgramCacheConfig cc;
    cc.diskDir = dir.path.string();
    Dag d = generateRandomDag(16, 400, 70);
    ArchConfig cfg = cfgOf(2, 8, 32);

    ProgramCache cache(cc);
    auto fresh = compile(d, cfg);
    cache.insert(d, cfg, {}, fresh);
    auto s = cache.stats();
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.diskWrites, 1u);

    auto hit = cache.compile(d, cfg);
    EXPECT_EQ(hit.stats.cacheHits, 1u);
    expectSamePrograms(fresh, hit);

    ProgramCache fresh_instance(cc); // and the spill is shared too
    EXPECT_EQ(fresh_instance.compile(d, cfg).stats.cacheHits, 1u);
}

TEST(ProgramCache, LruEvictsOldestEntry)
{
    ProgramCacheConfig cc;
    cc.maxEntries = 2;
    ProgramCache cache(cc);
    ArchConfig cfg = cfgOf(2, 8, 32);
    Dag a = generateRandomDag(8, 200, 75);
    Dag b = generateRandomDag(8, 200, 76);
    Dag c = generateRandomDag(8, 200, 77);

    cache.compile(a, cfg);
    cache.compile(b, cfg);
    cache.compile(c, cfg); // evicts a
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.compile(c, cfg).stats.cacheHits, 1u);
    EXPECT_EQ(cache.compile(a, cfg).stats.cacheHits, 0u); // was evicted
}

TEST(ProgramCache, CachedProgramStillSimulatesCorrectly)
{
    Dag d = generateRandomDag(16, 500, 78);
    ArchConfig cfg = cfgOf(2, 8, 32);
    ProgramCache cache;
    cache.compile(d, cfg);
    auto prog = cache.compile(d, cfg);
    ASSERT_EQ(prog.stats.cacheHits, 1u);
    Rng rng(79);
    std::vector<double> in(d.numInputs());
    for (auto &x : in)
        x = 0.5 + rng.uniform();
    runAndCheck(prog, d, in);
}

TEST(ProgramCache, DiskSpillSurvivesAcrossInstances)
{
    ScratchDir dir("progcache_test_disk");
    ProgramCacheConfig cc;
    cc.diskDir = dir.path.string();

    Dag d = generateRandomDag(16, 400, 80);
    ArchConfig cfg = cfgOf(2, 8, 32);
    CompiledProgram first;
    {
        ProgramCache writer(cc);
        first = writer.compile(d, cfg);
        EXPECT_EQ(writer.stats().diskWrites, 1u);
    }
    // A fresh cache (fresh process, conceptually) hits the spill.
    ProgramCache reader(cc);
    auto again = reader.compile(d, cfg);
    EXPECT_EQ(again.stats.cacheHits, 1u);
    auto s = reader.stats();
    EXPECT_EQ(s.diskHits, 1u);
    EXPECT_EQ(s.misses, 0u);
    expectSamePrograms(first, again);
}

TEST(ProgramCache, SerializationRoundTrip)
{
    Dag d = generateRandomDag(16, 600, 81);
    ArchConfig cfg = cfgOf(3, 16, 16); // small R: spills in the image
    auto prog = compile(d, cfg);
    auto image = serializeProgram(prog);
    CompiledProgram back;
    ASSERT_TRUE(deserializeProgram(image, back));
    expectSamePrograms(prog, back);
    ASSERT_EQ(back.outputs.size(), prog.outputs.size());
    for (size_t i = 0; i < back.outputs.size(); ++i) {
        EXPECT_EQ(back.outputs[i].node, prog.outputs[i].node);
        EXPECT_EQ(back.outputs[i].row, prog.outputs[i].row);
        EXPECT_EQ(back.outputs[i].col, prog.outputs[i].col);
    }
    EXPECT_EQ(back.stats.spillStores, prog.stats.spillStores);
    EXPECT_EQ(back.stats.programBits, prog.stats.programBits);
    EXPECT_DOUBLE_EQ(back.stats.verifySeconds, prog.stats.verifySeconds);

    // Corrupt images are rejected, not crashed on.
    CompiledProgram junk;
    EXPECT_FALSE(deserializeProgram({1, 2, 3, 4}, junk));
    auto truncated = image;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(deserializeProgram(truncated, junk));
}

TEST(ProgramCache, TruncatedSpillFileIsRejectedAsAMiss)
{
    ScratchDir dir("progcache_test_trunc");
    ProgramCacheConfig cc;
    cc.diskDir = dir.path.string();

    Dag d = generateRandomDag(16, 400, 82);
    ArchConfig cfg = cfgOf(2, 8, 32);
    CompiledProgram first;
    {
        ProgramCache writer(cc);
        first = writer.compile(d, cfg);
    }
    // Truncate the spill file mid-image (a torn write, a full disk,
    // bit rot): the reload must warn, count a reject, and recompile
    // — never propagate a malformed program.
    std::filesystem::path file =
        dir.path / (programCacheKey(d, cfg, {}) + ".dpuprog");
    ASSERT_TRUE(std::filesystem::exists(file));
    auto size = std::filesystem::file_size(file);
    std::filesystem::resize_file(file, size / 2);

    ProgramCache reader(cc);
    auto again = reader.compile(d, cfg);
    EXPECT_EQ(again.stats.cacheHits, 0u);
    auto s = reader.stats();
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.diskRejects, 1u);
    expectSamePrograms(first, again);
}

TEST(ProgramCache, CorruptButDeserializableSpillFailsVerification)
{
    ScratchDir dir("progcache_test_corrupt");
    ProgramCacheConfig cc;
    cc.diskDir = dir.path.string();

    Dag d = generateRandomDag(16, 400, 83);
    ArchConfig cfg = cfgOf(2, 8, 32);
    {
        ProgramCache writer(cc);
        writer.compile(d, cfg);
    }
    // Tamper with a stats field and rewrite the image: it still
    // deserializes, so only the static verifier (V040) catches it.
    std::filesystem::path file =
        dir.path / (programCacheKey(d, cfg, {}) + ".dpuprog");
    std::vector<uint8_t> image;
    {
        std::ifstream in(file, std::ios::binary);
        image.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    CompiledProgram prog;
    ASSERT_TRUE(deserializeProgram(image, prog));
    prog.stats.instructions += 7;
    auto tampered = serializeProgram(prog);
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(tampered.data()),
                  static_cast<std::streamsize>(tampered.size()));
    }

    ProgramCache reader(cc);
    auto again = reader.compile(d, cfg);
    EXPECT_EQ(again.stats.cacheHits, 0u);
    auto s = reader.stats();
    EXPECT_EQ(s.diskHits, 0u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.diskRejects, 1u);
}

TEST(ProgramCache, UnwritableDiskDirFallsBackToMemory)
{
    // A diskDir that cannot exist (a path component is a regular
    // file) must degrade to in-memory-only caching with a warning,
    // not abort the sweep. This stands in for a read-only FS, which
    // cannot be faked with permission bits when running as root.
    ScratchDir dir("progcache_test_unwritable");
    std::filesystem::path blocker = dir.path / "file";
    { std::ofstream(blocker) << "not a directory"; }

    ProgramCacheConfig cc;
    cc.diskDir = (blocker / "sub").string();
    ProgramCache cache(cc);
    EXPECT_FALSE(cache.diskEnabled());

    Dag d = generateRandomDag(16, 400, 84);
    ArchConfig cfg = cfgOf(2, 8, 32);
    auto first = cache.compile(d, cfg);
    EXPECT_EQ(first.stats.cacheHits, 0u);
    auto second = cache.compile(d, cfg); // memory LRU still works
    EXPECT_EQ(second.stats.cacheHits, 1u);
    expectSamePrograms(first, second);

    auto s = cache.stats();
    EXPECT_EQ(s.diskWrites, 0u);
    EXPECT_EQ(s.diskHits, 0u);
}

TEST(ProgramCache, EnsureWritableDirectoryProbes)
{
    ScratchDir dir("progcache_test_probe");
    // Creates missing components recursively and leaves no probe file.
    std::filesystem::path fresh = dir.path / "a" / "b";
    EXPECT_TRUE(ensureWritableDirectory(fresh.string()));
    EXPECT_TRUE(std::filesystem::is_directory(fresh));
    EXPECT_TRUE(std::filesystem::is_empty(fresh));
    // Idempotent on an existing directory.
    EXPECT_TRUE(ensureWritableDirectory(fresh.string()));

    std::filesystem::path blocker = dir.path / "file";
    { std::ofstream(blocker) << "x"; }
    EXPECT_FALSE(ensureWritableDirectory((blocker / "sub").string()));
}

TEST(ProgramCache, StructuralHashSeparatesDags)
{
    Dag a = generateRandomDag(16, 300, 82);
    Dag b = generateRandomDag(16, 300, 83);
    EXPECT_EQ(dagStructuralHash(a), dagStructuralHash(a));
    EXPECT_NE(dagStructuralHash(a), dagStructuralHash(b));

    // Operator identity matters, not just shape.
    Dag c1, c2;
    NodeId i0 = c1.addInput(), i1 = c1.addInput();
    c1.addNode(OpType::Add, {i0, i1});
    NodeId j0 = c2.addInput(), j1 = c2.addInput();
    c2.addNode(OpType::Mul, {j0, j1});
    EXPECT_NE(dagStructuralHash(c1), dagStructuralHash(c2));
}

TEST(ProgramCache, EvalStatsMemoKeysOnProgramAndCores)
{
    // The evaluation memo: a (program key, cores) pair pins one
    // SimStats. Different core counts are distinct entries;
    // hits/misses are counted.
    ProgramCache cache;
    SimStats s1;
    s1.cycles = 100;
    s1.peOperations = 40;
    SimStats s4;
    s4.cycles = 110; // same program, four-core batch
    s4.peOperations = 160;

    SimStats out;
    EXPECT_FALSE(cache.lookupEvalStats("prog-a", 1, out));
    EXPECT_EQ(cache.stats().evalMisses, 1u);

    cache.storeEvalStats("prog-a", 1, s1);
    cache.storeEvalStats("prog-a", 4, s4);

    ASSERT_TRUE(cache.lookupEvalStats("prog-a", 1, out));
    EXPECT_EQ(out.cycles, 100u);
    ASSERT_TRUE(cache.lookupEvalStats("prog-a", 4, out));
    EXPECT_EQ(out.cycles, 110u);
    EXPECT_EQ(cache.stats().evalHits, 2u);

    // A different core count or program both miss.
    EXPECT_FALSE(cache.lookupEvalStats("prog-a", 2, out));
    EXPECT_FALSE(cache.lookupEvalStats("prog-b", 1, out));
    EXPECT_EQ(cache.stats().evalMisses, 3u);

    // A re-store overwrites in place.
    s1.cycles = 99;
    cache.storeEvalStats("prog-a", 1, s1);
    ASSERT_TRUE(cache.lookupEvalStats("prog-a", 1, out));
    EXPECT_EQ(out.cycles, 99u);
}

} // namespace
} // namespace dpu
