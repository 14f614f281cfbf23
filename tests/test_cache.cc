/**
 * @file
 * Tests for the compiled-program cache: hit/miss/eviction behaviour
 * of the in-memory LRU, the on-disk spill, key sensitivity, and the
 * serialization round trip.
 */

#include <gtest/gtest.h>

#include <cstring>

#include <filesystem>
#include <fstream>
#include <thread>

#include "arch/isa.hh"
#include "compiler/cache.hh"
#include "compiler/partitioner.hh"
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

TEST(ProgramCache, ThreadsAndVerifyDoNotChangeTheKey)
{
    // The parallel compiler is byte-identical for every thread count,
    // so a threads=8 compile may reuse a threads=1 artifact, and
    // verification only checks the artifact.
    Dag d = generateRandomDag(24, 900, 74);
    ArchConfig cfg = cfgOf(3, 16, 32);
    ProgramCache cache;
    CompileOptions opt;
    opt.partitionNodes = 200;
    opt.threads = 1;
    auto seq = cache.compile(d, cfg, opt);
    opt.threads = 8;
    opt.verify = true;
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
    // Uncertified (a certificate would derive R=64 instead).
    ASSERT_FALSE(cache.compile(d, cfgOf(2, 8, 32)).registers.valid);
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
    ASSERT_FALSE(cache.compile(d, cfgOf(3, 16, 32), opt).registers.valid);
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

/** Compile through `fn`; empty when the configuration cannot fit the
 *  DAG (FatalError), so infeasibility must agree too. */
template <typename Fn>
std::vector<uint8_t>
bytesOrInfeasible(Fn &&fn)
{
    try {
        return serializeProgram(fn());
    } catch (const FatalError &) {
        return {};
    }
}

TEST(ProgramCache, FetchHandsOutTheResidentProgram)
{
    // fetch() is the copy-free read path: a miss moves the compiled
    // program into the cache, a hit returns that same object, and
    // compile() is a copy of the same lookup flagged as a hit.
    Dag d = generateRandomDag(16, 400, 86);
    PreparedDag p = prepareDag(d);
    ArchConfig cfg = cfgOf(2, 8, 32);
    ProgramCache cache;
    ProgramCache::Fetched cold = cache.fetch(p, cfg);
    ASSERT_TRUE(cold.prog);
    EXPECT_FALSE(cold.hit);
    EXPECT_EQ(cold.fetchSeconds, 0.0);
    ProgramCache::Fetched warm = cache.fetch(p, cfg);
    EXPECT_TRUE(warm.hit);
    EXPECT_EQ(warm.prog.get(), cold.prog.get());
    EXPECT_EQ(warm.prog->stats.cacheHits, 0u); // the entry is unflagged
    CompiledProgram copy = cache.compile(d, cfg);
    EXPECT_EQ(copy.stats.cacheHits, 1u);
    EXPECT_EQ(serializeProgram(copy), serializeProgram(*cold.prog));
    EXPECT_EQ(serializeProgram(*cold.prog), serializeProgram(compile(d, cfg)));
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ProgramCache, UnpartitionedFragmentKeepsItsCodegenContext)
{
    // An unpartitioned entry carries its codegen context, viewing the
    // entry's own sinks; a partition's entry carries none, since its
    // context reads every range's blocks. A compile that reads the
    // stored context emits the cold compile's bytes.
    Dag d = generateRandomDag(16, 600, 87);
    const uint64_t hash = dagStructuralHash(d);
    const NodeId n = static_cast<NodeId>(d.numNodes());
    FragmentCache fragments;
    CompileOptions opt;
    opt.fragmentCache = &fragments;
    compile(d, cfgOf(2, 8, 32), opt);
    auto entry = fragments.lookup(
        fragmentCacheKey(hash, {0, n}, 0, cfgOf(2, 8, 32), opt));
    ASSERT_TRUE(entry && entry->shared);
    EXPECT_EQ(entry->sinks, d.sinks());
    EXPECT_EQ(entry->shared->sinks.data(), entry->sinks.data());
    EXPECT_EQ(entry->shared->sinks.size(), entry->sinks.size());
    CompiledProgram warm = compile(d, cfgOf(2, 8, 48), opt);
    EXPECT_EQ(fragments.stats().hits, 2u); // the lookup above, and warm
    CompiledProgram cold = compile(d, cfgOf(2, 8, 48));
    EXPECT_EQ(serializeProgram(warm), serializeProgram(cold));

    opt.partitionNodes = 200;
    compile(d, cfgOf(2, 8, 32), opt);
    auto part = fragments.lookup(
        fragmentCacheKey(hash, partitionByCount(d, 200)[0], 0,
                         cfgOf(2, 8, 32), opt));
    ASSERT_TRUE(part);
    EXPECT_FALSE(part->shared);
}

TEST(ProgramCache, WarmFragmentsMatchColdCompiles)
{
    // Random DAGs x random legal configurations (every output net,
    // several R per (D, B)) x partitioning x compile threads x
    // boundary-aware mapping, all through one cache. Two fragment
    // slots force evictions of entries a compile is still reading,
    // and one program slot makes every lookup a program miss, so each
    // compile runs steps 3-4 over fragments read in place, or derives
    // its program from the previous R's when that one's register
    // certificate admits this R. Every program must equal a cold
    // compile byte for byte.
    Rng rng(20261017);
    ProgramCacheConfig cc;
    cc.maxEntries = 1;
    cc.maxFragments = 2;
    ProgramCache cache(cc);
    const uint32_t regs[] = {16, 32, 128};
    size_t feasible = 0;
    for (uint64_t seed : {91u, 92u, 93u}) {
        const size_t ops = 300 + rng.below(300);
        Dag d = generateRandomDag(16 + rng.below(16), ops, seed);
        for (int c = 0; c < 2; ++c) {
            ArchConfig cfg;
            cfg.depth = 1 + static_cast<uint32_t>(rng.below(3));
            cfg.banks = (1u << cfg.depth) << rng.below(3);
            cfg.outputNet = static_cast<OutputInterconnect>(rng.below(3));
            for (uint32_t part : {0u, static_cast<uint32_t>(ops / 4)})
                for (bool aware : {true, false}) {
                    if (part == 0 && !aware)
                        continue; // no effect on one range
                    CompileOptions opt;
                    opt.partitionNodes = part;
                    opt.boundaryAwareBanks = aware;
                    opt.verify = true;
                    std::vector<std::vector<uint8_t>> cold;
                    for (uint32_t r : regs) {
                        cfg.regsPerBank = r;
                        cold.push_back(bytesOrInfeasible(
                            [&] { return compile(d, cfg, opt); }));
                    }
                    for (uint32_t threads : {1u, 4u}) {
                        opt.threads = threads;
                        for (size_t k = 0; k < std::size(regs); ++k) {
                            cfg.regsPerBank = regs[k];
                            SCOPED_TRACE("seed " + std::to_string(seed) +
                                         " " + cfg.label() + " net" +
                                         std::to_string(static_cast<int>(
                                             cfg.outputNet)) +
                                         " p" + std::to_string(part) +
                                         " a" + std::to_string(aware) +
                                         " t" + std::to_string(threads));
                            EXPECT_EQ(cold[k], bytesOrInfeasible([&] {
                                          return cache.compile(d, cfg, opt);
                                      }));
                            feasible += !cold[k].empty();
                        }
                    }
                }
        }
    }
    EXPECT_GT(feasible, 50u);
    ProgramCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_GT(s.fragHits, 0u);
    EXPECT_GT(s.fragMisses, 0u);
}

TEST(ProgramCache, ConcurrentWarmFragmentsMatchColdCompiles)
{
    // Four threads sweep R through one shared cache, each in its own
    // order: fragments are hit, evicted and re-stored while other
    // compiles borrow them. Every program equals its cold compile.
    Dag d = generateRandomDag(24, 800, 94);
    ArchConfig cfg = cfgOf(2, 16, 32);
    CompileOptions opt;
    opt.partitionNodes = 200;
    opt.verify = true;
    const std::vector<uint32_t> regs = {16, 24, 32, 48, 64, 96, 128, 256};
    std::vector<std::vector<uint8_t>> cold;
    for (uint32_t r : regs) {
        cfg.regsPerBank = r;
        cold.push_back(
            bytesOrInfeasible([&] { return compile(d, cfg, opt); }));
    }

    ProgramCacheConfig cc;
    cc.maxEntries = 2;
    cc.maxFragments = 2;
    ProgramCache cache(cc);
    constexpr size_t kThreads = 4;
    std::vector<std::vector<std::vector<uint8_t>>> warm(
        kThreads, std::vector<std::vector<uint8_t>>(regs.size()));
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kThreads; ++t)
        workers.emplace_back([&, t] {
            ArchConfig mine = cfg;
            CompileOptions o = opt;
            o.threads = 1 + static_cast<uint32_t>(t % 2);
            for (size_t i = 0; i < regs.size(); ++i) {
                size_t k = (i * (2 * t + 1) + t) % regs.size();
                mine.regsPerBank = regs[k];
                warm[t][k] = bytesOrInfeasible(
                    [&] { return cache.compile(d, mine, o); });
            }
        });
    for (std::thread &w : workers)
        w.join();
    for (size_t t = 0; t < kThreads; ++t)
        for (size_t k = 0; k < regs.size(); ++k)
            EXPECT_EQ(cold[k], warm[t][k])
                << "thread " << t << " R=" << regs[k];
    EXPECT_GT(cache.stats().fragHits, 0u);
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

    // A program made elsewhere (e.g. derived for another register
    // count) goes in as it is: fetch() hands out that very program,
    // under the same key as the Dag overload, and it spills too.
    PreparedDag prepared = prepareDag(d);
    ArchConfig other = cfgOf(2, 8, 64);
    auto shared = std::make_shared<const CompiledProgram>(compile(d, other));
    cache.insert(prepared, other, {}, shared);
    ProgramCache::Fetched got = cache.fetch(prepared, other);
    EXPECT_TRUE(got.hit);
    EXPECT_EQ(got.prog, shared);
    s = cache.stats();
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.diskWrites, 2u);
    EXPECT_EQ(cache.compile(d, other).stats.cacheHits, 1u);
    ProgramCache reader(cc);
    EXPECT_EQ(reader.compile(d, other).stats.cacheHits, 1u);
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
    // The image is the program's content only: host times stay out.
    CompiledProgram timed = prog;
    timed.stats.compileSeconds += 1.0;
    timed.stats.verifySeconds += 1.0;
    EXPECT_EQ(serializeProgram(timed), image);
    EXPECT_EQ(back.stats.compileSeconds, 0.0);
    EXPECT_EQ(back.stats.verifySeconds, 0.0);

    // Corrupt images are rejected, not crashed on.
    CompiledProgram junk;
    EXPECT_FALSE(deserializeProgram({1, 2, 3, 4}, junk));
    auto truncated = image;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(deserializeProgram(truncated, junk));

    // A packed instruction stream one byte short, with its length
    // field kept consistent, fails in the bit-stream decoder itself.
    // Layout: magic u64, five config u32s, instruction count u64,
    // packed length u64, packed bytes.
    const size_t len_at = 8 + 5 * 4 + 8;
    uint64_t packed_len = 0;
    std::memcpy(&packed_len, image.data() + len_at, sizeof(packed_len));
    ASSERT_GT(packed_len, 0u);
    auto short_stream = image;
    --packed_len;
    std::memcpy(short_stream.data() + len_at, &packed_len,
                sizeof(packed_len));
    short_stream.erase(short_stream.begin() + len_at + 8 + packed_len);
    EXPECT_FALSE(deserializeProgram(short_stream, junk));
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

/** Spill file names and program-cache keys embed these hashes, so a
 *  change of DAG representation must leave every value unchanged. */
TEST(ProgramCache, StructuralHashIsPinned)
{
    Dag empty;

    Dag inputs_only;
    for (int i = 0; i < 3; ++i)
        inputs_only.addInput();

    // n-ary nodes, an unused input and a node used twice.
    Dag nary;
    NodeId a = nary.addInput(), b = nary.addInput(), c = nary.addInput();
    nary.addInput();
    NodeId s = nary.addNode(OpType::Add, {a, b, c});
    NodeId p = nary.addNode(OpType::Mul, {s, c, a, b});
    nary.addNode(OpType::Add, {p, s});

    // A duplicate operand: x*x, then (x*x) + x.
    Dag square;
    NodeId x = square.addInput();
    NodeId xx = square.addNode(OpType::Mul, {x, x});
    square.addNode(OpType::Add, {xx, x});

    EXPECT_EQ(dagStructuralHash(empty), 0x3e6a6602ccb169dcull);
    EXPECT_EQ(dagStructuralHash(inputs_only), 0x5b250baf95436c0bull);
    EXPECT_EQ(dagStructuralHash(nary), 0xf4ca536444a6be72ull);
    EXPECT_EQ(dagStructuralHash(square), 0x6be7eb3210a816afull);
    EXPECT_EQ(dagStructuralHash(generateRandomDag(16, 300, 82)),
              0xf7814118f942788full);

    ArchConfig cfg = cfgOf(3, 8, 16);
    CompileOptions opt;
    opt.partitionNodes = 100;
    EXPECT_EQ(programCacheKey(dagStructuralHash(nary), cfg, opt),
              "f4ca536444a6be72-D3.B8.R16-n1-m4096-b0-a1-w300-p100-s1");
}

} // namespace
} // namespace dpu
