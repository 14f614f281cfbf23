#include "compiler/cache.hh"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "arch/isa.hh"
#include "compiler/verify.hh"
#include "support/logging.hh"

namespace dpu {

namespace {

/** splitmix64-style avalanche, for word-at-a-time hashing. */
uint64_t
mix64(uint64_t h, uint64_t x)
{
    h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ull;
    h ^= h >> 27;
    return h;
}

// ------------------------------------------------------------------ //
// Binary image helpers (native endianness; see file header of the    //
// cache for why that is acceptable).                                 //
// ------------------------------------------------------------------ //

struct Writer
{
    std::vector<uint8_t> buf;

    void
    raw(const void *p, size_t n)
    {
        const uint8_t *b = static_cast<const uint8_t *>(p);
        buf.insert(buf.end(), b, b + n);
    }
    void u32(uint32_t v) { raw(&v, sizeof(v)); }
    void u64(uint64_t v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }
};

struct Reader
{
    const uint8_t *p;
    const uint8_t *end;
    bool ok = true;

    bool
    raw(void *out, size_t n)
    {
        if (!ok || static_cast<size_t>(end - p) < n) {
            ok = false;
            return false;
        }
        std::memcpy(out, p, n);
        p += n;
        return true;
    }
    uint32_t
    u32()
    {
        uint32_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }
    uint64_t
    u64()
    {
        uint64_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }
    double
    f64()
    {
        double v = 0;
        raw(&v, sizeof(v));
        return v;
    }
};

// Bumped to "DPUPROG3" when the image dropped stats.compileSeconds
// and stats.verifySeconds: it holds the program's content only, so
// two compiles of one program give the same bytes. Older spill files
// deserialize as misses.
constexpr uint64_t programMagic = 0x33474f5250555044ull; // "DPUPROG3"

} // namespace

bool
ensureWritableDirectory(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::path path(dir);
    std::filesystem::create_directories(path, ec);
    if (ec)
        return false;
    std::filesystem::path probe =
        path / (".probe." +
                std::to_string(
#if defined(__unix__) || defined(__APPLE__)
                    static_cast<long>(::getpid())
#else
                    0L
#endif
                ));
    {
        std::ofstream out(probe, std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out << 'x';
        out.flush();
        if (!out)
            return false;
    }
    std::filesystem::remove(probe, ec);
    return true;
}

uint64_t
dagStructuralHash(const Dag &dag)
{
    uint64_t h = 0x8a5cd789635d2dffull;
    h = mix64(h, dag.numNodes());
    for (NodeId v = 0; v < dag.numNodes(); ++v) {
        const Node &n = dag.node(v);
        h = mix64(h, n.isInput()
                         ? 0ull
                         : 1ull + static_cast<uint64_t>(n.op));
        h = mix64(h, n.operands.size());
        for (NodeId o : n.operands)
            h = mix64(h, o);
    }
    return h;
}

std::string
programCacheKey(const Dag &dag, const ArchConfig &cfg,
                const CompileOptions &options)
{
    return programCacheKey(dagStructuralHash(dag), cfg, options);
}

std::string
programCacheKey(uint64_t sourceHash, const ArchConfig &cfg,
                const CompileOptions &options)
{
    char suffix[160];
    std::snprintf(suffix, sizeof(suffix),
                  "%016llx-D%u.B%u.R%u-n%d-m%u-b%d-a%d-w%u-p%u-s%llu",
                  static_cast<unsigned long long>(sourceHash),
                  cfg.depth, cfg.banks, cfg.regsPerBank,
                  static_cast<int>(cfg.outputNet), cfg.dataMemRows,
                  static_cast<int>(options.bankPolicy),
                  static_cast<int>(options.boundaryAwareBanks),
                  options.reorderWindow, options.partitionNodes,
                  static_cast<unsigned long long>(options.seed));
    return suffix;
}

std::string
fragmentCacheKey(uint64_t dagHash, std::pair<NodeId, NodeId> range,
                 uint32_t part, const ArchConfig &cfg,
                 const CompileOptions &options)
{
    char suffix[192];
    std::snprintf(suffix, sizeof(suffix),
                  "f%016llx-r%u.%u-p%u-D%u.B%u-n%d-b%d-a%d-q%u-s%llu",
                  static_cast<unsigned long long>(dagHash),
                  range.first, range.second, part, cfg.depth, cfg.banks,
                  static_cast<int>(cfg.outputNet),
                  static_cast<int>(options.bankPolicy),
                  static_cast<int>(options.boundaryAwareBanks),
                  options.partitionNodes,
                  static_cast<unsigned long long>(options.seed));
    return suffix;
}

FragmentCache::FragmentCache(size_t maxEntries_) : maxEntries(maxEntries_)
{
    dpu_assert(maxEntries >= 1, "fragment cache needs at least one slot");
}

std::shared_ptr<const CompiledFragment>
FragmentCache::lookup(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = index.find(key);
    if (it == index.end()) {
        ++counters.misses;
        return nullptr;
    }
    lru.splice(lru.begin(), lru, it->second);
    ++counters.hits;
    return it->second->frag;
}

void
FragmentCache::store(const std::string &key,
                     std::shared_ptr<const CompiledFragment> entry)
{
    std::lock_guard<std::mutex> lock(mutex);
    auto it = index.find(key);
    if (it != index.end()) {
        it->second->frag = std::move(entry);
        lru.splice(lru.begin(), lru, it->second);
        return;
    }
    lru.push_front({key, std::move(entry)});
    index[key] = lru.begin();
    while (lru.size() > maxEntries) {
        index.erase(lru.back().key);
        lru.pop_back();
    }
}

FragmentCache::Stats
FragmentCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

size_t
FragmentCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return lru.size();
}

std::vector<uint8_t>
serializeProgram(const CompiledProgram &prog)
{
    Writer w;
    w.u64(programMagic);

    w.u32(prog.cfg.depth);
    w.u32(prog.cfg.banks);
    w.u32(prog.cfg.regsPerBank);
    w.u32(static_cast<uint32_t>(prog.cfg.outputNet));
    w.u32(prog.cfg.dataMemRows);

    std::vector<uint8_t> image =
        encodeProgram(prog.cfg, prog.instructions);
    w.u64(prog.instructions.size());
    w.u64(image.size());
    w.raw(image.data(), image.size());

    w.u32(prog.numRows);
    w.u64(prog.inputLocation.size());
    for (auto [row, col] : prog.inputLocation) {
        w.u32(row);
        w.u32(col);
    }
    w.u64(prog.outputs.size());
    for (const auto &o : prog.outputs) {
        w.u32(o.node);
        w.u32(o.row);
        w.u32(o.col);
    }

    const CompileStats &s = prog.stats;
    for (uint64_t k : s.kindCount)
        w.u64(k);
    w.u64(s.instructions);
    w.u64(s.cycles);
    w.u64(s.bankConflicts);
    w.u64(s.nops);
    w.u64(s.spillStores);
    w.u64(s.reloads);
    w.u64(s.numOperations);
    w.u64(s.peOpsExecuted);
    w.u64(s.blocks);
    w.u64(s.programBits);
    w.u64(s.programBitsExplicitWrites);
    w.u64(s.csrBits);
    w.u64(s.dataBits);
    return std::move(w.buf);
}

bool
deserializeProgram(const std::vector<uint8_t> &image, CompiledProgram &out)
{
    Reader r{image.data(), image.data() + image.size()};
    if (r.u64() != programMagic)
        return false;

    CompiledProgram prog;
    prog.cfg.depth = r.u32();
    prog.cfg.banks = r.u32();
    prog.cfg.regsPerBank = r.u32();
    prog.cfg.outputNet = static_cast<OutputInterconnect>(r.u32());
    prog.cfg.dataMemRows = r.u32();

    uint64_t instr_count = r.u64();
    uint64_t image_bytes = r.u64();
    if (!r.ok || image_bytes > static_cast<size_t>(r.end - r.p))
        return false;
    std::span<const uint8_t> packed(r.p, image_bytes);
    r.p += image_bytes;
    try {
        prog.cfg.check();
        prog.instructions = decodeProgram(
            prog.cfg, packed, static_cast<size_t>(instr_count));
    } catch (...) {
        return false;
    }

    prog.numRows = r.u32();
    uint64_t n_inputs = r.u64();
    if (!r.ok || n_inputs > image.size())
        return false;
    prog.inputLocation.reserve(n_inputs);
    for (uint64_t i = 0; i < n_inputs; ++i) {
        uint32_t row = r.u32();
        uint32_t col = r.u32();
        prog.inputLocation.emplace_back(row, col);
    }
    uint64_t n_outputs = r.u64();
    if (!r.ok || n_outputs > image.size())
        return false;
    prog.outputs.reserve(n_outputs);
    for (uint64_t i = 0; i < n_outputs; ++i) {
        CompiledProgram::OutputLoc o;
        o.node = r.u32();
        o.row = r.u32();
        o.col = r.u32();
        prog.outputs.push_back(o);
    }

    CompileStats &s = prog.stats;
    for (uint64_t &k : s.kindCount)
        k = r.u64();
    s.instructions = r.u64();
    s.cycles = r.u64();
    s.bankConflicts = r.u64();
    s.nops = r.u64();
    s.spillStores = r.u64();
    s.reloads = r.u64();
    s.numOperations = r.u64();
    s.peOpsExecuted = r.u64();
    s.blocks = r.u64();
    s.programBits = r.u64();
    s.programBitsExplicitWrites = r.u64();
    s.csrBits = r.u64();
    s.dataBits = r.u64();
    if (!r.ok || r.p != r.end)
        return false;
    out = std::move(prog);
    return true;
}

ProgramCache::ProgramCache(ProgramCacheConfig config_)
    : config(std::move(config_)), fragments(config.maxFragments)
{
    dpu_assert(config.maxEntries >= 1, "cache needs at least one slot");
    if (!config.diskDir.empty() &&
        !ensureWritableDirectory(config.diskDir)) {
        // A broken spill directory (read-only FS, path under a file)
        // must not abort the caller's sweep: degrade to the in-memory
        // LRU and say so once.
        std::fprintf(stderr,
                     "ProgramCache: cache dir '%s' is not writable; "
                     "falling back to in-memory-only caching\n",
                     config.diskDir.c_str());
        config.diskDir.clear();
    }
}

namespace {

/** compile()'s contract over a lookup: a caller-owned copy, flagged
 *  and timed as a fetch when the cache served it. */
CompiledProgram
copyOf(const ProgramCache::Fetched &got)
{
    CompiledProgram copy = *got.prog;
    if (got.hit) {
        copy.stats.cacheHits = 1;
        copy.stats.compileSeconds = got.fetchSeconds;
    }
    return copy;
}

} // namespace

ProgramCache::Fetched
ProgramCache::fetch(const PreparedDag &prepared, const ArchConfig &cfg,
                    const CompileOptions &options)
{
    return lookupOrCompile(
        programCacheKey(prepared.sourceHash, cfg, options), options,
        [&](const CompileOptions &opts) {
            return dpu::compile(prepared, cfg, opts);
        });
}

CompiledProgram
ProgramCache::compile(const Dag &dag, const ArchConfig &cfg,
                      const CompileOptions &options)
{
    return copyOf(lookupOrCompile(
        programCacheKey(dag, cfg, options), options,
        [&](const CompileOptions &opts) {
            return dpu::compile(dag, cfg, opts);
        }));
}

CompiledProgram
ProgramCache::compile(const PreparedDag &prepared, const ArchConfig &cfg,
                      const CompileOptions &options)
{
    return copyOf(fetch(prepared, cfg, options));
}

ProgramCache::Fetched
ProgramCache::lookupOrCompile(
    const std::string &key, const CompileOptions &options,
    const std::function<CompiledProgram(const CompileOptions &)> &miss)
{
    auto t0 = std::chrono::steady_clock::now();
    Fetched got;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = index.find(key);
        if (it != index.end()) {
            lru.splice(lru.begin(), lru, it->second);
            got.prog = it->second->prog;
            ++counters.hits;
        }
    }
    if (!got.prog && !config.diskDir.empty()) {
        CompiledProgram prog;
        if (loadFromDisk(key, prog)) {
            got.prog =
                std::make_shared<const CompiledProgram>(std::move(prog));
            std::lock_guard<std::mutex> lock(mutex);
            ++counters.diskHits;
            insertLocked(key, got.prog);
        }
    }
    if (got.prog) {
        got.hit = true;
        got.fetchSeconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        return got;
    }

    // A full compile still reuses per-partition fragments of earlier
    // compiles (e.g. a DSE neighbor differing only in regsPerBank).
    CompileOptions opts = options;
    opts.fragmentCache = &fragments;
    got.prog = std::make_shared<const CompiledProgram>(miss(opts));
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.misses;
    }
    keep(key, got.prog);
    return got;
}

void
ProgramCache::insert(const Dag &dag, const ArchConfig &cfg,
                     const CompileOptions &options,
                     const CompiledProgram &prog)
{
    CompiledProgram stored = prog;
    stored.stats.cacheHits = 0; // future hits flag themselves
    keep(programCacheKey(dag, cfg, options),
         std::make_shared<const CompiledProgram>(std::move(stored)));
}

void
ProgramCache::insert(const PreparedDag &prepared, const ArchConfig &cfg,
                     const CompileOptions &options,
                     std::shared_ptr<const CompiledProgram> prog)
{
    keep(programCacheKey(prepared.sourceHash, cfg, options),
         std::move(prog));
}

void
ProgramCache::keep(const std::string &key,
                   std::shared_ptr<const CompiledProgram> prog)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        insertLocked(key, prog);
    }
    if (!config.diskDir.empty())
        storeToDisk(key, *prog);
}

ProgramCache::Stats
ProgramCache::stats() const
{
    FragmentCache::Stats frag = fragments.stats();
    std::lock_guard<std::mutex> lock(mutex);
    Stats out = counters;
    out.fragHits = frag.hits;
    out.fragMisses = frag.misses;
    return out;
}

size_t
ProgramCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return lru.size();
}

bool
ProgramCache::loadFromDisk(const std::string &key, CompiledProgram &out)
{
    std::filesystem::path path =
        std::filesystem::path(config.diskDir) / (key + ".dpuprog");
    // One sized read: the image is a few hundred KB to MBs.
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
    if (size < 0)
        return false;
    std::vector<uint8_t> image(static_cast<size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char *>(image.data()), size);
    // A file cut short since tellg() is a truncated image.
    image.resize(static_cast<size_t>(in.gcount()));
    auto reject = [&](const char *why) {
        std::fprintf(stderr,
                     "ProgramCache: rejecting spill file '%s' (%s); "
                     "treating as a miss\n",
                     path.string().c_str(), why);
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.diskRejects;
        return false;
    };
    if (!deserializeProgram(image, out))
        return reject("truncated or malformed image");
    // A well-formed image can still carry a corrupt program (bit rot,
    // a stale writer, a hand-edited file): prove it legal before any
    // simulator trusts it.
    VerifyReport report = verifyProgram(out);
    if (report.errorCount())
        return reject(report.summary().c_str());
    return true;
}

void
ProgramCache::storeToDisk(const std::string &key,
                          const CompiledProgram &prog)
{
    std::error_code ec;
    std::filesystem::path dir(config.diskDir);
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return; // a cache write failure is not an error
    std::filesystem::path path = dir / (key + ".dpuprog");
    // Per-process tmp name: concurrent writers of one key (e.g. two
    // benches sharing a --cache-dir) must not interleave into the
    // same file before the atomic rename.
    std::filesystem::path tmp =
        dir / (key + ".tmp." +
               std::to_string(
#if defined(__unix__) || defined(__APPLE__)
                   static_cast<long>(::getpid())
#else
                   0L
#endif
               ));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return;
        std::vector<uint8_t> image = serializeProgram(prog);
        out.write(reinterpret_cast<const char *>(image.data()),
                  static_cast<std::streamsize>(image.size()));
        if (!out)
            return;
    }
    std::filesystem::rename(tmp, path, ec);
    if (!ec) {
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.diskWrites;
    }
}

void
ProgramCache::insertLocked(const std::string &key,
                           std::shared_ptr<const CompiledProgram> prog)
{
    auto it = index.find(key);
    if (it != index.end()) {
        it->second->prog = std::move(prog);
        lru.splice(lru.begin(), lru, it->second);
        return;
    }
    lru.push_front({key, std::move(prog)});
    index[key] = lru.begin();
    while (lru.size() > config.maxEntries) {
        index.erase(lru.back().key);
        lru.pop_back();
        ++counters.evictions;
    }
}

} // namespace dpu
