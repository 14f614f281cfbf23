/**
 * @file
 * Content-keyed compiled-program cache.
 *
 * The bench suite compiles the same workload DAGs over and over (17
 * bench binaries, many sharing the Table I suite at the same
 * configuration). The cache keys a compile by what the compiler
 * actually reacts to — the DAG's structural hash, the ArchConfig and
 * the CompileOptions — and keeps the resulting programs in an
 * in-memory LRU with an optional on-disk spill directory so hits
 * survive across bench *processes*.
 *
 * CompileOptions::threads, ::verify and ::fragmentCache are
 * deliberately excluded from the key: the partition-parallel
 * compiler is byte-identical for every thread count, verification
 * only checks the artifact, and fragment
 * reuse is keyed to be output-preserving, so none of them can change
 * it. ::boundaryAwareBanks *is* in the key — it changes the emitted
 * program on partitioned compiles.
 *
 * The cache knows nothing of register certificates: a program derived
 * for another register count (deriveForRegisterCount) is the caller's
 * to make, and insert() keeps it like any other program. The DSE's
 * sweep tasks do that, one (D, B) group at a time (model/dse.hh).
 *
 * The disk format is a native-endianness binary image (the cache
 * directory is a local build artifact, not a portable interchange
 * format); unreadable or stale files are treated as misses. The
 * certificate is not in the image, so a program read from disk
 * admits no other register count.
 */

#ifndef DPU_COMPILER_CACHE_HH
#define DPU_COMPILER_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/codegen.hh"
#include "compiler/compiler.hh"

namespace dpu {

/** Structural hash of a DAG: node kinds, operators and edges. Two
 *  DAGs with the same hash compile identically (modulo collisions). */
uint64_t dagStructuralHash(const Dag &dag);

/** The cache key as a printable token (also the spill file stem).
 *  `sourceHash` is dagStructuralHash of the DAG as handed to compile()
 *  (PreparedDag::sourceHash); the Dag overload hashes it first. */
std::string programCacheKey(uint64_t sourceHash, const ArchConfig &cfg,
                            const CompileOptions &options);
std::string programCacheKey(const Dag &dag, const ArchConfig &cfg,
                            const CompileOptions &options);

/**
 * Key of one partition's compiled fragment: the whole binarized DAG's
 * structural hash plus the range bounds pin the sub-DAG and how it
 * hangs off the rest of the DAG. Deliberately *excludes* regsPerBank,
 * dataMemRows and reorderWindow: steps 1-2 and codegen never read
 * them (registers and the reorder window only matter from step 3 on),
 * so DSE points differing only in those axes share fragments — a much
 * finer reuse grain than whole-program hits. Fragment keys live only
 * in memory.
 */
std::string fragmentCacheKey(uint64_t dagHash,
                             std::pair<NodeId, NodeId> range, uint32_t part,
                             const ArchConfig &cfg,
                             const CompileOptions &options);

/**
 * Per-partition compile artifacts (steps 1-2 + codegen output) that a
 * later compile of the same sub-DAG under a compatible configuration
 * can reuse instead of recomputing — see fragmentCacheKey for what
 * "compatible" means. A compile that misses builds the entry in place
 * and reads it as a hit would.
 */
struct CompiledFragment
{
    RangeDecomposition dec;
    BankAssignment banks; ///< Range-local (indexed v - range.first).
    IrFragment frag;      ///< Unscheduled codegen output.

    /** An unpartitioned compile's codegen context: it depends only on
     *  the DAG and `dec`, so a hit reads it instead of recomputing
     *  it. Its `sinks` views this entry's own `sinks`, which is why
     *  an entry is only ever held behind a shared_ptr, never copied.
     *  Empty for a partition of a partitioned compile, whose context
     *  reads every range's blocks. */
    std::optional<CodegenShared> shared;
    std::vector<NodeId> sinks;
};

/**
 * A thread-safe bounded LRU of compiled fragments, shared across the
 * compiles of one ProgramCache (or wired directly via
 * CompileOptions::fragmentCache). Entries are immutable behind
 * shared_ptr, so a hit is a pointer copy under the lock and the
 * compile reads the decomposition and bank map in place; only a stage
 * that mutates an artifact (the IR fragment, which merge and reorder
 * rewrite) copies it. The pointer keeps an evicted entry alive for as
 * long as a compile still borrows it.
 */
class FragmentCache
{
  public:
    explicit FragmentCache(size_t maxEntries = 128);

    /** Fetch a fragment; counts a hit or miss. */
    std::shared_ptr<const CompiledFragment>
    lookup(const std::string &key);

    /** Remember a fragment: keeps `entry` itself, which the caller
     *  must no longer change. */
    void store(const std::string &key,
               std::shared_ptr<const CompiledFragment> entry);

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
    };
    Stats stats() const;

    /** Fragments currently resident. */
    size_t size() const;

  private:
    struct Entry
    {
        std::string key;
        std::shared_ptr<const CompiledFragment> frag;
    };

    mutable std::mutex mutex;
    size_t maxEntries;
    std::list<Entry> lru; ///< Front = most recently used.
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    Stats counters;
};

/**
 * Create `dir` (recursively) if missing and verify it is writable by
 * creating and removing a probe file. False when the directory cannot
 * be created or written (e.g. a read-only filesystem, or a path
 * component that is a regular file).
 */
bool ensureWritableDirectory(const std::string &dir);

/** Serialize a compiled program to a self-contained binary image. */
std::vector<uint8_t> serializeProgram(const CompiledProgram &prog);

/** Inverse of serializeProgram(); false on a malformed image. */
bool deserializeProgram(const std::vector<uint8_t> &image,
                        CompiledProgram &out);

/** Cache sizing / placement knobs. */
struct ProgramCacheConfig
{
    /** In-memory LRU capacity in programs. */
    size_t maxEntries = 32;

    /** Capacity of the per-partition fragment cache (entries). */
    size_t maxFragments = 128;

    /** Spill directory shared across processes; empty = memory only.
     *  Probed at construction: when it cannot be created or written
     *  (read-only FS), the cache warns once and falls back to
     *  in-memory-only caching instead of failing every spill. */
    std::string diskDir;
};

/**
 * A thread-safe compiled-program cache: a plain key -> program store
 * (memory LRU, disk spill) plus the fragment cache its compiles share.
 * A lookup serves the program when its key is resident (memory first,
 * then disk), and otherwise runs the real compiler and moves the
 * result into the cache; insert() keeps a program made elsewhere.
 *
 * fetch() hands out the resident program itself, read-only behind a
 * shared_ptr, with a hit flag and the fetch time: a caller that only
 * reads the program (the DSE) copies nothing. compile() returns a
 * copy of the same result; cached returns carry stats.cacheHits = 1
 * and their compileSeconds reset to the fetch time, so callers can
 * both observe hits and report honest wall-clock compile costs.
 */
class ProgramCache
{
  public:
    explicit ProgramCache(ProgramCacheConfig config = {});

    /** One lookup: the resident program (its stats as compiled, so
     *  stats.cacheHits = 0), whether it was served from the cache
     *  (memory or disk), and the seconds the lookup took when it was
     *  (0 on a miss, whose cost is the program's stats.compileSeconds). */
    struct Fetched
    {
        std::shared_ptr<const CompiledProgram> prog;
        bool hit = false;
        double fetchSeconds = 0.0;
    };

    /** Look up or compile an already-prepared DAG without copying the
     *  program; same key as compile(). */
    Fetched fetch(const PreparedDag &prepared, const ArchConfig &cfg,
                  const CompileOptions &options = {});

    /** Compile through the cache. A hit only hashes `dag`; the
     *  compiler front end (binarization) runs on a miss alone. */
    CompiledProgram compile(const Dag &dag, const ArchConfig &cfg,
                            const CompileOptions &options = {});

    /** Compile an already-prepared DAG through the cache: a copy of
     *  fetch(). Same key, so this and the Dag overload share
     *  entries. */
    CompiledProgram compile(const PreparedDag &prepared,
                            const ArchConfig &cfg,
                            const CompileOptions &options = {});

    /** Insert a program compiled outside the cache (e.g. by a bench
     *  that must measure real compile time but still wants later
     *  benches to reuse the artifact). Counts as neither hit nor
     *  miss; spills to disk like a miss would. */
    void insert(const Dag &dag, const ArchConfig &cfg,
                const CompileOptions &options,
                const CompiledProgram &prog);

    /** Insert a program made outside the cache (e.g. one derived for
     *  another register count) as it is, without copying it; same key
     *  as fetch(). Counts and spills like the Dag overload. */
    void insert(const PreparedDag &prepared, const ArchConfig &cfg,
                const CompileOptions &options,
                std::shared_ptr<const CompiledProgram> prog);

    /** Aggregate counters since construction. */
    struct Stats
    {
        uint64_t hits = 0;       ///< Served from memory.
        uint64_t diskHits = 0;   ///< Served from the spill directory.
        uint64_t misses = 0;     ///< Full compiles.
        uint64_t evictions = 0;  ///< LRU evictions from memory.
        uint64_t diskWrites = 0; ///< Spill files written.
        uint64_t diskRejects = 0; ///< Spill files rejected (truncated,
                                  ///  corrupt, or failing the static
                                  ///  verifier); each was a miss.
        uint64_t fragHits = 0;   ///< Per-partition fragment reuses.
        uint64_t fragMisses = 0; ///< Fragments compiled from scratch.

        /** Total lookups (hits + diskHits + misses). */
        uint64_t
        lookups() const
        {
            return hits + diskHits + misses;
        }

        /** Fraction of lookups served without a compile (memory or
         *  disk); 0 when nothing was looked up yet. */
        double
        hitRate() const
        {
            uint64_t n = lookups();
            return n ? static_cast<double>(hits + diskHits) /
                           static_cast<double>(n)
                     : 0.0;
        }
    };
    Stats stats() const;

    /** Programs currently resident in memory. */
    size_t size() const;

    /** True when the on-disk spill is active (a diskDir was given
     *  and survived the construction-time writability probe). */
    bool diskEnabled() const { return !config.diskDir.empty(); }

  private:
    /** Entries hold immutable programs behind shared_ptr, so a hit
     *  hands the entry out under the mutex and a reader keeps it
     *  alive past an eviction. */
    struct Entry
    {
        std::string key;
        std::shared_ptr<const CompiledProgram> prog;
    };

    /** The one lookup body behind fetch() and both compile()
     *  overloads: serve `key` from memory or disk, else call `miss`
     *  with this cache's fragment cache wired into `options` and keep
     *  its program. */
    Fetched
    lookupOrCompile(const std::string &key, const CompileOptions &options,
                    const std::function<CompiledProgram(
                        const CompileOptions &)> &miss);

    bool loadFromDisk(const std::string &key, CompiledProgram &out);
    void storeToDisk(const std::string &key, const CompiledProgram &prog);
    /** Make `prog` the resident program of `key`, and spill it. */
    void keep(const std::string &key,
              std::shared_ptr<const CompiledProgram> prog);
    /** Make `prog` the resident program of `key`. */
    void insertLocked(const std::string &key,
                      std::shared_ptr<const CompiledProgram> prog);

    ProgramCacheConfig config;
    FragmentCache fragments; ///< Shared by every compile() miss.
    mutable std::mutex mutex;
    std::list<Entry> lru; ///< Front = most recently used.
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    Stats counters;
};

} // namespace dpu

#endif // DPU_COMPILER_CACHE_HH
