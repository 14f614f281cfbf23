/**
 * @file
 * Design-space exploration (paper §V, fig. 11/12).
 *
 * The classic sweep runs D in {1,2,3}, B in {8,16,32,64}, R in
 * {16,32,64,128} — 48 design points — compiling and simulating every
 * workload of the suite on each and averaging latency/op, energy/op
 * and EDP. This header grows that into a sharded sweep engine:
 *
 *   - expandDseGrid() turns an arbitrary axis grid (depths x banks x
 *     regs) into a deterministic, grid-ordered configuration list;
 *   - planDseShards() cuts the grid into contiguous, near-equal
 *     shards, the partition a sweep reports its cost by;
 *   - runDseSweep() builds the suite at the sweep's workload scale
 *     once and runs the configuration-independent compiler front end
 *     on it (prepareDag), in parallel. Its unit of work is then one
 *     task: one (D, B) group of the pending points (taken over the
 *     whole grid, never cut at a shard boundary) x one suite
 *     workload. The tasks run in grid order on a work-stealing pool
 *     (support/parallel.hh), each compiling from the shared prepared
 *     DAGs through an optional ProgramCache. A task walks its group's
 *     points by ascending R and holds the latest program it served
 *     that carries a register certificate (RegisterCertificate), with
 *     its simulated stats: every further R the certificate admits is
 *     derived from it (deriveForRegisterCount) and reuses those stats,
 *     with or without a cache, exactly as a serial sweep does. No two
 *     tasks share a program or fragment key, so no thread count
 *     compiles anything twice. A task writes one record per point; a
 *     point is the reduce of its records in suite order, so the
 *     returned point vector is byte-identical for every thread/shard
 *     count (pinned by the DseStress suite);
 *   - completed points are checkpointed to a JSON-lines journal so a
 *     killed sweep can be resumed (`resume`) without recomputing: a
 *     group's points are appended and flushed when its last task
 *     finishes. On completion the journal is rewritten canonically
 *     (header + grid-order lines), so the final journal is also
 *     deterministic;
 *   - paretoFrontier() exposes the latency/energy/area frontier as a
 *     first-class API (replacing ad-hoc min-index scans).
 */

#ifndef DPU_MODEL_DSE_HH
#define DPU_MODEL_DSE_HH

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "arch/config.hh"
#include "compiler/cache.hh"
#include "model/energy.hh"
#include "workloads/suite.hh"

namespace dpu {

/** Sentinel returned by the min-index scans when no feasible point
 *  exists (empty sweep, or every point failed to fit the suite). */
inline constexpr size_t kDseNpos = static_cast<size_t>(-1);

/** One evaluated design point. */
struct DsePoint
{
    ArchConfig cfg;
    double workloadScale = 1.0; ///< The sweep's workload scale.
    double latencyPerOpNs = 0;
    double energyPerOpPj = 0;
    double edpPjNs = 0;
    double areaMm2 = 0;
    double powerWatts = 0;
    double throughputGops = 0;
    bool feasible = true; ///< False if some workload failed to fit.
};

/** Sweep options: the axis grid plus the evaluation parameters. */
struct DseOptions
{
    std::vector<uint32_t> depths{1, 2, 3};
    std::vector<uint32_t> banks{8, 16, 32, 64};
    std::vector<uint32_t> regs{16, 32, 64, 128};

    double workloadScale = 1.0; ///< Every point's workload scale.
    uint64_t seed = 1;

    /** Workloads to evaluate; empty = the Table I (a)+(b) suite. */
    std::vector<WorkloadSpec> suite;
};

/**
 * Validate the axis values: no value repeated within an axis, depth
 * in [1,6], banks a power of two >= 2, regs in
 * [2, ArchConfig::maxRegsPerBank], workloadScale > 0.
 * False sets `error` (when given) to the first violation. The single
 * source of the axis rules: expandDseGrid throws FatalError on the
 * same check, and the dse_sweep CLI uses it to reject junk --axes
 * values with exit 2 at flag-parse time.
 */
bool validateDseAxes(const DseOptions &options,
                     std::string *error = nullptr);

/**
 * Expand the axis grid in deterministic grid order: depth-major,
 * then banks, then regs. Combinations with banks < 2^depth (no full
 * tree) are skipped, matching the classic sweep. Throws FatalError
 * when validateDseAxes() fails.
 */
std::vector<ArchConfig> expandDseGrid(const DseOptions &options);

/** Printable signature of the swept space (axes + scale + seed +
 *  suite); stored in the journal header so a resume against a journal
 *  from a different sweep is rejected instead of silently mixing
 *  results. It keeps the `scales=<s>|cores=1|` terms of the engine
 *  that had those axes, so older journals still resume. */
std::string dseSpaceSignature(const DseOptions &options);

/** One contiguous shard of the grid: points [begin, end). */
struct DseShard
{
    size_t begin = 0;
    size_t end = 0;
};

/** Cut `points` grid points into at most `shards` contiguous,
 *  near-equal (sizes differ by at most one) shards. Deterministic;
 *  never returns an empty shard. */
std::vector<DseShard> planDseShards(size_t points, uint32_t shards);

/** Compile/cache cost of evaluating one point (reported per shard;
 *  wall-clock, so deliberately *not* part of DsePoint, which must be
 *  byte-identical across runs). */
struct DseEvalCost
{
    uint64_t compiles = 0;  ///< Point programs asked for.
    uint64_t cacheHits = 0; ///< Of which served without a compile.
    uint64_t certified = 0; ///< Of those, derived from a certified
                            ///  program of another register count.
    double compileSeconds = 0;
};

/**
 * Evaluate one configuration over the suite (averaged), simulating
 * one run of each workload on one core. Marks the point infeasible
 * (instead of throwing) when a workload fails to fit. `cache`, when
 * given, serves repeated compiles; `cost`, when given, accumulates
 * compile/cache counters.
 *
 * Builds and prepares the suite at `scale` itself, then runs the two
 * steps runDseSweep runs against its once-per-sweep suite — one
 * record per workload, then their reduce in suite order — serially,
 * so a sweep point equals evaluateDesign of its coordinates. One
 * point has no other register count to derive from: every workload is
 * compiled (or fetched) and simulated, which makes this the no-reuse
 * reference for a sweep's derived points.
 */
DsePoint evaluateDesign(const ArchConfig &cfg,
                        const std::vector<WorkloadSpec> &suite,
                        double scale, uint64_t seed,
                        ProgramCache *cache = nullptr,
                        DseEvalCost *cost = nullptr,
                        bool verify = false);

// ---------------------------------------------------------------- //
// Checkpoint journal (JSON lines).                                 //
// ---------------------------------------------------------------- //

/** Header line: `{"dse_journal": 1, "space": "...", "points": N}`. */
std::string dseJournalHeaderLine(const std::string &space,
                                 size_t points);

/** One completed point as a flat JSON object on a single line.
 *  Doubles are printed shortest-round-trip, so a parsed point
 *  re-serializes byte-identically. Every line carries a constant
 *  `"cores": 1` and `"fidelity": "cycle"`, which keep the format
 *  stable for existing readers. */
std::string dseJournalPointLine(size_t index, const DsePoint &point);

/** Inverse of dseJournalPointLine(); false on a malformed line
 *  (e.g. a torn tail from a killed sweep). A `fidelity` tag other
 *  than "cycle" (the estimated "table"/"analytic" points of older
 *  journals) is false as well, and so is a `cores` other than 1 (the
 *  multi-core points of older journals), so a resume recomputes that
 *  point; an absent tag reads as "cycle". Never throws. */
bool parseDseJournalPointLine(const std::string &line, size_t &index,
                              DsePoint &point);

/** A parsed journal: header fields + every valid point line. */
struct DseJournal
{
    std::string space;
    size_t gridPoints = 0;
    std::vector<std::pair<size_t, DsePoint>> entries;
};

/** Parse a journal file. False when the file cannot be read or its
 *  first line is not a valid header; invalid point lines (torn
 *  writes) are skipped, not errors. */
bool loadDseJournal(const std::string &path, DseJournal &out);

// ---------------------------------------------------------------- //
// The sweep engine.                                                //
// ---------------------------------------------------------------- //

/** How to run a sweep. */
struct DseSweepOptions
{
    DseOptions space;

    /** Host worker threads executing the (D, B) group x workload
     *  tasks (work stealing). */
    uint32_t threads = 1;

    /** Shard count; clamped to the grid size. Shards only partition
     *  the report (shardReports): each point's cost goes to the shard
     *  that holds it. They do not change how the work is cut. */
    uint32_t shards = 1;

    /** Checkpoint-journal path; empty = no journaling. */
    std::string journalPath;

    /** Load completed points from the journal before sweeping.
     *  Requires journalPath; a missing journal file starts fresh, a
     *  journal from a different space throws FatalError. */
    bool resume = false;

    /** Program cache shared by every point compile (nullptr = plain
     *  compiles). Cache hits cannot change results — cached programs
     *  are byte-identical to fresh compiles. The programs a task
     *  derives go into it too (and so into its spill directory). */
    ProgramCache *cache = nullptr;

    /** Run the static verifier (compiler/verify.hh) on every point
     *  compile. A verifier failure is a compiler bug and aborts the
     *  sweep (VerifyError), never a silent "infeasible" point. Not
     *  part of the space signature: verification cannot change
     *  results, so verified and unverified journals interoperate. */
    bool verify = false;
};

/** Per-shard execution report (host time + cache traffic of the
 *  shard's points; the nondeterministic companions of the
 *  deterministic point vector). */
struct DseShardReport
{
    size_t points = 0;    ///< Grid points in the shard.
    size_t evaluated = 0; ///< Computed this run (rest resumed).
    uint64_t compiles = 0;
    uint64_t cacheHits = 0;
    uint64_t certified = 0; ///< Of cacheHits, derived from a certified
                            ///  program of another register count.
    double compileSeconds = 0;
    /** Host seconds of the shard's points, summed over the threads
     *  that evaluated them — not a wall time: the shards' points run
     *  interleaved. */
    double seconds = 0;

    /** Share of this shard's compiles served without a compile. */
    double
    hitRate() const
    {
        return compiles ? static_cast<double>(cacheHits) /
                              static_cast<double>(compiles)
                        : 0.0;
    }
};

/** Everything a sweep produces. */
struct DseSweepResult
{
    /** Evaluated points in grid order — byte-identical for every
     *  thread/shard count and across resume boundaries. */
    std::vector<DsePoint> points;

    /** One report per planned shard. */
    std::vector<DseShardReport> shardReports;

    /** Wall time of the front end: building and preparing the suite,
     *  once per sweep, before any point is evaluated. Not part of any
     *  shard's seconds. 0 when a fully resumed sweep had nothing to
     *  prepare. */
    double prepareSeconds = 0;

    /** Points loaded from the journal instead of recomputed. */
    size_t resumedPoints = 0;
};

/** Run a sharded sweep (see the file header for the contract). */
DseSweepResult runDseSweep(const DseSweepOptions &options);

// ---------------------------------------------------------------- //
// Frontier + optima.                                               //
// ---------------------------------------------------------------- //

/** True when `a` Pareto-dominates `b` over (latency/op, energy/op,
 *  area): no worse in all three, strictly better in at least one.
 *  Infeasible points neither dominate nor are comparable. */
bool dseDominates(const DsePoint &a, const DsePoint &b);

/** Indices (ascending) of the Pareto frontier over latency/energy/
 *  area among the feasible points. Empty when nothing is feasible. */
std::vector<size_t> paretoFrontier(const std::vector<DsePoint> &points);

/** Index of the minimum-EDP / minimum-energy / minimum-latency point
 *  among the feasible points, or kDseNpos when none is feasible.
 *  Ties break lexicographically over the remaining metrics, so the
 *  returned point always lies on the Pareto frontier. */
size_t minEdpIndex(const std::vector<DsePoint> &points);
size_t minEnergyIndex(const std::vector<DsePoint> &points);
size_t minLatencyIndex(const std::vector<DsePoint> &points);

} // namespace dpu

#endif // DPU_MODEL_DSE_HH
