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
 *     regs, plus optional workload-scale and model-core-count axes)
 *     into a deterministic, grid-ordered point list;
 *   - planDseShards() cuts the grid into contiguous, near-equal
 *     shards;
 *   - runDseSweep() works one workload scale at a time: it builds the
 *     suite at that scale once and runs the configuration-independent
 *     compiler front end on it (prepareDag), in parallel; then it
 *     executes the shards' points at that scale on a work-stealing
 *     pool (support/parallel.hh), compiling each from those shared
 *     prepared DAGs through an optional ProgramCache. Results merge
 *     in grid order — the returned
 *     point vector is byte-identical for every thread/shard count
 *     (pinned by the DseStress suite);
 *   - completed points are checkpointed to a JSON-lines journal so a
 *     killed sweep can be resumed (`resume`) without recomputing;
 *     on completion the journal is rewritten canonically (header +
 *     grid-order lines), so the final journal is also deterministic;
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
#include "model/evaluator.hh"
#include "workloads/suite.hh"

namespace dpu {

/** Sentinel returned by the min-index scans when no feasible point
 *  exists (empty sweep, or every point failed to fit the suite). */
inline constexpr size_t kDseNpos = static_cast<size_t>(-1);

/** One evaluated design point. */
struct DsePoint
{
    ArchConfig cfg;
    double workloadScale = 1.0; ///< Workload-scale axis value.
    uint32_t cores = 1;         ///< Model-core-count axis value.
    double latencyPerOpNs = 0;
    double energyPerOpPj = 0;
    double edpPjNs = 0;
    double areaMm2 = 0;
    double powerWatts = 0;
    double throughputGops = 0;
    bool feasible = true; ///< False if some workload failed to fit.

    /** Evaluation tier that produced the metrics. Feasibility is
     *  tier-independent (it is decided by the compile); the metric
     *  error envelope is the tier's (see evalErrorBounds). */
    EvalFidelity fidelity = EvalFidelity::Cycle;

    /** Fleet shape the point was evaluated under (DseOptions::
     *  fleetRanks) and the host-transfer share of latencyPerOpNs.
     *  1 / 0.0 for a pre-fleet sweep; journal lines carry them only
     *  when non-default, keeping pre-fleet journals byte-identical. */
    uint32_t fleetRanks = 1;
    double transferPerOpNs = 0;
};

/** Sweep options: the axis grid plus the evaluation parameters. */
struct DseOptions
{
    std::vector<uint32_t> depths{1, 2, 3};
    std::vector<uint32_t> banks{8, 16, 32, 64};
    std::vector<uint32_t> regs{16, 32, 64, 128};

    /** Optional workload-scale axis; empty = {workloadScale}. */
    std::vector<double> scales;

    /** Optional model-core-count axis (multi-core batch execution,
     *  §V-C2); empty = {1}. */
    std::vector<uint32_t> cores;

    double workloadScale = 1.0; ///< Scale when `scales` is empty.
    uint64_t seed = 1;

    /** Workloads to evaluate; empty = the Table I (a)+(b) suite. */
    std::vector<WorkloadSpec> suite;

    /** Fleet evaluation: each design is replicated over this many
     *  host-driven ranks (throughput and wall power scale by the
     *  rank count; per-op latency does not). 1 = the pre-fleet
     *  single-machine sweep, byte-identical journals included. */
    uint32_t fleetRanks = 1;

    /** Host↔rank transfer model charged per dispatch; its cycles
     *  extend every tier's latency identically (the cost is static).
     *  The default free model reproduces pre-fleet metrics. */
    HostTransferModel transfer{};
};

/** One unevaluated grid coordinate, in grid order. */
struct DseGridPoint
{
    ArchConfig cfg;
    double scale = 1.0;
    uint32_t cores = 1;
};

/**
 * Validate the axis values: depth in [1,6], banks a power of two
 * >= 2, regs >= 2, every (effective) scale > 0, cores >= 1. False
 * sets `error` (when given) to the first violation. The single
 * source of the axis rules: expandDseGrid throws FatalError on the
 * same check, and the dse_sweep CLI uses it to reject junk --axes
 * values with exit 2 at flag-parse time.
 */
bool validateDseAxes(const DseOptions &options,
                     std::string *error = nullptr);

/**
 * Expand the axis grid in deterministic grid order: depth-major,
 * then banks, then regs, then scale, then cores. Combinations with
 * banks < 2^depth (no full tree) are skipped, matching the classic
 * sweep. Throws FatalError when validateDseAxes() fails.
 */
std::vector<DseGridPoint> expandDseGrid(const DseOptions &options);

/** Printable signature of the swept space (axes + seed + suite);
 *  stored in the journal header so a resume against a journal from a
 *  different sweep is rejected instead of silently mixing results. */
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
    uint64_t compiles = 0;  ///< compile() calls issued.
    uint64_t cacheHits = 0; ///< Of which served by the ProgramCache.
    double compileSeconds = 0;
};

/**
 * Evaluate one configuration over the suite (averaged). With
 * cores > 1 each workload runs a `cores`-input batch on a
 * BatchMachine, so latency/op reflects multi-core wall cycles.
 * Marks the point infeasible (instead of throwing) when a workload
 * fails to fit. `cache`, when given, serves repeated compiles and
 * memoizes per-tier evaluation stats; `cost`, when given,
 * accumulates compile/cache counters. `evaluator` selects the
 * evaluation tier (nullptr = cycle-accurate).
 *
 * Builds and prepares the suite at `scale` itself, then runs the same
 * point evaluator runDseSweep runs against its once-per-sweep suite,
 * so a sweep point equals evaluateDesign of its coordinates.
 */
DsePoint evaluateDesign(const ArchConfig &cfg,
                        const std::vector<WorkloadSpec> &suite,
                        double scale, uint64_t seed,
                        uint32_t cores = 1,
                        ProgramCache *cache = nullptr,
                        DseEvalCost *cost = nullptr,
                        const Evaluator *evaluator = nullptr,
                        uint32_t fleet_ranks = 1,
                        const HostTransferModel &transfer = {},
                        bool verify = false);

// ---------------------------------------------------------------- //
// Checkpoint journal (JSON lines).                                 //
// ---------------------------------------------------------------- //

/** Header line: `{"dse_journal": 1, "space": "...", "points": N}`. */
std::string dseJournalHeaderLine(const std::string &space,
                                 size_t points);

/** One completed point as a flat JSON object on a single line.
 *  Doubles are printed shortest-round-trip, so a parsed point
 *  re-serializes byte-identically. */
std::string dseJournalPointLine(size_t index, const DsePoint &point);

/** Inverse of dseJournalPointLine(); false on a malformed line
 *  (e.g. a torn tail from a killed sweep). */
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

    /** Host worker threads executing shards (work stealing). */
    uint32_t threads = 1;

    /** Shard count; clamped to the grid size. */
    uint32_t shards = 1;

    /** Checkpoint-journal path; empty = no journaling. */
    std::string journalPath;

    /** Load completed points from the journal before sweeping.
     *  Requires journalPath; a missing journal file starts fresh, a
     *  journal from a different space throws FatalError. */
    bool resume = false;

    /** Program cache shared by every point compile (nullptr = plain
     *  compiles). Cache hits cannot change results — cached programs
     *  are byte-identical to fresh compiles. */
    ProgramCache *cache = nullptr;

    /** Evaluation tier for the sweep (journaled per point). */
    EvalFidelity fidelity = EvalFidelity::Cycle;

    /**
     * Adaptive refinement: sweep every point at `fidelity` (which
     * must be a fast tier), then re-evaluate cycle-accurately only
     * the Pareto neighborhood — the points whose frontier membership
     * the fast values cannot decide within the tier's error envelope
     * (see dseRefineSurvivors). The resulting frontier *membership*
     * is exactly the cycle-accurate frontier whenever the fast tier
     * honors its declared energy envelope, at a fraction of the
     * cycle evaluations; certainly-on-frontier points keep their
     * fast-tier metric values (journaled with their fidelity).
     */
    bool refine = false;

    /** Assumed per-point relative energy error of the fast tier for
     *  the survivor selection; negative = the tier's declared
     *  envelope (dseDefaultRefineError). Must be < 1. */
    double refineErrorBound = -1.0;

    /** Explicit rate table for the Table tier (nullptr = builtin). */
    const TableModel *table = nullptr;

    /** Run the static verifier (compiler/verify.hh) on every point
     *  compile. A verifier failure is a compiler bug and aborts the
     *  sweep (VerifyError), never a silent "infeasible" point. Not
     *  part of the space signature: verification cannot change
     *  results, so verified and unverified journals interoperate. */
    bool verify = false;
};

/** Per-shard execution report (wall-clock + cache traffic; the
 *  nondeterministic companions of the deterministic point vector). */
struct DseShardReport
{
    size_t points = 0;    ///< Grid points in the shard.
    size_t evaluated = 0; ///< Computed this run (rest resumed).
    uint64_t compiles = 0;
    uint64_t cacheHits = 0;
    double compileSeconds = 0;
    double seconds = 0; ///< Shard wall time.

    /** Cache hit rate of this shard's compiles. */
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

    /** Wall time of the front end: building and preparing the suite
     *  at each scale, once per sweep, before that scale's points are
     *  evaluated. Not part of any shard's seconds. 0 when a fully
     *  resumed sweep had nothing to prepare. */
    double prepareSeconds = 0;

    /** Points loaded from the journal instead of recomputed. */
    size_t resumedPoints = 0;

    /** Cycle-accurate point evaluations computed this run (the whole
     *  grid for a plain cycle sweep; only the refinement survivors
     *  in refine mode — the quantity refinement exists to shrink). */
    size_t cycleEvaluatedPoints = 0;

    /** Fast-tier point evaluations computed this run. */
    size_t fastEvaluatedPoints = 0;

    /** Points selected for cycle re-evaluation in refine mode
     *  (whether recomputed or resumed from the journal). */
    size_t refineSurvivors = 0;
};

/** Run a sharded sweep (see the file header for the contract). */
DseSweepResult runDseSweep(const DseSweepOptions &options);

/** Classic entry point: serial sweep over the Table I (a)+(b)
 *  suite, no journal. Equivalent to runDseSweep({options}).points. */
std::vector<DsePoint> exploreDesignSpace(const DseOptions &options = {});

// ---------------------------------------------------------------- //
// Frontier + optima.                                               //
// ---------------------------------------------------------------- //

/** True when `a` Pareto-dominates `b` over (latency/op, energy/op,
 *  area): no worse in all three, strictly better in at least one.
 *  Infeasible points neither dominate nor are comparable. */
bool dseDominates(const DsePoint &a, const DsePoint &b);

/**
 * Interval domination for the refinement selection. Latency and area
 * are exact at every tier (latency because the no-stall issue makes
 * cycles a compile-time quantity); only energy carries fast-tier
 * error, so with |fast - cycle| / cycle <= err the true energy lies
 * in [fast/(1+err), fast/(1-err)].
 *
 * dseMaybeDominates: `a` could dominate `b` at the cycle tier for
 * *some* energies in the intervals. dseCertainlyDominates: `a`
 * dominates `b` for *all* energies in the intervals (equivalently,
 * a.energy <= (1-m) * b.energy with m = 2*err/(1+err)). Maybe-but-
 * not-certain pairs are exactly the comparisons the fast tier cannot
 * decide.
 */
bool dseMaybeDominates(const DsePoint &a, const DsePoint &b,
                       double err);
bool dseCertainlyDominates(const DsePoint &a, const DsePoint &b,
                           double err);

/**
 * Indices (ascending) of the refinement survivors: every feasible
 * point involved in at least one maybe-but-not-certain domination
 * pair. Re-evaluating exactly these points cycle-accurately makes
 * every remaining domination decision exact, so the frontier of the
 * mixed vector has exactly the cycle-accurate sweep's membership —
 * the untouched points' relations were already certain.
 */
std::vector<size_t>
dseRefineSurvivors(const std::vector<DsePoint> &points, double err);

/** The default refinement error bound for a fast tier: its declared
 *  energy envelope (evalErrorBounds). */
double dseDefaultRefineError(EvalFidelity fidelity);

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
