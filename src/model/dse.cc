#include "model/dse.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <tuple>

#include "compiler/compiler.hh"
#include "sim/batch.hh"
#include "sim/machine.hh"
#include "support/flatjson.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "support/stats.hh"

namespace dpu {

// ---------------------------------------------------------------- //
// Point evaluation.                                                //
// ---------------------------------------------------------------- //

namespace {

/** One suite workload at one scale, through the compiler front end:
 *  the configuration-independent part of every point's compile. */
struct PreparedWorkload
{
    uint64_t seed = 0; ///< WorkloadSpec::seed (input generation).
    PreparedDag prepared;
};

/** Build and prepare every workload of `suite` at `scale`, in
 *  parallel. */
std::vector<PreparedWorkload>
prepareSuite(const std::vector<WorkloadSpec> &suite, double scale,
             uint32_t threads)
{
    std::vector<PreparedWorkload> out(suite.size());
    parallelFor(out.size(), threads, [&](size_t k) {
        out[k].seed = suite[k].seed;
        out[k].prepared = prepareDag(buildWorkloadDag(suite[k], scale));
    });
    return out;
}

/** The point evaluator behind evaluateDesign and runDseSweep:
 *  evaluateDesign's contract over an already-prepared suite. */
DsePoint
evaluatePrepared(const ArchConfig &cfg,
                 const std::vector<PreparedWorkload> &suite, double scale,
                 uint64_t seed, uint32_t cores, ProgramCache *cache,
                 DseEvalCost *cost, const Evaluator *evaluator,
                 uint32_t fleet_ranks, const HostTransferModel &transfer,
                 bool verify)
{
    const EvalFidelity fid =
        evaluator ? evaluator->fidelity() : EvalFidelity::Cycle;
    if (fleet_ranks < 1)
        fleet_ranks = 1;

    DsePoint point;
    point.cfg = cfg;
    point.workloadScale = scale;
    point.cores = cores;
    point.areaMm2 = areaOf(cfg).total;
    point.fidelity = fid;
    point.fleetRanks = fleet_ranks;

    Summary lat, epo, gops, watts, xfer_ns;
    for (const PreparedWorkload &w : suite) {
        const PreparedDag &dag = w.prepared;
        CompileOptions opt;
        opt.seed = seed;
        if (verify) // explicit opt-in only; keep the default build-set
            opt.verify = true;
        CompiledProgram prog;
        try {
            prog = cache ? cache->compile(dag, cfg, opt)
                         : compile(dag, cfg, opt);
        } catch (const FatalError &) {
            // Register file too small for this workload: the design
            // point cannot run the suite. Tier-independent: the
            // compile, not the evaluation, makes this call.
            point.feasible = false;
            return point;
        }
        if (cost) {
            cost->compiles += 1;
            cost->cacheHits += prog.stats.cacheHits;
            cost->compileSeconds += prog.stats.compileSeconds;
        }

        SimStats stats;
        uint64_t operations = prog.stats.numOperations;

        // Event counts are input-value-independent, so a (program,
        // tier, cores) triple pins them exactly and the cache can
        // memoize across repeated evaluations of the same point.
        std::string memo_key;
        bool memoized = false;
        if (cache) {
            memo_key = programCacheKey(dag.sourceHash, cfg, opt);
            memoized = cache->lookupEvalStats(
                memo_key, static_cast<uint8_t>(fid), cores, stats);
        }
        if (!memoized && fid != EvalFidelity::Cycle) {
            stats = cores <= 1
                        ? evaluator->estimate(prog)
                        : evaluator->estimateBatch(prog, cores, cores);
        } else if (!memoized && cores <= 1) {
            Rng rng(seed + w.seed);
            std::vector<double> inputs(dag.numInputs);
            for (double &x : inputs)
                x = 0.5 + rng.uniform();
            stats = Machine(prog).run(inputs).stats;
        } else if (!memoized) {
            // Multi-core axis: a `cores`-input batch on a
            // BatchMachine; wall cycles set the latency, the summed
            // event counts set the energy.
            Rng rng(seed + w.seed);
            std::vector<std::vector<double>> batch(cores);
            for (auto &inputs : batch) {
                inputs.resize(dag.numInputs);
                for (double &x : inputs)
                    x = 0.5 + rng.uniform();
            }
            BatchResult br =
                BatchMachine(prog, cores, operations, 1).run(batch);
            stats.cycles = br.wallCycles;
            for (const SimResult &run : br.runs) {
                const SimStats &s = run.stats;
                for (size_t k = 0; k < s.kindCount.size(); ++k)
                    stats.kindCount[k] += s.kindCount[k];
                stats.bankReads += s.bankReads;
                stats.bankWrites += s.bankWrites;
                stats.peOperations += s.peOperations;
                stats.pePassThroughs += s.pePassThroughs;
                stats.crossbarTransfers += s.crossbarTransfers;
                stats.memReads += s.memReads;
                stats.memWrites += s.memWrites;
                stats.instrBitsFetched += s.instrBitsFetched;
                stats.peakLiveRegisters = std::max(
                    stats.peakLiveRegisters, s.peakLiveRegisters);
            }
        }
        if (cache && !memoized)
            cache->storeEvalStats(memo_key, static_cast<uint8_t>(fid),
                                  cores, stats);
        if (cores > 1)
            operations *= cores;

        // Host↔rank transfer: the link serializes the dispatch's
        // input/output payload before the cores compute, extending
        // the wall clock identically at every tier (the cost is
        // static — see HostTransferModel). The memoized stats above
        // stay transfer-free, so one cache entry serves any model.
        uint64_t runs = cores > 1 ? cores : 1;
        uint64_t xfer =
            Evaluator::batchTransferCycles(prog, runs, transfer);
        stats.transferCycles = xfer;
        stats.cycles += xfer;

        EnergyBreakdown e = energyOf(cfg, stats, operations);
        lat.add(e.latencyPerOpNs());
        epo.add(e.energyPerOpPj());
        // A fleet replicates the design: throughput and wall power
        // scale with the rank count; per-op latency/energy do not.
        gops.add(fleet_ranks * double(operations) / e.seconds() * 1e-9);
        watts.add(fleet_ranks * e.wallPowerWatts());
        if (stats.cycles > 0)
            xfer_ns.add(double(xfer) / double(stats.cycles) *
                        e.seconds() * 1e9 / double(operations));
    }
    point.latencyPerOpNs = lat.mean();
    point.energyPerOpPj = epo.mean();
    point.edpPjNs = point.latencyPerOpNs * point.energyPerOpPj;
    point.throughputGops = gops.mean();
    point.powerWatts = watts.mean();
    point.transferPerOpNs = xfer_ns.mean();
    return point;
}

} // namespace

DsePoint
evaluateDesign(const ArchConfig &cfg,
               const std::vector<WorkloadSpec> &suite, double scale,
               uint64_t seed, uint32_t cores, ProgramCache *cache,
               DseEvalCost *cost, const Evaluator *evaluator,
               uint32_t fleet_ranks, const HostTransferModel &transfer,
               bool verify)
{
    return evaluatePrepared(cfg, prepareSuite(suite, scale, 1), scale,
                            seed, cores, cache, cost, evaluator,
                            fleet_ranks, transfer, verify);
}

// ---------------------------------------------------------------- //
// Grid expansion + shard planning.                                 //
// ---------------------------------------------------------------- //

namespace {

/** Effective optional-axis values (empty axis = its default). */
std::vector<double>
effectiveScales(const DseOptions &o)
{
    return o.scales.empty() ? std::vector<double>{o.workloadScale}
                            : o.scales;
}

std::vector<uint32_t>
effectiveCores(const DseOptions &o)
{
    return o.cores.empty() ? std::vector<uint32_t>{1} : o.cores;
}

} // namespace

bool
validateDseAxes(const DseOptions &options, std::string *error)
{
    auto fail = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    for (uint32_t d : options.depths)
        if (d < 1 || d > 6)
            return fail("DSE depth axis value " + std::to_string(d) +
                        " outside the supported range [1, 6]");
    for (uint32_t b : options.banks)
        if (b < 2 || (b & (b - 1)) != 0)
            return fail("DSE banks axis value " + std::to_string(b) +
                        " is not a power of two >= 2");
    for (uint32_t r : options.regs)
        if (r < 2)
            return fail("DSE regs axis value " + std::to_string(r) +
                        " is below the minimum of 2");
    for (double s : effectiveScales(options))
        if (!(s > 0))
            return fail("DSE workload scale " + jsonDouble(s) +
                        " must be > 0");
    for (uint32_t c : effectiveCores(options))
        if (c < 1)
            return fail("DSE cores axis value must be >= 1");
    return true;
}

std::vector<DseGridPoint>
expandDseGrid(const DseOptions &options)
{
    std::string error;
    if (!validateDseAxes(options, &error))
        dpu_fatal(error);
    std::vector<double> scales = effectiveScales(options);
    std::vector<uint32_t> cores = effectiveCores(options);

    std::vector<DseGridPoint> grid;
    for (uint32_t d : options.depths)
        for (uint32_t b : options.banks) {
            if (b < (1u << d))
                continue; // needs at least one full tree
            for (uint32_t r : options.regs)
                for (double s : scales)
                    for (uint32_t c : cores) {
                        DseGridPoint p;
                        p.cfg.depth = d;
                        p.cfg.banks = b;
                        p.cfg.regsPerBank = r;
                        p.scale = s;
                        p.cores = c;
                        grid.push_back(p);
                    }
        }
    return grid;
}

std::string
dseSpaceSignature(const DseOptions &options)
{
    std::ostringstream os;
    auto list = [&os](const char *name, const auto &values,
                      auto format) {
        os << name << "=";
        for (size_t i = 0; i < values.size(); ++i)
            os << (i ? "," : "") << format(values[i]);
        os << "|";
    };
    auto u32 = [](uint32_t v) { return std::to_string(v); };
    list("depths", options.depths, u32);
    list("banks", options.banks, u32);
    list("regs", options.regs, u32);
    list("scales", effectiveScales(options), jsonDouble);
    list("cores", effectiveCores(options), u32);
    os << "seed=" << options.seed << "|suite=";
    const std::vector<WorkloadSpec> suite =
        options.suite.empty() ? smallSuite() : options.suite;
    for (size_t i = 0; i < suite.size(); ++i)
        os << (i ? "," : "") << suite[i].name;
    // Fleet terms only when non-default, so pre-fleet journals keep
    // validating (and staying byte-identical) against the same space.
    if (options.fleetRanks != 1 || !options.transfer.free())
        os << "|fleet=" << options.fleetRanks
           << ";xfer_cpb=" << jsonDouble(options.transfer.cyclesPerByte)
           << ";xfer_dc=" << options.transfer.dispatchCycles;
    return os.str();
}

std::vector<DseShard>
planDseShards(size_t points, uint32_t shards)
{
    std::vector<DseShard> plan;
    if (points == 0)
        return plan;
    size_t n = std::min<size_t>(std::max<uint32_t>(shards, 1), points);
    size_t base = points / n;
    size_t extra = points % n;
    size_t at = 0;
    for (size_t s = 0; s < n; ++s) {
        size_t len = base + (s < extra ? 1 : 0);
        plan.push_back({at, at + len});
        at += len;
    }
    return plan;
}

// ---------------------------------------------------------------- //
// Journal format.                                                  //
// ---------------------------------------------------------------- //

std::string
dseJournalHeaderLine(const std::string &space, size_t points)
{
    std::ostringstream os;
    os << "{\"dse_journal\": 1, \"space\": " << jsonString(space)
       << ", \"points\": " << points << "}";
    return os.str();
}

std::string
dseJournalPointLine(size_t index, const DsePoint &p)
{
    std::ostringstream os;
    os << "{\"index\": " << index
       << ", \"design\": " << jsonString(p.cfg.label())
       << ", \"depth\": " << p.cfg.depth
       << ", \"banks\": " << p.cfg.banks
       << ", \"regs\": " << p.cfg.regsPerBank
       << ", \"scale\": " << jsonDouble(p.workloadScale)
       << ", \"cores\": " << p.cores
       << ", \"feasible\": " << (p.feasible ? "true" : "false")
       << ", \"latency_per_op_ns\": " << jsonDouble(p.latencyPerOpNs)
       << ", \"energy_per_op_pj\": " << jsonDouble(p.energyPerOpPj)
       << ", \"edp_pj_ns\": " << jsonDouble(p.edpPjNs)
       << ", \"area_mm2\": " << jsonDouble(p.areaMm2)
       << ", \"power_watts\": " << jsonDouble(p.powerWatts)
       << ", \"throughput_gops\": " << jsonDouble(p.throughputGops)
       << ", \"fidelity\": " << jsonString(fidelityName(p.fidelity));
    // Fleet fields only when non-default: pre-fleet sweeps keep
    // emitting byte-identical lines (golden-pinned in test_dse.cc).
    if (p.fleetRanks != 1)
        os << ", \"ranks\": " << p.fleetRanks;
    if (p.transferPerOpNs != 0)
        os << ", \"transfer_per_op_ns\": "
           << jsonDouble(p.transferPerOpNs);
    os << "}";
    return os.str();
}

bool
parseDseJournalPointLine(const std::string &line, size_t &index,
                         DsePoint &point)
{
    FlatJsonLine obj;
    if (!obj.parse(line))
        return false;
    uint64_t idx = 0, depth = 0, banks = 0, regs = 0, cores = 0;
    DsePoint p;
    if (!obj.getU64("index", idx) || !obj.getU64("depth", depth) ||
        !obj.getU64("banks", banks) || !obj.getU64("regs", regs) ||
        !obj.getU64("cores", cores) ||
        !obj.getDouble("scale", p.workloadScale) ||
        !obj.getBool("feasible", p.feasible) ||
        !obj.getDouble("latency_per_op_ns", p.latencyPerOpNs) ||
        !obj.getDouble("energy_per_op_pj", p.energyPerOpPj) ||
        !obj.getDouble("edp_pj_ns", p.edpPjNs) ||
        !obj.getDouble("area_mm2", p.areaMm2) ||
        !obj.getDouble("power_watts", p.powerWatts) ||
        !obj.getDouble("throughput_gops", p.throughputGops))
        return false;
    // Journals written before the tiered evaluator carry no fidelity
    // field: those lines are cycle-accurate by construction, so the
    // absent field reads as Cycle. A *present but unknown* tier name
    // is a torn/foreign line, not a default.
    if (obj.has("fidelity")) {
        std::string name;
        if (!obj.getString("fidelity", name) ||
            !parseFidelityName(name.c_str(), p.fidelity))
            return false;
    }
    // Fleet fields are optional (emitted only when non-default);
    // their absence reads as the pre-fleet single-rank free-link
    // defaults.
    uint64_t ranks = 1;
    if (obj.has("ranks")) {
        if (!obj.getU64("ranks", ranks) || ranks == 0 ||
            ranks > UINT32_MAX)
            return false;
    }
    p.fleetRanks = static_cast<uint32_t>(ranks);
    if (obj.has("transfer_per_op_ns") &&
        !obj.getDouble("transfer_per_op_ns", p.transferPerOpNs))
        return false;
    if (depth == 0 || depth > 6 || banks == 0 || regs == 0 ||
        cores == 0 || banks > UINT32_MAX || regs > UINT32_MAX ||
        cores > UINT32_MAX)
        return false;
    p.cfg.depth = static_cast<uint32_t>(depth);
    p.cfg.banks = static_cast<uint32_t>(banks);
    p.cfg.regsPerBank = static_cast<uint32_t>(regs);
    p.cores = static_cast<uint32_t>(cores);
    index = static_cast<size_t>(idx);
    point = p;
    return true;
}

bool
loadDseJournal(const std::string &path, DseJournal &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    if (!std::getline(in, line))
        return false;

    FlatJsonLine header;
    uint64_t version = 0, points = 0;
    DseJournal j;
    if (!header.parse(line) || !header.getU64("dse_journal", version) ||
        version != 1 || !header.getString("space", j.space) ||
        !header.getU64("points", points))
        return false;
    j.gridPoints = static_cast<size_t>(points);

    while (std::getline(in, line)) {
        size_t index = 0;
        DsePoint p;
        // Invalid lines are torn writes from a killed sweep; skip
        // them — the points they would have carried get recomputed.
        if (parseDseJournalPointLine(line, index, p))
            j.entries.emplace_back(index, p);
    }
    out = std::move(j);
    return true;
}

// ---------------------------------------------------------------- //
// The sweep engine.                                                //
// ---------------------------------------------------------------- //

namespace {

/** A journal entry is only reused when its coordinates match the
 *  grid slot; a mismatch means a corrupted line, and recomputing is
 *  always safe. */
bool
matchesGridPoint(const DsePoint &p, const DseGridPoint &g)
{
    return p.cfg.depth == g.cfg.depth && p.cfg.banks == g.cfg.banks &&
           p.cfg.regsPerBank == g.cfg.regsPerBank &&
           p.workloadScale == g.scale && p.cores == g.cores;
}

/** Write `text` to `path` atomically (tmp file + rename), so a kill
 *  mid-rewrite leaves either the old or the new journal, never a
 *  half-written one. */
void
writeFileAtomically(const std::string &path, const std::string &text)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            dpu_fatal("cannot write DSE journal '" + tmp + "'");
        out << text;
        out.flush();
        if (!out)
            dpu_fatal("short write to DSE journal '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        dpu_fatal("cannot rename '" + tmp + "' to '" + path + "'");
}

} // namespace

DseSweepResult
runDseSweep(const DseSweepOptions &options)
{
    const DseOptions &space = options.space;
    const std::vector<WorkloadSpec> suite =
        space.suite.empty() ? smallSuite() : space.suite;
    const std::vector<DseGridPoint> grid = expandDseGrid(space);
    const std::string signature = dseSpaceSignature(space);
    const EvalFidelity fid = options.fidelity;

    if (options.refine && fid == EvalFidelity::Cycle)
        dpu_fatal("DSE refinement sweeps coarse with a fast tier "
                  "first; --fidelity=cycle leaves nothing to refine "
                  "(drop refinement or pick table/analytic)");
    const double refine_err = options.refineErrorBound >= 0
                                  ? options.refineErrorBound
                                  : dseDefaultRefineError(fid);
    if (options.refine && refine_err >= 1.0)
        dpu_fatal("DSE refinement error bound must be < 1 (a relative "
                  "energy error that large leaves no interval to "
                  "decide with)");

    const Evaluator evaluator = options.table
                                    ? Evaluator(fid, *options.table)
                                    : Evaluator(fid);
    const Evaluator cycle_evaluator{EvalFidelity::Cycle};

    DseSweepResult result;
    result.points.resize(grid.size());
    std::vector<char> have(grid.size(), 0);

    // Cycle-tier journal entries held back for the refinement phase:
    // phase 1 always works with fast-tier values (so the survivor
    // selection is identical with or without a resume), but a
    // survivor whose cycle re-evaluation is already journaled is not
    // recomputed.
    std::vector<char> have_cycle(grid.size(), 0);
    std::vector<DsePoint> cycle_resume(
        options.refine ? grid.size() : 0);

    const bool journaling = !options.journalPath.empty();
    if (options.resume && !journaling)
        dpu_fatal("DSE resume requires a journal path");

    if (options.resume) {
        DseJournal journal;
        if (loadDseJournal(options.journalPath, journal)) {
            if (journal.space != signature ||
                journal.gridPoints != grid.size())
                dpu_fatal("DSE journal '" + options.journalPath +
                          "' was written for a different sweep "
                          "(space signature mismatch)");
            for (const auto &[index, p] : journal.entries) {
                if (index >= grid.size() ||
                    !matchesGridPoint(p, grid[index]))
                    continue;
                if (p.fidelity == fid) {
                    if (!have[index])
                        ++result.resumedPoints;
                    result.points[index] = p;
                    have[index] = 1;
                } else if (options.refine &&
                           p.fidelity == EvalFidelity::Cycle) {
                    cycle_resume[index] = p;
                    have_cycle[index] = 1;
                }
                // Entries at any other tier belong to a different
                // run mode; recomputing is always safe.
            }
        } else if (std::ifstream(options.journalPath)) {
            // The path exists but is not a journal (bad header):
            // refuse, like a signature mismatch — starting fresh
            // here would overwrite an unrelated file.
            dpu_fatal("'" + options.journalPath +
                      "' exists but is not a DSE journal; refusing "
                      "to overwrite it");
        }
        // A missing journal is a fresh start, not an error:
        // resuming a sweep that never ran just runs it.
    }

    std::ofstream journal;
    if (journaling) {
        // Normalize the journal up front (header + every resumed
        // point, grid order) so torn tails from a kill are gone
        // before we start appending.
        std::ostringstream os;
        os << dseJournalHeaderLine(signature, grid.size()) << "\n";
        for (size_t i = 0; i < grid.size(); ++i) {
            if (have[i])
                os << dseJournalPointLine(i, result.points[i]) << "\n";
            // Keep resumed cycle refinements too: if this run is
            // killed before its own refinement phase re-appends
            // them, the next resume can still reuse them.
            if (i < have_cycle.size() && have_cycle[i])
                os << dseJournalPointLine(i, cycle_resume[i]) << "\n";
        }
        writeFileAtomically(options.journalPath, os.str());
        journal.open(options.journalPath, std::ios::app);
        if (!journal)
            dpu_fatal("cannot append to DSE journal '" +
                      options.journalPath + "'");
    }

    // Front end, once per sweep: each scale's suite is built and run
    // through prepareDag, in parallel, right before the points at that
    // scale are evaluated, and every point there compiles from those
    // read-only DAGs. Points are evaluated one scale at a time, so
    // only one scale's DAGs are resident; a scale with nothing left to
    // evaluate (a resumed sweep) is never prepared. Refinement walks
    // the scales again, so a multi-scale refined sweep prepares all
    // but its last scale twice.
    // Distinct values only: a repeated scale must not evaluate its
    // points twice.
    std::vector<double> scales = effectiveScales(space);
    std::sort(scales.begin(), scales.end());
    scales.erase(std::unique(scales.begin(), scales.end()), scales.end());
    std::vector<PreparedWorkload> prepared; // the current scale's suite
    double prepared_scale = 0;              // scales are > 0
    auto prepare = [&](double scale) {
        if (scale == prepared_scale)
            return;
        auto start = std::chrono::steady_clock::now();
        prepared.clear(); // release the previous scale first
        prepared = prepareSuite(suite, scale, options.threads);
        prepared_scale = scale;
        result.prepareSeconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    };
    auto evaluate = [&](size_t i, DseEvalCost *cost,
                        const Evaluator *tier) {
        return evaluatePrepared(grid[i].cfg, prepared, grid[i].scale,
                                space.seed, grid[i].cores, options.cache,
                                cost, tier, space.fleetRanks,
                                space.transfer, options.verify);
    };

    const std::vector<DseShard> shards =
        planDseShards(grid.size(), options.shards);
    result.shardReports.resize(shards.size());
    for (size_t s = 0; s < shards.size(); ++s)
        result.shardReports[s].points = shards[s].end - shards[s].begin;
    std::mutex journal_mutex;

    for (double scale : scales) {
        auto pending = [&](size_t i) {
            return !have[i] && grid[i].scale == scale;
        };
        bool any = false;
        for (size_t i = 0; i < grid.size() && !any; ++i)
            any = pending(i);
        if (!any)
            continue;
        prepare(scale);
        parallelFor(shards.size(), options.threads, [&](size_t s) {
            auto start = std::chrono::steady_clock::now();
            DseShardReport &report = result.shardReports[s];
            for (size_t i = shards[s].begin; i < shards[s].end; ++i) {
                if (!pending(i))
                    continue;
                DseEvalCost cost;
                // Each slot is written by exactly one shard, so the
                // grid-order merge needs no synchronization.
                result.points[i] = evaluate(i, &cost, &evaluator);
                ++report.evaluated;
                report.compiles += cost.compiles;
                report.cacheHits += cost.cacheHits;
                report.compileSeconds += cost.compileSeconds;
                if (journaling) {
                    std::lock_guard<std::mutex> lock(journal_mutex);
                    journal << dseJournalPointLine(i, result.points[i])
                            << "\n";
                    journal.flush(); // checkpoint survives a kill
                    if (!journal)
                        dpu_fatal("failed writing DSE journal '" +
                                  options.journalPath +
                                  "' (disk full?); checkpoints would "
                                  "be silently lost");
                }
            }
            report.seconds += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() -
                                  start)
                                  .count();
        });
    }

    size_t phase1_evaluated = 0;
    for (const DseShardReport &r : result.shardReports)
        phase1_evaluated += r.evaluated;
    if (fid == EvalFidelity::Cycle)
        result.cycleEvaluatedPoints += phase1_evaluated;
    else
        result.fastEvaluatedPoints += phase1_evaluated;

    if (options.refine) {
        // Phase 2: cycle re-evaluation of the Pareto neighborhood.
        // The survivor set is computed from the (deterministic)
        // fast-tier points, so it is identical for every thread /
        // shard count and across resume boundaries.
        std::vector<size_t> survivors =
            dseRefineSurvivors(result.points, refine_err);
        result.refineSurvivors = survivors.size();
        std::atomic<size_t> cycle_evals{0};
        std::atomic<size_t> cycle_resumed{0};
        // Last scale first: phase 1 left its suite prepared.
        for (size_t at = scales.size(); at-- > 0;) {
            const double scale = scales[at];
            std::vector<size_t> todo;
            bool compiles = false;
            for (size_t i : survivors)
                if (grid[i].scale == scale) {
                    todo.push_back(i);
                    compiles = compiles || !have_cycle[i];
                }
            if (compiles)
                prepare(scale);
            parallelFor(todo.size(), options.threads, [&](size_t k) {
                size_t i = todo[k];
                if (have_cycle[i]) {
                    result.points[i] = cycle_resume[i];
                    ++cycle_resumed;
                } else {
                    result.points[i] =
                        evaluate(i, nullptr, &cycle_evaluator);
                    ++cycle_evals;
                }
                if (journaling) {
                    std::lock_guard<std::mutex> lock(journal_mutex);
                    journal << dseJournalPointLine(i, result.points[i])
                            << "\n";
                    journal.flush();
                    if (!journal)
                        dpu_fatal("failed writing DSE journal '" +
                                  options.journalPath +
                                  "' (disk full?); checkpoints would "
                                  "be silently lost");
                }
            });
        }
        result.cycleEvaluatedPoints += cycle_evals;
        result.resumedPoints += cycle_resumed;
    }

    if (journaling) {
        journal.close();
        // Canonical rewrite: header + all points in grid order. The
        // final journal is byte-identical for every thread/shard
        // count and across resume boundaries.
        std::ostringstream os;
        os << dseJournalHeaderLine(signature, grid.size()) << "\n";
        for (size_t i = 0; i < grid.size(); ++i)
            os << dseJournalPointLine(i, result.points[i]) << "\n";
        writeFileAtomically(options.journalPath, os.str());
    }
    return result;
}

std::vector<DsePoint>
exploreDesignSpace(const DseOptions &options)
{
    DseSweepOptions sweep;
    sweep.space = options;
    return runDseSweep(sweep).points;
}

// ---------------------------------------------------------------- //
// Frontier + optima.                                               //
// ---------------------------------------------------------------- //

bool
dseDominates(const DsePoint &a, const DsePoint &b)
{
    if (!a.feasible || !b.feasible)
        return false;
    bool no_worse = a.latencyPerOpNs <= b.latencyPerOpNs &&
                    a.energyPerOpPj <= b.energyPerOpPj &&
                    a.areaMm2 <= b.areaMm2;
    bool better = a.latencyPerOpNs < b.latencyPerOpNs ||
                  a.energyPerOpPj < b.energyPerOpPj ||
                  a.areaMm2 < b.areaMm2;
    return no_worse && better;
}

bool
dseMaybeDominates(const DsePoint &a, const DsePoint &b, double err)
{
    if (!a.feasible || !b.feasible)
        return false;
    if (a.latencyPerOpNs > b.latencyPerOpNs || a.areaMm2 > b.areaMm2)
        return false;
    // Best case for a: its energy at the interval floor, b's at the
    // ceiling. The strictness clause matters only for exact ties in
    // all three metrics (then no energy assignment dominates).
    double a_lo = a.energyPerOpPj / (1.0 + err);
    double b_hi = b.energyPerOpPj / (1.0 - err);
    if (a_lo > b_hi)
        return false;
    return a.latencyPerOpNs < b.latencyPerOpNs ||
           a.areaMm2 < b.areaMm2 || a_lo < b_hi;
}

bool
dseCertainlyDominates(const DsePoint &a, const DsePoint &b, double err)
{
    if (!a.feasible || !b.feasible)
        return false;
    if (a.latencyPerOpNs > b.latencyPerOpNs || a.areaMm2 > b.areaMm2)
        return false;
    // Worst case for a: its energy at the interval ceiling, b's at
    // the floor. a_hi <= b_lo is a.energy <= (1-m) * b.energy with
    // m = 2*err/(1+err).
    double a_hi = a.energyPerOpPj / (1.0 - err);
    double b_lo = b.energyPerOpPj / (1.0 + err);
    if (a_hi > b_lo)
        return false;
    return a.latencyPerOpNs < b.latencyPerOpNs ||
           a.areaMm2 < b.areaMm2 || a_hi < b_lo;
}

std::vector<size_t>
dseRefineSurvivors(const std::vector<DsePoint> &points, double err)
{
    // A pair the intervals cannot decide contaminates both ends:
    // resolving b's membership needs the true energy of every a that
    // might dominate it, and vice versa.
    std::vector<uint8_t> uncertain(points.size(), 0);
    for (size_t i = 0; i < points.size(); ++i)
        for (size_t j = 0; j < points.size(); ++j)
            if (i != j && dseMaybeDominates(points[i], points[j], err) &&
                !dseCertainlyDominates(points[i], points[j], err))
                uncertain[i] = uncertain[j] = 1;
    std::vector<size_t> survivors;
    for (size_t i = 0; i < points.size(); ++i)
        if (uncertain[i])
            survivors.push_back(i);
    return survivors;
}

double
dseDefaultRefineError(EvalFidelity fidelity)
{
    return evalErrorBounds(fidelity).energyRel;
}

std::vector<size_t>
paretoFrontier(const std::vector<DsePoint> &points)
{
    std::vector<size_t> frontier;
    for (size_t i = 0; i < points.size(); ++i) {
        if (!points[i].feasible)
            continue;
        bool dominated = false;
        for (size_t j = 0; j < points.size() && !dominated; ++j)
            dominated = j != i && dseDominates(points[j], points[i]);
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

namespace {

/**
 * Feasible argmin under a 4-tuple key: the primary metric first,
 * then the remaining frontier metrics lexicographically. The
 * tie-break is what keeps the returned index on the Pareto frontier
 * even when several points share the primary optimum: among ties the
 * lexicographic minimum cannot be dominated.
 */
template <typename Key>
size_t
argmin(const std::vector<DsePoint> &points, Key key)
{
    size_t best = kDseNpos;
    for (size_t i = 0; i < points.size(); ++i) {
        if (!points[i].feasible)
            continue;
        if (best == kDseNpos || key(points[i]) < key(points[best]))
            best = i;
    }
    return best;
}

} // namespace

size_t
minEdpIndex(const std::vector<DsePoint> &points)
{
    return argmin(points, [](const DsePoint &p) {
        return std::make_tuple(p.edpPjNs, p.latencyPerOpNs,
                               p.energyPerOpPj, p.areaMm2);
    });
}

size_t
minEnergyIndex(const std::vector<DsePoint> &points)
{
    return argmin(points, [](const DsePoint &p) {
        return std::make_tuple(p.energyPerOpPj, p.latencyPerOpNs,
                               p.edpPjNs, p.areaMm2);
    });
}

size_t
minLatencyIndex(const std::vector<DsePoint> &points)
{
    return argmin(points, [](const DsePoint &p) {
        return std::make_tuple(p.latencyPerOpNs, p.energyPerOpPj,
                               p.edpPjNs, p.areaMm2);
    });
}

} // namespace dpu
