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
#include <span>
#include <sstream>
#include <tuple>

#include "compiler/compiler.hh"
#include "compiler/verify.hh"
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

/** What the evaluation of a point reads besides its coordinates. */
struct EvalParams
{
    uint64_t seed = 1;
    ProgramCache *cache = nullptr;
    uint32_t fleetRanks = 1;
    HostTransferModel transfer;
    bool verify = false;
};

/** One workload's share of one point: the summands the point
 *  averages, and what computing them cost. A default record is an
 *  infeasible one, so a skipped workload reads as "did not fit". */
struct WorkloadRecord
{
    bool feasible = false;
    double lat = 0, epo = 0, gops = 0, watts = 0, xferNs = 0;
    bool hasXfer = false; ///< The run took cycles (xferNs is a summand).
    DseEvalCost cost;
    double seconds = 0; ///< Host time of the step (the sweep sets it).
};

/**
 * Register-count reuse within one (D, B) group of one workload: the
 * latest program served there that carries a valid RegisterCertificate,
 * and the 1-core SimStats of a run of it. Event counts depend neither
 * on input values (Sim.StatsDoNotDependOnInputValues) nor, between
 * programs a certificate relates, on R apart from instrBitsFetched, so
 * every register count the certificate admits is served from it
 * without a compile or a Machine.
 */
struct CertifiedProgram
{
    std::shared_ptr<const CompiledProgram> prog;
    SimStats stats;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/**
 * The one-workload step behind evaluateDesign and runDseSweep: serve
 * `point`'s program for one prepared workload — from `held` when it is
 * the held program's point (another core count) or its certificate
 * admits the point's R, else compiled (or fetched) and simulated — and
 * write the workload's summands to `rec`. `held` is the caller's reuse
 * state for the point's (D, B) group, whose other fields `point`
 * shares; a fresh one derives nothing. A workload that fails to fit
 * leaves the record infeasible instead of throwing.
 */
void
evaluateWorkload(const DseGridPoint &point, const PreparedWorkload &w,
                 const EvalParams &params, CertifiedProgram &held,
                 WorkloadRecord &rec)
{
    rec = WorkloadRecord{};
    const PreparedDag &dag = w.prepared;
    const ArchConfig &cfg = point.cfg;
    const uint32_t cores = point.cores;
    CompileOptions opt;
    opt.seed = params.seed;
    if (params.verify) // explicit opt-in only; keep the default build-set
        opt.verify = true;
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const CompiledProgram> served;
    SimStats stats;
    if (held.prog && held.prog->cfg.regsPerBank == cfg.regsPerBank) {
        served = held.prog;
        stats = held.stats;
        rec.cost.cacheHits = 1;
        rec.cost.compileSeconds = secondsSince(start);
    } else if (held.prog && held.prog->registers.admits(cfg)) {
        // The held program at this R but for its register-address
        // footprints: derive it instead of running steps 3-4 again.
        CompiledProgram derived =
            deriveForRegisterCount(*held.prog, cfg.regsPerBank);
        derived.stats.compileSeconds = secondsSince(start);
        derived.stats.verifySeconds = 0;
        if (params.verify) {
            const auto v0 = std::chrono::steady_clock::now();
            throwIfVerifyErrors(verifyProgram(derived), "finalize");
            derived.stats.verifySeconds = secondsSince(v0);
        }
        served = std::make_shared<const CompiledProgram>(std::move(derived));
        if (params.cache)
            params.cache->insert(dag, cfg, opt, served);
        stats = held.stats;
        stats.instrBitsFetched = served->stats.programBits;
        held = {served, stats};
        rec.cost.cacheHits = 1;
        rec.cost.certified = 1;
        rec.cost.compileSeconds = secondsSince(start);
    } else {
        ProgramCache::Fetched got;
        try {
            if (params.cache)
                got = params.cache->fetch(dag, cfg, opt);
            else
                got.prog = std::make_shared<const CompiledProgram>(
                    compile(dag, cfg, opt));
        } catch (const FatalError &) {
            // Register file too small for this workload: the design
            // point cannot run the suite.
            return;
        }
        served = got.prog;
        rec.cost.cacheHits = got.hit ? 1 : 0;
        rec.cost.compileSeconds =
            got.hit ? got.fetchSeconds : served->stats.compileSeconds;
        Rng rng(params.seed + w.seed);
        std::vector<double> inputs(dag.numInputs);
        for (double &x : inputs)
            x = 0.5 + rng.uniform();
        stats = Machine(*served).run(inputs).stats;
        if (served->registers.valid)
            held = {served, stats};
    }
    rec.cost.compiles = 1;
    const CompiledProgram &prog = *served;
    if (cores > 1) {
        // Multi-core axis: a `cores`-input batch, one run per core.
        // Every run counts the same events, and the batch's wall
        // cycles set the latency.
        stats.cycles = batchWallCycles(prog, cores, cores);
        for (uint64_t &n : stats.kindCount)
            n *= cores;
        stats.bankReads *= cores;
        stats.bankWrites *= cores;
        stats.peOperations *= cores;
        stats.pePassThroughs *= cores;
        stats.crossbarTransfers *= cores;
        stats.memReads *= cores;
        stats.memWrites *= cores;
        stats.instrBitsFetched *= cores;
    }
    const uint64_t runs = cores > 1 ? cores : 1;
    const uint64_t operations = prog.stats.numOperations * runs;

    // Host↔rank transfer: the link serializes the dispatch's
    // input/output payload before the cores compute, extending the
    // wall clock (the cost is static — see HostTransferModel).
    uint64_t xfer =
        params.transfer.batchCycles(hostTransferBytes(prog), runs);
    stats.cycles += xfer;

    EnergyBreakdown e = energyOf(cfg, stats, operations);
    rec.feasible = true;
    rec.lat = e.latencyPerOpNs();
    rec.epo = e.energyPerOpPj();
    // A fleet replicates the design: throughput and wall power scale
    // with the rank count; per-op latency/energy do not.
    rec.gops = params.fleetRanks * double(operations) / e.seconds() * 1e-9;
    rec.watts = params.fleetRanks * e.wallPowerWatts();
    rec.hasXfer = stats.cycles > 0;
    if (rec.hasXfer)
        rec.xferNs = double(xfer) / double(stats.cycles) * e.seconds() *
                     1e9 / double(operations);
}

/** The reduce: a point's per-workload means, its records added in
 *  suite order. Infeasible when any workload is. */
DsePoint
reducePoint(const DseGridPoint &coords,
            std::span<const WorkloadRecord> records, uint32_t fleet_ranks)
{
    DsePoint point;
    point.cfg = coords.cfg;
    point.workloadScale = coords.scale;
    point.cores = coords.cores;
    point.areaMm2 = areaOf(point.cfg).total;
    point.fleetRanks = fleet_ranks;
    for (const WorkloadRecord &rec : records)
        point.feasible = point.feasible && rec.feasible;
    if (!point.feasible)
        return point;
    Summary lat, epo, gops, watts, xfer_ns;
    for (const WorkloadRecord &rec : records) {
        lat.add(rec.lat);
        epo.add(rec.epo);
        gops.add(rec.gops);
        watts.add(rec.watts);
        if (rec.hasXfer)
            xfer_ns.add(rec.xferNs);
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
               DseEvalCost *cost, uint32_t fleet_ranks,
               const HostTransferModel &transfer, bool verify)
{
    if (fleet_ranks < 1)
        fleet_ranks = 1;
    const DseGridPoint point{cfg, scale, cores};
    const EvalParams params{seed, cache, fleet_ranks, transfer, verify};
    const std::vector<PreparedWorkload> prepared =
        prepareSuite(suite, scale, 1);
    std::vector<WorkloadRecord> records(prepared.size());
    for (size_t w = 0; w < prepared.size(); ++w) {
        const WorkloadRecord &rec = records[w];
        CertifiedProgram none; // one point: nothing to derive from
        evaluateWorkload(point, prepared[w], params, none, records[w]);
        if (cost) {
            cost->compiles += rec.cost.compiles;
            cost->cacheHits += rec.cost.cacheHits;
            cost->certified += rec.cost.certified;
            cost->compileSeconds += rec.cost.compileSeconds;
        }
        if (!rec.feasible)
            break; // the rest stay infeasible records
    }
    return reducePoint(point, records, fleet_ranks);
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
        if (r < 2 || r > ArchConfig::maxRegsPerBank)
            return fail("DSE regs axis value " + std::to_string(r) +
                        " outside the supported range [2, " +
                        std::to_string(ArchConfig::maxRegsPerBank) +
                        "]");
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
       << ", \"fidelity\": \"cycle\"";
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
    // Every point is simulated, and its line says so with "cycle".
    // Journals from before the tag existed carry none; their points
    // were simulated too. Any other tag (the estimated "table" and
    // "analytic" points of older sweeps, or a torn or foreign line)
    // is not a point this sweep would produce, so it is recomputed.
    if (obj.has("fidelity")) {
        std::string tag;
        if (!obj.getString("fidelity", tag) || tag != "cycle")
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
        cores == 0 || banks > UINT32_MAX ||
        regs > ArchConfig::maxRegsPerBank ||
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

    DseSweepResult result;
    result.points.resize(grid.size());
    std::vector<char> have(grid.size(), 0);

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
                if (!have[index])
                    ++result.resumedPoints;
                result.points[index] = p;
                have[index] = 1;
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
        for (size_t i = 0; i < grid.size(); ++i)
            if (have[i])
                os << dseJournalPointLine(i, result.points[i]) << "\n";
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
    // evaluate (a resumed sweep) is never prepared.
    // Distinct values only: a repeated scale must not evaluate its
    // points twice.
    std::vector<double> scales = effectiveScales(space);
    std::sort(scales.begin(), scales.end());
    scales.erase(std::unique(scales.begin(), scales.end()), scales.end());
    std::vector<PreparedWorkload> prepared; // the current scale's suite

    // Shards only partition the report: each point's compile/cache
    // counters and host seconds go to the shard that holds it.
    const std::vector<DseShard> shards =
        planDseShards(grid.size(), options.shards);
    std::vector<size_t> shard_of(grid.size());
    result.shardReports.resize(shards.size());
    for (size_t s = 0; s < shards.size(); ++s) {
        result.shardReports[s].points = shards[s].end - shards[s].begin;
        for (size_t i = shards[s].begin; i < shards[s].end; ++i)
            shard_of[i] = s;
    }
    const EvalParams params{space.seed, options.cache,
                            std::max<uint32_t>(space.fleetRanks, 1),
                            space.transfer, options.verify};
    const size_t workloads = suite.size();
    std::mutex journal_mutex;

    for (double scale : scales) {
        // The scale's pending points in grid order, cut into (D, B)
        // groups over the whole grid: group g is points
        // todo[group_start[g] .. group_start[g + 1]).
        std::vector<size_t> todo, group_start;
        for (size_t i = 0; i < grid.size(); ++i) {
            if (have[i] || grid[i].scale != scale)
                continue;
            if (todo.empty() ||
                grid[todo.back()].cfg.depth != grid[i].cfg.depth ||
                grid[todo.back()].cfg.banks != grid[i].cfg.banks)
                group_start.push_back(todo.size());
            todo.push_back(i);
        }
        if (todo.empty())
            continue;
        group_start.push_back(todo.size());
        const size_t groups = group_start.size() - 1;

        auto prepare_start = std::chrono::steady_clock::now();
        prepared.clear(); // release the previous scale first
        prepared = prepareSuite(suite, scale, options.threads);
        result.prepareSeconds += secondsSince(prepare_start);

        // records[p * workloads + w]: workload w's share of todo[p].
        std::vector<WorkloadRecord> records(todo.size() * workloads);
        std::vector<std::atomic<bool>> infeasible(todo.size());
        std::vector<std::atomic<size_t>> tasks_left(groups);
        for (std::atomic<size_t> &n : tasks_left)
            n.store(workloads);

        // One task per (group, workload), in grid order. No two tasks
        // share a program or fragment key, and a task walks its group's
        // points in grid order (R, then cores, ascending), deriving
        // every R its certified program admits: its derivations and
        // fragment reuse are a serial sweep's.
        parallelFor(groups * workloads, options.threads, [&](size_t t) {
            const size_t g = t / workloads, w = t % workloads;
            CertifiedProgram held;
            for (size_t p = group_start[g]; p < group_start[g + 1]; ++p) {
                if (infeasible[p].load())
                    continue; // another workload did not fit
                WorkloadRecord &rec = records[p * workloads + w];
                auto start = std::chrono::steady_clock::now();
                evaluateWorkload(grid[todo[p]], prepared[w], params, held,
                                 rec);
                rec.seconds = secondsSince(start);
                if (!rec.feasible)
                    infeasible[p].store(true);
            }
            if (tasks_left[g].fetch_sub(1) != 1)
                return;
            // The group's last task: the countdown orders every other
            // task's records before this reduce, and each point slot is
            // written by this task alone. Checkpoint the group.
            for (size_t p = group_start[g]; p < group_start[g + 1]; ++p)
                result.points[todo[p]] = reducePoint(
                    grid[todo[p]], {&records[p * workloads], workloads},
                    params.fleetRanks);
            if (!journaling)
                return;
            std::lock_guard<std::mutex> lock(journal_mutex);
            for (size_t p = group_start[g]; p < group_start[g + 1]; ++p)
                journal << dseJournalPointLine(todo[p],
                                               result.points[todo[p]])
                        << "\n";
            journal.flush(); // checkpoint survives a kill
            if (!journal)
                dpu_fatal("failed writing DSE journal '" +
                          options.journalPath +
                          "' (disk full?); checkpoints would be "
                          "silently lost");
        });

        for (size_t p = 0; p < todo.size(); ++p) {
            DseShardReport &report = result.shardReports[shard_of[todo[p]]];
            report.evaluated += 1;
            for (size_t w = 0; w < workloads; ++w) {
                const WorkloadRecord &rec = records[p * workloads + w];
                report.compiles += rec.cost.compiles;
                report.cacheHits += rec.cost.cacheHits;
                report.certified += rec.cost.certified;
                report.compileSeconds += rec.cost.compileSeconds;
                report.seconds += rec.seconds;
            }
        }
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
