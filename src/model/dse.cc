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

/** One suite workload at the sweep's scale, through the compiler
 *  front end: the configuration-independent part of every point's
 *  compile. */
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
    bool verify = false;
};

/** One workload's share of one point: the summands the point
 *  averages, and what computing them cost. A default record is an
 *  infeasible one, so a skipped workload reads as "did not fit". */
struct WorkloadRecord
{
    bool feasible = false;
    double lat = 0, epo = 0, gops = 0, watts = 0;
    DseEvalCost cost;
    double seconds = 0; ///< Host time of the step (the sweep sets it).
};

/**
 * Register-count reuse within one (D, B) group of one workload: the
 * latest program served there that carries a valid RegisterCertificate,
 * and the SimStats of a run of it. Event counts depend neither
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
 * `cfg`'s program for one prepared workload — derived from `held` when
 * its certificate admits the point's R, else compiled (or fetched) and
 * simulated — and write the workload's summands to `rec`. `held` is the
 * caller's reuse state for the point's (D, B) group; a fresh one
 * derives nothing. A workload that fails to fit leaves the record
 * infeasible instead of throwing.
 */
void
evaluateWorkload(const ArchConfig &cfg, const PreparedWorkload &w,
                 const EvalParams &params, CertifiedProgram &held,
                 WorkloadRecord &rec)
{
    rec = WorkloadRecord{};
    const PreparedDag &dag = w.prepared;
    CompileOptions opt;
    opt.seed = params.seed;
    if (params.verify) // explicit opt-in only; keep the default build-set
        opt.verify = true;
    const auto start = std::chrono::steady_clock::now();
    std::shared_ptr<const CompiledProgram> served;
    SimStats stats;
    if (held.prog && held.prog->registers.admits(cfg)) {
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
    const uint64_t operations = served->stats.numOperations;

    EnergyBreakdown e = energyOf(cfg, stats, operations);
    rec.feasible = true;
    rec.lat = e.latencyPerOpNs();
    rec.epo = e.energyPerOpPj();
    rec.gops = double(operations) / e.seconds() * 1e-9;
    rec.watts = e.wallPowerWatts();
}

/** The reduce: a point's per-workload means, its records added in
 *  suite order. Infeasible when any workload is. */
DsePoint
reducePoint(const ArchConfig &cfg, double scale,
            std::span<const WorkloadRecord> records)
{
    DsePoint point;
    point.cfg = cfg;
    point.workloadScale = scale;
    point.areaMm2 = areaOf(point.cfg).total;
    for (const WorkloadRecord &rec : records)
        point.feasible = point.feasible && rec.feasible;
    if (!point.feasible)
        return point;
    Summary lat, epo, gops, watts;
    for (const WorkloadRecord &rec : records) {
        lat.add(rec.lat);
        epo.add(rec.epo);
        gops.add(rec.gops);
        watts.add(rec.watts);
    }
    point.latencyPerOpNs = lat.mean();
    point.energyPerOpPj = epo.mean();
    point.edpPjNs = point.latencyPerOpNs * point.energyPerOpPj;
    point.throughputGops = gops.mean();
    point.powerWatts = watts.mean();
    return point;
}

} // namespace

DsePoint
evaluateDesign(const ArchConfig &cfg,
               const std::vector<WorkloadSpec> &suite, double scale,
               uint64_t seed, ProgramCache *cache, DseEvalCost *cost,
               bool verify)
{
    const EvalParams params{seed, cache, verify};
    const std::vector<PreparedWorkload> prepared =
        prepareSuite(suite, scale, 1);
    std::vector<WorkloadRecord> records(prepared.size());
    for (size_t w = 0; w < prepared.size(); ++w) {
        const WorkloadRecord &rec = records[w];
        CertifiedProgram none; // one point: nothing to derive from
        evaluateWorkload(cfg, prepared[w], params, none, records[w]);
        if (cost) {
            cost->compiles += rec.cost.compiles;
            cost->cacheHits += rec.cost.cacheHits;
            cost->certified += rec.cost.certified;
            cost->compileSeconds += rec.cost.compileSeconds;
        }
        if (!rec.feasible)
            break; // the rest stay infeasible records
    }
    return reducePoint(cfg, scale, records);
}

// ---------------------------------------------------------------- //
// Grid expansion + shard planning.                                 //
// ---------------------------------------------------------------- //

bool
validateDseAxes(const DseOptions &options, std::string *error)
{
    auto fail = [error](const std::string &msg) {
        if (error)
            *error = msg;
        return false;
    };
    // A repeated value would evaluate its grid points twice.
    for (auto [name, values] :
         {std::pair{"depth", &options.depths},
          std::pair{"banks", &options.banks},
          std::pair{"regs", &options.regs}})
        for (size_t i = 0; i < values->size(); ++i)
            for (size_t j = 0; j < i; ++j)
                if ((*values)[j] == (*values)[i])
                    return fail(std::string("DSE ") + name +
                                " axis value " +
                                std::to_string((*values)[i]) +
                                " is repeated");
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
    if (!(options.workloadScale > 0))
        return fail("DSE workload scale " +
                    jsonDouble(options.workloadScale) + " must be > 0");
    return true;
}

std::vector<ArchConfig>
expandDseGrid(const DseOptions &options)
{
    std::string error;
    if (!validateDseAxes(options, &error))
        dpu_fatal(error);

    std::vector<ArchConfig> grid;
    for (uint32_t d : options.depths)
        for (uint32_t b : options.banks) {
            if (b < (1u << d))
                continue; // needs at least one full tree
            for (uint32_t r : options.regs) {
                ArchConfig cfg;
                cfg.depth = d;
                cfg.banks = b;
                cfg.regsPerBank = r;
                grid.push_back(cfg);
            }
        }
    return grid;
}

std::string
dseSpaceSignature(const DseOptions &options)
{
    std::ostringstream os;
    auto list = [&os](const char *name,
                      const std::vector<uint32_t> &values) {
        os << name << "=";
        for (size_t i = 0; i < values.size(); ++i)
            os << (i ? "," : "") << values[i];
        os << "|";
    };
    list("depths", options.depths);
    list("banks", options.banks);
    list("regs", options.regs);
    // The scale and core-count terms of the engine that swept those
    // axes, so its journals still resume.
    os << "scales=" << jsonDouble(options.workloadScale) << "|cores=1|";
    os << "seed=" << options.seed << "|suite=";
    const std::vector<WorkloadSpec> suite =
        options.suite.empty() ? smallSuite() : options.suite;
    for (size_t i = 0; i < suite.size(); ++i)
        os << (i ? "," : "") << suite[i].name;
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
       << ", \"cores\": 1"
       << ", \"feasible\": " << (p.feasible ? "true" : "false")
       << ", \"latency_per_op_ns\": " << jsonDouble(p.latencyPerOpNs)
       << ", \"energy_per_op_pj\": " << jsonDouble(p.energyPerOpPj)
       << ", \"edp_pj_ns\": " << jsonDouble(p.edpPjNs)
       << ", \"area_mm2\": " << jsonDouble(p.areaMm2)
       << ", \"power_watts\": " << jsonDouble(p.powerWatts)
       << ", \"throughput_gops\": " << jsonDouble(p.throughputGops)
       << ", \"fidelity\": \"cycle\"}";
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
    // Every point runs on one core; a line from an older sweep's
    // multi-core axis is recomputed.
    if (cores != 1)
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
    if (depth == 0 || depth > 6 || banks == 0 || regs == 0 ||
        banks > UINT32_MAX || regs > ArchConfig::maxRegsPerBank)
        return false;
    p.cfg.depth = static_cast<uint32_t>(depth);
    p.cfg.banks = static_cast<uint32_t>(banks);
    p.cfg.regsPerBank = static_cast<uint32_t>(regs);
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
matchesGridPoint(const DsePoint &p, const ArchConfig &cfg, double scale)
{
    return p.cfg.depth == cfg.depth && p.cfg.banks == cfg.banks &&
           p.cfg.regsPerBank == cfg.regsPerBank &&
           p.workloadScale == scale;
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
    const std::vector<ArchConfig> grid = expandDseGrid(space);
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
                    !matchesGridPoint(p, grid[index], space.workloadScale))
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
    const EvalParams params{space.seed, options.cache, options.verify};
    const size_t workloads = suite.size();
    std::mutex journal_mutex;

    // The pending points in grid order, cut into (D, B) groups over
    // the whole grid: group g is points
    // todo[group_start[g] .. group_start[g + 1]).
    std::vector<size_t> todo, group_start;
    for (size_t i = 0; i < grid.size(); ++i) {
        if (have[i])
            continue;
        if (todo.empty() || grid[todo.back()].depth != grid[i].depth ||
            grid[todo.back()].banks != grid[i].banks)
            group_start.push_back(todo.size());
        todo.push_back(i);
    }

    if (!todo.empty()) {
        group_start.push_back(todo.size());
        const size_t groups = group_start.size() - 1;

        // Front end, once per sweep: the suite is built and run through
        // prepareDag, in parallel, and every point compiles from those
        // read-only DAGs. A fully resumed sweep prepares nothing.
        auto prepare_start = std::chrono::steady_clock::now();
        const std::vector<PreparedWorkload> prepared =
            prepareSuite(suite, space.workloadScale, options.threads);
        result.prepareSeconds = secondsSince(prepare_start);

        // records[p * workloads + w]: workload w's share of todo[p].
        std::vector<WorkloadRecord> records(todo.size() * workloads);
        std::vector<std::atomic<bool>> infeasible(todo.size());
        std::vector<std::atomic<size_t>> tasks_left(groups);
        for (std::atomic<size_t> &n : tasks_left)
            n.store(workloads);

        // One task per (group, workload), in grid order. No two tasks
        // share a program or fragment key, and a task walks its group's
        // points in grid order (ascending R), deriving every R its
        // certified program admits: its derivations and fragment reuse
        // are a serial sweep's.
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
                result.points[todo[p]] =
                    reducePoint(grid[todo[p]], space.workloadScale,
                                {&records[p * workloads], workloads});
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
