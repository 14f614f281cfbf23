/**
 * @file
 * dse_sweep — the sharded design-space-exploration driver.
 *
 *     dse_sweep [options]
 *
 *     --axes=<spec>       axis grid, e.g.
 *                         "depth=1,2,3;banks=8,16;regs=32;scale=0.1;cores=1,4"
 *                         (axes omitted from the spec keep their
 *                         defaults; unknown axis names are rejected)
 *     --scale=<f>         workload scale when no scale axis is given
 *     --seed=N            evaluation seed
 *     --threads=N         host worker threads (work-stealing tasks,
 *                         one per (D, B) group x workload)
 *     --shards=N          shards the cost report is cut into
 *                         (default: threads)
 *     --journal=<file>    checkpoint completed points (JSON lines)
 *     --resume            reuse completed points from the journal
 *     --cache-dir=<dir>   on-disk program-cache spill
 *     --no-cache          disable the program cache
 *     --verify            statically verify every point compile
 *                         (compiler/verify.hh; failures abort)
 *     --ranks=N           fleet ranks per design point (default 1;
 *                         throughput/power scale, per-op latency and
 *                         energy do not)
 *     --xfer-gbps=<v|inf> host link rate; finite values charge
 *                         transfer cycles on every evaluated batch
 *                         (default inf = free link)
 *     --quick             smoke-test grid (8 points at scale 0.05)
 *     --csv               print the point table as CSV
 *
 * The merged point vector (and the final journal) is byte-identical
 * for every --threads/--shards count; an interrupted sweep restarted
 * with --resume recomputes only the missing points.
 *
 * Exit code 0 on success, 1 on user error (unknown flag, --resume
 * without --journal, journal/space mismatch), 2 on an invalid option
 * value (non-numeric axis lists, --shards=0, ...) or internal error.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "model/dse.hh"
#include "model/tech28.hh"
#include "support/cli.hh"
#include "support/table.hh"

using namespace dpu;

namespace {

struct Args
{
    DseSweepOptions sweep;
    double scale = 0.3; ///< Default mirrors the fig11 bench.
    bool scaleAxisGiven = false;
    bool threadsGiven = false;
    bool shardsGiven = false;
    bool quick = false;
    bool csv = false;
    std::string cacheDir;
    bool noCache = false;
};

/** Parse one "name=v1,v2,..." axis assignment into the space. */
bool
parseAxis(const std::string &axis, Args &args)
{
    size_t eq = axis.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    std::string name = axis.substr(0, eq);
    const char *values = axis.c_str() + eq + 1;
    DseOptions &space = args.sweep.space;
    if (name == "depth" || name == "depths")
        return parseUint32ListArg(values, space.depths);
    if (name == "banks")
        return parseUint32ListArg(values, space.banks);
    if (name == "regs")
        return parseUint32ListArg(values, space.regs);
    if (name == "cores")
        return parseUint32ListArg(values, space.cores);
    if (name == "scale" || name == "scales") {
        // Range checking (scale > 0) is validateDseAxes's job.
        if (!parseDoubleListArg(values, space.scales))
            return false;
        args.scaleAxisGiven = true;
        return true;
    }
    return false; // unknown axis name
}

/** Parse the command line; 0 = ok, 1 = usage error, 2 = invalid
 *  option value (the dpuc exit-code contract). */
int
parseArgs(int argc, char **argv, Args &args)
{
    int bad_value = 0;
    auto reject = [&bad_value](const char *flag, const char *s,
                               const char *expected) {
        std::fprintf(stderr,
                     "dse_sweep: invalid value '%s' for %s "
                     "(expected %s)\n",
                     s, flag, expected);
        bad_value = 2;
    };
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--axes=", 7) == 0) {
            // Semicolon-separated axis assignments; every axis value
            // is strictly validated so a junk spec exits 2 before
            // any compile starts.
            std::string spec = a + 7;
            size_t at = 0;
            bool ok = !spec.empty();
            while (ok && at <= spec.size()) {
                size_t semi = spec.find(';', at);
                if (semi == std::string::npos)
                    semi = spec.size();
                ok = parseAxis(spec.substr(at, semi - at), args);
                at = semi + 1;
            }
            // Semantic range rules come from the engine's own
            // validator, so the exit-2 contract cannot drift from
            // what expandDseGrid would reject mid-run.
            if (!ok || !validateDseAxes(args.sweep.space)) {
                reject("--axes", a + 7,
                       "name=v1,v2;... with names depth/banks/regs/"
                       "scale/cores, banks a power of two, depth in "
                       "[1,6], regs in [2,65536], scale > 0, cores >= 1");
            }
        } else if (std::strncmp(a, "--scale=", 8) == 0) {
            if (!parseDoubleArg(a + 8, args.scale) || args.scale <= 0)
                reject("--scale", a + 8, "a number > 0");
        } else if (std::strncmp(a, "--seed=", 7) == 0) {
            if (!parseUint64Arg(a + 7, args.sweep.space.seed))
                reject("--seed", a + 7, "an unsigned integer");
        } else if (std::strncmp(a, "--threads=", 10) == 0) {
            if (!parseUint32Arg(a + 10, args.sweep.threads) ||
                args.sweep.threads < 1)
                reject("--threads", a + 10, "an integer >= 1");
            args.threadsGiven = true;
        } else if (std::strncmp(a, "--shards=", 9) == 0) {
            if (!parseUint32Arg(a + 9, args.sweep.shards) ||
                args.sweep.shards < 1)
                reject("--shards", a + 9, "an integer >= 1");
            args.shardsGiven = true;
        } else if (std::strncmp(a, "--journal=", 10) == 0) {
            args.sweep.journalPath = a + 10;
        } else if (std::strcmp(a, "--resume") == 0) {
            args.sweep.resume = true;
        } else if (std::strncmp(a, "--cache-dir=", 12) == 0) {
            args.cacheDir = a + 12;
        } else if (std::strcmp(a, "--no-cache") == 0) {
            args.noCache = true;
        } else if (std::strncmp(a, "--ranks=", 8) == 0) {
            if (!parseUint32Arg(a + 8, args.sweep.space.fleetRanks) ||
                args.sweep.space.fleetRanks < 1)
                reject("--ranks", a + 8, "an integer >= 1");
        } else if (std::strncmp(a, "--xfer-gbps=", 12) == 0) {
            double gbps = 0;
            if (!parseGbpsArg(a + 12, gbps))
                reject("--xfer-gbps", a + 12,
                       "a number > 0, or 'inf'");
            else
                args.sweep.space.transfer =
                    HostTransferModel::fromGbps(gbps,
                                                tech28::frequencyHz);
        } else if (std::strcmp(a, "--verify") == 0) {
            args.sweep.verify = true;
        } else if (std::strcmp(a, "--quick") == 0) {
            args.quick = true;
        } else if (std::strcmp(a, "--csv") == 0) {
            args.csv = true;
        } else {
            std::fprintf(
                stderr,
                "dse_sweep: unknown option '%s'\n"
                "usage: dse_sweep [--axes=<spec>] [--scale=<f>] "
                "[--seed=N] [--threads=N] [--shards=N] "
                "[--journal=<file>] [--resume] [--cache-dir=<dir>] "
                "[--no-cache] [--ranks=N] [--xfer-gbps=<v|inf>] "
                "[--verify] [--quick] [--csv]\n",
                a);
            return 1;
        }
    }
    if (bad_value)
        return bad_value;
    if (args.sweep.resume && args.sweep.journalPath.empty()) {
        std::fprintf(stderr,
                     "dse_sweep: --resume requires --journal=<file>\n");
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    // --quick default grid: 8 points at smoke scale. An explicit
    // --axes (parsed afterwards, in parseArgs) overrides any of it.
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--quick") == 0) {
            args.sweep.space.depths = {1, 2};
            args.sweep.space.banks = {8, 16};
            args.sweep.space.regs = {16, 32};
            args.scale = 0.05;
        }
    if (int rc = parseArgs(argc, argv, args))
        return rc;
    if (!args.scaleAxisGiven)
        args.sweep.space.workloadScale = args.scale;
    if (!args.shardsGiven)
        args.sweep.shards = args.sweep.threads;

    try {
        // With --no-cache, no spill directory is created or probed
        // either — the flag must have zero filesystem side effects.
        ProgramCacheConfig cache_config;
        if (!args.noCache)
            cache_config.diskDir = args.cacheDir;
        ProgramCache cache(cache_config);
        if (!args.noCache)
            args.sweep.cache = &cache;

        size_t grid_points = expandDseGrid(args.sweep.space).size();
        std::printf("dse_sweep: %zu design points, %u shard(s), %u "
                    "thread(s)%s%s\n",
                    grid_points, args.sweep.shards, args.sweep.threads,
                    args.sweep.journalPath.empty()
                        ? ""
                        : (", journal " + args.sweep.journalPath)
                              .c_str(),
                    args.sweep.resume ? " (resume)" : "");

        auto start = std::chrono::steady_clock::now();
        DseSweepResult sweep = runDseSweep(args.sweep);
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        const std::vector<DsePoint> &pts = sweep.points;
        if (sweep.resumedPoints)
            std::printf("dse_sweep: resumed %zu of %zu points from "
                        "the journal\n",
                        sweep.resumedPoints, pts.size());

        std::vector<size_t> frontier = paretoFrontier(pts);
        size_t min_edp = minEdpIndex(pts);
        size_t min_energy = minEnergyIndex(pts);
        size_t min_latency = minLatencyIndex(pts);

        TablePrinter t({"design", "scale", "cores",
                        "latency/op (ns)", "energy/op (pJ)",
                        "EDP (pJ*ns)", "area (mm2)", "mark"});
        for (size_t i = 0; i < pts.size(); ++i) {
            const DsePoint &p = pts[i];
            std::string mark;
            if (i == min_edp)
                mark = "* min-EDP";
            else if (std::find(frontier.begin(), frontier.end(), i) !=
                     frontier.end())
                mark = "o frontier";
            auto &row = t.row().cell(p.cfg.label())
                            .num(p.workloadScale, 3)
                            .cell(std::to_string(p.cores));
            if (p.feasible)
                row.num(p.latencyPerOpNs, 3)
                    .num(p.energyPerOpPj, 1)
                    .num(p.edpPjNs, 1)
                    .num(p.areaMm2, 2)
                    .cell(mark);
            else
                row.cell("-").cell("-").cell("infeasible")
                    .num(p.areaMm2, 2).cell("-");
        }
        if (args.csv)
            t.printCsv(std::cout);
        else
            t.print();

        if (min_edp == kDseNpos) {
            std::printf("\nno feasible design point\n");
        } else {
            size_t feasible = 0;
            for (const DsePoint &p : pts)
                feasible += p.feasible;
            std::printf("\nmin latency: %s\nmin energy:  %s\n"
                        "min EDP:     %s\nfrontier:    %zu of %zu "
                        "feasible points\n",
                        pts[min_latency].cfg.label().c_str(),
                        pts[min_energy].cfg.label().c_str(),
                        pts[min_edp].cfg.label().c_str(),
                        frontier.size(), feasible);
        }

        TablePrinter shard_table({"shard", "points", "evaluated",
                                  "compiles", "cache hits",
                                  "certified", "hit rate", "seconds"});
        for (size_t s = 0; s < sweep.shardReports.size(); ++s) {
            const DseShardReport &r = sweep.shardReports[s];
            shard_table.row().cell(std::to_string(s))
                .cell(std::to_string(r.points))
                .cell(std::to_string(r.evaluated))
                .cell(std::to_string(r.compiles))
                .cell(std::to_string(r.cacheHits))
                .cell(std::to_string(r.certified))
                .num(r.hitRate(), 2)
                .num(r.seconds, 3);
        }
        std::printf("\n");
        shard_table.print();

        // Point compiles served without compiling (cache hits and
        // programs derived from a certified one), from the shard
        // reports: derived points are not cache lookups.
        uint64_t compiles = 0, served = 0, derived = 0;
        for (const DseShardReport &r : sweep.shardReports) {
            compiles += r.compiles;
            served += r.cacheHits;
            derived += r.certified;
        }
        if (args.noCache) {
            std::printf("\ndse_sweep: %zu points in %.3fs (%.3fs "
                        "preparing the suite; program cache "
                        "disabled), %llu of %llu point compiles "
                        "derived from certified programs\n",
                        pts.size(), seconds, sweep.prepareSeconds,
                        static_cast<unsigned long long>(derived),
                        static_cast<unsigned long long>(compiles));
        } else {
            ProgramCache::Stats cs = cache.stats();
            std::printf("\ndse_sweep: %zu points in %.3fs (%.3fs "
                        "preparing the suite); program cache "
                        "%llu/%llu point compiles served (hit rate "
                        "%.2f), %llu of them derived from certified "
                        "programs\n",
                        pts.size(), seconds, sweep.prepareSeconds,
                        static_cast<unsigned long long>(served),
                        static_cast<unsigned long long>(compiles),
                        compiles ? double(served) / double(compiles)
                                 : 0.0,
                        static_cast<unsigned long long>(derived));
            std::printf("dse_sweep: fragment cache %llu hits / %llu "
                        "misses across partition sub-DAGs\n",
                        static_cast<unsigned long long>(cs.fragHits),
                        static_cast<unsigned long long>(cs.fragMisses));
        }
        return 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "dse_sweep: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "dse_sweep: internal error: %s\n",
                     e.what());
        return 2;
    }
}
