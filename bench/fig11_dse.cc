/**
 * @file
 * E7 — fig. 11: the 48-point design-space exploration over
 * (D, B, R): latency/op, energy/op and EDP per design point, plus
 * the three optima. Runs as a sharded sweep (model/dse.hh) on
 * --threads host workers; per-shard host time and program-cache
 * hit rate land as typed series.
 */

#include <algorithm>
#include <chrono>

#include "harness.hh"
#include "model/dse.hh"

using namespace dpu;

int
main(int argc, char **argv)
{
    bench::Context ctx(argc, argv, "fig11_dse", "Figure 11 (a)-(c)",
                       0.3,
                       "Sweep of D in {1,2,3}, B in {8..64}, R in "
                       "{16..128} (use --full for paper-size "
                       "workloads, --threads=N for a sharded sweep).");

    DseSweepOptions sopt;
    sopt.space.workloadScale = ctx.scale();
    sopt.threads = ctx.threads();
    sopt.shards = std::max(4u, ctx.threads());
    sopt.cache = ctx.cache();
    auto start = std::chrono::steady_clock::now();
    DseSweepResult sweep = runDseSweep(sopt);
    double sweep_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const std::vector<DsePoint> &pts = sweep.points;

    TablePrinter t({"design", "latency/op (ns)", "energy/op (pJ)",
                    "EDP (pJ*ns)", "area (mm2)", "power (W)"});
    std::vector<double> latency_series, energy_series, edp_series;
    for (const auto &p : pts) {
        if (!p.feasible) {
            t.row().cell(p.cfg.label()).cell("-").cell("-")
                .cell("infeasible").num(p.areaMm2, 2).cell("-");
            continue;
        }
        t.row()
            .cell(p.cfg.label())
            .num(p.latencyPerOpNs, 3)
            .num(p.energyPerOpPj, 1)
            .num(p.edpPjNs, 1)
            .num(p.areaMm2, 2)
            .num(p.powerWatts, 3);
        latency_series.push_back(p.latencyPerOpNs);
        energy_series.push_back(p.energyPerOpPj);
        edp_series.push_back(p.edpPjNs);
    }
    t.print();
    ctx.table(t);
    ctx.series("latency_per_op_ns", latency_series);
    ctx.series("energy_per_op_pj", energy_series);
    ctx.series("edp_pj_ns", edp_series);

    // Per-shard execution profile: host seconds and cache hit rate
    // are host-side observations (they vary run to run); the point
    // series above are model outputs and deterministic.
    std::vector<double> shard_seconds, shard_points, shard_hit_rate;
    for (const DseShardReport &r : sweep.shardReports) {
        shard_seconds.push_back(r.seconds);
        shard_points.push_back(static_cast<double>(r.points));
        shard_hit_rate.push_back(r.hitRate());
    }
    ctx.series("shard_seconds", shard_seconds);
    ctx.series("shard_points", shard_points);
    ctx.series("shard_cache_hit_rate", shard_hit_rate);
    ctx.metric("sweep_host_seconds", sweep_seconds);
    ctx.metric("sweep_shards",
               static_cast<double>(sweep.shardReports.size()));

    size_t min_latency = minLatencyIndex(pts);
    size_t min_energy = minEnergyIndex(pts);
    size_t min_edp = minEdpIndex(pts);
    if (min_edp == kDseNpos) {
        // Every point failed to fit the suite (tiny register axes);
        // report that instead of indexing nothing.
        std::printf("\nno feasible design point in the sweep\n");
        ctx.note("min_latency", "none");
        ctx.note("min_energy", "none");
        ctx.note("min_edp", "none");
        return ctx.finish();
    }
    std::printf("\nmin latency: %s (paper: D3.B64.R128)\n",
                pts[min_latency].cfg.label().c_str());
    std::printf("min energy:  %s (paper: D3.B16.R64)\n",
                pts[min_energy].cfg.label().c_str());
    std::printf("min EDP:     %s (paper: D3.B64.R32)\n",
                pts[min_edp].cfg.label().c_str());
    ctx.note("min_latency", pts[min_latency].cfg.label());
    ctx.note("min_energy", pts[min_energy].cfg.label());
    ctx.note("min_edp", pts[min_edp].cfg.label());
    ctx.metric("min_edp_pj_ns", pts[min_edp].edpPjNs);
    ctx.metric("frontier_size",
               static_cast<double>(paretoFrontier(pts).size()));
    return ctx.finish();
}
