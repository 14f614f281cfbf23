/**
 * @file
 * E8 — fig. 12: latency vs energy scatter of the design space with
 * the Pareto frontier (model/dse.hh paretoFrontier over latency/
 * energy/area) and the min-EDP design marked. Runs as a sharded
 * sweep; per-shard timing and cache hit rate land as typed series.
 */

#include <algorithm>

#include "harness.hh"
#include "model/dse.hh"

using namespace dpu;

int
main(int argc, char **argv)
{
    bench::Context ctx(argc, argv, "fig12_pareto", "Figure 12",
                       0.15,
                       "Latency-energy scatter; '*' marks the min-EDP "
                       "design, 'o' the other points of the latency/"
                       "energy/area Pareto frontier.");

    DseSweepOptions sopt;
    sopt.space.workloadScale = ctx.scale();
    sopt.threads = ctx.threads();
    sopt.shards = std::max(4u, ctx.threads());
    sopt.cache = ctx.cache();
    DseSweepResult sweep = runDseSweep(sopt);
    const std::vector<DsePoint> &pts = sweep.points;

    std::vector<size_t> frontier = paretoFrontier(pts);
    size_t min_edp = minEdpIndex(pts);

    TablePrinter t({"design", "latency/op (ns)", "energy/op (pJ)",
                    "EDP", "mark"});
    std::vector<double> frontier_latency, frontier_energy;
    for (size_t i = 0; i < pts.size(); ++i) {
        const DsePoint &p = pts[i];
        if (!p.feasible)
            continue;
        bool on_frontier = std::find(frontier.begin(), frontier.end(),
                                     i) != frontier.end();
        std::string mark;
        if (i == min_edp)
            mark = "* min-EDP";
        else if (on_frontier)
            mark = "o frontier";
        if (on_frontier) {
            frontier_latency.push_back(p.latencyPerOpNs);
            frontier_energy.push_back(p.energyPerOpPj);
        }
        t.row()
            .cell(p.cfg.label())
            .num(p.latencyPerOpNs, 3)
            .num(p.energyPerOpPj, 1)
            .num(p.edpPjNs, 1)
            .cell(mark);
    }
    t.print();
    ctx.table(t);
    ctx.series("frontier_latency_per_op_ns", frontier_latency);
    ctx.series("frontier_energy_per_op_pj", frontier_energy);

    std::vector<double> shard_seconds, shard_hit_rate;
    for (const DseShardReport &r : sweep.shardReports) {
        shard_seconds.push_back(r.seconds);
        shard_hit_rate.push_back(r.hitRate());
    }
    ctx.series("shard_seconds", shard_seconds);
    ctx.series("shard_cache_hit_rate", shard_hit_rate);
    ctx.metric("frontier_size", static_cast<double>(frontier.size()));

    if (min_edp == kDseNpos) {
        std::printf("\nno feasible design point in the sweep\n");
        ctx.note("min_edp", "none");
        return ctx.finish();
    }
    ctx.metric("min_edp_pj_ns", pts[min_edp].edpPjNs);
    ctx.note("min_edp", pts[min_edp].cfg.label());
    std::printf("\nExpected shape (paper): latency varies much more "
                "than energy across the space (the frontier is "
                "shallow in the energy direction).\n");
    return ctx.finish();
}
