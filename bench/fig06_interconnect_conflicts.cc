/**
 * @file
 * E3 — fig. 6(e): bank conflicts under the three output-interconnect
 * topologies (full crossbar / one-PE-per-layer / one-PE-per-bank),
 * normalized to the crossbar.
 */

#include "compiler/blocks.hh"
#include "compiler/mapper.hh"
#include "dag/binarize.hh"
#include "harness.hh"

using namespace dpu;

namespace {

uint64_t
conflictsFor(const Dag &dag, OutputInterconnect net)
{
    ArchConfig cfg = minEdpConfig();
    cfg.outputNet = net;
    auto bin = binarize(dag);
    auto dec = decomposeIntoBlocks(bin.dag, cfg);
    return assignBanks(bin.dag, cfg, dec).readConflicts;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Context ctx(argc, argv, "fig06_interconnect_conflicts",
                       "Figure 6(e)");
    double scale = ctx.scale();

    uint64_t a = 0, b = 0, c = 0;
    for (const auto &spec : smallSuite()) {
        Dag d = buildWorkloadDag(spec, scale);
        a += conflictsFor(d, OutputInterconnect::Crossbar);
        b += conflictsFor(d, OutputInterconnect::PerLayerSubtree);
        c += conflictsFor(d, OutputInterconnect::OnePerPe);
    }
    double base_b = static_cast<double>(std::max<uint64_t>(b, 1));
    TablePrinter t({"design", "output interconnect", "conflicts",
                    "vs (b)", "paper vs (b)"});
    t.row().cell("(a)").cell("full crossbar")
        .num(static_cast<long long>(a)).num(a / base_b, 2)
        .cell("0.42x");
    t.row().cell("(b)").cell("one PE per layer (D:1 mux)")
        .num(static_cast<long long>(b)).num(1.0, 2).cell("1x");
    t.row().cell("(c)").cell("one PE per bank")
        .num(static_cast<long long>(c)).num(c / base_b, 2)
        .cell("7.9x");
    t.print();
    ctx.table(t);
    ctx.metric("crossbar_vs_b", a / base_b);
    ctx.metric("one_per_pe_vs_b", c / base_b);
    std::printf("\nExpected shape (paper, renormalized to (b)): (a) "
                "below (b); (c) roughly an order of magnitude above. "
                "Our step-2 mapper removes (a)'s conflicts entirely "
                "(the paper's 1x baseline is small but nonzero).\n"
                "The paper selects (b): its conflicts cost ~1%% "
                "latency but the missing crossbar saves ~9%% power.\n");
    return ctx.finish();
}
