/**
 * @file
 * E11 — fig. 13: breakdown of instruction categories per workload at
 * the min-EDP configuration.
 */

#include "harness.hh"

using namespace dpu;

int
main(int argc, char **argv)
{
    bench::Context ctx(argc, argv, "fig13_instruction_breakdown",
                       "Figure 13");
    double scale = ctx.scale();

    TablePrinter t({"workload", "exec %", "copy_4 %", "load %",
                    "store(+4) %", "nop %", "total instrs"});
    for (const auto &spec : smallSuite()) {
        // Only compile statistics are reported here, so this goes
        // through workloads/suite's cached-compile helper. In the
        // run_benches order this bench runs first and populates the
        // sweep's cache directory; fig14a then reuses the programs.
        auto prog =
            compileWorkload(spec, scale, minEdpConfig(), {}, ctx.cache());
        const auto &k = prog.stats.kindCount;
        double total = static_cast<double>(prog.stats.instructions);
        auto pct = [&](InstrKind kind) {
            return 100.0 * k[static_cast<size_t>(kind)] / total;
        };
        t.row()
            .cell(spec.name)
            .num(pct(InstrKind::Exec), 1)
            .num(pct(InstrKind::Copy4), 1)
            .num(pct(InstrKind::Load), 1)
            .num(pct(InstrKind::Store) + pct(InstrKind::Store4), 1)
            .num(pct(InstrKind::Nop), 1)
            .num(static_cast<long long>(total));
    }
    t.print();
    ctx.table(t);
    std::printf("\nExpected shape (paper): exec dominates; loads/"
                "stores grow on SpTRSV (many one-shot coefficient "
                "inputs) and on spill-heavy PCs; nops are the few "
                "hazards step 3 cannot hide (0-14 %% at full scale; "
                "more at --quick, where the shrunken DAGs keep their "
                "longest path and are mostly chain).\n");
    return ctx.finish();
}
