/**
 * @file
 * E5 — fig. 10(b): bank conflicts, conflict-aware mapping (alg. 2)
 * vs random bank allocation.
 */

#include "compiler/blocks.hh"
#include "compiler/mapper.hh"
#include "dag/binarize.hh"
#include "harness.hh"

using namespace dpu;

int
main(int argc, char **argv)
{
    bench::Context ctx(argc, argv, "fig10_bank_conflicts",
                       "Figure 10(b)");
    double scale = ctx.scale();

    ArchConfig cfg = minEdpConfig();
    TablePrinter t({"workload", "conflict-aware", "random", "ratio"});
    uint64_t smart_total = 0, naive_total = 0;
    for (const auto &spec : smallSuite()) {
        Dag raw = buildWorkloadDag(spec, scale);
        auto bin = binarize(raw);
        auto dec = decomposeIntoBlocks(bin.dag, cfg);
        auto smart =
            assignBanks(bin.dag, cfg, dec, BankPolicy::ConflictAware);
        auto naive = assignBanks(bin.dag, cfg, dec, BankPolicy::Random);
        smart_total += smart.readConflicts;
        naive_total += naive.readConflicts;
        double ratio = smart.readConflicts
            ? double(naive.readConflicts) / smart.readConflicts
            : double(naive.readConflicts);
        t.row()
            .cell(spec.name)
            .num(static_cast<long long>(smart.readConflicts))
            .num(static_cast<long long>(naive.readConflicts))
            .num(ratio, 1);
    }
    t.print();
    ctx.table(t);
    ctx.metric("reduction_x",
               smart_total ? double(naive_total) / smart_total
                           : double(naive_total));
    std::printf("\nSuite total: conflict-aware %llu vs random %llu "
                "(%.0fx reduction; paper reports 292x on its "
                "workload).\n",
                static_cast<unsigned long long>(smart_total),
                static_cast<unsigned long long>(naive_total),
                smart_total ? double(naive_total) / smart_total
                            : double(naive_total));
    return ctx.finish();
}
