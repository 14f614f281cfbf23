/**
 * @file
 * Google-benchmark micro-benchmarks of the toolchain itself:
 * DAG construction and the DFS preorder on the large-PC DAG,
 * compiler throughput (single-threaded, partition-parallel, one
 * design-space point over a warm fragment cache, and steps 1 and 2
 * alone on the ranges of a partitioned large-PC compile),
 * simulator speed, and the program layer (encode, decode, verify,
 * copy). Not a paper figure —
 * engineering health of the reproduction.
 *
 * The main() accepts three harness-style flags so tools/run_benches
 * can drive this binary alongside the paper benches: `--quick`
 * (shrink the fixture DAG for a smoke pass), `--threads=N` (workers
 * for the parallel-compile benchmark; junk, zero or trailing
 * characters exit 2 like every other tool) and `--json=<file>` (alias
 * for --benchmark_out=<file> --benchmark_out_format=json). Everything
 * else is passed to google-benchmark untouched.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/isa.hh"
#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "compiler/partitioner.hh"
#include "compiler/verify.hh"
#include "dag/algorithms.hh"
#include "dag/eval.hh"
#include "sim/machine.hh"
#include "support/cli.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

bool g_quick = false;
uint32_t g_threads = 2;

Dag &
benchDag()
{
    static Dag dag = [] {
        PcParams p;
        p.targetOperations = g_quick ? 2000 : 20000;
        p.depth = 32;
        p.seed = 5;
        return generatePc(p);
    }();
    return dag;
}

CompiledProgram &
benchProgram()
{
    static CompiledProgram prog = compile(benchDag(), minEdpConfig());
    return prog;
}

void
BM_CompileMinEdp(benchmark::State &state)
{
    const Dag &d = benchDag();
    for (auto _ : state) {
        auto prog = compile(d, minEdpConfig());
        benchmark::DoNotOptimize(prog);
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(d.numOperations()));
}
BENCHMARK(BM_CompileMinEdp)->Unit(benchmark::kMillisecond);

void
BM_CompileParallelPartitions(benchmark::State &state)
{
    const Dag &d = benchDag();
    CompileOptions opt;
    opt.partitionNodes = g_quick ? 250 : 2000;
    opt.threads = g_threads;
    for (auto _ : state) {
        auto prog = compile(d, minEdpConfig(), opt);
        benchmark::DoNotOptimize(prog);
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(d.numOperations()));
    state.counters["threads"] = g_threads;
}
BENCHMARK(BM_CompileParallelPartitions)->Unit(benchmark::kMillisecond);

void
BM_CompileWarmFragment(benchmark::State &state)
{
    // One DSE point's compile that no register certificate covers: a
    // neighbour has warmed the fragment (steps 1-2 + codegen), and the
    // program cache holds one entry, so every iteration is one program
    // miss plus one fragment hit — steps 3-4 over a fragment read in
    // place. The neighbours differ in dataMemRows, which the fragment
    // key and the compile ignore but the program key does not, so
    // neither is derivable from the other's certified program (that
    // path is BM_CertifiedRegisterSweep).
    static const PreparedDag prepared =
        prepareDag(buildWorkloadDag(smallSuite().front(), 0.1));
    ProgramCacheConfig cc;
    cc.maxEntries = 1;
    ProgramCache cache(cc);
    ArchConfig cfg = minEdpConfig();
    const uint32_t rows[2] = {cfg.dataMemRows, cfg.dataMemRows + 1};
    cache.fetch(prepared, cfg);
    size_t k = 0;
    for (auto _ : state) {
        cfg.dataMemRows = rows[++k % 2];
        ProgramCache::Fetched got = cache.fetch(prepared, cfg);
        benchmark::DoNotOptimize(got.prog.get());
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(prepared.dag.numOperations()));
}
BENCHMARK(BM_CompileWarmFragment)->Unit(benchmark::kMillisecond);

void
BM_CertifiedRegisterSweep(benchmark::State &state)
{
    // One (D, B) group of a DSE, walked as a sweep task walks it: the
    // same workload at 16 register counts, ascending, through one
    // fresh ProgramCache per iteration. The first compile, and any
    // whose R the held certificate does not admit, runs steps 1-4; the
    // rest are derived from the latest certified program and inserted
    // into the cache.
    static const PreparedDag prepared =
        prepareDag(buildWorkloadDag(smallSuite().front(), 0.1));
    ArchConfig cfg = minEdpConfig();
    uint64_t certified = 0;
    for (auto _ : state) {
        ProgramCache cache;
        std::shared_ptr<const CompiledProgram> held;
        certified = 0;
        for (uint32_t r = 8; r <= 128; r += 8) {
            cfg.regsPerBank = r;
            std::shared_ptr<const CompiledProgram> prog;
            if (held && held->registers.admits(cfg)) {
                prog = std::make_shared<const CompiledProgram>(
                    deriveForRegisterCount(*held, r));
                cache.insert(prepared, cfg, {}, prog);
                ++certified;
            } else {
                prog = cache.fetch(prepared, cfg).prog;
            }
            if (prog->registers.valid)
                held = prog;
            benchmark::DoNotOptimize(prog.get());
        }
    }
    state.SetItemsProcessed(state.iterations() * 16);
    state.counters["certified"] = static_cast<double>(certified);
}
BENCHMARK(BM_CertifiedRegisterSweep)->Unit(benchmark::kMillisecond);

/** The scale of compile_large_pc's DAG, pigs@0.2 (--quick: 0.02). */
double
largePcScale()
{
    return g_quick ? 0.02 : 0.2;
}

/** Build compile_large_pc's DAG and free it: the cost of the DAG
 *  representation itself (one append per node, then destruction). */
void
BM_BuildDag(benchmark::State &state)
{
    size_t nodes = 0;
    for (auto _ : state) {
        Dag dag = buildWorkloadDag(findWorkload("pigs"), largePcScale());
        nodes = dag.numNodes();
        benchmark::DoNotOptimize(nodes);
    }
    state.SetItemsProcessed(state.iterations() * int64_t(nodes));
}
BENCHMARK(BM_BuildDag)->Unit(benchmark::kMillisecond);

/** compile_large_pc's partitioned compile: pigs@0.2 for largeConfig
 *  in 20k-node ranges (--quick: pigs@0.02 in 4000-node ranges). */
struct LargePcRanges
{
    Dag dag;
    SuccessorIndex successors;
    std::vector<uint32_t> dfsPositions;
    std::vector<PartitionRange> ranges;
    std::vector<RangeDecomposition> decs;
};

const LargePcRanges &
largePcRanges()
{
    static const LargePcRanges f = [] {
        LargePcRanges r;
        r.dag = buildWorkloadDag(findWorkload("pigs"), largePcScale());
        r.successors = SuccessorIndex(r.dag);
        r.dfsPositions = dfsPreorderPositions(r.dag, r.successors);
        r.ranges = partitionByCount(r.dag, g_quick ? 4000 : 20000);
        for (const PartitionRange &range : r.ranges)
            r.decs.push_back(decomposeRangeIntoBlocks(
                r.dag, r.successors, largeConfig(), range,
                r.dfsPositions));
        return r;
    }();
    return f;
}

/** The serial prefix of every compile: the successor index, then
 *  the DFS preorder over it, on compile_large_pc's DAG. */
void
BM_DfsPreorder(benchmark::State &state)
{
    const Dag &dag = largePcRanges().dag;
    for (auto _ : state) {
        std::vector<uint32_t> pos =
            dfsPreorderPositions(dag, SuccessorIndex(dag));
        benchmark::DoNotOptimize(pos.data());
    }
    state.SetItemsProcessed(state.iterations() * int64_t(dag.numNodes()));
}
BENCHMARK(BM_DfsPreorder)->Unit(benchmark::kMillisecond);

/** Step 1 alone: every range's block decomposition, serially. */
void
BM_DecomposeRange(benchmark::State &state)
{
    const LargePcRanges &f = largePcRanges();
    for (auto _ : state)
        for (const PartitionRange &range : f.ranges) {
            RangeDecomposition dec = decomposeRangeIntoBlocks(
                f.dag, f.successors, largeConfig(), range, f.dfsPositions);
            benchmark::DoNotOptimize(dec.blocks.data());
        }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(f.dag.numOperations()));
}
BENCHMARK(BM_DecomposeRange)->Unit(benchmark::kMillisecond);

/** Step 2 alone: every range's preparation (with its look-ahead
 *  readers) and boundary-aware bank assignment, chained in range order
 *  as compile() chains them. */
void
BM_AssignBanksRange(benchmark::State &state)
{
    const LargePcRanges &f = largePcRanges();
    std::vector<const RangeDecomposition *> all;
    for (const RangeDecomposition &dec : f.decs)
        all.push_back(&dec);
    std::vector<uint32_t> bank_of;
    for (auto _ : state) {
        bank_of.assign(f.dag.numNodes(), BankAssignment::invalid);
        for (size_t p = 0; p < f.decs.size(); ++p) {
            const RangeDecomposition &dec = f.decs[p];
            const auto later =
                std::span<const RangeDecomposition *const>(all).subspan(p + 1);
            BankAssignment banks = assignBanksForRange(
                f.dag, largeConfig(), dec,
                prepareBanksForRange(f.dag, largeConfig(), dec, later),
                BankPolicy::ConflictAware, 1 + p, &bank_of, later);
            std::copy(banks.bankOf.begin(), banks.bankOf.end(),
                      bank_of.begin() + dec.range.first);
        }
        benchmark::DoNotOptimize(bank_of.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(f.dag.numOperations()));
}
BENCHMARK(BM_AssignBanksRange)->Unit(benchmark::kMillisecond);

void
BM_Simulate(benchmark::State &state)
{
    const auto &prog = benchProgram();
    Rng rng(1);
    std::vector<double> in(benchDag().numInputs());
    for (auto &x : in)
        x = 0.5 + rng.uniform();
    Machine m(prog);
    for (auto _ : state) {
        auto res = m.run(in);
        benchmark::DoNotOptimize(res.outputs.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(prog.instructions.size()));
}
BENCHMARK(BM_Simulate)->Unit(benchmark::kMillisecond);

/** Construct a Machine for `prog` and run it once per iteration. */
void
machineOneShot(benchmark::State &state, const CompiledProgram &prog)
{
    Rng rng(1);
    std::vector<double> in(benchDag().numInputs());
    for (auto &x : in)
        x = 0.5 + rng.uniform();
    for (auto _ : state) {
        auto res = Machine(prog).run(in);
        benchmark::DoNotOptimize(res.outputs.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(prog.instructions.size()));
}

/** Construct a Machine and run it once: what a one-shot
 *  Machine(prog).run(input) costs. Construction resolves registers,
 *  timing and every check, so this keeps that cost measured while
 *  BM_Simulate times only the reused Machine's runs. */
void
BM_MachineOneShot(benchmark::State &state)
{
    machineOneShot(state, benchProgram());
}
BENCHMARK(BM_MachineOneShot)->Unit(benchmark::kMillisecond);

/** BM_MachineOneShot with every data-memory row moved up by 2^15 in a
 *  space of 2^30 rows, as only a crafted image has: the Machine holds
 *  these past the rows it indexes directly and finds them by binary
 *  search. */
void
BM_MachineSparseRows(benchmark::State &state)
{
    CompiledProgram prog = benchProgram();
    const uint32_t by = 1u << 15; // store_4 rows are 16 bits
    prog.numRows = 1u << 30;
    for (auto &loc : prog.inputLocation)
        loc.first += by;
    for (auto &o : prog.outputs)
        o.row += by;
    Program &code = prog.instructions;
    for (size_t i = 0; i < code.size(); ++i)
        if (code[i].kind >= InstrKind::Load &&
            code[i].kind <= InstrKind::Store4)
            code.setMemRow(i, code[i].memRow + by);
    machineOneShot(state, prog);
}
BENCHMARK(BM_MachineSparseRows)->Unit(benchmark::kMillisecond);

void
BM_EncodeProgram(benchmark::State &state)
{
    const auto &prog = benchProgram();
    for (auto _ : state) {
        auto image = encodeProgram(prog.cfg, prog.instructions);
        benchmark::DoNotOptimize(image.data());
    }
    state.SetBytesProcessed(
        state.iterations() *
        int64_t(programSizeBits(prog.cfg, prog.instructions) / 8));
}
BENCHMARK(BM_EncodeProgram)->Unit(benchmark::kMillisecond);

void
BM_DecodeProgram(benchmark::State &state)
{
    const auto &prog = benchProgram();
    auto image = encodeProgram(prog.cfg, prog.instructions);
    for (auto _ : state) {
        auto back =
            decodeProgram(prog.cfg, image, prog.instructions.size());
        benchmark::DoNotOptimize(back);
    }
    state.SetBytesProcessed(state.iterations() *
                            int64_t(image.size()));
}
BENCHMARK(BM_DecodeProgram)->Unit(benchmark::kMillisecond);

void
BM_VerifyProgram(benchmark::State &state)
{
    const auto &prog = benchProgram();
    for (auto _ : state) {
        VerifyReport report = verifyProgram(prog);
        benchmark::DoNotOptimize(report.diagnostics.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(prog.instructions.size()));
}
BENCHMARK(BM_VerifyProgram)->Unit(benchmark::kMillisecond);

/** Copy a program and free the copy: what a program-cache insert or
 *  a copy out of the cache pays for the program itself. */
void
BM_CopyProgram(benchmark::State &state)
{
    const auto &prog = benchProgram();
    for (auto _ : state) {
        CompiledProgram copy = prog;
        benchmark::DoNotOptimize(&copy);
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(prog.instructions.size()));
}
BENCHMARK(BM_CopyProgram)->Unit(benchmark::kMillisecond);

void
BM_ReferenceEvaluate(benchmark::State &state)
{
    const Dag &d = benchDag();
    Rng rng(2);
    std::vector<double> in(d.numInputs());
    for (auto &x : in)
        x = 0.5 + rng.uniform();
    for (auto _ : state) {
        auto v = evaluate(d, in);
        benchmark::DoNotOptimize(v.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(d.numOperations()));
}
BENCHMARK(BM_ReferenceEvaluate)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace dpu

int
main(int argc, char **argv)
{
    // Translate the harness-style flags (see file header), keep the
    // rest for google-benchmark.
    std::vector<std::string> storage;
    storage.reserve(argc + 2);
    storage.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--quick") == 0) {
            dpu::g_quick = true;
        } else if (std::strncmp(a, "--threads=", 10) == 0) {
            if (!dpu::parseUint32Arg(a + 10, dpu::g_threads) ||
                dpu::g_threads < 1) {
                std::fprintf(stderr,
                             "invalid value '%s' for --threads "
                             "(expected an integer >= 1)\n",
                             a + 10);
                return 2;
            }
        } else if (std::strncmp(a, "--json=", 7) == 0) {
            storage.push_back(std::string("--benchmark_out=") +
                              (a + 7));
            storage.push_back("--benchmark_out_format=json");
        } else {
            storage.push_back(a);
        }
    }
    std::vector<char *> args;
    args.reserve(storage.size());
    for (std::string &s : storage)
        args.push_back(s.data());
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
