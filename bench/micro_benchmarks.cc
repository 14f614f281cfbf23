/**
 * @file
 * Google-benchmark micro-benchmarks of the toolchain itself:
 * compiler throughput (single-threaded and partition-parallel),
 * simulator speed, encode/decode bandwidth. Not a paper figure —
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
#include "compiler/compiler.hh"
#include "dag/eval.hh"
#include "sim/machine.hh"
#include "support/cli.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"

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
        benchmark::DoNotOptimize(prog.instructions.data());
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
        benchmark::DoNotOptimize(prog.instructions.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(d.numOperations()));
    state.counters["threads"] = g_threads;
}
BENCHMARK(BM_CompileParallelPartitions)->Unit(benchmark::kMillisecond);

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
        benchmark::DoNotOptimize(back.data());
    }
    state.SetBytesProcessed(state.iterations() *
                            int64_t(image.size()));
}
BENCHMARK(BM_DecodeProgram)->Unit(benchmark::kMillisecond);

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
