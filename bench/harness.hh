/**
 * @file
 * The bench harness: every bench binary regenerates one table or
 * figure of the paper (see the per-experiment index in each file's
 * header) and goes through this harness for
 *
 *   - a uniform command line: --scale=<f> --full --quick
 *     --json=<file> --threads=N,
 *   - the human-readable banner + aligned tables (support/table.hh),
 *   - machine-readable JSON output consumed by tools/run_benches,
 *     which writes the BENCH_*.json perf-trajectory files,
 *   - the registry that tells tools/run_benches which bench binaries
 *     exist and how they map to paper elements.
 *
 * Library headers are included src-relative ("sim/machine.hh");
 * bench binaries include this header file-relative ("harness.hh").
 * Those are the only two include styles in the tree — the build adds
 * no other include roots, so a third style cannot silently appear.
 */

#ifndef DPU_BENCH_HARNESS_HH
#define DPU_BENCH_HARNESS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/topology.hh"
#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "model/energy.hh"
#include "sim/machine.hh"
#include "support/table.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace bench {

// ---------------------------------------------------------------- //
// Workload helpers (shared by most benches).                       //
// ---------------------------------------------------------------- //

/** Everything one workload run produces. */
struct RunResult
{
    CompiledProgram program;
    SimResult sim;
    EnergyBreakdown energy;
};

/** Deterministic inputs in the well-conditioned band. */
std::vector<double> randomInputs(const Dag &dag, uint64_t seed);

/** Compile + simulate (with functional check) + evaluate energy.
 *  When `cache` is given the compile goes through it (see
 *  Context::cache()), so identical (DAG, config, options) pairs are
 *  compiled once per cache — or once per bench *sweep* with the
 *  on-disk spill tools/run_benches sets up. */
RunResult runWorkload(const Dag &dag, const ArchConfig &cfg,
                      const CompileOptions &opt = {},
                      uint64_t seed = 1, ProgramCache *cache = nullptr);

// ---------------------------------------------------------------- //
// Registry.                                                        //
// ---------------------------------------------------------------- //

/** Static description of one bench scenario. Most entries are one
 *  binary run with the uniform flags; a scenario entry reuses another
 *  entry's binary with extra flags (e.g. the fleet serve_latency
 *  sweep). */
struct BenchInfo
{
    const char *name;         ///< Scenario name and JSON file stem.
    const char *paperElement; ///< Figure/table it regenerates.
    double defaultScale;      ///< Workload scale with no flags.
    const char *extraFlags = ""; ///< Space-separated scenario flags.
    const char *binary = nullptr; ///< Binary name; nullptr = `name`.
};

/** Every harness-driven bench binary, in paper order. */
const std::vector<BenchInfo> &benchRegistry();

/** Look a bench up by name; nullptr when unknown. */
const BenchInfo *findBench(const std::string &name);

// ---------------------------------------------------------------- //
// Uniform CLI.                                                     //
// ---------------------------------------------------------------- //

/** Parsed uniform bench command line. */
struct Options
{
    double scale = 1.0;    ///< Workload scale (--scale=f / --full).
    bool quick = false;    ///< --quick: smoke-test sizes.
    bool full = false;     ///< --full: paper-size workloads.
    uint32_t threads = 1;  ///< --threads=N: host worker threads.
    std::string jsonPath;  ///< --json=<file>: write a JSON report.
    std::string cacheDir;  ///< --cache-dir=<dir>: on-disk spill.
    bool noCache = false;  ///< --no-cache: disable the program cache.

    /** Fleet flags, honored by the benches that model a fleet
     *  (serve_latency); others accept and ignore them. The defaults
     *  (--ranks=1 --xfer-gbps=inf) reproduce pre-fleet behavior
     *  byte-identically. */
    uint32_t ranks = 1;        ///< --ranks=N: modeled ranks.
    double xferGbps =          ///< --xfer-gbps=<v|inf>: host link.
        std::numeric_limits<double>::infinity();
    Placement placement =      ///< --placement=<replicate|affinity>.
        Placement::Replicate;

    /** Real-matrix flags: each --matrix=<file.mtx> appends one path
     *  (must be readable at parse time, exit 2 otherwise) and
     *  --matrix-dir=<dir> appends every `*.mtx` directly under the
     *  directory, sorted (exit 2 when none are found). Honored by
     *  table1_workloads / fig14a_throughput / table3_comparison;
     *  others accept and ignore them. */
    std::vector<std::string> matrixPaths;
};

/**
 * Parse `--scale=<f> --full --quick --json=<file> --threads=N
 * --cache-dir=<dir> --no-cache --ranks=N --xfer-gbps=<v|inf>
 * --placement=<policy>`. `--quick` divides the default scale by 10
 * unless an explicit `--scale`/`--full` overrides it. Unknown flags
 * are fatal (exit 1) so CI catches typos; invalid values
 * (`--threads=0`, `--threads=abc`, `--scale=x`, `--ranks=0`,
 * `--xfer-gbps=junk`, `--placement=bogus`) are rejected with exit 2
 * instead of being silently clamped.
 */
Options parseOptions(int argc, char **argv, double default_scale);

/** One file-backed WorkloadSpec per --matrix/--matrix-dir path, in
 *  flag order (fatals on malformed matrix content — readability was
 *  already checked at parse time). */
std::vector<WorkloadSpec> matrixWorkloads(const Options &opts);

// ---------------------------------------------------------------- //
// Per-bench context: banner in, JSON report out.                   //
// ---------------------------------------------------------------- //

/**
 * One per bench main(). Parses the uniform CLI, prints the banner,
 * accumulates tables/metrics, and writes the JSON report on
 * finish(). Typical shape:
 *
 *     bench::Context ctx(argc, argv, "fig10_bank_conflicts",
 *                        "Figure 10(b)");
 *     ...
 *     t.print();
 *     ctx.table(t);
 *     ctx.metric("reduction_x", reduction);
 *     return ctx.finish();
 */
class Context
{
  public:
    Context(int argc, char **argv, const std::string &name,
            const std::string &paper_element,
            double default_scale = 1.0, const std::string &note = "");

    double scale() const { return opts.scale; }
    uint32_t threads() const { return opts.threads; }
    bool quick() const { return opts.quick; }
    const Options &options() const { return opts; }

    /** The bench's program cache (in-memory LRU, plus the on-disk
     *  spill when --cache-dir was given); nullptr with --no-cache.
     *  finish() records its hit/miss counters as metrics. */
    ProgramCache *cache() { return programCache.get(); }

    /** Record a table for the JSON report (print it yourself). */
    void table(const TablePrinter &t, const std::string &label = "main");

    /** Record one headline number for the perf trajectory. */
    void metric(const std::string &key, double value);

    /**
     * Record a typed numeric series (name -> vector of numbers) for
     * the JSON report. Unlike table(), which carries formatted
     * strings, series land as real JSON number arrays under a
     * top-level "series" object — the machine-readable form trend
     * tooling consumes (e.g. serve_latency's per-class latency
     * percentiles). The "series" object is always emitted, possibly
     * empty, so tools/run_benches can require its presence.
     */
    void series(const std::string &name,
                const std::vector<double> &values);

    /** Record a free-form string annotation. */
    void note(const std::string &key, const std::string &value);

    /**
     * Write the JSON report when --json was given. Returns the
     * process exit code (0, or 1 when the report cannot be written).
     */
    int finish();

  private:
    struct NamedTable
    {
        std::string label;
        std::vector<std::string> columns;
        std::vector<std::vector<std::string>> rows;
    };

    std::string name;
    std::string paperElement;
    Options opts;
    std::unique_ptr<ProgramCache> programCache;
    std::vector<NamedTable> tables;
    std::vector<std::pair<std::string, double>> metrics;
    std::vector<std::pair<std::string, std::string>> notes;
    std::vector<std::pair<std::string, std::vector<double>>> seriesData;
};

// ---------------------------------------------------------------- //
// Host-parallelism + JSON utilities.                               //
// ---------------------------------------------------------------- //

/**
 * Run fn(0..n-1) on up to `threads` std::thread workers (dynamic
 * work stealing over an atomic index; the iteration space is
 * partitioned, never replicated). With threads <= 1 this is a plain
 * loop. The first exception thrown by any worker is rethrown on the
 * caller after all workers joined.
 */
void parallelFor(size_t n, uint32_t threads,
                 const std::function<void(size_t)> &fn);

/**
 * The shared batch-simulation measurement of the batch throughput
 * benches (fig14a/fig14b): run `inputs` through a BatchMachine with
 * `cores` model cores and ctx.threads() host workers, print the
 * modeled GOPS + host wall time, and record the batch_modeled_gops /
 * batch_host_seconds / batch_host_threads metrics. The modeled
 * numbers are thread-count-independent; only the host seconds drop
 * as --threads grows.
 */
void batchSimReport(Context &ctx, const CompiledProgram &prog,
                    const std::vector<std::vector<double>> &inputs,
                    uint32_t cores);

/**
 * Minimal JSON well-formedness check (objects/arrays/strings/
 * numbers/bools/null, full nesting). Used by tools/run_benches and
 * the CI smoke job to validate BENCH_*.json files.
 */
bool validJson(const std::string &text, std::string *error = nullptr);

/** validJson() over a file's contents; false when unreadable. */
bool validJsonFile(const std::string &path,
                   std::string *error = nullptr);

/**
 * True when `text` is a JSON object carrying `key` at its top level.
 * Structure-aware (string/escape/nesting state), so the key name
 * appearing inside a nested object or a string *value* does not
 * count — the check tools/run_benches uses to require the "series"
 * object in every harness report.
 */
bool jsonTopLevelKey(const std::string &text, const std::string &key);

} // namespace bench
} // namespace dpu

#endif // DPU_BENCH_HARNESS_HH
