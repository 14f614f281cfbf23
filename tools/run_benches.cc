/**
 * @file
 * run_benches — drives every registered bench binary (see
 * bench/harness.cc's registry) with the uniform CLI and collects
 * machine-readable reports:
 *
 *     run_benches [--quick|--full] [--threads=N] [--only=<substr>]
 *                 [--outdir=<dir>] [--bindir=<dir>]
 *                 [--cache-dir=<dir>] [--no-cache] [--list]
 *                 [--matrix=<file.mtx>] [--matrix-dir=<dir>]
 *
 * For each bench `foo` it runs `<bindir>/foo [flags] --json=
 * <outdir>/BENCH_foo.json`, then validates that the report parses as
 * JSON. Unless --no-cache is given, every bench also receives
 * --cache-dir=<outdir>/progcache (or the --cache-dir override), so
 * identical compiles are shared across the whole sweep instead of
 * being redone once per bench binary.
 *
 * The google-benchmark `micro_benchmarks` binary is not
 * harness-driven; when it was built, the driver appends it to the
 * sweep via its native report flags (--benchmark_out=<file>
 * --benchmark_out_format=json) and validates the google-benchmark
 * JSON shape ("context" + "benchmarks"). It is skipped quietly when
 * the library was not available at build time.
 *
 * <bindir> defaults to the bench/ directory next to this binary's
 * own location (the build-tree layout); <outdir> defaults to the
 * current directory. Exit code is the number of failed benches
 * (capped at 125).
 *
 * A checked-in wrapper script at tools/run_benches lets this be
 * invoked from the repo root as `tools/run_benches --quick` once the
 * tree is built into ./build.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hh"
#include "support/cli.hh"
#include "support/table.hh"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace dpu;

namespace {

struct DriverArgs
{
    bool quick = false;
    bool full = false;
    bool list = false;
    bool noCache = false;
    uint32_t threads = 1;
    std::string only;
    std::string outdir = ".";
    std::string bindir;
    std::string cacheDir; ///< Default: <outdir>/progcache.

    // Real-matrix passthrough: validated here (readable file /
    // directory with .mtx files), forwarded to every bench; the
    // matrix-aware benches must then report the real-matrix series.
    std::vector<std::string> matrixPaths;
};

bool
parseDriverArgs(int argc, char **argv, DriverArgs &args)
{
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--quick") == 0)
            args.quick = true;
        else if (std::strcmp(a, "--full") == 0)
            args.full = true;
        else if (std::strcmp(a, "--list") == 0)
            args.list = true;
        else if (std::strncmp(a, "--threads=", 10) == 0) {
            if (!parseUint32Arg(a + 10, args.threads) ||
                args.threads < 1) {
                std::fprintf(stderr,
                             "run_benches: invalid value '%s' for "
                             "--threads (expected an integer >= 1)\n",
                             a + 10);
                return false;
            }
        } else if (std::strncmp(a, "--only=", 7) == 0)
            args.only = a + 7;
        else if (std::strncmp(a, "--outdir=", 9) == 0)
            args.outdir = a + 9;
        else if (std::strncmp(a, "--bindir=", 9) == 0)
            args.bindir = a + 9;
        else if (std::strncmp(a, "--cache-dir=", 12) == 0)
            args.cacheDir = a + 12;
        else if (std::strcmp(a, "--no-cache") == 0)
            args.noCache = true;
        else if (std::strncmp(a, "--matrix=", 9) == 0) {
            if (a[9] == '\0' || !std::ifstream(a + 9).good()) {
                std::fprintf(stderr,
                             "run_benches: invalid value '%s' for "
                             "--matrix (expected a readable .mtx "
                             "file)\n",
                             a + 9);
                return false;
            }
            args.matrixPaths.emplace_back(a + 9);
        } else if (std::strncmp(a, "--matrix-dir=", 13) == 0) {
            std::vector<std::string> found =
                discoverMatrixFiles(a + 13);
            if (found.empty()) {
                std::fprintf(stderr,
                             "run_benches: invalid value '%s' for "
                             "--matrix-dir (expected a directory "
                             "containing .mtx files)\n",
                             a + 13);
                return false;
            }
            args.matrixPaths.insert(args.matrixPaths.end(),
                                    found.begin(), found.end());
        } else {
            std::fprintf(stderr,
                         "run_benches: unknown option '%s'\n"
                         "usage: run_benches [--quick|--full] "
                         "[--threads=N] [--only=<substr>] "
                         "[--outdir=<dir>] [--bindir=<dir>] "
                         "[--cache-dir=<dir>] [--no-cache] "
                         "[--matrix=<file.mtx>] [--matrix-dir=<dir>] "
                         "[--list]\n",
                         a);
            return false;
        }
    }
    // --matrix and --matrix-dir may overlap (a file inside the
    // discovered directory); forward each matrix to the benches once,
    // keeping first-occurrence order.
    std::vector<std::string> unique;
    std::vector<std::string> canon;
    for (const std::string &p : args.matrixPaths) {
        std::error_code ec;
        auto c = std::filesystem::weakly_canonical(p, ec);
        std::string key = ec ? p : c.string();
        if (std::find(canon.begin(), canon.end(), key) != canon.end())
            continue;
        canon.push_back(std::move(key));
        unique.push_back(p);
    }
    args.matrixPaths = std::move(unique);
    return true;
}

/** Directory holding this binary, from argv[0] / /proc/self/exe. */
std::string
selfDirectory(const char *argv0)
{
#if defined(__linux__)
    char buf[4096];
    ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        std::string path(buf);
        size_t slash = path.rfind('/');
        if (slash != std::string::npos)
            return path.substr(0, slash);
    }
#endif
    std::string path(argv0 ? argv0 : "");
    size_t slash = path.rfind('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

/** Shell-quote one argument (single quotes, POSIX). */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    DriverArgs args;
    if (!parseDriverArgs(argc, argv, args))
        return 125;
    if (args.bindir.empty())
        args.bindir = selfDirectory(argv[0]) + "/../bench";

    if (args.list) {
        TablePrinter t({"bench", "paper element", "default scale"});
        for (const auto &b : bench::benchRegistry())
            t.row().cell(b.name).cell(b.paperElement)
                .num(b.defaultScale, 2);
        t.print();
        return 0;
    }

    std::printf("run_benches: %zu registered benches, bindir=%s, "
                "outdir=%s%s%s\n\n",
                bench::benchRegistry().size(), args.bindir.c_str(),
                args.outdir.c_str(),
                args.quick ? ", --quick" : args.full ? ", --full" : "",
                args.noCache ? ", cache off" : "");

    std::string cache_dir =
        args.noCache ? std::string()
                     : (args.cacheDir.empty() ? args.outdir + "/progcache"
                                              : args.cacheDir);
    // Probe the shared spill directory once up front: on a read-only
    // FS (or a --cache-dir typo) the sweep must keep going with
    // per-bench in-memory caches instead of every bench failing or
    // warning on its own.
    if (!cache_dir.empty() &&
        !ensureWritableDirectory(cache_dir)) {
        std::fprintf(stderr,
                     "run_benches: cache dir '%s' is not writable; "
                     "continuing with per-bench in-memory caches\n",
                     cache_dir.c_str());
        cache_dir.clear();
    }

    // Runs one bench command and validates its JSON report with
    // `validate`; returns the summary status string.
    auto run_one = [&](const std::string &cmd, const std::string &report,
                       auto &&validate) {
        std::printf("--- %s\n", cmd.c_str());
        std::fflush(stdout);
        int rc = std::system(cmd.c_str());
        if (rc != 0) {
            // std::system returns a wait status; decode it.
#if defined(WIFEXITED)
            if (WIFEXITED(rc))
                return "FAILED (exit " +
                       std::to_string(WEXITSTATUS(rc)) + ")";
            if (WIFSIGNALED(rc))
                return "FAILED (signal " +
                       std::to_string(WTERMSIG(rc)) + ")";
#endif
            return "FAILED (status " + std::to_string(rc) + ")";
        }
        return validate(report);
    };
    auto validate_harness_json = [](const std::string &report) {
        std::ifstream in(report);
        if (!in)
            return "BAD JSON (cannot open " + report + ")";
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string text = buf.str();
        std::string error;
        if (!bench::validJson(text, &error))
            return "BAD JSON (" + error + ")";
        // Every harness report must carry the typed-series object
        // (possibly empty) — the machine-readable channel trend
        // tooling consumes; its absence means the bench bypassed
        // Context::finish() or predates the series format.
        if (!bench::jsonTopLevelKey(text, "series"))
            return std::string("BAD JSON (missing \"series\" object)");
        return std::string("ok");
    };

    int failures = 0;
    int ran = 0;
    TablePrinter summary({"bench", "status", "report"});
    for (const auto &b : bench::benchRegistry()) {
        if (!args.only.empty() &&
            std::string(b.name).find(args.only) == std::string::npos)
            continue;
        ++ran;
        std::string report =
            args.outdir + "/BENCH_" + b.name + ".json";
        std::string cmd = shellQuote(args.bindir + "/" + b.name);
        if (args.quick)
            cmd += " --quick";
        if (args.full)
            cmd += " --full";
        if (args.threads > 1)
            cmd += " --threads=" + std::to_string(args.threads);
        if (args.noCache)
            cmd += " --no-cache"; // also disables in-process caches
        else if (!cache_dir.empty()) // empty: unwritable, in-memory
            cmd += " --cache-dir=" + shellQuote(cache_dir);
        for (const std::string &m : args.matrixPaths)
            cmd += " --matrix=" + shellQuote(m);
        cmd += " --json=" + shellQuote(report);

        bool require_mapper_series =
            std::strcmp(b.name, "ablation_mapper") == 0;
        // Real-matrix runs must carry the typed real-matrix series in
        // the matrix-aware benches: the workload-table node counts,
        // the batched multi-RHS throughput, and the measured CPU
        // sparse baseline.
        const char *matrix_series = nullptr;
        if (!args.matrixPaths.empty()) {
            if (std::strcmp(b.name, "table1_workloads") == 0)
                matrix_series = "\"real_matrix_nodes\"";
            else if (std::strcmp(b.name, "fig14a_throughput") == 0)
                matrix_series = "\"real_matrix_multi_rhs_gops\"";
            else if (std::strcmp(b.name, "table3_comparison") == 0)
                matrix_series = "\"real_cpu_sparse_gops\"";
        }

        auto validate = [&](const std::string &rep) {
            std::string status = validate_harness_json(rep);
            if (status != "ok" ||
                (!require_mapper_series && !matrix_series))
                return status;
            std::ifstream in(rep);
            std::ostringstream buf;
            buf << in.rdbuf();
            std::string text = buf.str();
            // The mapper ablation must carry the boundary-mapping
            // and compile-pipeline series the trend tooling tracks.
            if (require_mapper_series &&
                (text.find("\"mapper_boundary_conflicts_oblivious\"") ==
                     std::string::npos ||
                 text.find("\"mapper_boundary_conflicts_aware\"") ==
                     std::string::npos ||
                 text.find("\"compile_pipeline_seconds\"") ==
                     std::string::npos))
                return std::string(
                    "BAD JSON (mapper ablation missing "
                    "mapper_boundary_conflicts_* / "
                    "compile_pipeline_seconds series)");
            if (matrix_series &&
                text.find(matrix_series) == std::string::npos)
                return "BAD JSON (real-matrix run missing " +
                       std::string(matrix_series) + " series)";
            return status;
        };
        std::string status = run_one(cmd, report, validate);
        if (status != "ok")
            ++failures;
        summary.row().cell(b.name).cell(status).cell(report);
        std::printf("\n");
    }

    // google-benchmark micro_benchmarks: driven through its native
    // --benchmark_out report format rather than the harness CLI.
    const char *micro_name = "micro_benchmarks";
    if (args.only.empty() ||
        std::string(micro_name).find(args.only) != std::string::npos) {
        std::string binary = args.bindir + "/" + micro_name;
#if defined(__unix__) || defined(__APPLE__)
        bool built = access(binary.c_str(), X_OK) == 0;
#else
        bool built = true;
#endif
        if (!built) {
            summary.row().cell(micro_name)
                .cell("skipped (not built: google-benchmark missing)")
                .cell("-");
        } else {
            ++ran;
            std::string report =
                args.outdir + "/BENCH_" + micro_name + ".json";
            std::string cmd = shellQuote(binary);
            if (args.quick)
                cmd += " --quick"; // its main() shrinks the fixtures
            if (args.threads > 1)
                cmd += " --threads=" + std::to_string(args.threads);
            cmd += " --benchmark_out=" + shellQuote(report);
            cmd += " --benchmark_out_format=json";

            auto validate_gbench_json = [](const std::string &report) {
                std::string error;
                if (!bench::validJsonFile(report, &error))
                    return "BAD JSON (" + error + ")";
                std::ifstream in(report);
                std::ostringstream buf;
                buf << in.rdbuf();
                std::string text = buf.str();
                // google-benchmark's JSON schema: a "context" object
                // (host info) and a "benchmarks" array of runs.
                if (text.find("\"context\"") == std::string::npos ||
                    text.find("\"benchmarks\"") == std::string::npos)
                    return std::string(
                        "BAD JSON (not google-benchmark output)");
                return std::string("ok");
            };
            std::string status =
                run_one(cmd, report, validate_gbench_json);
            if (status != "ok")
                ++failures;
            summary.row().cell(micro_name).cell(status).cell(report);
            std::printf("\n");
        }
    }

    std::printf("=== run_benches summary ===\n");
    summary.print();
    if (ran == 0) {
        std::fprintf(stderr, "run_benches: no bench matched '%s'\n",
                     args.only.c_str());
        return 125;
    }
    std::printf("%d/%d ok\n", ran - failures, ran);
    return failures > 125 ? 125 : failures;
}
