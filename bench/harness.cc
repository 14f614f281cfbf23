#include "harness.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "model/tech28.hh"
#include "sim/batch.hh"
#include "support/cli.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/rng.hh"

namespace dpu {
namespace bench {

// ---------------------------------------------------------------- //
// Workload helpers.                                                //
// ---------------------------------------------------------------- //

std::vector<double>
randomInputs(const Dag &dag, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> in(dag.numInputs());
    for (double &x : in)
        x = 0.5 + rng.uniform();
    return in;
}

std::vector<WorkloadSpec>
matrixWorkloads(const Options &opts)
{
    std::vector<WorkloadSpec> specs;
    specs.reserve(opts.matrixPaths.size());
    for (const std::string &path : opts.matrixPaths)
        specs.push_back(matrixWorkload(path));
    return specs;
}

RunResult
runWorkload(const Dag &dag, const ArchConfig &cfg,
            const CompileOptions &opt, uint64_t seed,
            ProgramCache *cache)
{
    RunResult r;
    r.program = cache ? cache->compile(dag, cfg, opt)
                      : compile(dag, cfg, opt);
    r.sim = runAndCheck(r.program, dag, randomInputs(dag, seed));
    r.energy = energyOf(cfg, r.sim.stats,
                        r.program.stats.numOperations);
    return r;
}

// ---------------------------------------------------------------- //
// Registry.                                                        //
// ---------------------------------------------------------------- //

const std::vector<BenchInfo> &
benchRegistry()
{
    // Paper order; defaultScale mirrors each bench's historical
    // default. tools/run_benches iterates exactly this list, and
    // bench/CMakeLists.txt builds one binary per entry (plus the
    // google-benchmark micro_benchmarks, which is not harness-driven).
    static const std::vector<BenchInfo> registry = {
        {"fig01_cpu_gpu_throughput", "Figure 1(c)", 1.0},
        {"fig03_peak_utilization", "Figure 3(c)", 1.0},
        {"fig06_interconnect_conflicts", "Figure 6(e)", 1.0},
        {"fig07_instruction_lengths", "Figure 7(a)", 1.0},
        {"fig10_bank_conflicts", "Figure 10(b)", 1.0},
        {"fig10_occupancy", "Figure 10(c,d)", 1.0},
        {"fig11_dse", "Figure 11 (a)-(c)", 0.3},
        {"fig12_pareto", "Figure 12", 0.15},
        {"fig13_instruction_breakdown", "Figure 13", 1.0},
        {"fig14a_throughput", "Figure 14(a) / Table III left", 1.0},
        {"fig14b_large_pc", "Figure 14(b) / Table III right", 0.15},
        {"table1_workloads", "Table I", 0.25},
        {"table2_area_power", "Table II", 0.5},
        {"table3_comparison", "Table III", 0.5},
        {"table4_memory_footprint", "§III-B / §IV-E footprint", 1.0},
        {"ablation_blocks", "ablation E16 (block packing)", 1.0},
        {"ablation_mapper", "ablation E17 (mapper/reorder)", 0.5},
        {"serve_latency", "§V-C2 serving mode (multi-DAG)", 0.2},
    };
    return registry;
}

const BenchInfo *
findBench(const std::string &name)
{
    for (const BenchInfo &b : benchRegistry())
        if (name == b.name)
            return &b;
    return nullptr;
}

// ---------------------------------------------------------------- //
// Uniform CLI.                                                     //
// ---------------------------------------------------------------- //

Options
parseOptions(int argc, char **argv, double default_scale)
{
    Options o;
    bool explicit_scale = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--scale=", 8) == 0) {
            // Strict parse: atof would turn a typo into scale 0 and
            // the bench would quietly run a degenerate workload.
            if (!parseDoubleArg(a + 8, o.scale) || o.scale <= 0) {
                std::fprintf(stderr,
                             "invalid value '%s' for --scale "
                             "(expected a number > 0)\n",
                             a + 8);
                std::exit(2);
            }
            explicit_scale = true;
        } else if (std::strcmp(a, "--full") == 0) {
            o.full = true;
        } else if (std::strcmp(a, "--quick") == 0) {
            o.quick = true;
        } else if (std::strncmp(a, "--json=", 7) == 0) {
            o.jsonPath = a + 7;
        } else if (std::strncmp(a, "--threads=", 10) == 0) {
            if (!parseUint32Arg(a + 10, o.threads) || o.threads < 1) {
                std::fprintf(stderr,
                             "invalid value '%s' for --threads "
                             "(expected an integer >= 1)\n",
                             a + 10);
                std::exit(2);
            }
        } else if (std::strncmp(a, "--cache-dir=", 12) == 0) {
            o.cacheDir = a + 12;
        } else if (std::strcmp(a, "--no-cache") == 0) {
            o.noCache = true;
        } else if (std::strncmp(a, "--matrix=", 9) == 0) {
            const char *path = a + 9;
            if (path[0] == '\0' || !std::ifstream(path).good()) {
                std::fprintf(stderr,
                             "invalid value '%s' for --matrix "
                             "(expected a readable .mtx file)\n",
                             path);
                std::exit(2);
            }
            o.matrixPaths.emplace_back(path);
        } else if (std::strncmp(a, "--matrix-dir=", 13) == 0) {
            std::vector<std::string> found =
                discoverMatrixFiles(a + 13);
            if (found.empty()) {
                std::fprintf(stderr,
                             "invalid value '%s' for --matrix-dir "
                             "(expected a directory containing .mtx "
                             "files)\n",
                             a + 13);
                std::exit(2);
            }
            o.matrixPaths.insert(o.matrixPaths.end(), found.begin(),
                                 found.end());
        } else {
            std::fprintf(stderr,
                         "unknown option '%s'\n"
                         "usage: bench [--scale=<f>] [--full] "
                         "[--quick] [--json=<file>] [--threads=N] "
                         "[--cache-dir=<dir>] [--no-cache] "
                         "[--matrix=<file.mtx>] "
                         "[--matrix-dir=<dir>]\n",
                         a);
            std::exit(1);
        }
    }
    if (!explicit_scale) {
        o.scale = default_scale;
        if (o.full)
            o.scale = 1.0;
        else if (o.quick)
            o.scale = default_scale / 10.0;
    }
    // --matrix and --matrix-dir may name the same file (e.g. a file
    // inside the discovered directory); run each matrix once, keeping
    // first-occurrence order.
    {
        std::vector<std::string> unique;
        std::vector<std::string> canon;
        for (const std::string &p : o.matrixPaths) {
            std::error_code ec;
            auto c = std::filesystem::weakly_canonical(p, ec);
            std::string key = ec ? p : c.string();
            if (std::find(canon.begin(), canon.end(), key) !=
                canon.end())
                continue;
            canon.push_back(std::move(key));
            unique.push_back(p);
        }
        o.matrixPaths = std::move(unique);
    }
    return o;
}

// ---------------------------------------------------------------- //
// Context.                                                         //
// ---------------------------------------------------------------- //

Context::Context(int argc, char **argv, const std::string &name_,
                 const std::string &paper_element,
                 double default_scale, const std::string &note_)
    : name(name_), paperElement(paper_element),
      opts(parseOptions(argc, argv, default_scale))
{
    if (!opts.noCache) {
        ProgramCacheConfig cc;
        cc.diskDir = opts.cacheDir;
        programCache = std::make_unique<ProgramCache>(cc);
    }
    std::printf("=== %s — reproduces %s ===\n", name.c_str(),
                paperElement.c_str());
    if (!note_.empty())
        std::printf("%s\n", note_.c_str());
    if (opts.quick)
        std::printf("(--quick: smoke-test sizes, scale=%g)\n",
                    opts.scale);
    if (!opts.cacheDir.empty()) {
        if (programCache && programCache->diskEnabled())
            std::printf("(program cache spills to %s)\n",
                        opts.cacheDir.c_str());
        else if (programCache)
            std::printf("(cache dir '%s' unwritable; in-memory "
                        "program cache only)\n",
                        opts.cacheDir.c_str());
    }
    std::printf("\n");
}

void
Context::table(const TablePrinter &t, const std::string &label)
{
    tables.push_back({label, t.header(), t.data()});
}

void
Context::metric(const std::string &key, double value)
{
    metrics.emplace_back(key, value);
}

void
Context::note(const std::string &key, const std::string &value)
{
    notes.emplace_back(key, value);
}

void
Context::series(const std::string &name,
                const std::vector<double> &values)
{
    seriesData.emplace_back(name, values);
}

namespace {

/** JSON string escaping (control chars, quotes, backslash). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (unsigned char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

/** Emit a double as a JSON number (JSON has no NaN/Inf). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(12);
    os << v;
    return os.str();
}

} // namespace

int
Context::finish()
{
    if (programCache) {
        ProgramCache::Stats cs = programCache->stats();
        if (cs.hits + cs.diskHits + cs.misses) {
            metric("cache_hits", static_cast<double>(cs.hits));
            metric("cache_disk_hits", static_cast<double>(cs.diskHits));
            metric("cache_misses", static_cast<double>(cs.misses));
        }
    }
    if (opts.jsonPath.empty())
        return 0;

    std::ostringstream os;
    os << "{\n";
    os << "  \"bench\": \"" << jsonEscape(name) << "\",\n";
    os << "  \"paper_element\": \"" << jsonEscape(paperElement)
       << "\",\n";
    os << "  \"scale\": " << jsonNumber(opts.scale) << ",\n";
    os << "  \"quick\": " << (opts.quick ? "true" : "false") << ",\n";
    os << "  \"threads\": " << opts.threads << ",\n";

    os << "  \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(metrics[i].first)
           << "\": " << jsonNumber(metrics[i].second);
    os << "},\n";

    os << "  \"notes\": {";
    for (size_t i = 0; i < notes.size(); ++i)
        os << (i ? ", " : "") << "\"" << jsonEscape(notes[i].first)
           << "\": \"" << jsonEscape(notes[i].second) << "\"";
    os << "},\n";

    // Typed numeric series: always present (run_benches requires the
    // key), values as real JSON numbers rather than table strings.
    os << "  \"series\": {";
    for (size_t i = 0; i < seriesData.size(); ++i) {
        os << (i ? "," : "") << "\n    \""
           << jsonEscape(seriesData[i].first) << "\": [";
        const std::vector<double> &vals = seriesData[i].second;
        for (size_t v = 0; v < vals.size(); ++v)
            os << (v ? ", " : "") << jsonNumber(vals[v]);
        os << "]";
    }
    os << (seriesData.empty() ? "" : "\n  ") << "},\n";

    os << "  \"tables\": [";
    for (size_t t = 0; t < tables.size(); ++t) {
        const NamedTable &nt = tables[t];
        os << (t ? "," : "") << "\n    {\"label\": \""
           << jsonEscape(nt.label) << "\",\n     \"columns\": [";
        for (size_t c = 0; c < nt.columns.size(); ++c)
            os << (c ? ", " : "") << "\"" << jsonEscape(nt.columns[c])
               << "\"";
        os << "],\n     \"rows\": [";
        for (size_t r = 0; r < nt.rows.size(); ++r) {
            os << (r ? ", " : "") << "\n       [";
            for (size_t c = 0; c < nt.rows[r].size(); ++c)
                os << (c ? ", " : "") << "\""
                   << jsonEscape(nt.rows[r][c]) << "\"";
            os << "]";
        }
        os << "]}";
    }
    os << "\n  ]\n}\n";

    std::ofstream out(opts.jsonPath);
    if (!out) {
        std::fprintf(stderr, "%s: cannot write '%s'\n", name.c_str(),
                     opts.jsonPath.c_str());
        return 1;
    }
    out << os.str();
    out.flush();
    if (!out) {
        std::fprintf(stderr, "%s: short write to '%s'\n",
                     name.c_str(), opts.jsonPath.c_str());
        return 1;
    }
    std::printf("wrote %s\n", opts.jsonPath.c_str());
    return 0;
}

// ---------------------------------------------------------------- //
// parallelFor + batch-simulation measurement.                      //
// ---------------------------------------------------------------- //

void
parallelFor(size_t n, uint32_t threads,
            const std::function<void(size_t)> &fn)
{
    dpu::parallelFor(n, threads, fn);
}

void
batchSimReport(Context &ctx, const CompiledProgram &prog,
               const std::vector<std::vector<double>> &inputs,
               uint32_t cores)
{
    BatchMachine bm(prog, cores, prog.stats.numOperations,
                    ctx.threads());
    auto start = std::chrono::steady_clock::now();
    BatchResult br = bm.run(inputs);
    double host_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    std::printf("\nBatch sim: %zu inputs, %u model cores, %u host "
                "threads: %.2f modeled GOPS, %.3fs host "
                "(%.1f sims/s).\n",
                br.runs.size(), cores, ctx.threads(),
                br.throughputGops(tech28::frequencyHz), host_s,
                host_s > 0 ? br.runs.size() / host_s : 0.0);
    ctx.metric("batch_modeled_gops",
               br.throughputGops(tech28::frequencyHz));
    ctx.metric("batch_host_seconds", host_s);
    ctx.metric("batch_host_threads", ctx.threads());
}

// ---------------------------------------------------------------- //
// JSON validation.                                                 //
// ---------------------------------------------------------------- //

namespace {

struct JsonParser
{
    const char *p;
    const char *end;
    std::string error;

    bool
    fail(const std::string &msg)
    {
        if (error.empty())
            error = msg;
        return false;
    }

    void
    skipWs()
    {
        while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' ||
                           *p == '\r'))
            ++p;
    }

    bool
    literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (static_cast<size_t>(end - p) < len ||
            std::strncmp(p, word, len) != 0)
            return fail(std::string("bad literal, expected ") + word);
        p += len;
        return true;
    }

    bool
    string()
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return fail("truncated escape");
                if (*p == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++p;
                        if (p >= end || !std::isxdigit(
                                            static_cast<unsigned char>(*p)))
                            return fail("bad \\u escape");
                    }
                }
            }
            ++p;
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return true;
    }

    bool
    number()
    {
        const char *start = p;
        if (p < end && *p == '-')
            ++p;
        while (p < end && std::isdigit(static_cast<unsigned char>(*p)))
            ++p;
        if (p < end && *p == '.') {
            ++p;
            while (p < end &&
                   std::isdigit(static_cast<unsigned char>(*p)))
                ++p;
        }
        if (p < end && (*p == 'e' || *p == 'E')) {
            ++p;
            if (p < end && (*p == '+' || *p == '-'))
                ++p;
            while (p < end &&
                   std::isdigit(static_cast<unsigned char>(*p)))
                ++p;
        }
        if (p == start || (p == start + 1 && *start == '-'))
            return fail("bad number");
        return true;
    }

    bool
    value()
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
        case '{': return object();
        case '[': return array();
        case '"': return string();
        case 't': return literal("true");
        case 'f': return literal("false");
        case 'n': return literal("null");
        default: return number();
        }
    }

    bool
    object()
    {
        ++p; // '{'
        skipWs();
        if (p < end && *p == '}') {
            ++p;
            return true;
        }
        for (;;) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (p >= end || *p != ':')
                return fail("expected ':' in object");
            ++p;
            if (!value())
                return false;
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    array()
    {
        ++p; // '['
        skipWs();
        if (p < end && *p == ']') {
            ++p;
            return true;
        }
        for (;;) {
            if (!value())
                return false;
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }
};

} // namespace

bool
validJson(const std::string &text, std::string *error)
{
    JsonParser parser{text.data(), text.data() + text.size(), {}};
    bool ok = parser.value();
    if (ok) {
        parser.skipWs();
        if (parser.p != parser.end)
            ok = parser.fail("trailing content after JSON value");
    }
    if (!ok && error)
        *error = parser.error;
    return ok;
}

bool
validJsonFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return validJson(buf.str(), error);
}

bool
jsonTopLevelKey(const std::string &text, const std::string &key)
{
    size_t i = 0;
    const size_t n = text.size();
    auto is_ws = [](char c) {
        return c == ' ' || c == '\t' || c == '\n' || c == '\r';
    };
    while (i < n && is_ws(text[i]))
        ++i;
    if (i >= n || text[i] != '{')
        return false;
    ++i;

    int depth = 1;
    bool expecting_key = true; ///< At depth 1: next string is a key.
    while (i < n && depth > 0) {
        char c = text[i];
        if (is_ws(c)) {
            ++i;
            continue;
        }
        if (c == '"') {
            std::string s;
            ++i;
            while (i < n && text[i] != '"') {
                if (text[i] == '\\' && i + 1 < n)
                    ++i; // keep the escaped char, drop the backslash
                s += text[i];
                ++i;
            }
            if (i >= n)
                return false; // unterminated string
            ++i;              // closing quote
            if (depth == 1 && expecting_key) {
                size_t j = i;
                while (j < n && is_ws(text[j]))
                    ++j;
                if (j < n && text[j] == ':' && s == key)
                    return true;
            }
            continue;
        }
        switch (c) {
        case '{':
        case '[': ++depth; break;
        case '}':
        case ']': --depth; break;
        case ':':
            if (depth == 1)
                expecting_key = false;
            break;
        case ',':
            if (depth == 1)
                expecting_key = true;
            break;
        default: break;
        }
        ++i;
    }
    return false;
}

} // namespace bench
} // namespace dpu
