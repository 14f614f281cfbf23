/**
 * @file
 * serve_latency — the serving-mode bench (paper §V-C2: the deployed
 * cores "execute different DAGs" rather than one benchmarking batch).
 * The first latency-oriented workload in the repo: requests arrive
 * individually at an AsyncBatchServer holding several resident
 * programs, coalesce while their batch could not start (work-
 * conserving cuts: a batch that could start now is cut at once), and
 * the report carries p50/p95/p99 request latency plus throughput for
 * two arrival modes:
 *
 *   - open loop: exponential inter-arrival times at a rate calibrated
 *     to a fraction of measured service capacity (arrival times do
 *     not depend on completions — queueing shows up as tail latency),
 *   - closed loop: a fixed set of concurrent clients, each submitting
 *     its next request only when the previous one completed.
 *
 * Per-request *results* are batching-invariant (see sim/async.hh);
 * only the latency numbers depend on timing, so this report is a host
 * measurement, not a modeled one — except the modeled-GOPS metric
 * folded from the server's batch accounting.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <mutex>
#include <thread>

#include "harness.hh"
#include "model/tech28.hh"
#include "sim/async.hh"
#include "support/rng.hh"

using namespace dpu;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Sorted-vector percentile (nearest-rank). `xs` must be non-empty. */
double
percentile(std::vector<double> xs, double q)
{
    std::sort(xs.begin(), xs.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(xs.size())));
    if (rank == 0)
        rank = 1;
    return xs[std::min(rank, xs.size()) - 1];
}

struct ModeResult
{
    std::vector<double> latencies; ///< Seconds, per request.
    double wallSeconds = 0;
    AsyncBatchServer::Stats stats;
};

/** One workload resident on the serving side. */
struct ResidentWorkload
{
    Dag dag;
    CompiledProgram prog;
    AsyncBatchServer::ProgramHandle handle = 0;
    std::vector<std::vector<double>> inputs; ///< Rotating pool.
};

AsyncServerConfig
serverConfig(uint32_t workers)
{
    AsyncServerConfig cfg;
    cfg.cores = 4; // the paper's deployed system
    cfg.maxBatch = 8;
    cfg.batchWindow = std::chrono::microseconds(200);
    cfg.workers = workers;
    return cfg;
}

/**
 * Drive a seeded Poisson open-loop arrival schedule: `submit(k)` is
 * called at each scheduled arrival on the submitter thread and
 * returns the request's future. Completion is observed by sweeping
 * the outstanding
 * futures (~tens of µs resolution), so tails are honest even when
 * requests finish out of submission order across programs; a failed
 * batch rethrows via get(), so an errored request can never pass as
 * a clean latency sample. Returns per-request latency in seconds;
 * `wall_seconds` covers the first arrival through the last
 * completion.
 */
std::vector<double>
openLoopDrive(size_t n_requests, double arrival_rate_hz, uint64_t seed,
              const std::function<std::future<SimResult>(size_t)> &submit,
              double &wall_seconds)
{
    std::vector<std::future<SimResult>> futures(n_requests);
    std::vector<Clock::time_point> submitted(n_requests);
    // -1 = in flight, >= 0 = latency in seconds.
    std::vector<double> latency(n_requests, -1.0);
    std::atomic<size_t> n_submitted{0};

    Clock::time_point start = Clock::now();
    std::thread submitter([&] {
        Rng rng(seed);
        double t_next = 0; // scheduled arrival offset in seconds
        for (size_t k = 0; k < n_requests; ++k) {
            // Exponential inter-arrival gap for a Poisson process.
            t_next += -std::log(1.0 - rng.uniform()) / arrival_rate_hz;
            for (;;) {
                double dt = t_next - secondsSince(start);
                if (dt <= 0)
                    break;
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(dt));
            }
            submitted[k] = Clock::now();
            futures[k] = submit(k);
            n_submitted.store(k + 1, std::memory_order_release);
        }
    });

    // Completion sweep over the unrecorded futures.
    for (;;) {
        size_t hi = n_submitted.load(std::memory_order_acquire);
        bool progressed = false;
        size_t resolved = 0;
        for (size_t k = 0; k < hi; ++k) {
            if (latency[k] == -1.0 &&
                futures[k].wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                latency[k] = std::chrono::duration<double>(
                                 Clock::now() - submitted[k])
                                 .count();
                futures[k].get(); // rethrow a failed batch
                progressed = true;
            }
            if (latency[k] != -1.0)
                ++resolved;
        }
        if (hi == n_requests && resolved == n_requests)
            break;
        if (!progressed)
            std::this_thread::sleep_for(
                std::chrono::microseconds(20));
    }
    submitter.join();
    wall_seconds = secondsSince(start);
    return latency;
}

/** Open loop: uniform program rotation, every request accepted
 *  (unbounded queue). */
ModeResult
runOpenLoop(std::vector<ResidentWorkload> &wl, uint32_t workers,
            size_t n_requests, double arrival_rate_hz)
{
    ModeResult out;
    AsyncBatchServer server(serverConfig(workers));
    for (auto &w : wl)
        w.handle = server.addProgram(w.prog);

    out.latencies = openLoopDrive(
        n_requests, arrival_rate_hz, 2201,
        [&](size_t k) {
            ResidentWorkload &w = wl[k % wl.size()];
            const auto &input = w.inputs[(k / wl.size()) %
                                         w.inputs.size()];
            return server.submit(w.handle, input);
        },
        out.wallSeconds);
    server.drain();
    out.stats = server.stats();
    return out;
}

/** Closed loop: `clients` threads, each submits its next request only
 *  after the previous completed; latency is exact per request. */
ModeResult
runClosedLoop(std::vector<ResidentWorkload> &wl, uint32_t workers,
              size_t n_requests, size_t clients)
{
    ModeResult out;
    AsyncBatchServer server(serverConfig(workers));
    for (auto &w : wl)
        w.handle = server.addProgram(w.prog);

    std::mutex collect;
    std::vector<double> latencies;
    latencies.reserve(n_requests);

    Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            size_t mine = n_requests / clients +
                          (c < n_requests % clients ? 1 : 0);
            for (size_t k = 0; k < mine; ++k) {
                ResidentWorkload &w = wl[(c + k) % wl.size()];
                const auto &input =
                    w.inputs[(c * 131 + k) % w.inputs.size()];
                Clock::time_point t0 = Clock::now();
                SimResult r = server.submit(w.handle, input).get();
                double lat = std::chrono::duration<double>(
                                 Clock::now() - t0)
                                 .count();
                std::lock_guard<std::mutex> lock(collect);
                latencies.push_back(lat);
                (void)r;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    server.drain();
    out.wallSeconds = secondsSince(start);
    out.latencies = std::move(latencies);
    out.stats = server.stats();
    return out;
}

void
reportMode(bench::Context &ctx, TablePrinter &t, const char *mode,
           const ModeResult &r)
{
    double p50 = percentile(r.latencies, 0.50) * 1e6;
    double p95 = percentile(r.latencies, 0.95) * 1e6;
    double p99 = percentile(r.latencies, 0.99) * 1e6;
    double rps = r.wallSeconds > 0
        ? static_cast<double>(r.latencies.size()) / r.wallSeconds
        : 0.0;
    t.row()
        .cell(mode)
        .num(static_cast<double>(r.latencies.size()), 0)
        .num(rps, 1)
        .num(p50, 1)
        .num(p95, 1)
        .num(p99, 1)
        .num(r.stats.meanBatch(), 2);

    std::string prefix(mode);
    ctx.series(prefix + "_latency_pcts_us", {p50, p95, p99});
    ctx.metric(prefix + "_requests",
               static_cast<double>(r.latencies.size()));
    ctx.metric(prefix + "_rps", rps);
    ctx.metric(prefix + "_p50_us", p50);
    ctx.metric(prefix + "_p95_us", p95);
    ctx.metric(prefix + "_p99_us", p99);
    ctx.metric(prefix + "_mean_batch", r.stats.meanBatch());
    ctx.metric(prefix + "_batches",
               static_cast<double>(r.stats.batches));
    double modeled_gops = r.stats.modeledWallCycles
        ? static_cast<double>(r.stats.totalOperations) /
            (static_cast<double>(r.stats.modeledWallCycles) /
             tech28::frequencyHz) *
            1e-9
        : 0.0;
    ctx.metric(prefix + "_modeled_gops", modeled_gops);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Context ctx(argc, argv, "serve_latency",
                       "§V-C2 serving mode (multi-DAG)", 0.2,
                       "Latency-oriented: individual requests, async "
                       "batching, multiple resident DAGs.");
    uint32_t workers = ctx.threads();

    // Three resident programs — a mixed multi-DAG population, like
    // the paper's deployed cores executing different DAGs.
    const auto suite = smallSuite();
    std::vector<ResidentWorkload> wl(3);
    for (size_t i = 0; i < wl.size(); ++i) {
        CompileOptions opt;
        wl[i].prog = compileWorkload(suite[i], ctx.scale(),
                                     minEdpConfig(), opt, ctx.cache(),
                                     &wl[i].dag);
        for (uint64_t s = 0; s < 8; ++s)
            wl[i].inputs.push_back(
                bench::randomInputs(wl[i].dag, 2100 + 10 * i + s));
        std::printf("resident[%zu] %-10s %7zu nodes, %6llu cycles\n",
                    i, suite[i].name.c_str(), wl[i].dag.numNodes(),
                    static_cast<unsigned long long>(
                        wl[i].prog.stats.cycles));
    }

    // Calibrate the open-loop arrival rate against measured service
    // capacity: mean sequential service time over a few warm-up runs.
    Clock::time_point cal0 = Clock::now();
    size_t cal_runs = 0;
    for (auto &w : wl)
        for (int k = 0; k < 3; ++k, ++cal_runs)
            Machine(w.prog).run(w.inputs[static_cast<size_t>(k)]);
    double mean_service =
        secondsSince(cal0) / static_cast<double>(cal_runs);
    // Worker threads beyond the physical cores are time-sliced, not
    // extra capacity; offering 0.6 * workers/service on a small host
    // would saturate the open loop and measure pure queueing.
    uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
    double effective_workers = std::min(workers, hw);
    double capacity_rps =
        effective_workers / std::max(mean_service, 1e-7);
    double arrival_rate = 0.6 * capacity_rps; // below saturation
    std::printf("calibration: %.1f us mean service, %.0f rps capacity "
                "(%u workers, %u hw threads) -> open-loop rate "
                "%.0f rps\n\n",
                mean_service * 1e6, capacity_rps, workers, hw,
                arrival_rate);
    ctx.metric("mean_service_us", mean_service * 1e6);

    size_t n_requests = std::max<size_t>(
        48, static_cast<size_t>(600.0 * ctx.scale()));
    size_t clients = std::max<size_t>(2, 2 * workers);

    ModeResult open = runOpenLoop(wl, workers, n_requests, arrival_rate);
    ModeResult closed =
        runClosedLoop(wl, workers, n_requests, clients);

    TablePrinter t({"mode", "requests", "req/s", "p50 us", "p95 us",
                    "p99 us", "mean batch"});
    reportMode(ctx, t, "open", open);
    reportMode(ctx, t, "closed", closed);
    t.print();
    ctx.table(t);
    ctx.metric("resident_programs", static_cast<double>(wl.size()));
    ctx.metric("closed_clients", static_cast<double>(clients));
    ctx.metric("server_workers", workers);

    std::printf("\nOpen loop: %.0f rps offered; batches cut by "
                "size/idle/window/drain = %llu/%llu/%llu/%llu.\n",
                arrival_rate,
                static_cast<unsigned long long>(
                    open.stats.sizeDispatches),
                static_cast<unsigned long long>(
                    open.stats.idleDispatches),
                static_cast<unsigned long long>(
                    open.stats.windowDispatches),
                static_cast<unsigned long long>(
                    open.stats.drainDispatches));
    std::printf("Closed loop: %zu clients; mean batch %.2f (batching "
                "only helps when clients outnumber workers).\n",
                clients, closed.stats.meanBatch());

    return ctx.finish();
}
