#include "sim/fleet.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <variant>
#include <vector>

#include "sim/batching.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace dpu {

namespace {

/** Nearest-rank percentile over an unsorted latency sample. */
double
percentileCycles(std::vector<uint64_t> &lat, double q)
{
    if (lat.empty())
        return 0;
    size_t k = (size_t)((double)(lat.size() - 1) * q + 0.5);
    if (k >= lat.size())
        k = lat.size() - 1;
    std::nth_element(lat.begin(),
                     lat.begin() + (ptrdiff_t)k, lat.end());
    return (double)lat[(size_t)k];
}

} // namespace

FleetSimReport
simulateFleet(const FleetSimOptions &options,
              const std::vector<FleetWorkloadModel> &mix)
{
    options.topology.check();
    dpu_assert(!mix.empty(), "fleet mix needs at least one workload");
    double total_weight = 0;
    double mean_run = 0;
    for (const FleetWorkloadModel &w : mix) {
        dpu_assert(w.runCycles >= 1,
                   "fleet workload needs runCycles >= 1");
        dpu_assert(w.weight > 0, "fleet workload weight must be > 0");
        total_weight += w.weight;
        mean_run += w.weight * (double)w.runCycles;
    }
    mean_run /= total_weight;
    dpu_assert(options.load > 0, "fleet load must be > 0");
    dpu_assert(options.requests >= 1, "fleet needs >= 1 request");

    const uint32_t ranks = options.topology.ranks;
    const uint32_t cores = options.topology.coresPerRank;

    // Offered load: arrivals per cycle = load x fleet retire rate.
    double capacity =
        (double)options.topology.totalCores() / mean_run;
    double mean_gap = 1.0 / (options.load * capacity);

    // The serving core on the device clock. Workload w is program w;
    // the fleet carries no payload, deadline or core reservation.
    using Scheduler = BatchScheduler<std::monostate>;
    Scheduler sched(
        ranks, cores,
        CutPolicy{options.maxBatch, (int64_t)std::min<uint64_t>(
                                 options.windowCycles, uint64_t{1} << 62)});
    for (size_t w = 0; w < mix.size(); ++w)
        sched.addProgram(0, 0, options.placement);

    FleetSimReport rep;
    rep.perRank.resize(ranks);
    std::vector<std::vector<uint64_t>> latencies(ranks);
    std::vector<uint64_t> link_free(ranks, 0); ///< Serialized host link.
    // Started batches' cores, by completion cycle (equal cycles in
    // start order).
    std::multimap<uint64_t, std::vector<uint32_t>> running;
    std::optional<int64_t> wake; ///< The scheduler's next cut time.
    uint64_t horizon = 0;

    // One tick: release what completes, cut, and start every batch
    // that can get a core. The host link serializes a batch's
    // payload, then its granted cores run ceil(runs/granted) programs
    // back to back in lockstep (BatchMachine's wall clock), and every
    // request in the batch completes together.
    auto step = [&](uint64_t now) {
        while (!running.empty() && running.begin()->first <= now) {
            sched.release(running.begin()->second);
            running.erase(running.begin());
        }
        // No host threads: a worker is always available.
        wake = sched.cut((int64_t)now, UINT64_MAX, false,
                         [](uint32_t, size_t) { return int64_t{0}; });
        while (std::optional<Scheduler::Batch> b = sched.start()) {
            const FleetWorkloadModel &wl = mix[b->program];
            size_t runs = b->requests.size();
            uint64_t xfer =
                options.transfer.batchCycles(wl.hostBytes, runs);
            uint64_t link_done = std::max(now, link_free[b->rank]) + xfer;
            link_free[b->rank] = link_done;
            size_t granted = b->cores.size();
            uint64_t completion =
                link_done + (runs + granted - 1) / granted * wl.runCycles;
            running.emplace(completion, std::move(b->cores));

            FleetRankReport &rs = rep.perRank[b->rank];
            ++rs.batches;
            rs.requests += runs;
            rs.computeCycles += runs * wl.runCycles;
            rs.transferCycles += xfer;
            for (const Scheduler::Request &rq : b->requests)
                latencies[b->rank].push_back(completion -
                                             (uint64_t)rq.arrival);
            horizon = std::max(horizon, completion);
        }
    };

    // Step through every completion and wake-up before `until`.
    auto advance = [&](uint64_t until) {
        for (;;) {
            uint64_t next = running.empty() ? UINT64_MAX
                                            : running.begin()->first;
            if (wake)
                next = std::min(next, (uint64_t)*wake);
            if (next >= until)
                return;
            step(next);
        }
    };

    // The seeded open loop, replayed in virtual cycle time.
    Rng rng(options.seed);
    double now_f = 0;
    for (uint64_t n = 0; n < options.requests; ++n) {
        now_f += -std::log(1.0 - rng.uniform()) * mean_gap;
        uint64_t now = (uint64_t)now_f;

        // Weighted workload pick.
        double u = rng.uniform() * total_weight;
        size_t w = 0;
        for (; w + 1 < mix.size(); ++w) {
            u -= mix[w].weight;
            if (u <= 0)
                break;
        }

        advance(now);
        Scheduler::Request rq;
        rq.arrival = (int64_t)now;
        sched.enqueue((uint32_t)w, Priority::Batch, rq);
        step(now);
    }

    // Run out the clock: every queue is cut by a freed core or its
    // window, and every batch completes.
    advance(UINT64_MAX);
    rep.cuts = sched.cuts();

    // Fold the report.
    std::vector<uint64_t> all;
    all.reserve(options.requests);
    for (uint32_t r = 0; r < ranks; ++r) {
        FleetRankReport &rs = rep.perRank[r];
        rep.requests += rs.requests;
        rep.batches += rs.batches;
        rep.computeCycles += rs.computeCycles;
        rep.transferCycles += rs.transferCycles;
        uint64_t busy = rs.computeCycles + rs.transferCycles;
        rs.utilization = horizon
            ? (double)rs.computeCycles / ((double)cores * horizon)
            : 0;
        rs.transferOverhead =
            busy ? (double)rs.transferCycles / (double)busy : 0;
        rs.p50Cycles = percentileCycles(latencies[r], 0.50);
        rs.p95Cycles = percentileCycles(latencies[r], 0.95);
        rs.p99Cycles = percentileCycles(latencies[r], 0.99);
        all.insert(all.end(), latencies[r].begin(),
                   latencies[r].end());
    }
    rep.horizonCycles = horizon;
    rep.meanBatch =
        rep.batches ? (double)rep.requests / (double)rep.batches : 0;
    uint64_t fleet_busy = rep.computeCycles + rep.transferCycles;
    rep.transferOverhead = fleet_busy
        ? (double)rep.transferCycles / (double)fleet_busy
        : 0;
    rep.p50Cycles = percentileCycles(all, 0.50);
    rep.p95Cycles = percentileCycles(all, 0.95);
    rep.p99Cycles = percentileCycles(all, 0.99);
    return rep;
}

} // namespace dpu
