#include "sim/fleet.hh"

#include <algorithm>
#include <cmath>
#include <queue>
#include <tuple>
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

/** One (rank, workload) coalescing slot. */
struct Slot
{
    std::vector<uint64_t> arrivals; ///< Arrival cycles, oldest first.
    int64_t wakeAt = -1; ///< Cycle of its live wake event; -1 = none.
};

/** Event kinds, in same-cycle processing order. */
enum EventKind : uint8_t
{
    /** A batch finished on `rank`: its freed cores may let every
     *  pending slot of the rank cut now (the server's completion ->
     *  batcher wake-up). */
    Completion = 0,
    /** Slot (rank, w) asked to be decided again at this cycle. */
    Wake = 1,
};

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
    size_t max_batch = options.maxBatch < 1 ? 1 : options.maxBatch;

    const uint32_t ranks = options.topology.ranks;
    const uint32_t cores = options.topology.coresPerRank;

    // Offered load: arrivals per cycle = load x fleet retire rate.
    double capacity =
        (double)options.topology.totalCores() / mean_run;
    double mean_gap = 1.0 / (options.load * capacity);

    // Per-rank state: a serialized host link, per-core free times,
    // and a running assigned-compute counter (the replicate policy's
    // least-loaded signal — monotone, so placement is deterministic).
    std::vector<uint64_t> link_free(ranks, 0);
    std::vector<std::vector<uint64_t>> core_free(
        ranks, std::vector<uint64_t>(cores, 0));
    std::vector<uint64_t> assigned(ranks, 0);

    FleetSimReport rep;
    rep.perRank.resize(ranks);
    std::vector<std::vector<uint64_t>> latencies(ranks);

    std::vector<Slot> slots((size_t)ranks * mix.size());
    auto slot_at = [&](uint32_t rank, size_t w) -> Slot & {
        return slots[(size_t)rank * mix.size() + w];
    };

    // Completions and wake-ups, processed in cycle order so the host
    // link sees causally ordered dispatches. (cycle, kind, rank, w).
    using Event = std::tuple<uint64_t, EventKind, uint32_t, size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events;

    // The server's cut policy, on the device clock. A worker there is
    // a core here: a rank is idle while one of its cores is free.
    CutPolicy policy;
    policy.maxBatch = max_batch;
    policy.window = (int64_t)std::min<uint64_t>(options.windowCycles,
                                                uint64_t{1} << 62);

    uint64_t horizon = 0;

    // Dispatch a slot's batch at `cut`: the host link serializes the
    // payload, then min(cores, runs) lockstep cores run
    // ceil(runs/granted) programs back to back (BatchMachine's wall
    // clock), and every request in the batch completes together.
    auto dispatch = [&](uint32_t rank, size_t w, uint64_t cut,
                        CutReason reason) {
        Slot &slot = slot_at(rank, w);
        const FleetWorkloadModel &wl = mix[w];
        size_t runs = slot.arrivals.size();

        uint64_t xfer =
            options.transfer.batchCycles(wl.hostBytes, runs);
        uint64_t link_start = std::max(cut, link_free[rank]);
        uint64_t link_done = link_start + xfer;
        link_free[rank] = link_done;

        size_t granted = std::min<size_t>(cores, runs);
        // The `granted` earliest-free cores of the rank, ties to the
        // lowest core id.
        std::vector<uint32_t> order(cores);
        for (uint32_t c = 0; c < cores; ++c)
            order[c] = c;
        std::partial_sort(
            order.begin(), order.begin() + (ptrdiff_t)granted,
            order.end(), [&](uint32_t a, uint32_t b) {
                return std::tie(core_free[rank][a], a) <
                       std::tie(core_free[rank][b], b);
            });
        uint64_t start = link_done;
        for (size_t g = 0; g < granted; ++g)
            start = std::max(start, core_free[rank][order[g]]);
        uint64_t per_core = (runs + granted - 1) / granted;
        uint64_t completion = start + per_core * wl.runCycles;
        for (size_t g = 0; g < granted; ++g)
            core_free[rank][order[g]] = completion;
        events.emplace(completion, Completion, rank, 0);

        FleetRankReport &rs = rep.perRank[rank];
        ++rs.batches;
        rs.requests += runs;
        rs.computeCycles += runs * wl.runCycles;
        rs.transferCycles += xfer;
        for (uint64_t arrival : slot.arrivals)
            latencies[rank].push_back(completion - arrival);
        horizon = std::max(horizon, completion);
        ++rep.cuts[(size_t)reason];

        slot.arrivals.clear();
        slot.wakeAt = -1;
    };

    // Ask the cut policy about slot (rank, w) at `now`: cut it, or
    // schedule the wake-up it names.
    auto decide = [&](uint32_t rank, size_t w, uint64_t now) {
        Slot &slot = slot_at(rank, w);
        if (slot.arrivals.empty())
            return;
        QueueState q;
        q.size = slot.arrivals.size();
        q.oldestArrival = (int64_t)slot.arrivals.front();
        q.idle = std::any_of(core_free[rank].begin(),
                             core_free[rank].end(),
                             [&](uint64_t free) { return free <= now; });
        CutDecision d = decideCut(policy, q, (int64_t)now);
        if (d.cut) {
            dispatch(rank, w, now, d.reason);
        } else if (d.wakeAt != slot.wakeAt) {
            slot.wakeAt = d.wakeAt;
            events.emplace((uint64_t)d.wakeAt, Wake, rank, w);
        }
    };

    auto process_until = [&](uint64_t now) {
        while (!events.empty() && std::get<0>(events.top()) <= now) {
            auto [at, kind, rank, w] = events.top();
            events.pop();
            if (kind == Completion) {
                for (size_t v = 0; v < mix.size(); ++v)
                    decide(rank, v, at);
            } else if (slot_at(rank, w).wakeAt == (int64_t)at) {
                slot_at(rank, w).wakeAt = -1;
                decide(rank, w, at);
            } // else stale: the slot was cut before its wake-up
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

        process_until(now);

        // Placement, as in AsyncBatchServer: affinity pins workload
        // w to its home rank; replicate targets the rank with the
        // least compute assigned so far (ties to the lowest id).
        uint32_t rank;
        if (options.placement == Placement::Affinity) {
            rank = (uint32_t)(w % ranks);
        } else {
            rank = 0;
            for (uint32_t r = 1; r < ranks; ++r)
                if (assigned[r] < assigned[rank])
                    rank = r;
        }
        assigned[rank] += mix[w].runCycles;

        slot_at(rank, w).arrivals.push_back(now);
        decide(rank, w, now);
    }

    // Run out the clock: every pending slot is cut by a completion
    // or its window.
    process_until(UINT64_MAX);

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
