/**
 * @file
 * Fleet-scale serving model: hundreds of ranks, millions of requests.
 *
 * AsyncBatchServer serves *real* simulations on host threads, which
 * caps how much fleet a test machine can express (every request costs
 * a cycle-accurate Machine run). This model keeps the same serving
 * structure — per-(rank, program) batching windows, placement
 * policies, a serialized host link per rank charged by the
 * HostTransferModel, lockstep cores — but replaces execution with the
 * statically exact per-run cycle counts (the schedule never stalls,
 * so a run's cycles are fixed at compile time). That turns a
 * million-request open loop over hundreds of ranks into arithmetic:
 * seeded Poisson arrivals are replayed in virtual cycle time and the
 * model reports transfer-inclusive latency percentiles, per-rank
 * utilization and transfer overhead.
 *
 * Deterministic by construction: the report is a pure function of
 * (options, workloads) — no wall clock, no host threads.
 */

#ifndef DPU_SIM_FLEET_HH
#define DPU_SIM_FLEET_HH

#include <cstdint>
#include <vector>

#include "arch/topology.hh"

namespace dpu {

/** One resident workload class in the modeled mix. The cycle counts
 *  come from a compiled program (prog.stats.cycles,
 *  hostTransferBytes(prog)) or are synthetic. */
struct FleetWorkloadModel
{
    uint64_t runCycles = 1; ///< Compute cycles of one run (exact).
    uint64_t hostBytes = 0; ///< Host↔rank bytes one run moves.
    double weight = 1.0;    ///< Share of the arrival mix.
};

/** Open-loop scenario knobs. */
struct FleetSimOptions
{
    FleetTopology topology;      ///< ranks x coresPerRank.
    HostTransferModel transfer;  ///< Per-rank host link.
    Placement placement = Placement::Replicate;

    size_t maxBatch = 8;          ///< Cut a batch at this size...
    uint64_t windowCycles = 2048; ///< ...or when the window expires.

    /** Offered load as a fraction of the fleet's aggregate compute
     *  capacity (1.0 = arrivals exactly match what the cores can
     *  retire, ignoring transfer). */
    double load = 0.7;

    uint64_t requests = 100000; ///< Open-loop arrivals to replay.
    uint64_t seed = 1;          ///< Arrival-process seed.
};

/** Per-rank outcome. */
struct FleetRankReport
{
    uint64_t requests = 0;
    uint64_t batches = 0;
    uint64_t computeCycles = 0;  ///< Summed core-busy cycles.
    uint64_t transferCycles = 0; ///< Summed host-link cycles.

    /** Core-busy fraction of (coresPerRank x horizon). */
    double utilization = 0;

    /** transferCycles / (computeCycles + transferCycles). */
    double transferOverhead = 0;

    /** Transfer-inclusive request latency percentiles, in cycles
     *  (arrival to batch completion, host link included). */
    double p50Cycles = 0, p95Cycles = 0, p99Cycles = 0;
};

/** Whole-fleet outcome. */
struct FleetSimReport
{
    uint64_t requests = 0;
    uint64_t batches = 0;
    uint64_t horizonCycles = 0;  ///< Last completion.
    uint64_t computeCycles = 0;  ///< Summed over ranks.
    uint64_t transferCycles = 0; ///< Summed over ranks.

    double meanBatch = 0;        ///< requests / batches.
    double transferOverhead = 0; ///< Fleet-wide transfer share.

    /** Fleet-wide transfer-inclusive latency percentiles (cycles). */
    double p50Cycles = 0, p95Cycles = 0, p99Cycles = 0;

    std::vector<FleetRankReport> perRank; ///< size = topology.ranks.
};

/**
 * Replay a seeded Poisson open loop against the modeled fleet.
 * Placement follows the serving policies: Replicate sends each batch
 * to the least-loaded rank at arrival time, Affinity pins workload k
 * to rank k % ranks. Identical (options, workloads) always produce
 * an identical report.
 */
FleetSimReport simulateFleet(const FleetSimOptions &options,
                             const std::vector<FleetWorkloadModel> &mix);

} // namespace dpu

#endif // DPU_SIM_FLEET_HH
