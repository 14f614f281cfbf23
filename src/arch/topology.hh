/**
 * @file
 * Fleet topology and host↔device transfer model.
 *
 * The UPMEM-style stacks the paper targets organize hardware as ranks
 * of accelerators driven by a host CPU, and the host-side serialization
 * of inputs/outputs over the memory link often dominates end-to-end
 * latency. This header describes both: a FleetTopology (how many
 * ranks, how many cores each) and a HostTransferModel that prices
 * every byte and every dispatch crossing the host↔rank boundary.
 *
 * The simulator (Machine, BatchMachine) models one rank's cores and
 * no link. The cost of a dispatch is static, batchCycles() of the
 * program's hostTransferBytes(), so the drivers that model a link
 * (AsyncBatchServer, simulateFleet, the DSE) charge it themselves.
 * The model is expressed in *cycles* (cycles per byte plus a fixed
 * per-dispatch cost) so it stays clock-free; drivers convert a GB/s
 * link rate with fromGbps() using the clock frequency of their
 * technology model. The default-constructed model is free (charges
 * exactly zero cycles), which keeps every pre-fleet result
 * byte-identical.
 */

#ifndef DPU_ARCH_TOPOLOGY_HH
#define DPU_ARCH_TOPOLOGY_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "support/logging.hh"

namespace dpu {

/** A fleet of identical ranks, each with its own core pool. The
 *  default single rank reproduces the pre-fleet machine exactly. */
struct FleetTopology {
    uint32_t ranks = 1;        ///< independent host-driven ranks
    uint32_t coresPerRank = 4; ///< simulator cores per rank

    uint64_t
    totalCores() const
    {
        return (uint64_t)ranks * coresPerRank;
    }

    void
    check() const
    {
        dpu_assert(ranks >= 1, "fleet needs at least one rank");
        dpu_assert(coresPerRank >= 1,
                   "fleet ranks need at least one core");
    }
};

/** Host↔rank transfer cost: a per-byte serialization rate plus a
 *  fixed per-dispatch cost, both in device cycles. The default model
 *  is free and charges exactly 0, preserving pre-fleet results. */
struct HostTransferModel {
    double cyclesPerByte = 0.0;  ///< link serialization cost
    uint64_t dispatchCycles = 0; ///< fixed cost per host dispatch

    /** Build a model from a link rate in GB/s. `gbps` may be
     *  infinity (a free link); `dispatch_ns` is the fixed per-launch
     *  host overhead. `clock_hz` is the device clock used to convert
     *  wall time into cycles. */
    static HostTransferModel
    fromGbps(double gbps, double clock_hz, double dispatch_ns = 0.0)
    {
        dpu_assert(gbps > 0, "transfer rate must be positive");
        dpu_assert(clock_hz > 0, "clock frequency must be positive");
        dpu_assert(dispatch_ns >= 0, "dispatch cost must be >= 0");
        HostTransferModel m;
        if (std::isfinite(gbps))
            m.cyclesPerByte = clock_hz / (gbps * 1e9);
        m.dispatchCycles =
            (uint64_t)std::llround(dispatch_ns * 1e-9 * clock_hz);
        return m;
    }

    /** True when the model charges exactly zero for everything. */
    bool
    free() const
    {
        return cyclesPerByte == 0.0 && dispatchCycles == 0;
    }

    /** Cycles to serialize `bytes` over the link (no dispatch cost). */
    uint64_t
    bytesCycles(uint64_t bytes) const
    {
        if (cyclesPerByte == 0.0)
            return 0;
        return (uint64_t)std::ceil((double)bytes * cyclesPerByte);
    }

    /** Total cycles of one host dispatch moving `runs` runs of
     *  `bytes_per_run` each: one fixed dispatch cost plus the
     *  serialized per-run payloads. Exactly 0 for the free model. */
    uint64_t
    batchCycles(uint64_t bytes_per_run, uint64_t runs) const
    {
        if (free())
            return 0;
        return dispatchCycles + runs * bytesCycles(bytes_per_run);
    }
};

/** How the serving layer places resident programs across ranks. */
enum class Placement : uint8_t {
    Replicate, ///< hot programs: resident on every rank, a batch goes
               ///  to the rank with the fewest busy cores when cut
    Affinity,  ///< cold programs: pinned to one home rank chosen by
               ///  registration order
};

/** Printable placement-policy name. */
inline const char *
placementName(Placement p)
{
    switch (p) {
      case Placement::Replicate: return "replicate";
      case Placement::Affinity: return "affinity";
    }
    return "?";
}

/** Parse a placement-policy name; returns false on junk. */
inline bool
parsePlacementName(const std::string &name, Placement &out)
{
    if (name == "replicate") {
        out = Placement::Replicate;
        return true;
    }
    if (name == "affinity") {
        out = Placement::Affinity;
        return true;
    }
    return false;
}

/** CLI help text for --placement choices. */
inline constexpr const char *kPlacementChoicesHelp =
    "replicate|affinity";

} // namespace dpu

#endif // DPU_ARCH_TOPOLOGY_HH
