/**
 * @file
 * Multi-core batch execution (paper §V-C2): DPU-v2 (L) deploys four
 * cores that "can either perform batch execution (used for
 * benchmarking) or execute different DAGs". A BatchMachine runs one
 * compiled program over a batch of input vectors across N model
 * cores and reports aggregate throughput-relevant statistics.
 *
 * The *model* core count sets the round-robin slicing and the wall
 * clock of the simulated machine; independently, the per-input
 * simulations can be spread over a pool of *host* std::thread
 * workers (`threads`). Host threading changes only how fast the
 * simulation itself runs: the program is decoded once, into one
 * Machine that the host threads share (or not at all, when the
 * caller hands over an already-decoded Machine), each input's result lands
 * in its submission-order slot, and the cycle accounting is folded
 * afterwards in that order, so the BatchResult is byte-identical for
 * any thread count.
 */

#ifndef DPU_SIM_BATCH_HH
#define DPU_SIM_BATCH_HH

#include <vector>

#include "sim/machine.hh"

namespace dpu {

/** Aggregate outcome of a batch run. */
struct BatchResult
{
    /** Per-input results, in submission order. */
    std::vector<SimResult> runs;

    /** Wall cycles: cores run in lockstep over round-robin slices. */
    uint64_t wallCycles = 0;

    /** Total operations executed across the batch. */
    uint64_t totalOperations = 0;

    /** Model core ids the batch ran on ({0..n-1} for the count
     *  constructor) and the cycles each accumulated; wallCycles is
     *  the maximum of perCoreCycles. */
    std::vector<uint32_t> coreIds;
    std::vector<uint64_t> perCoreCycles;

    /** Rank the batch was dispatched to (0 unless a RankSet was
     *  used). */
    uint32_t rank = 0;

    /** Host↔rank transfer cycles of this dispatch: one fixed
     *  dispatch cost plus the serialized input/output payload of
     *  every run. Accounted separately from the compute wallCycles;
     *  0 under the default free transfer model. */
    uint64_t transferCycles = 0;

    /** Transfer-inclusive wall clock of the dispatch: the host link
     *  serializes before the cores compute. */
    uint64_t
    totalWallCycles() const
    {
        return wallCycles + transferCycles;
    }

    /** Aggregate throughput at a clock frequency. */
    double
    throughputGops(double frequency_hz) const
    {
        return wallCycles
            ? static_cast<double>(totalOperations) /
                  (static_cast<double>(wallCycles) / frequency_hz) *
                  1e-9
            : 0.0;
    }
};

/** N identical cores executing one program over a batch of inputs. */
class BatchMachine
{
  public:
    /**
     * @param program Compiled program (shared by all cores — the
     *        static-DAG scenario).
     * @param cores Model core count (the paper's large system uses
     *        4); sets the round-robin slicing and the wall clock.
     * @param operations Operations per program execution (for
     *        throughput accounting).
     * @param threads Host worker threads simulating the batch
     *        (default 1 = sequential). Does not affect the result.
     */
    BatchMachine(const CompiledProgram &program, uint32_t cores,
                 uint64_t operations, uint32_t threads = 1);

    /**
     * Core-subset dispatch: run on an explicit set of model cores
     * (per-program core partitioning on the serving side). The set's
     * size plays the role of `cores` above; the ids only label the
     * wall-clock accounting. Per-input SimResults are identical for
     * any core set of the same program.
     */
    BatchMachine(const CompiledProgram &program, CoreSet core_set,
                 uint64_t operations, uint32_t threads = 1);

    /**
     * Fleet dispatch: run on a (rank, cores) target, charging the
     * host↔rank transfer model for the dispatch. Per-input
     * SimResults stay byte-identical to the single-machine path —
     * the transfer cost is batch-level accounting only
     * (BatchResult::transferCycles / totalWallCycles()).
     */
    BatchMachine(const CompiledProgram &program, RankSet rank_set,
                 uint64_t operations, uint32_t threads = 1,
                 HostTransferModel transfer_model = {});

    /**
     * Pre-decoded fleet dispatch: run a copy of an already-decoded
     * Machine (cheap: the decoded code is shared), so a caller that
     * runs one program many times (the serving side keeps one Machine
     * per resident program) decodes it once. The BatchResult is
     * byte-identical to the CompiledProgram form's for a Machine built
     * with the default SimOptions.
     */
    BatchMachine(const Machine &machine, RankSet rank_set,
                 uint64_t operations, uint32_t threads = 1,
                 HostTransferModel transfer_model = {});

    /** Run every input vector; inputs are dealt round-robin. */
    BatchResult run(const std::vector<std::vector<double>> &inputs);

  private:
    Machine machine;
    CoreSet cores;
    uint32_t rank = 0;
    HostTransferModel transfer{};
    uint64_t operations;
    uint32_t threads;
};

} // namespace dpu

#endif // DPU_SIM_BATCH_HH
