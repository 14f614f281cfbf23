/**
 * @file
 * Cycle-accurate DPU-v2 simulator (substitute for the paper's RTL +
 * Synopsys VCS flow; see DESIGN.md).
 *
 * Models, per cycle: instruction issue (one per cycle — the dense
 * packing + aligning shifter of fig. 7 makes fetch stall-free), bank
 * reads with independent addresses, the input crossbar, the PE trees
 * with their D+1-stage pipeline, the restricted output interconnect,
 * automatic write-address generation via per-register valid bits
 * (fig. 5(d)), and the vector load/store path to data memory.
 *
 * The simulator *checks* rather than tolerates hazards: reading a
 * register whose data is still in flight, reading an invalid
 * register, or writing a full bank is a panic — the compiler is
 * required to produce hazard-free code, and the simulator is the
 * instrument that proves it.
 *
 * DPU-v2 has no data-dependent control, and the compiler fixes every
 * register address, so a program's timing, register allocation and
 * legality do not depend on its input values. A Machine therefore
 * simulates the schedule once, at construction: the replay engine of
 * verifyProgram() (sim/replay.hh), under its first-fault policy, walks
 * the program on value ids through the whole model above. What is left
 * is a flat list of the PE adds and muls on value ids. The Machine
 * faults on every verifier error except the lint-only ones: V003, a
 * copy_4 valid_rst that frees nothing (V006), and V040.
 *
 * Machine::run is const and keeps its state local, so one Machine may
 * run many inputs, concurrently from several threads. A run costs one
 * pass over that list plus a copy of the stats. Each add or mul is the
 * same IEEE operation on the same operands as in the cycle-by-cycle
 * model, so the outputs are bitwise those of a cycle-by-cycle run.
 *
 * A check the program fails is found at construction but belongs to
 * the program, so construction does not throw it. Every run() throws
 * it instead, as a PanicError with the same what(), after checking
 * the input count.
 *
 * A Machine is one DPU-v2 core; BatchMachine (sim/batch.hh) runs N of
 * them in lockstep, as the paper's §V-C2 batch mode does. Like the
 * paper, the model stops at the data memory: nothing here, in the
 * server or in the DSE prices moving inputs and outputs to a host.
 */

#ifndef DPU_SIM_MACHINE_HH
#define DPU_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/config.hh"
#include "arch/isa.hh"
#include "compiler/program.hh"

namespace dpu {

/** Event counts accumulated during simulation (feed the energy model). */
struct SimStats
{
    uint64_t cycles = 0;
    std::array<uint64_t, 6> kindCount{}; ///< Issued, by InstrKind.

    uint64_t bankReads = 0;      ///< Register-bank read accesses.
    uint64_t bankWrites = 0;     ///< Register-bank write accesses.
    uint64_t peOperations = 0;   ///< Add/Mul ops executed (incl. replicas).
    uint64_t pePassThroughs = 0; ///< Pass ops executed.
    uint64_t crossbarTransfers = 0; ///< Words moved through the input net.
    uint64_t memReads = 0;       ///< Data-memory row reads.
    uint64_t memWrites = 0;      ///< Data-memory row writes.
    uint64_t instrBitsFetched = 0; ///< Instruction-memory traffic.

    /** Peak over cycles of total live registers. */
    uint64_t peakLiveRegisters = 0;

    /** Per-bank occupancy trace, sampled every `traceStride` cycles
     *  when tracing is enabled (fig. 10(c,d)); bounded by
     *  SimOptions::maxTraceSamples via stride-doubling decimation. */
    std::vector<std::vector<uint32_t>> occupancyTrace;

    /** Effective sampling stride of occupancyTrace, in cycles:
     *  starts at SimOptions::traceInterval and doubles on every
     *  decimation. 0 when tracing was off. Sample i was taken at
     *  cycle i * traceStride. */
    uint64_t traceStride = 0;
};

/** Simulation options. */
struct SimOptions
{
    bool traceOccupancy = false;
    uint32_t traceInterval = 16;

    /** Upper bound on occupancyTrace rows. When the trace fills up,
     *  every other row is dropped and the sampling stride doubles,
     *  so arbitrarily long runs keep a whole-run trace in bounded
     *  memory. 0 = unbounded (the historical behavior). */
    uint32_t maxTraceSamples = 4096;
};

/** Result of a run: per-node output values, in program.outputs order. */
struct SimResult
{
    std::vector<double> outputs;
    SimStats stats;
};

/**
 * An explicit subset of the modeled machine's cores, identified by
 * core id. BatchMachine historically took only a core *count*; the
 * serving side partitions the modeled cores between resident programs
 * (per-program reservations), so a batch must be able to run on, say,
 * cores {2, 5} while another occupies {0, 1, 3, 4}. Core identity
 * never reaches the per-input simulation — a Machine models one core
 * regardless of its id — so it affects only the lockstep wall-clock
 * accounting and the occupancy attribution.
 */
struct CoreSet
{
    /** Member core ids; must be unique. Order is the round-robin
     *  slicing order. */
    std::vector<uint32_t> ids;

    /** The conventional contiguous set {0, 1, ..., n-1}. */
    static CoreSet firstN(uint32_t n);

    size_t count() const { return ids.size(); }
    bool empty() const { return ids.empty(); }

    /** Panic on duplicate ids (a double-booked model core). */
    void validate() const;
};

namespace detail {
struct DecodedProgram;
} // namespace detail

/** The machine. */
class Machine
{
  public:
    /** Simulate `program`'s schedule for its configuration. The
     *  Machine keeps no reference to `program`. */
    explicit Machine(const CompiledProgram &program,
                     SimOptions options = {});

    /**
     * Execute the program on one input vector (one value per DAG
     * input, in input-id order — same convention as dpu::evaluate).
     * Safe to call concurrently on one Machine.
     */
    SimResult run(const std::vector<double> &input_values) const;

  private:
    std::shared_ptr<const detail::DecodedProgram> code;
};

/**
 * Convenience: simulate and compare against the golden evaluator.
 * Panics (with a diagnostic) on any mismatch beyond tolerance.
 * @return the simulation result.
 */
class Dag;
SimResult runAndCheck(const CompiledProgram &program, const Dag &dag,
                      const std::vector<double> &input_values,
                      SimOptions options = {});

} // namespace dpu

#endif // DPU_SIM_MACHINE_HH
