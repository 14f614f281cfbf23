#include "sim/batch.hh"

#include <algorithm>
#include <utility>

#include "support/logging.hh"
#include "support/parallel.hh"

namespace dpu {

BatchMachine::BatchMachine(const CompiledProgram &program, uint32_t n,
                           uint64_t ops, uint32_t host_threads)
    : BatchMachine(Machine(program), CoreSet::firstN(n), ops, host_threads)
{
}

BatchMachine::BatchMachine(const Machine &decoded, CoreSet core_set,
                           uint64_t ops, uint32_t host_threads)
    : machine(decoded), cores(std::move(core_set)), operations(ops),
      threads(host_threads < 1 ? 1 : host_threads)
{
    dpu_assert(!cores.empty(), "need at least one core");
    cores.validate();
}

BatchResult
BatchMachine::run(const std::vector<std::vector<double>> &inputs)
{
    BatchResult out;
    out.runs.resize(inputs.size());

    // Simulate every input into its submission-order slot. The host
    // threads share the one decoded Machine: runs keep their state
    // local, so the per-slot results — and everything folded from them
    // below — are identical for any host thread count.
    parallelFor(inputs.size(), threads, [&](size_t k) {
        out.runs[k] = machine.run(inputs[k]);
    });

    // Fold the model-core accounting in submission order: each model
    // core executes ceil(batch/cores) back-to-back programs and the
    // wall clock is the busiest core (they run in lockstep over
    // round-robin slices).
    out.coreIds = cores.ids;
    out.perCoreCycles.assign(cores.count(), 0);
    for (size_t k = 0; k < out.runs.size(); ++k) {
        out.perCoreCycles[k % cores.count()] += out.runs[k].stats.cycles;
        out.totalOperations += operations;
    }
    out.wallCycles = out.runs.empty()
        ? 0
        : *std::max_element(out.perCoreCycles.begin(),
                            out.perCoreCycles.end());
    return out;
}

} // namespace dpu
