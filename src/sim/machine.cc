#include "sim/machine.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "dag/binarize.hh"
#include "dag/dag.hh"
#include "dag/eval.hh"
#include "sim/replay.hh"
#include "support/logging.hh"

namespace dpu {

CoreSet
CoreSet::firstN(uint32_t n)
{
    CoreSet s;
    s.ids.resize(n);
    for (uint32_t k = 0; k < n; ++k)
        s.ids[k] = k;
    return s;
}

void
CoreSet::validate() const
{
    for (size_t i = 0; i < ids.size(); ++i)
        for (size_t j = i + 1; j < ids.size(); ++j)
            dpu_assert(ids[i] != ids[j],
                       "core id " + std::to_string(ids[i]) +
                           " appears twice in a CoreSet");
}

Machine::Machine(const CompiledProgram &program, SimOptions options)
{
    program.cfg.check();
    auto p = std::make_shared<detail::DecodedProgram>();
    p->numInputs = program.inputLocation.size();
    try {
        detail::replaySchedule(program, detail::FirstFault{options, *p});
    } catch (const PanicError &e) {
        // The fault belongs to the program: every run raises it.
        p->fault = e.what();
        p->ops = {};
    }
    code = std::move(p);
}

SimResult
Machine::run(const std::vector<double> &input_values) const
{
    const detail::DecodedProgram &p = *code;
    dpu_assert(input_values.size() == p.numInputs,
               "wrong number of input values");
    if (!p.fault.empty())
        throw PanicError(p.fault);

    auto v = std::make_unique_for_overwrite<double[]>(
        1 + p.numInputs + p.ops.size());
    v[0] = 0.0;
    std::copy(input_values.begin(), input_values.end(), &v[1]);
    double *next = &v[1 + p.numInputs];
    for (const detail::ValueOp &op : p.ops) {
        // Select the result instead of branching on the op: the
        // add/mul pattern has no regularity a branch predictor learns.
        const double a = v[op.a], b = v[op.b];
        const double result[2] = {a + b, a * b};
        *next++ = result[op.mul];
    }

    SimResult res;
    res.outputs.reserve(p.outputs.size());
    for (uint32_t id : p.outputs)
        res.outputs.push_back(v[id]);
    res.stats = p.stats;
    return res;
}

SimResult
runAndCheck(const CompiledProgram &program, const Dag &dag,
            const std::vector<double> &input_values, SimOptions options)
{
    Machine m(program, options);
    SimResult res = m.run(input_values);

    // Reference: evaluate the same binarized DAG the compiler saw.
    BinarizeResult bin = binarize(dag);
    auto ref = evaluate(bin.dag, input_values);

    dpu_assert(res.outputs.size() == program.outputs.size(),
               "output count mismatch");
    for (size_t k = 0; k < program.outputs.size(); ++k) {
        NodeId node = program.outputs[k].node;
        double want = ref[node];
        double got = res.outputs[k];
        double tol = 1e-12 * std::max(1.0, std::abs(want));
        if (std::abs(got - want) > tol) {
            dpu_panic("functional mismatch at output node " +
                      std::to_string(node) + ": simulator " +
                      std::to_string(got) + " vs reference " +
                      std::to_string(want));
        }
    }
    return res;
}

} // namespace dpu
