/**
 * @file
 * Unit tests for the cycle-accurate simulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>
#include <thread>

#include "compiler/compiler.hh"
#include "sim/machine.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

ArchConfig
cfgOf(uint32_t depth, uint32_t banks, uint32_t regs)
{
    ArchConfig c;
    c.depth = depth;
    c.banks = banks;
    c.regsPerBank = regs;
    return c;
}

CompiledProgram
tinyProgram(Dag &d)
{
    NodeId a = d.addInput();
    NodeId b = d.addInput();
    d.addNode(OpType::Mul, {a, b});
    return compile(d, cfgOf(1, 2, 8));
}

TEST(Sim, TinyProgramComputes)
{
    Dag d;
    auto prog = tinyProgram(d);
    Machine m(prog);
    auto res = m.run({3.0, 5.0});
    ASSERT_EQ(res.outputs.size(), 1u);
    EXPECT_DOUBLE_EQ(res.outputs[0], 15.0);
}

TEST(Sim, CyclesMatchInstructionsPlusDrain)
{
    Dag d;
    auto prog = tinyProgram(d);
    auto res = Machine(prog).run({1.0, 2.0});
    EXPECT_EQ(res.stats.cycles,
              prog.instructions.size() + prog.cfg.pipelineStages());
    EXPECT_EQ(res.stats.cycles, prog.stats.cycles);
}

TEST(Sim, KindCountsMatchCompiler)
{
    Dag d = generateRandomDag(16, 400, 61);
    auto prog = compile(d, cfgOf(3, 16, 32));
    Rng rng(62);
    std::vector<double> in(d.numInputs());
    for (auto &x : in)
        x = rng.uniform() + 0.5;
    auto res = Machine(prog).run(in);
    for (size_t k = 0; k < 6; ++k)
        EXPECT_EQ(res.stats.kindCount[k], prog.stats.kindCount[k]);
}

TEST(Sim, RerunWithDifferentInputs)
{
    // The static-DAG scenario: one program, many input vectors.
    Dag d = generateRandomDag(10, 200, 63);
    auto prog = compile(d, cfgOf(2, 8, 32));
    Machine m(prog);
    for (uint64_t trial = 0; trial < 5; ++trial) {
        Rng rng(100 + trial);
        std::vector<double> in(d.numInputs());
        for (auto &x : in)
            x = rng.uniform() + 0.5;
        runAndCheck(prog, d, in);
    }
}

TEST(Sim, WrongInputCountPanics)
{
    Dag d;
    auto prog = tinyProgram(d);
    Machine m(prog);
    EXPECT_THROW(m.run({1.0}), PanicError);
}

TEST(Sim, OccupancyTraceRecordsLiveRegisters)
{
    Dag d = generateRandomDag(32, 2000, 64);
    auto prog = compile(d, cfgOf(3, 16, 64));
    Rng rng(65);
    std::vector<double> in(d.numInputs());
    for (auto &x : in)
        x = rng.uniform() + 0.5;
    SimOptions opts;
    opts.traceOccupancy = true;
    opts.traceInterval = 8;
    auto res = Machine(prog, opts).run(in);
    ASSERT_FALSE(res.stats.occupancyTrace.empty());
    // Trace rows have one entry per bank, all within R.
    for (const auto &row : res.stats.occupancyTrace) {
        ASSERT_EQ(row.size(), prog.cfg.banks);
        for (uint32_t v : row)
            EXPECT_LE(v, prog.cfg.regsPerBank);
    }
    EXPECT_GT(res.stats.peakLiveRegisters, 0u);
}

TEST(Sim, OccupancyTraceStaysWithinMaxTraceSamples)
{
    // Regression: the occupancy trace used to grow one row per
    // traceInterval cycles for the whole run, unbounded. It is now
    // capped at SimOptions::maxTraceSamples via stride-doubling
    // decimation that keeps whole-run coverage (the tail is never
    // truncated).
    Dag d = generateRandomDag(32, 4000, 91);
    auto prog = compile(d, cfgOf(2, 16, 64));
    Rng rng(92);
    std::vector<double> in(d.numInputs());
    for (auto &x : in)
        x = rng.uniform() + 0.5;

    SimOptions opts;
    opts.traceOccupancy = true;
    opts.traceInterval = 2;
    opts.maxTraceSamples = 8;
    auto res = Machine(prog, opts).run(in);

    // Far more sample opportunities than the cap, yet the trace is
    // bounded — and not trivially empty either.
    ASSERT_GT(res.stats.cycles / opts.traceInterval,
              uint64_t{opts.maxTraceSamples});
    EXPECT_LE(res.stats.occupancyTrace.size(),
              size_t{opts.maxTraceSamples});
    EXPECT_GE(res.stats.occupancyTrace.size(),
              size_t{opts.maxTraceSamples} / 2);

    // The effective stride is the configured interval doubled some
    // whole number of times, and row i still means cycle i * stride.
    ASSERT_GE(res.stats.traceStride, opts.traceInterval);
    uint64_t ratio = res.stats.traceStride / opts.traceInterval;
    EXPECT_EQ(res.stats.traceStride % opts.traceInterval, 0u);
    EXPECT_EQ(ratio & (ratio - 1), 0u) << "stride grew non-doubly";

    // Whole-run coverage: the decimated trace still spans the run —
    // the last kept row lies within one (doubled) stride of the end.
    uint64_t last_cycle =
        (res.stats.occupancyTrace.size() - 1) * res.stats.traceStride;
    EXPECT_LE(last_cycle, res.stats.cycles);
    EXPECT_GE(last_cycle + 2 * res.stats.traceStride,
              res.stats.cycles);

    // Rows keep their shape through decimation.
    for (const auto &row : res.stats.occupancyTrace)
        ASSERT_EQ(row.size(), prog.cfg.banks);
}

TEST(Sim, OccupancyTraceUnlimitedAndZeroIntervalModes)
{
    Dag d = generateRandomDag(16, 600, 93);
    auto prog = compile(d, cfgOf(2, 8, 32));
    Rng rng(94);
    std::vector<double> in(d.numInputs());
    for (auto &x : in)
        x = rng.uniform() + 0.5;

    // maxTraceSamples = 0 disables the cap (the pre-fix behavior,
    // kept opt-in): one row per interval for the whole run.
    SimOptions unlimited;
    unlimited.traceOccupancy = true;
    unlimited.traceInterval = 4;
    unlimited.maxTraceSamples = 0;
    auto res = Machine(prog, unlimited).run(in);
    EXPECT_EQ(res.stats.traceStride, 4u);
    EXPECT_GE(res.stats.occupancyTrace.size(),
              res.stats.cycles / 4);

    // traceInterval = 0 must not divide by zero: it clamps to
    // every-cycle sampling (stride 1), still under the cap.
    SimOptions zero;
    zero.traceOccupancy = true;
    zero.traceInterval = 0;
    zero.maxTraceSamples = 16;
    auto rz = Machine(prog, zero).run(in);
    EXPECT_GE(rz.stats.traceStride, 1u);
    EXPECT_LE(rz.stats.occupancyTrace.size(), 16u);
}

TEST(Sim, EventCountsArePlausible)
{
    Dag d = generateRandomDag(24, 800, 66);
    auto prog = compile(d, cfgOf(3, 16, 32));
    Rng rng(67);
    std::vector<double> in(d.numInputs());
    for (auto &x : in)
        x = rng.uniform() + 0.5;
    auto res = Machine(prog).run(in);
    // Every binarized operation executes at least once (replication
    // can only add).
    EXPECT_GE(res.stats.peOperations, prog.stats.numOperations);
    EXPECT_EQ(res.stats.peOperations, prog.stats.peOpsExecuted);
    // Each load/store touches memory once.
    using K = InstrKind;
    EXPECT_EQ(res.stats.memReads,
              res.stats.kindCount[static_cast<size_t>(K::Load)]);
    EXPECT_EQ(res.stats.memWrites,
              res.stats.kindCount[static_cast<size_t>(K::Store)] +
                  res.stats.kindCount[static_cast<size_t>(K::Store4)]);
    // Fetch traffic equals the packed program footprint.
    EXPECT_EQ(res.stats.instrBitsFetched, prog.stats.programBits);
}

TEST(Sim, DecodedProgramRunsIdentically)
{
    // Compile -> encode -> decode -> run: the binary path works.
    Dag d = generateRandomDag(12, 300, 68);
    auto prog = compile(d, cfgOf(2, 8, 32));
    auto image = encodeProgram(prog.cfg, prog.instructions);
    CompiledProgram prog2 = prog;
    prog2.instructions =
        decodeProgram(prog.cfg, image, prog.instructions.size());
    Rng rng(69);
    std::vector<double> in(d.numInputs());
    for (auto &x : in)
        x = rng.uniform() + 0.5;
    auto a = Machine(prog).run(in);
    auto b = Machine(prog2).run(in);
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (size_t i = 0; i < a.outputs.size(); ++i)
        EXPECT_DOUBLE_EQ(a.outputs[i], b.outputs[i]);
}

uint64_t
fnv(uint64_t h, uint64_t v)
{
    for (int k = 0; k < 8; ++k)
        h = (h ^ ((v >> (8 * k)) & 0xff)) * 0x100000001b3ull;
    return h;
}

/**
 * Every SimStats field as one line of exact integers, the occupancy
 * trace folded into an FNV-1a hash.
 */
std::string
statsDigest(const SimStats &s)
{
    uint64_t trace_hash = 0xcbf29ce484222325ull;
    for (const auto &row : s.occupancyTrace)
        for (uint32_t v : row)
            trace_hash = fnv(trace_hash, v);

    std::ostringstream os;
    os << "cycles=" << s.cycles << " kinds=";
    for (size_t k = 0; k < s.kindCount.size(); ++k)
        os << (k ? "," : "") << s.kindCount[k];
    os << " bankReads=" << s.bankReads << " bankWrites=" << s.bankWrites
       << " peOps=" << s.peOperations << " passes=" << s.pePassThroughs
       << " xbar=" << s.crossbarTransfers << " memReads=" << s.memReads
       << " memWrites=" << s.memWrites << " bits=" << s.instrBitsFetched
       << " peak=" << s.peakLiveRegisters << " stride=" << s.traceStride
       << " trace=" << s.occupancyTrace.size() << "/" << std::hex
       << trace_hash << std::dec << " transfer=" << s.transferCycles;
    return os.str();
}

/**
 * statsDigest plus every output bit pattern of the run, hashed, so a
 * golden stays one line.
 */
std::string
goldenDigest(const SimResult &res)
{
    uint64_t out_hash = 0xcbf29ce484222325ull;
    for (double v : res.outputs)
        out_hash = fnv(out_hash, std::bit_cast<uint64_t>(v));
    std::ostringstream os;
    os << statsDigest(res.stats) << " outputs=" << res.outputs.size()
       << "/" << std::hex << out_hash;
    return os.str();
}

struct GoldenCase
{
    const char *workload;
    const char *config;
    const char *digest;
};

ArchConfig
goldenConfig(const std::string &name)
{
    if (name == "minEdp")
        return minEdpConfig();
    if (name == "large")
        return largeConfig();
    ArchConfig c = cfgOf(2, 8, 16);
    if (name == "R20") {
        c = minEdpConfig();
        c.regsPerBank = 20;
    } else if (name == "xbar") {
        c.outputNet = OutputInterconnect::Crossbar;
    } else if (name == "onePerPe") {
        c.outputNet = OutputInterconnect::OnePerPe;
    } else {
        ADD_FAILURE() << "unknown golden config " << name;
    }
    return c;
}

/**
 * Pinned simulator output: three small suite workloads on five
 * configurations that cover one and several 64-bit register-mask
 * words per bank (R=32, R=256), a partial word (R=20), and the
 * crossbar and one-per-PE output nets. Tracing is on with a small
 * sample cap so stride-doubling decimation runs, and a non-free
 * transfer model makes transferCycles non-zero. Any change to the
 * simulator's semantics or event accounting shows up here.
 */
const std::vector<GoldenCase> kGolden = {
    {"tretail", "minEdp",
     "cycles=712 kinds=440,28,2,1,68,169 bankReads=5867 bankWrites=3831 peOps=4510 passes=3252 xbar=6335 memReads=28 memWrites=3 bits=215484 peak=271 stride=192 trace=4/962bf9cce283256f transfer=3803 outputs=387/9146ba69d6bd3f5b"},
    {"tretail", "large",
     "cycles=712 kinds=440,28,2,1,68,169 bankReads=5867 bankWrites=3831 peOps=4510 passes=3252 xbar=6335 memReads=28 memWrites=3 bits=249144 peak=271 stride=192 trace=4/962bf9cce283256f transfer=3803 outputs=387/9146ba69d6bd3f5b"},
    {"tretail", "R20",
     "cycles=712 kinds=440,28,2,1,68,169 bankReads=5867 bankWrites=3831 peOps=4510 passes=3252 xbar=6335 memReads=28 memWrites=3 bits=215484 peak=271 stride=192 trace=4/962bf9cce283256f transfer=3803 outputs=387/9146ba69d6bd3f5b"},
    {"tretail", "xbar",
     "cycles=3823 kinds=636,1096,7,1028,0,1053 bankReads=7484 bankWrites=4845 peOps=4500 passes=1802 xbar=6620 memReads=1096 memWrites=1035 bits=231216 peak=127 stride=768 trace=5/198895883a8dddc6 transfer=3803 outputs=387/9146ba69d6bd3f5b"},
    {"tretail", "onePerPe",
     "cycles=4772 kinds=458,1201,6,1134,917,1053 bankReads=8830 bankWrites=6191 peOps=4500 passes=1802 xbar=7861 memReads=1201 memWrites=1140 bits=270972 peak=126 stride=768 trace=7/d10def903192a448 transfer=3803 outputs=387/9146ba69d6bd3f5b"},
    {"mnist", "minEdp",
     "cycles=709 kinds=393,39,4,2,90,177 bankReads=6590 bankWrites=4322 peOps=5001 passes=3597 xbar=6857 memReads=39 memWrites=6 bits=229796 peak=515 stride=192 trace=4/1bbf5fafa99bbb20 transfer=3723 outputs=304/b298dff655066aa"},
    {"mnist", "large",
     "cycles=709 kinds=393,39,4,2,90,177 bankReads=6590 bankWrites=4322 peOps=5001 passes=3597 xbar=6857 memReads=39 memWrites=6 bits=265652 peak=515 stride=192 trace=4/1bbf5fafa99bbb20 transfer=3723 outputs=304/b298dff655066aa"},
    {"mnist", "R20",
     "cycles=709 kinds=393,39,4,2,90,177 bankReads=6590 bankWrites=4322 peOps=5001 passes=3597 xbar=6857 memReads=39 memWrites=6 bits=229796 peak=515 stride=192 trace=4/1bbf5fafa99bbb20 transfer=3723 outputs=304/b298dff655066aa"},
    {"mnist", "xbar",
     "cycles=6374 kinds=497,2407,15,2291,0,1161 bankReads=9549 bankWrites=6696 peOps=5000 passes=1939 xbar=7345 memReads=2407 memWrites=2306 bits=362968 peak=128 stride=1536 trace=5/98f15f409c545d5f transfer=3723 outputs=304/7e698239f2a38e36"},
    {"mnist", "onePerPe",
     "cycles=7481 kinds=408,2498,12,2388,1011,1161 bankReads=11061 bankWrites=8208 peOps=5000 passes=1939 xbar=8766 memReads=2498 memWrites=2400 bits=405040 peak=128 stride=1536 trace=5/73dc394d9f1a82e4 transfer=3723 outputs=304/4dab067e72f78d76"},
    {"bp_200", "minEdp",
     "cycles=604 kinds=294,149,2,1,5,149 bankReads=4955 bankWrites=4432 peOps=4018 passes=2468 xbar=5567 memReads=149 memWrites=3 bits=194672 peak=1048 stride=96 trace=7/460f4eda3d8f294c transfer=10507 outputs=35/b959b0ede564879d"},
    {"bp_200", "large",
     "cycles=604 kinds=294,149,2,1,5,149 bankReads=4955 bankWrites=4432 peOps=4018 passes=2468 xbar=5567 memReads=149 memWrites=3 bits=223736 peak=1696 stride=96 trace=7/8d3162b2a49b67ba transfer=10507 outputs=35/b959b0ede564879d"},
    {"bp_200", "R20",
     "cycles=608 kinds=294,151,2,3,5,149 bankReads=4957 bankWrites=4434 peOps=4018 passes=2468 xbar=5567 memReads=151 memWrites=5 bits=195000 peak=659 stride=96 trace=7/4c88c1ac7bc4e965 transfer=10507 outputs=35/b959b0ede564879d"},
    {"bp_200", "xbar",
     "cycles=1979 kinds=141,913,5,87,0,830 bankReads=5548 bankWrites=4520 peOps=4018 passes=940 xbar=5694 memReads=913 memWrites=92 bits=148212 peak=116 stride=384 trace=6/65defa21a801a891 transfer=10507 outputs=35/4e063d86b83f7519"},
    {"bp_200", "onePerPe",
     "cycles=2553 kinds=177,1033,4,208,298,830 bankReads=6037 bankWrites=5009 peOps=4018 passes=940 xbar=6063 memReads=1033 memWrites=212 bits=161584 peak=85 stride=384 trace=7/d20fdb03f9d0a72a transfer=10507 outputs=35/31672abfa5ccbf01"},
};

TEST(SimGolden, StatsAndOutputsArePinned)
{
    const char *workloads[] = {"tretail", "mnist", "bp_200"};
    const char *configs[] = {"minEdp", "large", "R20", "xbar",
                             "onePerPe"};
    size_t next = 0;
    uint64_t seed = 500;
    for (const char *w : workloads) {
        Dag d = buildWorkloadDag(findWorkload(w), 0.5);
        Rng rng(++seed);
        std::vector<double> in(d.numInputs());
        for (auto &x : in)
            x = rng.uniform() + 0.5;
        for (const char *c : configs) {
            SCOPED_TRACE(std::string(w) + " on " + c);
            auto prog = compile(d, goldenConfig(c));
            SimOptions opts;
            opts.traceOccupancy = true;
            opts.traceInterval = 3;
            opts.maxTraceSamples = 8;
            opts.transfer.cyclesPerByte = 0.5;
            opts.transfer.dispatchCycles = 7;
            std::string got = goldenDigest(Machine(prog, opts).run(in));
            if (next >= kGolden.size()) {
                ADD_FAILURE() << "missing golden:\n    {\"" << w
                              << "\", \"" << c << "\",\n     \"" << got
                              << "\"},";
                continue;
            }
            const GoldenCase &g = kGolden[next++];
            EXPECT_STREQ(g.workload, w);
            EXPECT_STREQ(g.config, c);
            EXPECT_EQ(got, g.digest);
        }
    }
    EXPECT_EQ(next, kGolden.size());
}

TEST(Sim, StatsDoNotDependOnInputValues)
{
    // The schedule is fixed at compile time and never stalls, so every
    // counter the energy model reads is fixed too: only the values
    // differ between runs. The DSE eval memo and its multi-core points
    // (counters x cores) rest on this.
    SimOptions opts;
    opts.traceOccupancy = true;
    opts.traceInterval = 3;
    size_t compared = 0;
    for (const WorkloadSpec &spec : smallSuite()) {
        Dag d = buildWorkloadDag(spec, 0.1);
        std::vector<std::vector<double>> inputs;
        for (uint64_t seed : {11u, 12u, 13u}) {
            Rng rng(seed);
            std::vector<double> in(d.numInputs());
            for (auto &x : in)
                x = rng.uniform() * 4.0 - 2.0;
            inputs.push_back(std::move(in));
        }
        for (uint32_t depth : {1u, 2u, 3u})
            for (uint32_t banks : {8u, 32u})
                for (uint32_t regs : {16u, 64u}) {
                    SCOPED_TRACE(spec.name + " on D" +
                                 std::to_string(depth) + ".B" +
                                 std::to_string(banks) + ".R" +
                                 std::to_string(regs));
                    CompiledProgram prog;
                    try {
                        prog = compile(d, cfgOf(depth, banks, regs));
                    } catch (const FatalError &) {
                        continue; // register file too small
                    }
                    Machine m(prog, opts);
                    const SimStats first = m.run(inputs[0]).stats;
                    for (size_t k = 1; k < inputs.size(); ++k) {
                        const SimStats s = m.run(inputs[k]).stats;
                        EXPECT_EQ(statsDigest(s), statsDigest(first));
                        EXPECT_EQ(s.occupancyTrace,
                                  first.occupancyTrace);
                    }
                    ++compared;
                }
    }
    EXPECT_GT(compared, smallSuite().size());
}

TEST(Sim, OneMachineRunsConcurrently)
{
    // Machine::run is const and keeps its state local: four threads
    // sharing one decoded Machine must each get exactly the serial
    // result for their input, trace included.
    Dag d = buildWorkloadDag(findWorkload("bp_200"), 0.2);
    auto prog = compile(d, minEdpConfig());
    SimOptions opts;
    opts.traceOccupancy = true;
    opts.traceInterval = 5;
    const Machine m(prog, opts);

    constexpr size_t kThreads = 4, kPerThread = 6;
    std::vector<std::vector<double>> inputs;
    Rng rng(77);
    for (size_t k = 0; k < kThreads * kPerThread; ++k) {
        std::vector<double> in(d.numInputs());
        for (auto &x : in)
            x = rng.uniform() * 2 - 1;
        inputs.push_back(std::move(in));
    }
    std::vector<std::string> serial;
    for (const auto &in : inputs)
        serial.push_back(goldenDigest(m.run(in)));

    std::vector<std::string> shared(inputs.size());
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (size_t k = t; k < inputs.size(); k += kThreads)
                shared[k] = goldenDigest(m.run(inputs[k]));
        });
    for (auto &th : threads)
        th.join();
    for (size_t k = 0; k < inputs.size(); ++k)
        EXPECT_EQ(shared[k], serial[k]) << "input " << k;
}

} // namespace
} // namespace dpu

#include "sim/batch.hh"

namespace dpu {
namespace {

TEST(Batch, FourCoresQuadrupleThroughput)
{
    Dag d = generateRandomDag(16, 400, 71);
    auto prog = compile(d, cfgOf(3, 16, 32));
    Rng rng(72);
    std::vector<std::vector<double>> batch;
    for (int k = 0; k < 8; ++k) {
        std::vector<double> in(d.numInputs());
        for (auto &x : in)
            x = 0.5 + rng.uniform();
        batch.push_back(std::move(in));
    }
    BatchMachine one(prog, 1, prog.stats.numOperations);
    BatchMachine four(prog, 4, prog.stats.numOperations);
    auto r1 = one.run(batch);
    auto r4 = four.run(batch);
    ASSERT_EQ(r1.runs.size(), 8u);
    ASSERT_EQ(r4.runs.size(), 8u);
    EXPECT_EQ(r1.totalOperations, r4.totalOperations);
    // 8 inputs over 4 cores: exactly 4x fewer wall cycles.
    EXPECT_EQ(r1.wallCycles, r4.wallCycles * 4);
    EXPECT_NEAR(r4.throughputGops(300e6),
                4 * r1.throughputGops(300e6), 1e-9);
}

TEST(Batch, UnevenBatchRoundsUp)
{
    Dag d = generateRandomDag(8, 100, 73);
    auto prog = compile(d, cfgOf(2, 8, 32));
    std::vector<std::vector<double>> batch(
        5, std::vector<double>(d.numInputs(), 1.0));
    BatchMachine four(prog, 4, prog.stats.numOperations);
    auto r = four.run(batch);
    // Core 0 gets 2 slices, the rest 1: wall = 2 runs.
    EXPECT_EQ(r.wallCycles, 2 * prog.stats.cycles);
}

} // namespace
} // namespace dpu
