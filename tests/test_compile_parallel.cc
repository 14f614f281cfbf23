/**
 * @file
 * Tests for partition-parallel compilation: the compiled program must
 * be byte-identical for every --threads value (and across repeated
 * runs), partitioned compiles must stay functionally correct, and the
 * partitioner edge cases feeding the parallel pipeline must hold.
 * Compiling a PreparedDag must emit the bytes compiling its DAG does.
 */

#include <gtest/gtest.h>

#include "arch/isa.hh"
#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
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

std::vector<double>
randomInputs(const Dag &d, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(d.numInputs());
    for (auto &x : v)
        x = 0.5 + rng.uniform();
    return v;
}

/** Full byte/field equality of two compiled programs. */
void
expectIdentical(const CompiledProgram &a, const CompiledProgram &b)
{
    ASSERT_EQ(a.instructions.size(), b.instructions.size());
    EXPECT_EQ(encodeProgram(a.cfg, a.instructions),
              encodeProgram(b.cfg, b.instructions));
    EXPECT_EQ(a.numRows, b.numRows);
    EXPECT_EQ(a.inputLocation, b.inputLocation);
    ASSERT_EQ(a.outputs.size(), b.outputs.size());
    for (size_t i = 0; i < a.outputs.size(); ++i) {
        EXPECT_EQ(a.outputs[i].node, b.outputs[i].node);
        EXPECT_EQ(a.outputs[i].row, b.outputs[i].row);
        EXPECT_EQ(a.outputs[i].col, b.outputs[i].col);
    }
    EXPECT_EQ(a.stats.instructions, b.stats.instructions);
    EXPECT_EQ(a.stats.programBits, b.stats.programBits);
    EXPECT_EQ(a.stats.bankConflicts, b.stats.bankConflicts);
    EXPECT_EQ(a.stats.spillStores, b.stats.spillStores);
    EXPECT_EQ(a.stats.nops, b.stats.nops);
}

TEST(ParallelCompile, ByteIdenticalAcrossThreadCounts)
{
    Dag d = generateRandomDag(64, 3000, 47);
    ArchConfig cfg = cfgOf(3, 16, 64);
    CompileOptions opt;
    opt.partitionNodes = 500;
    opt.validate = true;

    opt.threads = 1;
    auto reference = compile(d, cfg, opt);
    for (uint32_t threads : {2u, 3u, 8u}) {
        opt.threads = threads;
        auto parallel = compile(d, cfg, opt);
        expectIdentical(reference, parallel);
    }
    // And the parallel result still computes the right thing.
    runAndCheck(reference, d, randomInputs(d, 48));
}

TEST(ParallelCompile, RepeatedRunsIdentical)
{
    Dag d = generateRandomDag(32, 1500, 53);
    ArchConfig cfg = cfgOf(2, 8, 64);
    CompileOptions opt;
    opt.partitionNodes = 300;
    opt.threads = 4;
    auto a = compile(d, cfg, opt);
    auto b = compile(d, cfg, opt);
    expectIdentical(a, b);
}

TEST(ParallelCompile, UnpartitionedIgnoresThreadCount)
{
    Dag d = generateRandomDag(24, 800, 59);
    ArchConfig cfg = cfgOf(3, 16, 32);
    CompileOptions seq, par;
    par.threads = 8;
    expectIdentical(compile(d, cfg, seq), compile(d, cfg, par));
}

TEST(ParallelCompile, WorkloadTwinPartitionedDeterminism)
{
    // A structured Table I twin through the same guarantee, at a
    // partition count large enough to exercise cross-range flow.
    PcParams p;
    p.targetOperations = 12000;
    p.depth = 40;
    p.seed = 61;
    Dag d = generatePc(p);
    ArchConfig cfg = minEdpConfig();
    CompileOptions opt;
    opt.partitionNodes = 1000;
    opt.threads = 1;
    auto seq = compile(d, cfg, opt);
    opt.threads = 6;
    auto par = compile(d, cfg, opt);
    expectIdentical(seq, par);
    auto res = runAndCheck(par, d, randomInputs(d, 62));
    EXPECT_FALSE(res.outputs.empty());
}

TEST(ParallelCompile, InputOnlyTailPartitionCompiles)
{
    // Split lands exactly on the last compute node; the trailing
    // inputs must fold into the final partition and keep bank owners.
    Dag d;
    NodeId a = d.addInput();
    NodeId b = d.addInput();
    NodeId prev = d.addNode(OpType::Add, {a, b});
    for (int i = 0; i < 9; ++i)
        prev = d.addNode(OpType::Mul, {prev, a});
    // Input-only tail, one of them a sink.
    NodeId tail = d.addInput();
    d.addNode(OpType::Add, {prev, tail});
    d.addInput(); // unread input sink

    ArchConfig cfg = cfgOf(2, 8, 16);
    CompileOptions opt;
    opt.partitionNodes = 11; // exactly the compute-node count
    opt.validate = true;
    for (uint32_t threads : {1u, 4u}) {
        opt.threads = threads;
        auto prog = compile(d, cfg, opt);
        runAndCheck(prog, d, randomInputs(d, 63));
    }
}

TEST(ParallelCompile, PipelinedStages34ByteIdenticalAcrossThreads)
{
    // Steps 3-4 (reorder + finalize) run pipelined against codegen on
    // partitioned compiles; the merged program must stay
    // byte-identical at every thread count with all three verifier
    // stages clean.
    Dag d = generateRandomDag(64, 4000, 91);
    ArchConfig cfg = cfgOf(3, 16, 64);
    CompileOptions opt;
    opt.partitionNodes = 600;
    opt.validate = true;
    opt.verify = true;

    opt.threads = 1;
    auto reference = compile(d, cfg, opt);
    for (uint32_t threads : {4u, 8u}) {
        opt.threads = threads;
        auto parallel = compile(d, cfg, opt);
        expectIdentical(reference, parallel);
    }
    runAndCheck(reference, d, randomInputs(d, 92));
}

TEST(ParallelCompile, BoundaryAwareMapperReducesMergedConflicts)
{
    // Boundary-oblivious mapping (each range blind to its
    // predecessors' bank occupancy) is the pre-boundary-aware
    // baseline; the default chained mapping must beat it on a
    // partitioned workload with heavy cross-range flow.
    Dag d = generateRandomDag(64, 4000, 91);
    ArchConfig cfg = cfgOf(3, 16, 64);
    CompileOptions obliv;
    obliv.partitionNodes = 600;
    obliv.boundaryAwareBanks = false;
    CompileOptions aware = obliv;
    aware.boundaryAwareBanks = true;
    auto a = compile(d, cfg, obliv);
    auto b = compile(d, cfg, aware);
    // Pinned baseline: the boundary-oblivious conflict count for this
    // workload. If a mapper change shifts it, re-pin deliberately.
    EXPECT_EQ(a.stats.bankConflicts, 1033u);
    EXPECT_LT(b.stats.bankConflicts, a.stats.bankConflicts);
    // Fewer conflicts means fewer conflict-resolving copies, so the
    // aware program must not be longer.
    EXPECT_LE(b.stats.instructions, a.stats.instructions);
    runAndCheck(b, d, randomInputs(d, 93));
}

TEST(ParallelCompile, CompileStatsStillConsistent)
{
    Dag d = generateRandomDag(48, 2000, 67);
    ArchConfig cfg = cfgOf(3, 16, 32);
    CompileOptions opt;
    opt.partitionNodes = 400;
    opt.threads = 4;
    auto prog = compile(d, cfg, opt);
    uint64_t total = 0;
    for (uint64_t k : prog.stats.kindCount)
        total += k;
    EXPECT_EQ(total, prog.stats.instructions);
    EXPECT_EQ(prog.stats.instructions, prog.instructions.size());
    EXPECT_EQ(prog.stats.numOperations, 2000u);
    EXPECT_GT(prog.stats.blocks, 0u);
    EXPECT_EQ(prog.stats.cacheHits, 0u);
}

/** The serialized program with the wall-clock stats cleared: equal
 *  exactly when two compiles emitted the same program. */
std::vector<uint8_t>
programBytes(CompiledProgram prog)
{
    prog.stats.compileSeconds = 0;
    prog.stats.verifySeconds = 0;
    prog.stats.cacheHits = 0;
    return serializeProgram(prog);
}

/** Compile through `fn`; empty when the configuration cannot fit the
 *  DAG (FatalError), so infeasibility must agree too. */
template <typename Fn>
std::vector<uint8_t>
bytesOrInfeasible(Fn &&fn)
{
    try {
        return programBytes(fn());
    } catch (const FatalError &) {
        return {};
    }
}

TEST(ParallelCompile, PreparedDagCompilesToTheSameBytes)
{
    // compile(prepareDag(d)) is the one compile path: it must emit the
    // bytes compile(d) emits, directly and through a ProgramCache.
    const ArchConfig minEdp = minEdpConfig();
    const ArchConfig configs[] = {minEdp, cfgOf(1, 8, 16),
                                  cfgOf(2, 16, 32)};
    struct Variant
    {
        uint32_t partitionNodes, threads;
    };
    const Variant variants[] = {{0, 1}, {512, 1}, {512, 4}};
    ProgramCache by_prepared;
    size_t compared = 0, partitioned = 0;
    for (const WorkloadSpec &spec : smallSuite()) {
        Dag d = buildWorkloadDag(spec, 0.02);
        PreparedDag p = prepareDag(d);
        EXPECT_EQ(p.numInputs, d.numInputs());
        partitioned += p.dag.numOperations() > 512;
        for (const ArchConfig &cfg : configs)
            for (const Variant &v : variants) {
                CompileOptions opt;
                opt.partitionNodes = v.partitionNodes;
                opt.threads = v.threads;
                SCOPED_TRACE(spec.name + " " + cfg.label() + " p" +
                             std::to_string(v.partitionNodes) + " t" +
                             std::to_string(v.threads));
                auto ref =
                    bytesOrInfeasible([&] { return compile(d, cfg, opt); });
                EXPECT_EQ(ref, bytesOrInfeasible(
                                   [&] { return compile(p, cfg, opt); }));
                EXPECT_EQ(ref, bytesOrInfeasible([&] {
                              return by_prepared.compile(p, cfg, opt);
                          }));
                compared += !ref.empty();
            }
    }
    EXPECT_GT(compared, 0u);
    EXPECT_GT(partitioned, 0u); // the multi-partition path ran
    // The thread count is not in the key: the threads=4 variant hits.
    EXPECT_GT(by_prepared.stats().hits, 0u);
}

TEST(ParallelCompile, PreparedDagSharesProgramCacheKeys)
{
    Dag d = generateRandomDag(24, 800, 71);
    PreparedDag p = prepareDag(d);
    ArchConfig cfg = cfgOf(2, 16, 32);
    CompileOptions opt;
    opt.partitionNodes = 300;
    EXPECT_EQ(p.sourceHash, dagStructuralHash(d));
    EXPECT_EQ(programCacheKey(p.sourceHash, cfg, opt),
              programCacheKey(d, cfg, opt));

    // One entry serves both overloads.
    ProgramCache cache;
    auto cold = cache.compile(d, cfg, opt);
    auto warm = cache.compile(p, cfg, opt);
    EXPECT_EQ(cold.stats.cacheHits, 0u);
    EXPECT_EQ(warm.stats.cacheHits, 1u);
    EXPECT_EQ(programBytes(cold), programBytes(warm));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

} // namespace
} // namespace dpu
