/**
 * @file
 * Tests for partition-parallel compilation: the compiled program must
 * be byte-identical for every --threads value (and across repeated
 * runs), partitioned compiles must stay functionally correct, and the
 * partitioner edge cases feeding the parallel pipeline must hold.
 * Compiling a PreparedDag must emit the bytes compiling its DAG does.
 * The PipelineOrdered suite covers the ordered producer/consumer
 * pipeline the partitioned compile runs on, failure paths included.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "arch/isa.hh"
#include "compiler/blocks.hh"
#include "compiler/cache.hh"
#include "compiler/compiler.hh"
#include "compiler/mapper.hh"
#include "compiler/partitioner.hh"
#include "dag/algorithms.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
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
    opt.verify = true;

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
    opt.verify = true;
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
    EXPECT_EQ(a.stats.bankConflicts, 1055u);
    EXPECT_LT(b.stats.bankConflicts, a.stats.bankConflicts);
    // Fewer conflicts means fewer conflict-resolving copies, so the
    // aware program must not be longer.
    EXPECT_LE(b.stats.instructions, a.stats.instructions);
    runAndCheck(b, d, randomInputs(d, 93));
}

/** Step 2 as compile() chains it: every range prepared and mapped in
 *  partition order over the merged banks of its predecessors, with or
 *  without its look-ahead readers (the blocks of later ranges). */
std::vector<uint32_t>
mapChained(const Dag &d, const ArchConfig &cfg,
           const std::vector<RangeDecomposition> &decs, bool look_ahead)
{
    std::vector<const RangeDecomposition *> all;
    for (const RangeDecomposition &dec : decs)
        all.push_back(&dec);
    std::vector<uint32_t> bank_of(d.numNodes(), BankAssignment::invalid);
    for (size_t p = 0; p < decs.size(); ++p) {
        std::span<const RangeDecomposition *const> later;
        if (look_ahead)
            later = std::span<const RangeDecomposition *const>(all).subspan(
                p + 1);
        RangeBankPrep prep = prepareBanksForRange(d, cfg, decs[p], later);
        BankAssignment piece = assignBanksForRange(
            d, cfg, decs[p], prep, BankPolicy::ConflictAware, 1 + p,
            &bank_of, later);
        std::copy(piece.bankOf.begin(), piece.bankOf.end(),
                  bank_of.begin() + decs[p].range.first);
    }
    return bank_of;
}

/** Input pairs of a block that share a bank although one earlier
 *  range owns both values: the co-reads only look-ahead can see. */
uint64_t
sameEarlierRangeCoReads(const std::vector<RangeDecomposition> &decs,
                        const std::vector<uint32_t> &bank_of)
{
    auto owner = [&](NodeId v) {
        size_t p = 0;
        while (v >= decs[p].range.second)
            ++p;
        return p;
    };
    uint64_t pairs = 0;
    for (size_t q = 0; q < decs.size(); ++q)
        for (const Block &b : decs[q].blocks)
            for (size_t i = 0; i < b.inputs.size(); ++i)
                for (size_t j = i + 1; j < b.inputs.size(); ++j) {
                    NodeId u = b.inputs[i], w = b.inputs[j];
                    if (w < decs[q].range.first &&
                        bank_of[u] == bank_of[w] && owner(u) == owner(w))
                        ++pairs;
                }
    return pairs;
}

TEST(ParallelCompile, LookAheadSeparatesCoReadsOfOneEarlierRange)
{
    // A later block reading two values of one earlier range is one of
    // their readers when that range maps, so the two avoid sharing a
    // bank. Measured on this DAG: 229 such bank-sharing pairs without
    // look-ahead, 30 with it; the bound sits between the two.
    Dag d = generateRandomDag(64, 4000, 91);
    ArchConfig cfg = cfgOf(3, 16, 64);
    const SuccessorIndex succ(d);
    const std::vector<uint32_t> positions = dfsPreorderPositions(d, succ);
    std::vector<RangeDecomposition> decs;
    for (PartitionRange range : partitionByCount(d, 600))
        decs.push_back(
            decomposeRangeIntoBlocks(d, succ, cfg, range, positions));
    ASSERT_EQ(decs.size(), 7u);
    const uint64_t blind =
        sameEarlierRangeCoReads(decs, mapChained(d, cfg, decs, false));
    const uint64_t ahead =
        sameEarlierRangeCoReads(decs, mapChained(d, cfg, decs, true));
    EXPECT_GT(blind, 100u);
    EXPECT_LT(ahead, 100u);
}

TEST(ParallelCompile, LookAheadByteIdenticalAcrossThreadsAndWarmRanges)
{
    // Six ranges, each prepared from the blocks of every later one:
    // the bytes must not depend on the thread count, nor on which
    // ranges a fragment cache serves (a hit skips steps 1-2, so a
    // missing range reads the later blocks from cache entries).
    Dag d = generateRandomDag(48, 3000, 71);
    ArchConfig cfg = cfgOf(3, 16, 32);
    CompileOptions opt;
    opt.partitionNodes = 500;
    opt.verify = true;
    ASSERT_EQ(partitionByCount(d, opt.partitionNodes).size(), 6u);
    const CompiledProgram cold = compile(d, cfg, opt);
    for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        opt.threads = threads;
        expectIdentical(cold, compile(d, cfg, opt));

        // Three fragment slots keep the last three ranges a serial
        // compile stored, so the next compile hits ranges 3-5 and
        // misses 0-2.
        FragmentCache frags(3);
        CompileOptions warm = opt;
        warm.fragmentCache = &frags;
        warm.threads = 1;
        compile(d, cfg, warm);
        warm.threads = threads;
        const FragmentCache::Stats before = frags.stats();
        const CompiledProgram mixed = compile(d, cfg, warm);
        EXPECT_EQ(frags.stats().hits - before.hits, 3u);
        EXPECT_EQ(frags.stats().misses - before.misses, 3u);
        expectIdentical(cold, mixed);
    }
    runAndCheck(cold, d, randomInputs(d, 72));
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

/** Compile through `fn`; empty when the configuration cannot fit the
 *  DAG (FatalError), so infeasibility must agree too. */
template <typename Fn>
std::vector<uint8_t>
bytesOrInfeasible(Fn &&fn)
{
    try {
        return serializeProgram(fn());
    } catch (const FatalError &) {
        return {};
    }
}

/** A random DAG with 1- to 5-operand Add/Mul nodes: the only kind of
 *  input that still reaches binarize (every suite and random DAG is
 *  binary and compiles in place). */
Dag
naryDag(size_t num_inputs, size_t num_operations, uint64_t seed)
{
    Rng rng(seed);
    Dag d;
    for (size_t i = 0; i < num_inputs; ++i)
        d.addInput();
    for (size_t k = 0; k < num_operations; ++k) {
        std::vector<NodeId> ops(1 + rng.below(5));
        for (NodeId &v : ops)
            v = static_cast<NodeId>(rng.below(d.numNodes()));
        d.addNode(rng.below(2) ? OpType::Add : OpType::Mul,
                  std::move(ops));
    }
    return d;
}

TEST(ParallelCompile, PreparedDagCompilesToTheSameBytes)
{
    // compile(prepareDag(d)) is the one compile path: it must emit the
    // bytes compile(d) emits, directly and through a ProgramCache —
    // for binary DAGs, which compile in place, and for an n-ary one,
    // which both overloads binarize first, and whose binarized form
    // compiled in place must emit those bytes too.
    const ArchConfig minEdp = minEdpConfig();
    const ArchConfig configs[] = {minEdp, cfgOf(1, 8, 16),
                                  cfgOf(2, 16, 32)};
    struct Variant
    {
        uint32_t partitionNodes, threads;
    };
    const Variant variants[] = {{0, 1}, {512, 1}, {512, 4}};
    std::vector<std::pair<std::string, Dag>> dags;
    for (const WorkloadSpec &spec : smallSuite())
        dags.emplace_back(spec.name, buildWorkloadDag(spec, 0.02));
    dags.emplace_back("nary", naryDag(40, 1500, 83));
    ASSERT_FALSE(dags.back().second.isBinary());
    ProgramCache by_prepared;
    size_t compared = 0, partitioned = 0, nary_compared = 0;
    for (const auto &[name, d] : dags) {
        PreparedDag p = prepareDag(d);
        EXPECT_EQ(p.numInputs, d.numInputs());
        EXPECT_TRUE(p.dag.isBinary());
        partitioned += p.dag.numOperations() > 512;
        for (const ArchConfig &cfg : configs)
            for (const Variant &v : variants) {
                CompileOptions opt;
                opt.partitionNodes = v.partitionNodes;
                opt.threads = v.threads;
                SCOPED_TRACE(name + " " + cfg.label() + " p" +
                             std::to_string(v.partitionNodes) + " t" +
                             std::to_string(v.threads));
                auto ref =
                    bytesOrInfeasible([&] { return compile(d, cfg, opt); });
                EXPECT_EQ(ref, bytesOrInfeasible(
                                   [&] { return compile(p, cfg, opt); }));
                EXPECT_EQ(ref, bytesOrInfeasible([&] {
                              return by_prepared.compile(p, cfg, opt);
                          }));
                if (!d.isBinary()) { // binarized, then compiled in place
                    EXPECT_EQ(ref, bytesOrInfeasible([&] {
                                  return compile(p.dag, cfg, opt);
                              }));
                }
                compared += !ref.empty();
                nary_compared += !ref.empty() && !d.isBinary();
            }
    }
    EXPECT_GT(compared, 0u);
    EXPECT_GT(nary_compared, 0u);
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
    EXPECT_EQ(serializeProgram(cold), serializeProgram(warm));
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ParallelCompile, BoundaryObliviousByteIdenticalAcrossThreads)
{
    // The boundary-oblivious mapper runs unordered in the producers;
    // only its merge is ordered. The bytes must not depend on it.
    Dag d = generateRandomDag(64, 3000, 95);
    ArchConfig cfg = cfgOf(3, 16, 64);
    CompileOptions opt;
    opt.partitionNodes = 500;
    opt.boundaryAwareBanks = false;
    opt.verify = true;
    opt.threads = 1;
    auto reference = compile(d, cfg, opt);
    for (uint32_t threads : {2u, 4u, 8u}) {
        opt.threads = threads;
        expectIdentical(reference, compile(d, cfg, opt));
    }
    runAndCheck(reference, d, randomInputs(d, 96));
}

/**
 * The outputs' order: input sinks first, in sinks() order, then the
 * compute sinks by store round. A round stores the earliest pending
 * sinks whose bank column is still free, one per bank, into the next
 * row; the first round's row is the first row past the inputs.
 */
void
expectOutputOrder(const CompiledProgram &prog, const Dag &d)
{
    std::vector<NodeId> input_sinks, compute_sinks;
    for (NodeId s : d.sinks())
        (d.node(s).isInput() ? input_sinks : compute_sinks).push_back(s);
    ASSERT_EQ(prog.outputs.size(),
              input_sinks.size() + compute_sinks.size());
    size_t k = 0;
    for (NodeId s : input_sinks)
        EXPECT_EQ(prog.outputs[k++].node, s);

    uint32_t row = 0;
    for (auto [r, c] : prog.inputLocation)
        row = std::max(row, r + 1);
    std::vector<uint32_t> bank(d.numNodes(), 0);
    for (const auto &o : prog.outputs)
        bank[o.node] = o.col;
    std::vector<NodeId> pending = compute_sinks;
    while (!pending.empty()) {
        uint64_t used = 0;
        for (auto it = pending.begin(); it != pending.end();) {
            if (used >> bank[*it] & 1) {
                ++it;
                continue;
            }
            used |= uint64_t(1) << bank[*it];
            EXPECT_EQ(prog.outputs[k].node, *it) << "output " << k;
            EXPECT_EQ(prog.outputs[k].row, row) << "output " << k;
            ++k;
            it = pending.erase(it);
        }
        ++row;
    }
}

TEST(ParallelCompile, TailEdgeCasesMatchReference)
{
    // The final stores ride in the last range's fragment and the merge
    // places the io rows; these DAGs stress that tail, whole and cut
    // into ranges of one and eight compute nodes.
    std::vector<std::pair<std::string, Dag>> dags;
    {
        Dag d; // inputs only: every result is an input, no instruction
        for (int i = 0; i < 3; ++i)
            d.addInput();
        dags.push_back({"inputs only", std::move(d)});
    }
    {
        Dag d; // an unread input among compute sinks
        NodeId a = d.addInput();
        NodeId b = d.addInput();
        d.addInput();
        NodeId x = d.addNode(OpType::Add, {a, b});
        d.addNode(OpType::Mul, {x, a});
        d.addNode(OpType::Mul, {a, b});
        d.addInput();
        dags.push_back({"input sink beside compute sinks", std::move(d)});
    }
    {
        Dag d; // 20 compute sinks over 8 banks: at least three rounds
        std::vector<NodeId> in;
        for (int i = 0; i < 5; ++i)
            in.push_back(d.addInput());
        for (int i = 0; i < 20; ++i)
            d.addNode(i % 2 ? OpType::Add : OpType::Mul,
                      {in[i % 5], in[(i / 5 + i + 1) % 5]});
        dags.push_back({"more compute sinks than banks", std::move(d)});
    }
    {
        // Twelve sinks, then one more compute node. A range always
        // ends before a compute node, so the last range defines the
        // DAG's last compute node, a sink; in ranges of one (or
        // eight) compute nodes, every other store reads a value an
        // earlier range defined.
        Dag d;
        std::vector<NodeId> in;
        for (int i = 0; i < 4; ++i)
            in.push_back(d.addInput());
        for (int i = 0; i < 12; ++i)
            d.addNode(OpType::Add, {in[i % 4], in[(i + 1) % 4]});
        d.addNode(OpType::Mul, {in[0], in[3]});
        dags.push_back({"last range reads its sinks", std::move(d)});
    }

    ArchConfig cfg = cfgOf(2, 8, 16);
    for (const auto &[name, d] : dags) {
        for (uint32_t part : {0u, 1u, 8u}) {
            CompiledProgram first;
            for (uint32_t threads : {1u, 3u}) {
                SCOPED_TRACE(name + ", partition " + std::to_string(part) +
                             ", threads " + std::to_string(threads));
                CompileOptions opt;
                opt.partitionNodes = part;
                opt.threads = threads;
                opt.verify = true;
                CompiledProgram prog = compile(d, cfg, opt);
                runAndCheck(prog, d, randomInputs(d, part + 5));
                expectOutputOrder(prog, d);
                if (d.numOperations() == 0) {
                    EXPECT_EQ(prog.stats.instructions, 0u);
                }
                if (threads == 1)
                    first = prog;
                else
                    expectIdentical(first, prog);
            }
        }
    }
}


/** Which pipelineOrdered stage a probe makes throw. */
enum class Throw { Pre, Ordered, Produce, Consume };

/**
 * Run a pipelineOrdered over `n` indices whose stage `where` throws at
 * index `at`: the error must come out of pipelineOrdered (a deadlock
 * hangs the test), and nothing at or after the failed index may be
 * consumed — nothing at all after a failed pre(), which every
 * produce() waits for.
 */
void
expectPipelineFailure(size_t n, uint32_t threads, size_t at, Throw where)
{
    SCOPED_TRACE("threads=" + std::to_string(threads) + " at=" +
                 std::to_string(at) + " stage=" +
                 std::to_string(static_cast<int>(where)));
    std::vector<size_t> consumed;
    auto fail_if = [&](Throw stage, size_t i) {
        if (stage == where && i == at)
            throw std::runtime_error("stage failed");
    };
    try {
        pipelineOrdered(
            n, threads, [&](size_t i) { fail_if(Throw::Pre, i); },
            [&](size_t i) { fail_if(Throw::Ordered, i); },
            [&](size_t i) { fail_if(Throw::Produce, i); },
            [&](size_t i) {
                fail_if(Throw::Consume, i);
                consumed.push_back(i);
            });
        ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "stage failed");
    }
    for (size_t k = 0; k < consumed.size(); ++k)
        EXPECT_EQ(consumed[k], k);
    EXPECT_LE(consumed.size(), where == Throw::Pre ? 0 : at);
}

TEST(PipelineOrdered, FailureAnywherePropagatesWithoutDeadlock)
{
    // A failure at index 0 strands every other worker on the
    // turnstile; one in the middle strands only the later ones; a
    // failed pre() strands every producer. n = 5 runs with more
    // threads than indices.
    for (size_t n : {size_t(5), size_t(24)})
        for (uint32_t threads : {1u, 2u, 4u, 8u})
            for (size_t at : {size_t(0), n / 2, n - 1})
                for (Throw where : {Throw::Pre, Throw::Ordered,
                                    Throw::Produce, Throw::Consume})
                    expectPipelineFailure(n, threads, at, where);
}

TEST(PipelineOrdered, OrderedStepsAndConsumesRunInIndexOrder)
{
    // Unordered work in pre() and in the producer after each ordered
    // step: the ordered steps see a strictly growing prefix, whatever
    // the thread count.
    const size_t n = 64;
    for (uint32_t threads : {1u, 3u, 8u}) {
        std::vector<size_t> ordered, consumed;
        std::vector<uint64_t> work(n, 0);
        auto busy = [&](size_t i) {
            Rng rng(i);
            for (int k = 0; k < 1000; ++k)
                work[i] += rng.below(7);
        };
        pipelineOrdered(
            n, threads, busy, [&](size_t i) { ordered.push_back(i); },
            busy, [&](size_t i) { consumed.push_back(i); });
        ASSERT_EQ(ordered.size(), n);
        ASSERT_EQ(consumed.size(), n);
        for (size_t i = 0; i < n; ++i) {
            EXPECT_EQ(ordered[i], i);
            EXPECT_EQ(consumed[i], i);
        }
    }
}

TEST(PipelineOrdered, StagesWaitForTheirPreSteps)
{
    // ordered(i) must see pre(i) done, and produce(i) every pre();
    // pre() runs unordered, each on its own index. Uneven pre() costs
    // make late indices finish first; threads = 16 exceeds n.
    const size_t n = 12;
    for (uint32_t threads : {1u, 2u, 4u, 8u, 16u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::vector<std::atomic<int>> pre_done(n);
        std::atomic<size_t> pre_count{0};
        std::vector<uint8_t> ordered_saw(n, 0), produce_saw(n, 0);
        std::vector<uint64_t> work(n, 0);
        pipelineOrdered(
            n, threads,
            [&](size_t i) {
                Rng rng(i);
                for (size_t k = 0; k < 2000 * (n - i); ++k)
                    work[i] += rng.below(7);
                pre_done[i].store(1);
                pre_count.fetch_add(1);
            },
            [&](size_t i) { ordered_saw[i] = pre_done[i].load() == 1; },
            [&](size_t i) { produce_saw[i] = pre_count.load() == n; },
            [](size_t) {});
        for (size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(ordered_saw[i]) << "ordered " << i;
            EXPECT_TRUE(produce_saw[i]) << "produce " << i;
        }
    }
}

} // namespace
} // namespace dpu
