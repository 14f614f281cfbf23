/**
 * @file
 * Edge-case and determinism tests for the batch machine: zero-cycle
 * throughput, empty batches, and byte-identical results between the
 * sequential path and the std::thread worker pool.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "compiler/compiler.hh"
#include "sim/batch.hh"
#include "sim/machine.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "workloads/pc_generator.hh"
#include "workloads/sparse_matrix.hh"
#include "workloads/sptrsv.hh"

namespace dpu {
namespace {

ArchConfig
smallConfig()
{
    ArchConfig c;
    c.depth = 2;
    c.banks = 8;
    c.regsPerBank = 32;
    return c;
}

std::vector<std::vector<double>>
makeBatch(const Dag &d, size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> batch;
    for (size_t k = 0; k < count; ++k) {
        std::vector<double> in(d.numInputs());
        for (auto &x : in)
            x = 0.5 + rng.uniform();
        batch.push_back(std::move(in));
    }
    return batch;
}

void
expectIdenticalResults(const BatchResult &a, const BatchResult &b)
{
    ASSERT_EQ(a.runs.size(), b.runs.size());
    EXPECT_EQ(a.wallCycles, b.wallCycles);
    EXPECT_EQ(a.totalOperations, b.totalOperations);
    for (size_t k = 0; k < a.runs.size(); ++k) {
        const SimResult &ra = a.runs[k];
        const SimResult &rb = b.runs[k];
        ASSERT_EQ(ra.outputs.size(), rb.outputs.size());
        for (size_t i = 0; i < ra.outputs.size(); ++i)
            // Byte-identical, not just approximately equal: the
            // same Machine must have produced the same bits.
            EXPECT_EQ(ra.outputs[i], rb.outputs[i])
                << "run " << k << " output " << i;
        EXPECT_EQ(ra.stats.cycles, rb.stats.cycles);
        EXPECT_EQ(ra.stats.kindCount, rb.stats.kindCount);
        EXPECT_EQ(ra.stats.bankReads, rb.stats.bankReads);
        EXPECT_EQ(ra.stats.bankWrites, rb.stats.bankWrites);
        EXPECT_EQ(ra.stats.peOperations, rb.stats.peOperations);
        EXPECT_EQ(ra.stats.pePassThroughs, rb.stats.pePassThroughs);
        EXPECT_EQ(ra.stats.crossbarTransfers,
                  rb.stats.crossbarTransfers);
        EXPECT_EQ(ra.stats.memReads, rb.stats.memReads);
        EXPECT_EQ(ra.stats.memWrites, rb.stats.memWrites);
        EXPECT_EQ(ra.stats.instrBitsFetched,
                  rb.stats.instrBitsFetched);
        EXPECT_EQ(ra.stats.peakLiveRegisters,
                  rb.stats.peakLiveRegisters);
    }
}

TEST(BatchResult, ZeroWallCyclesThroughputIsZero)
{
    BatchResult r;
    r.wallCycles = 0;
    r.totalOperations = 12345; // inconsistent on purpose
    EXPECT_EQ(r.throughputGops(300e6), 0.0);
}

TEST(BatchMachine, EmptyBatch)
{
    Dag d = generateRandomDag(8, 100, 41);
    auto prog = compile(d, smallConfig());
    BatchMachine bm(prog, 4, prog.stats.numOperations);
    auto r = bm.run({});
    EXPECT_TRUE(r.runs.empty());
    EXPECT_EQ(r.wallCycles, 0u);
    EXPECT_EQ(r.totalOperations, 0u);
    EXPECT_EQ(r.throughputGops(300e6), 0.0);
}

TEST(BatchMachine, EmptyBatchThreaded)
{
    Dag d = generateRandomDag(8, 100, 42);
    auto prog = compile(d, smallConfig());
    BatchMachine bm(prog, 4, prog.stats.numOperations, 8);
    auto r = bm.run({});
    EXPECT_TRUE(r.runs.empty());
    EXPECT_EQ(r.wallCycles, 0u);
}

TEST(BatchMachine, ThreadedMatchesSequential)
{
    Dag d = generateRandomDag(16, 600, 43);
    auto prog = compile(d, smallConfig());
    auto batch = makeBatch(d, 7, 44);

    BatchMachine seq(prog, 4, prog.stats.numOperations, 1);
    BatchMachine par(prog, 4, prog.stats.numOperations, 4);
    auto r1 = seq.run(batch);
    auto r4 = par.run(batch);
    ASSERT_EQ(r1.runs.size(), 7u);
    expectIdenticalResults(r1, r4);
}

TEST(BatchMachine, MoreThreadsThanInputs)
{
    Dag d = generateRandomDag(8, 150, 45);
    auto prog = compile(d, smallConfig());
    auto batch = makeBatch(d, 3, 46);

    BatchMachine seq(prog, 2, prog.stats.numOperations, 1);
    BatchMachine par(prog, 2, prog.stats.numOperations, 16);
    expectIdenticalResults(seq.run(batch), par.run(batch));
}

TEST(BatchMachine, MoreCoresThanInputs)
{
    // Idle-core accounting: with cores > batch size, the extra cores
    // contribute zero cycles and must not distort the wall clock
    // (lockstep wall = busiest core = exactly one run) or the
    // operation count (only executed runs count).
    Dag d = generateRandomDag(8, 150, 49);
    auto prog = compile(d, smallConfig());
    auto batch = makeBatch(d, 3, 50);

    BatchMachine bm(prog, 8, prog.stats.numOperations);
    auto r = bm.run(batch);
    ASSERT_EQ(r.runs.size(), 3u);
    EXPECT_EQ(r.wallCycles, prog.stats.cycles);
    EXPECT_EQ(r.totalOperations, 3 * prog.stats.numOperations);
    EXPECT_GT(r.throughputGops(300e6), 0.0);
}

TEST(BatchMachine, MoreCoresThanInputsThreaded)
{
    // Same accounting when the host worker pool is wider than both
    // the batch and the model core count.
    Dag d = generateRandomDag(8, 150, 51);
    auto prog = compile(d, smallConfig());
    auto batch = makeBatch(d, 2, 52);

    BatchMachine seq(prog, 16, prog.stats.numOperations, 1);
    BatchMachine par(prog, 16, prog.stats.numOperations, 8);
    auto rs = seq.run(batch);
    auto rp = par.run(batch);
    EXPECT_EQ(rs.wallCycles, prog.stats.cycles);
    expectIdenticalResults(rs, rp);
}

TEST(BatchMachine, SingleInputManyCores)
{
    Dag d = generateRandomDag(8, 150, 53);
    auto prog = compile(d, smallConfig());
    auto batch = makeBatch(d, 1, 54);

    BatchMachine bm(prog, 4, prog.stats.numOperations);
    auto r = bm.run(batch);
    EXPECT_EQ(r.wallCycles, prog.stats.cycles);
    EXPECT_EQ(r.totalOperations, prog.stats.numOperations);
}

TEST(CoreSet, FirstNAndValidation)
{
    CoreSet s = CoreSet::firstN(3);
    ASSERT_EQ(s.count(), 3u);
    EXPECT_EQ(s.ids, (std::vector<uint32_t>{0, 1, 2}));
    EXPECT_FALSE(s.empty());
    EXPECT_TRUE(CoreSet::firstN(0).empty());
    s.validate(); // unique ids pass

    CoreSet dup;
    dup.ids = {2, 5, 2};
    EXPECT_THROW(dup.validate(), PanicError);
}

TEST(BatchMachine, CoreSubsetMatchesEquivalentCount)
{
    // Core-subset dispatch (per-program partitioning on the serving
    // side): running on cores {1, 3, 5} is byte-identical to running
    // on 3 conventionally numbered cores — identity only labels the
    // accounting.
    Dag d = generateRandomDag(16, 600, 55);
    auto prog = compile(d, smallConfig());
    auto batch = makeBatch(d, 7, 56);

    CoreSet subset;
    subset.ids = {1, 3, 5};
    BatchMachine by_count(prog, 3, prog.stats.numOperations);
    BatchMachine by_set(prog, subset, prog.stats.numOperations, 2);
    auto rc = by_count.run(batch);
    auto rs = by_set.run(batch);
    expectIdenticalResults(rc, rs);
    EXPECT_EQ(rs.coreIds, subset.ids);
    EXPECT_EQ(rc.coreIds, (std::vector<uint32_t>{0, 1, 2}));
    EXPECT_EQ(rs.perCoreCycles, rc.perCoreCycles);
}

TEST(BatchMachine, PerCoreCyclesFoldToWallClock)
{
    Dag d = generateRandomDag(8, 150, 57);
    auto prog = compile(d, smallConfig());
    auto batch = makeBatch(d, 5, 58);

    CoreSet subset;
    subset.ids = {7, 2};
    BatchMachine bm(prog, subset, prog.stats.numOperations);
    auto r = bm.run(batch);
    ASSERT_EQ(r.perCoreCycles.size(), 2u);
    // Round-robin over 2 cores: first core (id 7) gets 3 slices.
    EXPECT_EQ(r.perCoreCycles[0], 3 * prog.stats.cycles);
    EXPECT_EQ(r.perCoreCycles[1], 2 * prog.stats.cycles);
    EXPECT_EQ(r.wallCycles,
              *std::max_element(r.perCoreCycles.begin(),
                                r.perCoreCycles.end()));
}

TEST(BatchMachine, PreDecodedMachineMatchesProgramForm)
{
    // The serving side decodes each resident program once and hands
    // the Machine to every batch. Several batches share that one
    // Machine concurrently (host threads inside each batch, plus two
    // batches at once); each must equal a BatchMachine built from
    // the program, transfer accounting included.
    Dag d = generateRandomDag(16, 600, 47);
    auto prog = compile(d, smallConfig());
    auto batch = makeBatch(d, 9, 48);
    HostTransferModel link;
    link.cyclesPerByte = 0.5;
    link.dispatchCycles = 7;
    RankSet target{1, CoreSet{{2, 0, 3}}};

    BatchResult reference =
        BatchMachine(prog, target, prog.stats.numOperations, 1, link)
            .run(batch);
    const Machine machine(prog);
    BatchResult shared[2];
    std::thread other([&] {
        shared[1] = BatchMachine(machine, target,
                                 prog.stats.numOperations, 3, link)
                        .run(batch);
    });
    shared[0] =
        BatchMachine(machine, target, prog.stats.numOperations, 4, link)
            .run(batch);
    other.join();

    for (const BatchResult &r : shared) {
        expectIdenticalResults(reference, r);
        EXPECT_EQ(r.rank, 1u);
        EXPECT_EQ(r.coreIds, reference.coreIds);
        EXPECT_EQ(r.perCoreCycles, reference.perCoreCycles);
        EXPECT_EQ(r.transferCycles, reference.transferCycles);
        EXPECT_GT(r.transferCycles, 0u);
    }
    EXPECT_EQ(machine.transferBytes(), hostTransferBytes(prog));
}

TEST(BatchMachine, EmptyCoreSetRejected)
{
    Dag d = generateRandomDag(8, 100, 59);
    auto prog = compile(d, smallConfig());
    EXPECT_THROW(BatchMachine(prog, CoreSet{}, 1), PanicError);
    EXPECT_THROW(BatchMachine(prog, 0u, 1), PanicError);
}

TEST(BatchSpTrsv, MultiRhsByteIdenticalToSingleSolves)
{
    // The batched multi-RHS serving contract: one factorization, many
    // right-hand sides coalesced into one BatchMachine dispatch, with
    // every per-RHS result byte-identical to an independent
    // single-RHS solve — at every worker / batch-size / core-count
    // combination (seeded; runs in the TSAN suite).
    LowerTriangularParams p;
    p.dim = 96;
    p.depthLevels = 12;
    p.avgOffDiagonal = 3.0;
    p.seed = 31;
    auto lower = makeLowerTriangular(p);
    auto lowered = buildSpTrsvDag(lower);
    auto prog = compile(lowered.dag, smallConfig());

    for (size_t batch_size : {size_t(1), size_t(3), size_t(8)}) {
        Rng rng(50 + batch_size);
        std::vector<std::vector<double>> rhs_batch;
        for (size_t b = 0; b < batch_size; ++b) {
            std::vector<double> rhs(lower.dim());
            for (auto &x : rhs)
                x = rng.uniform() * 2 - 1;
            rhs_batch.push_back(std::move(rhs));
        }
        auto inputs = sptrsvBatchInputs(lowered, lower, rhs_batch);

        // Independent single-RHS solves, one Machine run each.
        std::vector<SimResult> singles;
        for (size_t b = 0; b < batch_size; ++b)
            singles.push_back(runAndCheck(
                prog, lowered.dag,
                sptrsvInputValues(lowered, lower, rhs_batch[b])));

        for (uint32_t cores : {1u, 4u}) {
            for (uint32_t threads : {1u, 2u, 4u}) {
                BatchMachine bm(prog, cores,
                                prog.stats.numOperations, threads);
                auto br = bm.run(inputs);
                ASSERT_EQ(br.runs.size(), batch_size);
                for (size_t b = 0; b < batch_size; ++b) {
                    const auto &got = br.runs[b].outputs;
                    const auto &want = singles[b].outputs;
                    ASSERT_EQ(got.size(), want.size());
                    for (size_t i = 0; i < got.size(); ++i)
                        EXPECT_EQ(got[i], want[i]) // bitwise
                            << "batch " << batch_size << " cores "
                            << cores << " threads " << threads
                            << " rhs " << b << " output " << i;
                    EXPECT_EQ(br.runs[b].stats.cycles,
                              singles[b].stats.cycles);
                }
            }
        }
    }
}

TEST(BatchMachine, ThreadCountDoesNotChangeModelClock)
{
    // The host worker pool must not leak into the modeled machine:
    // wall cycles depend only on cores and the batch.
    Dag d = generateRandomDag(8, 150, 47);
    auto prog = compile(d, smallConfig());
    auto batch = makeBatch(d, 5, 48);

    BatchMachine four_cores(prog, 4, prog.stats.numOperations, 3);
    auto r = four_cores.run(batch);
    // Core 0 gets 2 slices, the rest 1: wall = 2 runs.
    EXPECT_EQ(r.wallCycles, 2 * prog.stats.cycles);
}

} // namespace
} // namespace dpu
