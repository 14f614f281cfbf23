/**
 * @file
 * Unit tests for the workload suite: sparse matrices, SpTRSV lowering,
 * PC generation, and the Table I twins.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dag/algorithms.hh"
#include "dag/eval.hh"
#include "workloads/pc_generator.hh"
#include "workloads/sparse_matrix.hh"
#include "workloads/sptrsv.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

TEST(SparseMatrix, FromTripletsSortsAndMerges)
{
    auto m = SparseMatrixCsr::fromTriplets(
        3, {{2, 1, 1.0}, {0, 0, 2.0}, {2, 1, 0.5}, {1, 0, -1.0},
            {1, 1, 3.0}});
    EXPECT_EQ(m.dim(), 3u);
    EXPECT_EQ(m.nnz(), 4u); // duplicate (2,1) merged
    EXPECT_DOUBLE_EQ(m.at(2, 1), 1.5);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
    EXPECT_TRUE(m.isLowerTriangular());
}

TEST(SparseMatrix, NotLowerTriangular)
{
    auto m = SparseMatrixCsr::fromTriplets(2, {{0, 1, 1.0}, {1, 1, 1.0}});
    EXPECT_FALSE(m.isLowerTriangular());
}

TEST(SparseMatrix, DependencyDepthOfChain)
{
    // Bidiagonal: every row depends on the previous one.
    std::vector<Triplet> t;
    for (uint32_t i = 0; i < 10; ++i) {
        t.push_back({i, i, 1.0});
        if (i)
            t.push_back({i, i - 1, 0.5});
    }
    auto m = SparseMatrixCsr::fromTriplets(10, t);
    EXPECT_EQ(m.dependencyDepth(), 10u);
}

TEST(SparseMatrix, DependencyDepthOfDiagonal)
{
    std::vector<Triplet> t;
    for (uint32_t i = 0; i < 10; ++i)
        t.push_back({i, i, 1.0});
    auto m = SparseMatrixCsr::fromTriplets(10, t);
    EXPECT_EQ(m.dependencyDepth(), 1u);
}

TEST(SparseMatrix, GeneratorHitsDepthExactly)
{
    LowerTriangularParams p;
    p.dim = 512;
    p.depthLevels = 32;
    p.avgOffDiagonal = 3.0;
    p.seed = 5;
    auto m = makeLowerTriangular(p);
    EXPECT_TRUE(m.isLowerTriangular());
    EXPECT_EQ(m.dependencyDepth(), 32u);
}

TEST(SparseMatrix, GeneratorNnzNearTarget)
{
    LowerTriangularParams p;
    p.dim = 2048;
    p.depthLevels = 64;
    p.avgOffDiagonal = 4.0;
    p.seed = 9;
    auto m = makeLowerTriangular(p);
    double off = static_cast<double>(m.nnz()) - p.dim;
    EXPECT_NEAR(off / p.dim, 4.0, 0.5);
}

TEST(SparseMatrix, MatrixMarketRoundTrip)
{
    LowerTriangularParams p;
    p.dim = 64;
    p.depthLevels = 8;
    p.seed = 2;
    auto m = makeLowerTriangular(p);
    std::stringstream ss;
    writeMatrixMarket(m, ss);
    auto back = readMatrixMarket(ss);
    ASSERT_EQ(back.dim(), m.dim());
    ASSERT_EQ(back.nnz(), m.nnz());
    for (uint32_t r = 0; r < m.dim(); ++r)
        for (size_t k = m.rowBegin(r); k < m.rowEnd(r); ++k)
            EXPECT_NEAR(back.at(r, m.colAt(k)), m.valueAt(k), 1e-9);
}

TEST(SparseMatrix, MatrixMarketRejectsGarbage)
{
    std::stringstream ss("not a matrix\n");
    EXPECT_THROW(readMatrixMarket(ss), FatalError);
}

TEST(SparseMatrix, MatrixMarketSymmetricMirrors)
{
    std::stringstream ss("%%MatrixMarket matrix coordinate real "
                         "symmetric\n"
                         "3 3 4\n"
                         "1 1 2.0\n2 2 2.0\n3 3 2.0\n3 1 -0.5\n");
    auto m = readMatrixMarket(ss);
    EXPECT_EQ(m.nnz(), 5u);
    EXPECT_DOUBLE_EQ(m.at(2, 0), -0.5);
    EXPECT_DOUBLE_EQ(m.at(0, 2), -0.5); // mirrored with +v
}

TEST(SparseMatrix, MatrixMarketSkewSymmetricNegatesMirror)
{
    // The old substring banner check classified skew-symmetric as
    // symmetric and mirrored with the wrong sign.
    std::stringstream ss("%%MatrixMarket matrix coordinate real "
                         "skew-symmetric\n"
                         "3 3 2\n"
                         "2 1 0.5\n3 2 -0.25\n");
    auto m = readMatrixMarket(ss);
    EXPECT_EQ(m.nnz(), 4u);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 0.5);
    EXPECT_DOUBLE_EQ(m.at(0, 1), -0.5); // mirrored with -v
    EXPECT_DOUBLE_EQ(m.at(2, 1), -0.25);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 0.25);
}

TEST(SparseMatrix, MatrixMarketRejectsUnsupportedBanners)
{
    for (const char *banner :
         {"%%MatrixMarket matrix coordinate complex general\n",
          "%%MatrixMarket matrix coordinate real hermitian\n",
          "%%MatrixMarket matrix coordinate pattern general\n",
          "%%MatrixMarket matrix array real general\n",
          "%%MatrixMarket vector coordinate real general\n"}) {
        std::stringstream ss(std::string(banner) + "2 2 1\n1 1 1.0\n");
        EXPECT_THROW(readMatrixMarket(ss), FatalError) << banner;
    }
}

TEST(SparseMatrix, MatrixMarketAllowsBlankLines)
{
    // Real SuiteSparse files separate comments from the size line
    // with blank lines; the old skip loop stopped at the first one.
    std::stringstream ss("%%MatrixMarket matrix coordinate real "
                         "general\n"
                         "% a comment\n"
                         "\n"
                         "   \n"
                         "2 2 3\n"
                         "1 1 1.0\n2 1 0.5\n2 2 1.0\n");
    auto m = readMatrixMarket(ss);
    EXPECT_EQ(m.dim(), 2u);
    EXPECT_EQ(m.nnz(), 3u);
    EXPECT_DOUBLE_EQ(m.at(1, 0), 0.5);
}

TEST(SparseMatrix, MatrixMarketRejectsHugeEntriesHeader)
{
    // entries > rows*cols must fail before any multi-GB reserve.
    std::stringstream ss("%%MatrixMarket matrix coordinate real "
                         "general\n"
                         "4 4 1000000000000000000\n"
                         "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(ss), FatalError);
}

TEST(SparseMatrix, MatrixMarketRejectsOversizedDimensions)
{
    // Dimensions past the uint32 index range used to be silently
    // truncated by a static_cast.
    std::stringstream ss("%%MatrixMarket matrix coordinate real "
                         "general\n"
                         "8589934592 8589934592 1\n"
                         "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(ss), FatalError);
}

TEST(SparseMatrix, MatrixMarketTruncatedEntriesFatal)
{
    std::stringstream ss("%%MatrixMarket matrix coordinate real "
                         "general\n"
                         "3 3 3\n"
                         "1 1 1.0\n2 2 1.0\n");
    EXPECT_THROW(readMatrixMarket(ss), FatalError);
}

TEST(SparseMatrix, MatrixMarketIntegerFieldAccepted)
{
    std::stringstream ss("%%MatrixMarket matrix coordinate integer "
                         "general\n"
                         "2 2 2\n"
                         "1 1 3\n2 2 4\n");
    auto m = readMatrixMarket(ss);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(m.at(1, 1), 4.0);
}

TEST(SparseMatrix, LowerTriangularFromKeepsLowerAndFixesDiagonal)
{
    // Full matrix with an upper entry, a zero diagonal and a missing
    // diagonal: the extraction drops the upper triangle and
    // substitutes unit diagonals.
    auto m = SparseMatrixCsr::fromTriplets(
        3, {{0, 0, 0.0}, {0, 2, 9.0}, {1, 0, -2.0}, {2, 1, 3.0},
            {2, 2, 4.0}});
    auto lower = lowerTriangularFrom(m);
    EXPECT_TRUE(lower.isLowerTriangular());
    EXPECT_DOUBLE_EQ(lower.at(0, 0), 1.0); // zero diag -> unit
    EXPECT_DOUBLE_EQ(lower.at(1, 1), 1.0); // missing diag -> unit
    EXPECT_DOUBLE_EQ(lower.at(2, 2), 4.0); // kept
    EXPECT_DOUBLE_EQ(lower.at(1, 0), -2.0);
    EXPECT_DOUBLE_EQ(lower.at(0, 2), 0.0); // upper dropped
}

TEST(SparseMatrix, GoldenFixturesLoadAndMirror)
{
    const std::string dir = DPU_DATA_DIR;
    auto chain = readMatrixMarketFile(dir + "/chain16.mtx");
    EXPECT_EQ(chain.dim(), 16u);
    EXPECT_EQ(chain.nnz(), 31u);
    EXPECT_TRUE(chain.isLowerTriangular());
    EXPECT_EQ(chain.dependencyDepth(), 16u);

    // Symmetric mirroring round-trip: write the mirrored matrix as
    // general and reread — identical entries.
    auto mesh = readMatrixMarketFile(dir + "/mesh33.mtx");
    EXPECT_EQ(mesh.dim(), 9u);
    EXPECT_EQ(mesh.nnz(), 33u); // 21 stored, 12 mirrored
    EXPECT_DOUBLE_EQ(mesh.at(0, 1), mesh.at(1, 0));
    std::stringstream ss;
    writeMatrixMarket(mesh, ss);
    auto back = readMatrixMarket(ss);
    ASSERT_EQ(back.nnz(), mesh.nnz());
    for (uint32_t r = 0; r < mesh.dim(); ++r)
        for (size_t k = mesh.rowBegin(r); k < mesh.rowEnd(r); ++k)
            EXPECT_NEAR(back.at(r, mesh.colAt(k)), mesh.valueAt(k),
                        1e-12);

    auto skew = readMatrixMarketFile(dir + "/skew7.mtx");
    EXPECT_EQ(skew.dim(), 7u);
    EXPECT_EQ(skew.nnz(), 16u); // 8 stored, 8 mirrored
    EXPECT_DOUBLE_EQ(skew.at(1, 0), 0.5);
    EXPECT_DOUBLE_EQ(skew.at(0, 1), -0.5);
}

TEST(SparseMatrix, ReadMatrixMarketFileMissingFatal)
{
    EXPECT_THROW(readMatrixMarketFile("/nonexistent/nope.mtx"),
                 FatalError);
}

TEST(SparseMatrix, ForwardSubstitutionSolves)
{
    LowerTriangularParams p;
    p.dim = 128;
    p.depthLevels = 16;
    p.seed = 3;
    auto m = makeLowerTriangular(p);
    Rng rng(4);
    std::vector<double> b(m.dim());
    for (auto &x : b)
        x = rng.uniform() * 2 - 1;
    auto x = solveLowerTriangular(m, b);
    // Verify L x = b.
    for (uint32_t r = 0; r < m.dim(); ++r) {
        double acc = 0;
        for (size_t k = m.rowBegin(r); k < m.rowEnd(r); ++k)
            acc += m.valueAt(k) * x[m.colAt(k)];
        EXPECT_NEAR(acc, b[r], 1e-8) << "row " << r;
    }
}

TEST(SpTrsv, DagMatchesForwardSubstitution)
{
    LowerTriangularParams p;
    p.dim = 256;
    p.depthLevels = 24;
    p.avgOffDiagonal = 3.0;
    p.seed = 6;
    auto m = makeLowerTriangular(p);
    auto lowered = buildSpTrsvDag(m);
    EXPECT_TRUE(lowered.dag.isBinary());

    Rng rng(7);
    std::vector<double> b(m.dim());
    for (auto &x : b)
        x = rng.uniform() * 2 - 1;

    auto ref = solveLowerTriangular(m, b);
    auto inputs = sptrsvInputValues(lowered, m, b);
    auto values = evaluate(lowered.dag, inputs);
    auto x = sptrsvSolution(lowered, values);
    ASSERT_EQ(x.size(), ref.size());
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(x[i], ref[i], 1e-8 + 1e-6 * std::abs(ref[i]))
            << "row " << i;
}

TEST(SpTrsv, RhsChangeOnlyChangesInputs)
{
    // The static-DAG assumption: a new rhs reuses the same DAG.
    LowerTriangularParams p;
    p.dim = 64;
    p.depthLevels = 8;
    p.seed = 8;
    auto m = makeLowerTriangular(p);
    auto lowered = buildSpTrsvDag(m);
    for (uint64_t trial = 0; trial < 3; ++trial) {
        Rng rng(100 + trial);
        std::vector<double> b(m.dim());
        for (auto &x : b)
            x = rng.uniform();
        auto ref = solveLowerTriangular(m, b);
        auto x = sptrsvSolution(
            lowered, evaluate(lowered.dag,
                              sptrsvInputValues(lowered, m, b)));
        for (size_t i = 0; i < x.size(); ++i)
            EXPECT_NEAR(x[i], ref[i], 1e-8 + 1e-6 * std::abs(ref[i]));
    }
}

TEST(PcGenerator, ExactCountsAndDepth)
{
    PcParams p;
    p.targetOperations = 5000;
    p.depth = 37;
    p.seed = 11;
    Dag d = generatePc(p);
    EXPECT_EQ(d.numOperations(), 5000u);
    EXPECT_EQ(longestPathLength(d), 37u);
    EXPECT_TRUE(d.isBinary());
}

TEST(PcGenerator, AlternatingOperators)
{
    PcParams p;
    p.targetOperations = 300;
    p.depth = 10;
    p.seed = 12;
    Dag d = generatePc(p);
    auto levels = asapLevels(d);
    for (NodeId id = 0; id < d.numNodes(); ++id) {
        const Node &n = d.node(id);
        if (n.isInput())
            continue;
        // Layer parity decides the operator (layer 1 = Mul).
        OpType expect =
            (levels[id] % 2 == 1) ? OpType::Mul : OpType::Add;
        EXPECT_EQ(n.op, expect) << "node " << id;
    }
}

TEST(PcGenerator, FewSinks)
{
    PcParams p;
    p.targetOperations = 4000;
    p.depth = 25;
    p.seed = 13;
    Dag d = generatePc(p);
    // The cover-unconsumed-first policy keeps spurious sinks rare
    // (under 10% of operations; learned PCs also have multiple roots
    // when compiled as multi-query circuits).
    EXPECT_LT(d.sinks().size(), d.numOperations() / 10);
}

TEST(PcGenerator, RandomDagIsWellFormed)
{
    Dag d = generateRandomDag(10, 500, 14);
    EXPECT_EQ(d.numOperations(), 500u);
    EXPECT_TRUE(d.isBinary());
    auto v = evaluate(d, std::vector<double>(10, 1.0));
    EXPECT_EQ(v.size(), d.numNodes());
}

TEST(PcGenerator, DefaultInputCountHasAFloorOfEight)
{
    // numInputs = 0 means max(8, targetOperations / 8): tiny circuits
    // keep a sane leaf pool (pins the documented floor behaviour).
    PcParams tiny;
    tiny.targetOperations = 16;
    tiny.depth = 4;
    tiny.seed = 15;
    EXPECT_EQ(generatePc(tiny).numInputs(), 8u);

    PcParams mid;
    mid.targetOperations = 160;
    mid.depth = 8;
    mid.seed = 16;
    EXPECT_EQ(generatePc(mid).numInputs(), 20u);

    PcParams pinned = tiny;
    pinned.numInputs = 3;
    EXPECT_EQ(generatePc(pinned).numInputs(), 3u);
}

} // namespace

/** Print a spec by name. Without this GoogleTest dumps its bytes,
 *  which hold heap pointers, so the discovered CTest names would
 *  change from build to build. Lives in `dpu` so ADL finds it. */
void
PrintTo(const WorkloadSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

namespace {

class SuiteTwinTest : public ::testing::TestWithParam<WorkloadSpec>
{};

TEST_P(SuiteTwinTest, MatchesPaperStats)
{
    const WorkloadSpec &spec = GetParam();
    Dag d = buildWorkloadDag(spec);
    DagStats s = computeStats(d);
    double node_ratio = static_cast<double>(s.numOperations) /
                        static_cast<double>(spec.paperNodes);
    double path_ratio = static_cast<double>(s.longestPath) /
                        static_cast<double>(spec.paperLongestPath);
    EXPECT_GT(node_ratio, 0.9) << spec.name;
    EXPECT_LT(node_ratio, 1.1) << spec.name;
    EXPECT_GT(path_ratio, 0.85) << spec.name;
    EXPECT_LT(path_ratio, 1.15) << spec.name;
}

INSTANTIATE_TEST_SUITE_P(
    SmallSuite, SuiteTwinTest, ::testing::ValuesIn(smallSuite()),
    [](const ::testing::TestParamInfo<WorkloadSpec> &info) {
        return info.param.name;
    });

TEST(Suite, FindWorkloadByName)
{
    const auto &w = findWorkload("mnist");
    EXPECT_EQ(w.cls, WorkloadClass::Pc);
    EXPECT_THROW(findWorkload("nope"), FatalError);
}

TEST(Suite, ScaleReducesNodes)
{
    const auto &w = findWorkload("tretail");
    Dag full = buildWorkloadDag(w, 1.0);
    Dag half = buildWorkloadDag(w, 0.5);
    EXPECT_NEAR(static_cast<double>(half.numOperations()),
                static_cast<double>(full.numOperations()) / 2, 200);
}

TEST(Suite, LargeSuiteSpecsPresent)
{
    EXPECT_EQ(largePcSuite().size(), 4u);
    EXPECT_EQ(pcSuite().size(), 6u);
    EXPECT_EQ(sptrsvSuite().size(), 6u);
}

TEST(Suite, MatrixWorkloadCarriesMeasuredStats)
{
    const std::string dir = DPU_DATA_DIR;
    WorkloadSpec spec = matrixWorkload(dir + "/chain16.mtx");
    EXPECT_EQ(spec.name, "chain16");
    EXPECT_EQ(spec.cls, WorkloadClass::SpTrsv);
    EXPECT_EQ(spec.matrixDim, 16u);
    EXPECT_FALSE(spec.matrixPath.empty());

    Dag d = buildWorkloadDag(spec); // scale ignored for file-backed
    DagStats s = computeStats(d);
    EXPECT_EQ(s.numOperations, spec.paperNodes);
    EXPECT_EQ(s.longestPath, spec.paperLongestPath);
}

TEST(Suite, FileBackedWorkloadSolvesCorrectly)
{
    const std::string dir = DPU_DATA_DIR;
    WorkloadSpec spec = matrixWorkload(dir + "/mesh33.mtx");
    SparseMatrixCsr lower = loadWorkloadMatrix(spec);
    EXPECT_TRUE(lower.isLowerTriangular());
    EXPECT_EQ(lower.dependencyDepth(), 5u);

    auto lowered = buildSpTrsvDag(lower);
    Rng rng(11);
    std::vector<double> b(lower.dim());
    for (auto &x : b)
        x = rng.uniform() * 2 - 1;
    auto ref = solveLowerTriangular(lower, b);
    auto x = sptrsvSolution(
        lowered,
        evaluate(lowered.dag, sptrsvInputValues(lowered, lower, b)));
    ASSERT_EQ(x.size(), ref.size());
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(x[i], ref[i], 1e-8 + 1e-6 * std::abs(ref[i]));
}

TEST(Suite, DiscoverMatrixFilesSortedAndFiltered)
{
    auto found = discoverMatrixFiles(DPU_DATA_DIR);
    ASSERT_EQ(found.size(), 3u);
    EXPECT_TRUE(std::is_sorted(found.begin(), found.end()));
    EXPECT_NE(found[0].find("chain16.mtx"), std::string::npos);
    EXPECT_TRUE(discoverMatrixFiles("/nonexistent/dir").empty());

    // Only *.mtx files count.
    const std::string dir = ::testing::TempDir() + "mtx_discover";
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/b.mtx") << "x";
    std::ofstream(dir + "/a.mtx") << "x";
    std::ofstream(dir + "/notes.json") << "{}";
    auto mixed = discoverMatrixFiles(dir);
    std::filesystem::remove_all(dir);
    ASSERT_EQ(mixed.size(), 2u);
    EXPECT_NE(mixed[0].find("a.mtx"), std::string::npos);
    EXPECT_NE(mixed[1].find("b.mtx"), std::string::npos);
}

TEST(SpTrsv, BatchInputsBitIdenticalToSingle)
{
    const std::string dir = DPU_DATA_DIR;
    SparseMatrixCsr lower = lowerTriangularFrom(
        readMatrixMarketFile(dir + "/skew7.mtx"));
    auto lowered = buildSpTrsvDag(lower);

    std::vector<std::vector<double>> rhs_batch;
    Rng rng(21);
    for (int b = 0; b < 5; ++b) {
        std::vector<double> rhs(lower.dim());
        for (auto &x : rhs)
            x = rng.uniform() * 2 - 1;
        rhs_batch.push_back(std::move(rhs));
    }
    auto batch = sptrsvBatchInputs(lowered, lower, rhs_batch);
    ASSERT_EQ(batch.size(), rhs_batch.size());
    for (size_t b = 0; b < rhs_batch.size(); ++b) {
        auto single =
            sptrsvInputValues(lowered, lower, rhs_batch[b]);
        ASSERT_EQ(batch[b].size(), single.size());
        for (size_t i = 0; i < single.size(); ++i)
            EXPECT_EQ(batch[b][i], single[i]) // bitwise, not NEAR
                << "rhs " << b << " input " << i;
    }
}

} // namespace
} // namespace dpu
