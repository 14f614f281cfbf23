/**
 * @file
 * Seeded stress suite for the sharded DSE engine: the pinned
 * property is sweep determinism — for every (seed, threads, shards)
 * combination the merged point vector must be byte-identical to the
 * serial (1 thread, 1 shard) sweep, and a sweep killed after k
 * journaled points (modelled by truncating the journal, including
 * mid-line torn writes) and resumed must reproduce both the
 * identical point vector and the identical final journal bytes.
 *
 * Runs under ThreadSanitizer in CI (see .github/workflows/ci.yml)
 * like AsyncStress, where the shard interleavings double as a
 * data-race probe for the sweep engine's merge and journal paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "model/dse.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

/** Small space: 4 (D, B) groups x 4 register counts = 16 points over
 *  a 2-workload suite — enough shards/points to interleave, each task
 *  walks four R and derives the ones its certified program admits,
 *  and small enough for TSAN. */
DseOptions
stressSpace(uint64_t seed)
{
    DseOptions o;
    o.depths = {1, 2};
    o.banks = {8, 16};
    o.regs = {16, 32, 64, 128};
    o.workloadScale = 0.03;
    o.seed = seed;
    o.suite = {pcSuite()[0], sptrsvSuite()[0]};
    return o;
}

void
expectIdentical(const DsePoint &a, const DsePoint &b)
{
    EXPECT_EQ(a.cfg.depth, b.cfg.depth);
    EXPECT_EQ(a.cfg.banks, b.cfg.banks);
    EXPECT_EQ(a.cfg.regsPerBank, b.cfg.regsPerBank);
    EXPECT_EQ(a.workloadScale, b.workloadScale);
    EXPECT_EQ(a.latencyPerOpNs, b.latencyPerOpNs);
    EXPECT_EQ(a.energyPerOpPj, b.energyPerOpPj);
    EXPECT_EQ(a.edpPjNs, b.edpPjNs);
    EXPECT_EQ(a.areaMm2, b.areaMm2);
    EXPECT_EQ(a.powerWatts, b.powerWatts);
    EXPECT_EQ(a.throughputGops, b.throughputGops);
    EXPECT_EQ(a.feasible, b.feasible);
}

void
expectIdenticalSweep(const std::vector<DsePoint> &a,
                     const std::vector<DsePoint> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectIdentical(a[i], b[i]);
    }
}

/** The serial ground truth, computed once per seed. */
const std::vector<DsePoint> &
serialReference(uint64_t seed)
{
    static std::map<uint64_t, std::vector<DsePoint>> cache;
    auto it = cache.find(seed);
    if (it == cache.end()) {
        DseSweepOptions o; // threads = 1, shards = 1: the serial sweep
        o.space = stressSpace(seed);
        it = cache.emplace(seed, runDseSweep(o).points).first;
    }
    return it->second;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

// ---------------------------------------------------------------- //
// (seed, threads, shards) determinism sweep.                       //
// ---------------------------------------------------------------- //

class DseStress : public ::testing::TestWithParam<
                      std::tuple<uint64_t, uint32_t, uint32_t>>
{
};

TEST_P(DseStress, ShardedSweepMatchesSerialByteForByte)
{
    const auto [seed, threads, shards] = GetParam();
    DseSweepOptions o;
    o.space = stressSpace(seed);
    o.threads = threads;
    o.shards = shards;
    // A shared program cache must not perturb results either: every
    // task fetches its compiles through it and inserts the programs it
    // derives.
    ProgramCache cache;
    o.cache = &cache;

    DseSweepResult sweep = runDseSweep(o);
    expectIdenticalSweep(sweep.points, serialReference(seed));

    ASSERT_EQ(sweep.shardReports.size(),
              std::min<size_t>(shards, sweep.points.size()));
    size_t covered = 0, evaluated = 0;
    uint64_t derived = 0;
    for (const DseShardReport &r : sweep.shardReports) {
        covered += r.points;
        evaluated += r.evaluated;
        derived += r.certified;
    }
    EXPECT_EQ(covered, sweep.points.size());
    EXPECT_EQ(evaluated, sweep.points.size()); // nothing resumed
    EXPECT_EQ(sweep.resumedPoints, 0u);
    EXPECT_GT(derived, 0u); // the tasks crossed R derivation
}

INSTANTIATE_TEST_SUITE_P(
    DseStressSweep, DseStress,
    ::testing::Combine(::testing::Values(uint64_t{81}, uint64_t{82},
                                         uint64_t{83}),
                       ::testing::Values(1u, 4u, 8u),
                       ::testing::Values(1u, 2u, 4u)),
    [](const ::testing::TestParamInfo<DseStress::ParamType> &info) {
        return "seed" + std::to_string(std::get<0>(info.param)) +
               "_threads" + std::to_string(std::get<1>(info.param)) +
               "_shards" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------- //
// Kill + resume reproduces the identical final journal.            //
// ---------------------------------------------------------------- //

TEST(DseStressResume, TruncatedJournalResumesToIdenticalResults)
{
    const uint64_t seed = 91;
    std::string path = ::testing::TempDir() + "dse_stress.jsonl";

    // Reference: one uninterrupted journaled sweep.
    DseSweepOptions ref;
    ref.space = stressSpace(seed);
    ref.threads = 2;
    ref.shards = 4;
    ref.journalPath = path;
    DseSweepResult reference = runDseSweep(ref);
    std::string reference_journal = slurp(path);
    ASSERT_FALSE(reference_journal.empty());

    // Split into lines (header + one per point, canonical order).
    std::vector<std::string> lines;
    {
        std::istringstream in(reference_journal);
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), reference.points.size() + 1);

    // Kill-at-point-k: rebuild the journal as if the sweep died
    // after k completed points — optionally mid-write (torn tail) —
    // then resume with a different thread/shard shape.
    struct Cut
    {
        size_t keep;  ///< Completed point lines to keep.
        bool torn;    ///< Append half of the next line.
    };
    for (Cut cut : {Cut{0, false}, Cut{3, false}, Cut{3, true},
                    Cut{9, true}, Cut{reference.points.size(), false}}) {
        SCOPED_TRACE("keep " + std::to_string(cut.keep) +
                     (cut.torn ? " + torn tail" : ""));
        {
            std::ofstream out(path, std::ios::trunc);
            for (size_t i = 0; i <= cut.keep; ++i)
                out << lines[i] << "\n";
            if (cut.torn && cut.keep + 1 < lines.size())
                out << lines[cut.keep + 1].substr(
                    0, lines[cut.keep + 1].size() / 2);
        }

        DseSweepOptions res;
        res.space = stressSpace(seed);
        res.threads = 4;
        res.shards = 2;
        res.journalPath = path;
        res.resume = true;
        DseSweepResult resumed = runDseSweep(res);

        EXPECT_EQ(resumed.resumedPoints, cut.keep);
        expectIdenticalSweep(resumed.points, reference.points);
        EXPECT_EQ(slurp(path), reference_journal)
            << "final journal bytes differ after resume";
    }

    // Resuming the already-complete journal recomputes nothing.
    DseSweepOptions done;
    done.space = stressSpace(seed);
    done.threads = 1;
    done.shards = 1;
    done.journalPath = path;
    done.resume = true;
    DseSweepResult noop = runDseSweep(done);
    EXPECT_EQ(noop.resumedPoints, reference.points.size());
    size_t evaluated = 0;
    for (const DseShardReport &r : noop.shardReports)
        evaluated += r.evaluated;
    EXPECT_EQ(evaluated, 0u);
    expectIdenticalSweep(noop.points, reference.points);
    EXPECT_EQ(slurp(path), reference_journal);

    std::remove(path.c_str());
}

TEST(DseStressResume, JournalFromDifferentSpaceIsRejected)
{
    std::string path = ::testing::TempDir() + "dse_mismatch.jsonl";
    DseSweepOptions first;
    first.space = stressSpace(101);
    first.journalPath = path;
    runDseSweep(first);

    DseSweepOptions other;
    other.space = stressSpace(102); // different seed => different space
    other.journalPath = path;
    other.resume = true;
    EXPECT_THROW(runDseSweep(other), FatalError);
    std::remove(path.c_str());
}

} // namespace
} // namespace dpu
