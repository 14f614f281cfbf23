/**
 * @file
 * Unit and property tests for the sharded DSE engine (model/dse.hh):
 *
 *   - paretoFrontier() properties on randomized point clouds
 *     (mutual non-domination, coverage, optima-on-frontier);
 *   - the kDseNpos sentinel for empty / all-infeasible sweeps (the
 *     min-index scans used to assert instead of reporting);
 *   - deterministic grid expansion and shard planning;
 *   - the checkpoint-journal JSON-lines format, pinned by a golden
 *     sample and a round-trip parse (mirroring test_harness_json.cc's
 *     pinned report sample), and a seeded mutation test of its
 *     parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "model/dse.hh"
#include "support/rng.hh"
#include "workloads/suite.hh"

namespace dpu {
namespace {

// ---------------------------------------------------------------- //
// Helpers.                                                         //
// ---------------------------------------------------------------- //

DsePoint
pointOf(double latency, double energy, double area,
        bool feasible = true)
{
    DsePoint p;
    p.latencyPerOpNs = latency;
    p.energyPerOpPj = energy;
    p.edpPjNs = latency * energy;
    p.areaMm2 = area;
    p.feasible = feasible;
    return p;
}

/** Byte-for-byte point equality (exact doubles — the determinism
 *  contract, not an approximation). */
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

std::vector<DsePoint>
randomCloud(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<DsePoint> cloud;
    for (size_t i = 0; i < n; ++i) {
        DsePoint p = pointOf(0.5 + 4.0 * rng.uniform(),
                             20.0 + 200.0 * rng.uniform(),
                             0.5 + 4.0 * rng.uniform());
        p.feasible = rng.next() % 6 != 0; // ~1/6 infeasible
        cloud.push_back(p);
    }
    return cloud;
}

bool
contains(const std::vector<size_t> &v, size_t x)
{
    for (size_t e : v)
        if (e == x)
            return true;
    return false;
}

// ---------------------------------------------------------------- //
// Pareto frontier properties.                                      //
// ---------------------------------------------------------------- //

TEST(Pareto, FrontierPointsAreMutuallyNonDominated)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        auto cloud = randomCloud(seed, 48);
        auto frontier = paretoFrontier(cloud);
        for (size_t a : frontier) {
            EXPECT_TRUE(cloud[a].feasible);
            for (size_t b : frontier)
                EXPECT_FALSE(dseDominates(cloud[a], cloud[b]))
                    << "seed " << seed << ": frontier point " << a
                    << " dominates frontier point " << b;
        }
    }
}

TEST(Pareto, EveryNonFrontierPointIsDominatedByAFrontierPoint)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        auto cloud = randomCloud(seed, 48);
        auto frontier = paretoFrontier(cloud);
        for (size_t i = 0; i < cloud.size(); ++i) {
            if (!cloud[i].feasible || contains(frontier, i))
                continue;
            bool dominated = false;
            for (size_t f : frontier)
                dominated |= dseDominates(cloud[f], cloud[i]);
            EXPECT_TRUE(dominated)
                << "seed " << seed << ": off-frontier point " << i
                << " is not dominated by any frontier point";
        }
    }
}

TEST(Pareto, OptimaAlwaysLieOnTheFrontier)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        auto cloud = randomCloud(seed, 64);
        auto frontier = paretoFrontier(cloud);
        for (size_t idx : {minEdpIndex(cloud), minEnergyIndex(cloud),
                           minLatencyIndex(cloud)}) {
            ASSERT_NE(idx, kDseNpos);
            EXPECT_TRUE(contains(frontier, idx))
                << "seed " << seed << ": optimum " << idx
                << " is off the frontier";
        }
    }
}

TEST(Pareto, DuplicatePointsAllStayOnTheFrontier)
{
    // Identical points do not dominate each other (no strict
    // improvement), so ties must survive — and the tie-broken min
    // scans must still land on the frontier.
    std::vector<DsePoint> cloud = {
        pointOf(1.0, 50.0, 2.0), pointOf(1.0, 50.0, 2.0),
        pointOf(2.0, 40.0, 2.0), pointOf(2.0, 60.0, 3.0),
        pointOf(1.0, 50.0, 1.5), // dominates the first two by area
    };
    auto frontier = paretoFrontier(cloud);
    EXPECT_FALSE(contains(frontier, 0));
    EXPECT_FALSE(contains(frontier, 1));
    EXPECT_TRUE(contains(frontier, 2));
    EXPECT_TRUE(contains(frontier, 4));
    EXPECT_EQ(minLatencyIndex(cloud), 4u); // tie-break by area
    EXPECT_TRUE(contains(frontier, minLatencyIndex(cloud)));
    EXPECT_TRUE(contains(frontier, minEnergyIndex(cloud)));
    EXPECT_TRUE(contains(frontier, minEdpIndex(cloud)));
}

TEST(Pareto, SinglePointAndEmptyInputs)
{
    std::vector<DsePoint> one = {pointOf(1.0, 2.0, 3.0)};
    EXPECT_EQ(paretoFrontier(one), std::vector<size_t>{0});
    EXPECT_EQ(paretoFrontier({}), std::vector<size_t>{});
}

TEST(Pareto, DominationIgnoresInfeasiblePoints)
{
    DsePoint good = pointOf(1.0, 1.0, 1.0);
    DsePoint bad = pointOf(9.0, 9.0, 9.0, /*feasible=*/false);
    EXPECT_FALSE(dseDominates(good, bad));
    EXPECT_FALSE(dseDominates(bad, good));
    auto frontier = paretoFrontier({bad, good});
    EXPECT_EQ(frontier, std::vector<size_t>{1});
}

// ---------------------------------------------------------------- //
// kDseNpos sentinel (regression: all-infeasible sweeps used to trip //
// an assertion in the min-index scans).                            //
// ---------------------------------------------------------------- //

TEST(DseNpos, EmptyPointVectorReturnsNpos)
{
    std::vector<DsePoint> none;
    EXPECT_EQ(minEdpIndex(none), kDseNpos);
    EXPECT_EQ(minEnergyIndex(none), kDseNpos);
    EXPECT_EQ(minLatencyIndex(none), kDseNpos);
    EXPECT_TRUE(paretoFrontier(none).empty());
}

TEST(DseNpos, AllInfeasibleReturnsNpos)
{
    std::vector<DsePoint> cloud = {
        pointOf(1.0, 2.0, 3.0, false),
        pointOf(4.0, 5.0, 6.0, false),
    };
    EXPECT_EQ(minEdpIndex(cloud), kDseNpos);
    EXPECT_EQ(minEnergyIndex(cloud), kDseNpos);
    EXPECT_EQ(minLatencyIndex(cloud), kDseNpos);
    EXPECT_TRUE(paretoFrontier(cloud).empty());
}

TEST(DseNpos, AllInfeasibleSweepEndToEnd)
{
    // The real thing: a register file no workload fits. The sweep
    // marks every point infeasible and the scans report kDseNpos
    // instead of asserting.
    DseSweepOptions o;
    o.space.depths = {3};
    o.space.banks = {8};
    o.space.regs = {2};
    o.space.workloadScale = 0.05;
    auto pts = runDseSweep(o).points;
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_FALSE(pts[0].feasible);
    EXPECT_EQ(minEdpIndex(pts), kDseNpos);
    EXPECT_EQ(minEnergyIndex(pts), kDseNpos);
    EXPECT_EQ(minLatencyIndex(pts), kDseNpos);
    EXPECT_TRUE(paretoFrontier(pts).empty());
}

// ---------------------------------------------------------------- //
// Grid expansion + shard planning.                                 //
// ---------------------------------------------------------------- //

TEST(DseGrid, DefaultGridHas48PointsInGridOrder)
{
    auto grid = expandDseGrid({});
    ASSERT_EQ(grid.size(), 48u);
    EXPECT_EQ(grid.front().label(), "D1.B8.R16");
    EXPECT_EQ(grid[1].label(), "D1.B8.R32");
    EXPECT_EQ(grid[4].label(), "D1.B16.R16");
    EXPECT_EQ(grid.back().label(), "D3.B64.R128");
}

TEST(DseGrid, SkipsBanksSmallerThanOneTree)
{
    DseOptions o;
    o.depths = {3};
    o.banks = {4}; // < 2^3: no full tree
    o.regs = {32};
    EXPECT_TRUE(expandDseGrid(o).empty());
}

TEST(DseGrid, RejectsInvalidAxisValues)
{
    DseOptions bad_banks;
    bad_banks.banks = {12};
    EXPECT_THROW(expandDseGrid(bad_banks), FatalError);

    DseOptions bad_depth;
    bad_depth.depths = {7};
    EXPECT_THROW(expandDseGrid(bad_depth), FatalError);

    DseOptions bad_regs;
    bad_regs.regs = {1};
    EXPECT_THROW(expandDseGrid(bad_regs), FatalError);

    DseOptions bad_scale;
    bad_scale.workloadScale = -0.5;
    EXPECT_THROW(expandDseGrid(bad_scale), FatalError);
    bad_scale.workloadScale = 0;
    EXPECT_THROW(expandDseGrid(bad_scale), FatalError);
}

TEST(DseGrid, RejectsRepeatedAxisValues)
{
    // A repeated value would make repeated grid points, each evaluated
    // again; the error names the axis and the value.
    DseOptions o;
    o.depths = {1};
    o.banks = {8};
    o.regs = {16, 16};
    std::string error;
    EXPECT_FALSE(validateDseAxes(o, &error));
    EXPECT_NE(error.find("regs axis value 16 is repeated"),
              std::string::npos)
        << error;
    EXPECT_THROW(expandDseGrid(o), FatalError);

    o.regs = {16};
    o.depths = {2, 1, 2};
    EXPECT_FALSE(validateDseAxes(o, &error));
    EXPECT_NE(error.find("depth axis value 2"), std::string::npos) << error;
    o.depths = {1};
    o.banks = {8, 16, 8};
    EXPECT_FALSE(validateDseAxes(o, &error));
    EXPECT_NE(error.find("banks axis value 8"), std::string::npos) << error;
    o.banks = {16, 8};
    EXPECT_TRUE(validateDseAxes(o)); // distinct, in any order
}

TEST(DseGrid, RegsAxisStopsAtSixteenBitAddresses)
{
    // The axis shares ArchConfig's bound, so `dse_sweep --axes` exits 2
    // on such a value instead of failing mid-sweep.
    DseOptions o;
    o.regs = {ArchConfig::maxRegsPerBank};
    EXPECT_TRUE(validateDseAxes(o));
    o.regs = {ArchConfig::maxRegsPerBank + 1};
    std::string error;
    EXPECT_FALSE(validateDseAxes(o, &error));
    EXPECT_NE(error.find("regs axis value 65537"), std::string::npos)
        << error;
    EXPECT_THROW(expandDseGrid(o), FatalError);
}

TEST(DseShards, ContiguousNearEqualPartition)
{
    auto plan = planDseShards(10, 3);
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan[0].begin, 0u);
    EXPECT_EQ(plan[0].end, 4u);
    EXPECT_EQ(plan[1].begin, 4u);
    EXPECT_EQ(plan[1].end, 7u);
    EXPECT_EQ(plan[2].begin, 7u);
    EXPECT_EQ(plan[2].end, 10u);
}

TEST(DseShards, ClampsToPointCountAndHandlesEdges)
{
    EXPECT_EQ(planDseShards(5, 8).size(), 5u); // never empty shards
    EXPECT_TRUE(planDseShards(0, 4).empty());
    auto one = planDseShards(7, 1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0].begin, 0u);
    EXPECT_EQ(one[0].end, 7u);
    auto zero = planDseShards(7, 0); // treated as 1
    ASSERT_EQ(zero.size(), 1u);
    EXPECT_EQ(zero[0].end, 7u);
}

// ---------------------------------------------------------------- //
// Checkpoint-journal format (golden sample + round trip).          //
// ---------------------------------------------------------------- //

DsePoint
goldenPoint()
{
    DsePoint p;
    p.cfg.depth = 1;
    p.cfg.banks = 8;
    p.cfg.regsPerBank = 16;
    p.workloadScale = 0.25;
    p.latencyPerOpNs = 1.5;
    p.energyPerOpPj = 2.5;
    p.edpPjNs = 3.75;
    p.areaMm2 = 0.5;
    p.powerWatts = 0.125;
    p.throughputGops = 12.5;
    return p;
}

TEST(DseJournal, GoldenPointLine)
{
    // Pinned sample: any drift in the journal schema is a
    // deliberate, reviewed change (cf. test_harness_json.cc).
    const char *golden =
        "{\"index\": 3, \"design\": \"D1.B8.R16\", \"depth\": 1, "
        "\"banks\": 8, \"regs\": 16, \"scale\": 0.25, \"cores\": 1, "
        "\"feasible\": true, \"latency_per_op_ns\": 1.5, "
        "\"energy_per_op_pj\": 2.5, \"edp_pj_ns\": 3.75, "
        "\"area_mm2\": 0.5, \"power_watts\": 0.125, "
        "\"throughput_gops\": 12.5, \"fidelity\": \"cycle\"}";
    EXPECT_EQ(dseJournalPointLine(3, goldenPoint()), golden);
}

TEST(DseJournal, GoldenInfeasibleLine)
{
    DsePoint p;
    p.cfg.depth = 3;
    p.cfg.banks = 8;
    p.cfg.regsPerBank = 2;
    p.workloadScale = 0.05;
    p.areaMm2 = 1.25;
    p.feasible = false;
    const char *golden =
        "{\"index\": 0, \"design\": \"D3.B8.R2\", \"depth\": 3, "
        "\"banks\": 8, \"regs\": 2, \"scale\": 0.05, \"cores\": 1, "
        "\"feasible\": false, \"latency_per_op_ns\": 0, "
        "\"energy_per_op_pj\": 0, \"edp_pj_ns\": 0, "
        "\"area_mm2\": 1.25, \"power_watts\": 0, "
        "\"throughput_gops\": 0, \"fidelity\": \"cycle\"}";
    EXPECT_EQ(dseJournalPointLine(0, p), golden);
}

TEST(DseJournal, GoldenHeaderLineAndSpaceSignature)
{
    DseOptions o;
    o.depths = {1};
    o.banks = {8};
    o.regs = {16};
    o.workloadScale = 0.25;
    o.seed = 7;
    o.suite = {pcSuite()[0]};
    EXPECT_EQ(dseSpaceSignature(o),
              "depths=1|banks=8|regs=16|scales=0.25|cores=1|seed=7|"
              "suite=tretail");
    EXPECT_EQ(dseJournalHeaderLine(dseSpaceSignature(o), 1),
              "{\"dse_journal\": 1, \"space\": "
              "\"depths=1|banks=8|regs=16|scales=0.25|cores=1|seed=7|"
              "suite=tretail\", \"points\": 1}");
}

TEST(DseJournal, PointLineRoundTripsExactly)
{
    // Shortest-round-trip double formatting: parse(line(p)) == p
    // bit for bit, and re-serializing gives the identical bytes —
    // what makes the canonical journal deterministic across resumes.
    DsePoint p = goldenPoint();
    p.latencyPerOpNs = 1.0 / 3.0;
    p.energyPerOpPj = 0.1;
    p.edpPjNs = p.latencyPerOpNs * p.energyPerOpPj;
    p.throughputGops = 123456.789012345;

    std::string line = dseJournalPointLine(42, p);
    size_t index = 0;
    DsePoint parsed;
    ASSERT_TRUE(parseDseJournalPointLine(line, index, parsed));
    EXPECT_EQ(index, 42u);
    expectIdentical(parsed, p);
    EXPECT_EQ(dseJournalPointLine(42, parsed), line);
}

TEST(DseJournal, EstimatedPointLinesAreRejected)
{
    // Older sweeps could journal energy estimates tagged "table" or
    // "analytic". They are not simulated points, so the parser
    // refuses them and a resume recomputes the point.
    const std::string line = dseJournalPointLine(7, goldenPoint());
    for (const char *tag : {"\"table\"", "\"analytic\""}) {
        std::string old = line;
        size_t at = old.find("\"cycle\"");
        ASSERT_NE(at, std::string::npos);
        old.replace(at, 7, tag);
        size_t index = 0;
        DsePoint parsed;
        EXPECT_FALSE(parseDseJournalPointLine(old, index, parsed))
            << old;
    }
}

TEST(DseJournal, OldFormatLineWithoutFidelityReadsAsCycle)
{
    // Journals written before the fidelity tag existed carry no such
    // field. Those lines were produced by Machine::run, so the parser
    // accepts them as simulated points. Pinned — changing this to a
    // rejection is a deliberate, reviewed format break.
    std::string line = dseJournalPointLine(3, goldenPoint());
    const std::string tail = ", \"fidelity\": \"cycle\"";
    size_t at = line.find(tail);
    ASSERT_NE(at, std::string::npos);
    std::string old_format = line.erase(at, tail.size());

    size_t index = 0;
    DsePoint p;
    ASSERT_TRUE(parseDseJournalPointLine(old_format, index, p));
    EXPECT_EQ(index, 3u);
    expectIdentical(p, goldenPoint());
    EXPECT_EQ(dseJournalPointLine(3, p),
              dseJournalPointLine(3, goldenPoint()));
}

TEST(DseJournal, UnknownFidelityNameIsRejected)
{
    // A *present but unrecognized* tag is a torn or foreign
    // line, not a default: the parser must refuse it so the sweep
    // recomputes that point instead of mislabeling it.
    std::string line = dseJournalPointLine(3, goldenPoint());
    size_t at = line.find("\"cycle\"");
    ASSERT_NE(at, std::string::npos);
    line.replace(at, 7, "\"exact\"");
    size_t index = 0;
    DsePoint p;
    EXPECT_FALSE(parseDseJournalPointLine(line, index, p));
}

TEST(DseJournal, ParserRejectsTornAndForeignLines)
{
    size_t index = 0;
    DsePoint p;
    std::string full = dseJournalPointLine(1, goldenPoint());
    // Every strict prefix is a torn write and must be rejected.
    for (size_t cut : {size_t{0}, size_t{1}, full.size() / 2,
                       full.size() - 1})
        EXPECT_FALSE(parseDseJournalPointLine(full.substr(0, cut),
                                              index, p))
            << "prefix of length " << cut << " parsed";
    EXPECT_FALSE(parseDseJournalPointLine("not json", index, p));
    EXPECT_FALSE(parseDseJournalPointLine("{\"index\": 1}", index, p));
    EXPECT_FALSE(parseDseJournalPointLine(full + "x", index, p));
    // Every point runs on one core: a point an older sweep evaluated as
    // a multi-core batch is recomputed.
    for (const char *cores : {"0", "2", "4"}) {
        std::string multi = full;
        multi.replace(multi.find("\"cores\": 1") + 9, 1, cores);
        EXPECT_FALSE(parseDseJournalPointLine(multi, index, p)) << multi;
    }
    EXPECT_TRUE(parseDseJournalPointLine(full, index, p));
}

TEST(DseJournal, LoadSkipsTornTailAndKeepsValidLines)
{
    std::string path = ::testing::TempDir() + "dse_torn.jsonl";
    std::string line0 = dseJournalPointLine(0, goldenPoint());
    std::string line1 = dseJournalPointLine(1, goldenPoint());
    {
        std::ofstream out(path, std::ios::trunc);
        out << dseJournalHeaderLine("sig", 3) << "\n"
            << line0 << "\n"
            << line1 << "\n"
            << line1.substr(0, line1.size() / 2); // torn by a kill
    }
    DseJournal journal;
    ASSERT_TRUE(loadDseJournal(path, journal));
    std::remove(path.c_str());
    EXPECT_EQ(journal.space, "sig");
    EXPECT_EQ(journal.gridPoints, 3u);
    ASSERT_EQ(journal.entries.size(), 2u);
    EXPECT_EQ(journal.entries[0].first, 0u);
    EXPECT_EQ(journal.entries[1].first, 1u);
    expectIdentical(journal.entries[0].second, goldenPoint());
}

TEST(DseJournal, LoadRejectsMissingFileAndBadHeader)
{
    DseJournal journal;
    EXPECT_FALSE(loadDseJournal(
        ::testing::TempDir() + "does_not_exist.jsonl", journal));

    std::string path = ::testing::TempDir() + "dse_badheader.jsonl";
    {
        std::ofstream out(path, std::ios::trunc);
        out << "{\"not_a_journal\": true}\n";
    }
    EXPECT_FALSE(loadDseJournal(path, journal));
    std::remove(path.c_str());
}

/** A seeded mutation of `text`: byte flips, a truncation, or a
 *  deleted or duplicated `, `-separated field. */
std::string
mutate(const std::string &text, Rng &rng)
{
    std::string s = text;
    if (s.empty())
        return s;
    auto pick = [&rng](size_t n) {
        return static_cast<size_t>(rng.next() % n);
    };
    switch (rng.next() % 4) {
      case 0: // flip 1-4 bytes to arbitrary values
        for (size_t k = 0, n = 1 + pick(4); k < n; ++k)
            s[pick(s.size())] = static_cast<char>(rng.next() & 0xff);
        break;
      case 1: // truncate
        s.resize(pick(s.size()));
        break;
      case 2:   // delete a field
      case 3: { // duplicate a field somewhere else
        std::vector<size_t> cuts = {0};
        for (size_t at = s.find(", "); at != std::string::npos;
             at = s.find(", ", at + 1))
            cuts.push_back(at);
        cuts.push_back(s.size());
        size_t f = pick(cuts.size() - 1);
        std::string field = s.substr(cuts[f], cuts[f + 1] - cuts[f]);
        if (rng.next() % 2 == 0)
            s.erase(cuts[f], field.size());
        else
            s.insert(cuts[pick(cuts.size())], field);
        break;
      }
    }
    return s;
}

TEST(DseJournal, MutatedInputNeverThrowsOrCrashes)
{
    // Journals are external bytes: every mutation of a valid point
    // line or journal file must parse to a result or to false, never
    // throw (a PanicError included) or crash. Sanitizer builds run
    // this through the full ctest.
    Rng rng(20261016);
    DsePoint other = goldenPoint();
    other.cfg.depth = 3;
    other.cfg.banks = 64;
    other.latencyPerOpNs = 0.25;
    const std::vector<std::string> lines = {
        dseJournalPointLine(3, goldenPoint()),
        dseJournalPointLine(9, other)};
    size_t parsed = 0;
    for (int k = 0; k < 4000; ++k) {
        std::string line = mutate(lines[k % lines.size()], rng);
        if (rng.next() % 3 == 0)
            line = mutate(line, rng); // stacked mutations
        size_t index = 0;
        DsePoint p;
        bool ok = false;
        EXPECT_NO_THROW(ok = parseDseJournalPointLine(line, index, p))
            << line;
        if (ok) {
            ++parsed;
            EXPECT_GE(p.cfg.depth, 1u) << line;
            EXPECT_LE(p.cfg.depth, 6u) << line;
            EXPECT_GE(p.cfg.regsPerBank, 1u) << line;
        }
    }
    // Some mutations (a duplicated field, a flipped digit) still
    // parse; the loop must reach the accept path too.
    EXPECT_GT(parsed, 0u);

    std::string path = ::testing::TempDir() + "dse_mutated.jsonl";
    const std::string journal =
        dseJournalHeaderLine("sig", 3) + "\n" + lines[0] + "\n" +
        lines[1] + "\n";
    for (int k = 0; k < 300; ++k) {
        {
            std::ofstream out(path, std::ios::trunc | std::ios::binary);
            out << mutate(journal, rng);
        }
        DseJournal loaded;
        EXPECT_NO_THROW(loadDseJournal(path, loaded));
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Sweep-engine surface errors.                                     //
// ---------------------------------------------------------------- //

TEST(DseSweep, ResumeWithoutJournalPathIsFatal)
{
    DseSweepOptions o;
    o.resume = true;
    EXPECT_THROW(runDseSweep(o), FatalError);
}

TEST(DseSweep, ResumeRefusesToOverwriteANonJournalFile)
{
    // A typo'd --journal path pointing at an existing file must be
    // fatal, not a fresh start that clobbers the file. Only a
    // genuinely missing journal starts fresh.
    std::string path = ::testing::TempDir() + "dse_notajournal.json";
    const char *precious = "{\"my\": \"precious data\"}\n";
    {
        std::ofstream out(path, std::ios::trunc);
        out << precious;
    }
    DseSweepOptions o;
    o.space.depths = {1};
    o.space.banks = {8};
    o.space.regs = {32};
    o.space.workloadScale = 0.05;
    o.space.suite = {pcSuite()[0]};
    o.journalPath = path;
    o.resume = true;
    EXPECT_THROW(runDseSweep(o), FatalError);

    std::ifstream in(path);
    std::string kept((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_EQ(kept, precious); // untouched
    std::remove(path.c_str());
}

TEST(DseSweep, EvaluateSingleDesignTracksCost)
{
    // The per-shard cache-hit-rate series feeds off DseEvalCost.
    std::vector<WorkloadSpec> suite = {pcSuite()[0]};
    ArchConfig cfg;
    cfg.depth = 1;
    cfg.banks = 8;
    cfg.regsPerBank = 32;

    ProgramCache cache;
    DseEvalCost cold, warm;
    DsePoint a =
        evaluateDesign(cfg, suite, 0.05, 1, &cache, &cold);
    DsePoint b =
        evaluateDesign(cfg, suite, 0.05, 1, &cache, &warm);
    EXPECT_EQ(cold.compiles, 1u);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(warm.compiles, 1u);
    EXPECT_EQ(warm.cacheHits, 1u); // second evaluation hits
    expectIdentical(a, b);         // and a hit cannot change results
    EXPECT_EQ(cache.stats().hitRate(), 0.5);
}

TEST(DseSweep, SweepPointsEqualPerPointEvaluation)
{
    // runDseSweep prepares each workload once per sweep; every point
    // must still equal evaluateDesign of its coordinates, which
    // prepares on its own.
    DseSweepOptions o;
    o.space.depths = {1, 2};
    o.space.banks = {8};
    o.space.regs = {16, 32};
    o.space.workloadScale = 0.05;
    o.space.suite = {pcSuite()[0], sptrsvSuite()[0]};
    o.threads = 2;
    o.shards = 3;
    ProgramCache cache;
    o.cache = &cache;
    std::string path = ::testing::TempDir() + "dse_prepared.jsonl";
    std::remove(path.c_str());
    o.journalPath = path;

    DseSweepResult swept = runDseSweep(o);
    std::vector<ArchConfig> grid = expandDseGrid(o.space);
    ASSERT_EQ(swept.points.size(), 4u);
    EXPECT_GT(swept.prepareSeconds, 0.0);
    size_t feasible = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE(i);
        DsePoint single = evaluateDesign(grid[i], o.space.suite,
                                         o.space.workloadScale,
                                         o.space.seed);
        expectIdentical(swept.points[i], single);
        feasible += single.feasible;
    }
    EXPECT_GT(feasible, 0u);

    // A fully resumed sweep evaluates nothing, so prepares nothing.
    o.resume = true;
    DseSweepResult resumed = runDseSweep(o);
    EXPECT_EQ(resumed.resumedPoints, grid.size());
    EXPECT_EQ(resumed.prepareSeconds, 0.0);
    for (size_t i = 0; i < grid.size(); ++i)
        expectIdentical(resumed.points[i], swept.points[i]);
    std::remove(path.c_str());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

TEST(DseSweep, ResumeRecomputesEstimatedPointsOfAnOldJournal)
{
    // A journal from an older sweep can hold "table" estimates next to
    // simulated "cycle" lines for the same index, in either order, and
    // multi-core points. Resuming reuses exactly the one-core cycle
    // lines, recomputes every other point, and ends with the bytes of a
    // fresh sweep.
    DseSweepOptions o;
    o.space.depths = {1, 2};
    o.space.banks = {8};
    o.space.regs = {16, 32};
    o.space.workloadScale = 0.03;
    o.space.suite = {pcSuite()[0], sptrsvSuite()[0]};
    std::string path = ::testing::TempDir() + "dse_old_tiers.jsonl";
    std::remove(path.c_str());
    o.journalPath = path;
    DseSweepResult fresh = runDseSweep(o);
    const std::string fresh_bytes = readFile(path);
    ASSERT_EQ(fresh.points.size(), 4u);

    auto estimated = [](size_t i, DsePoint p) {
        p.energyPerOpPj *= 1.07; // an estimate, not the simulated value
        std::string line = dseJournalPointLine(i, p);
        line.replace(line.find("\"cycle\""), 7, "\"table\"");
        return line;
    };
    auto multiCore = [](size_t i, const DsePoint &p) {
        std::string line = dseJournalPointLine(i, p);
        line.replace(line.find("\"cores\": 1"), 10, "\"cores\": 4");
        return line;
    };
    {
        std::ofstream out(path, std::ios::trunc);
        out << dseJournalHeaderLine(dseSpaceSignature(o.space), 4)
            << "\n"
            // 0: estimate, then the simulated line.
            << estimated(0, fresh.points[0]) << "\n"
            << dseJournalPointLine(0, fresh.points[0]) << "\n"
            // 1: estimate only.
            << estimated(1, fresh.points[1]) << "\n"
            // 2: simulated line, then a later estimate.
            << dseJournalPointLine(2, fresh.points[2]) << "\n"
            << estimated(2, fresh.points[2]) << "\n"
            // 3: a multi-core point only.
            << multiCore(3, fresh.points[3]) << "\n";
    }
    o.resume = true;
    DseSweepResult resumed = runDseSweep(o);
    EXPECT_EQ(resumed.resumedPoints, 2u);
    size_t evaluated = 0;
    for (const DseShardReport &r : resumed.shardReports)
        evaluated += r.evaluated;
    EXPECT_EQ(evaluated, 2u);
    for (size_t i = 0; i < fresh.points.size(); ++i)
        expectIdentical(resumed.points[i], fresh.points[i]);
    EXPECT_EQ(readFile(path), fresh_bytes);
    std::remove(path.c_str());
}

/** 64-bit FNV-1a of a journal file's bytes. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(DseSweep, SmallSweepJournalIsPinned)
{
    // The journal's bytes are its format: the header's space
    // signature, every point line's fields and their order, and the
    // simulated values. The digest was taken from the engine that
    // still had the workload-scale and model-core-count axes, so a
    // sweep at one scale on one core writes what it wrote.
    DseSweepOptions o;
    o.space.depths = {1, 2};
    o.space.banks = {8};
    o.space.regs = {16, 32};
    o.space.workloadScale = 0.03;
    o.space.suite = {pcSuite()[0]};
    o.threads = 2;
    o.shards = 3;
    const std::string path = ::testing::TempDir() + "dse_pinned.jsonl";
    std::remove(path.c_str());
    o.journalPath = path;
    DseSweepResult res = runDseSweep(o);
    const std::string journal = readFile(path);
    std::remove(path.c_str());
    ASSERT_EQ(res.points.size(), 4u);
    EXPECT_EQ(std::count(journal.begin(), journal.end(), '\n'), 5);
    EXPECT_NE(journal.find("scales=0.03|cores=1|"), std::string::npos);
    EXPECT_EQ(fnv1a(journal), 0xd97323b309672439ull) << journal;
}

} // namespace
} // namespace dpu
