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
 *     pinned report sample).
 */

#include <gtest/gtest.h>

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
    EXPECT_EQ(a.cores, b.cores);
    EXPECT_EQ(a.latencyPerOpNs, b.latencyPerOpNs);
    EXPECT_EQ(a.energyPerOpPj, b.energyPerOpPj);
    EXPECT_EQ(a.edpPjNs, b.edpPjNs);
    EXPECT_EQ(a.areaMm2, b.areaMm2);
    EXPECT_EQ(a.powerWatts, b.powerWatts);
    EXPECT_EQ(a.throughputGops, b.throughputGops);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.fidelity, b.fidelity);
    EXPECT_EQ(a.fleetRanks, b.fleetRanks);
    EXPECT_EQ(a.transferPerOpNs, b.transferPerOpNs);
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
    DseOptions o;
    o.depths = {3};
    o.banks = {8};
    o.regs = {2};
    o.workloadScale = 0.05;
    auto pts = exploreDesignSpace(o);
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
    EXPECT_EQ(grid.front().cfg.label(), "D1.B8.R16");
    EXPECT_EQ(grid.back().cfg.label(), "D3.B64.R128");
    EXPECT_EQ(grid.front().scale, 1.0);
    EXPECT_EQ(grid.front().cores, 1u);
}

TEST(DseGrid, OptionalAxesExpandInnermost)
{
    DseOptions o;
    o.depths = {1};
    o.banks = {8};
    o.regs = {16};
    o.scales = {0.1, 0.2};
    o.cores = {1, 2};
    auto grid = expandDseGrid(o);
    ASSERT_EQ(grid.size(), 4u);
    EXPECT_EQ(grid[0].scale, 0.1);
    EXPECT_EQ(grid[0].cores, 1u);
    EXPECT_EQ(grid[1].scale, 0.1);
    EXPECT_EQ(grid[1].cores, 2u);
    EXPECT_EQ(grid[2].scale, 0.2);
    EXPECT_EQ(grid[2].cores, 1u);
    EXPECT_EQ(grid[3].scale, 0.2);
    EXPECT_EQ(grid[3].cores, 2u);
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
    bad_scale.scales = {-0.5};
    EXPECT_THROW(expandDseGrid(bad_scale), FatalError);

    DseOptions bad_cores;
    bad_cores.cores = {0};
    EXPECT_THROW(expandDseGrid(bad_cores), FatalError);
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
    p.cores = 2;
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
        "\"banks\": 8, \"regs\": 16, \"scale\": 0.25, \"cores\": 2, "
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
    o.scales = {0.25};
    o.cores = {2};
    o.seed = 7;
    o.suite = {pcSuite()[0]};
    EXPECT_EQ(dseSpaceSignature(o),
              "depths=1|banks=8|regs=16|scales=0.25|cores=2|seed=7|"
              "suite=tretail");
    EXPECT_EQ(dseJournalHeaderLine(dseSpaceSignature(o), 1),
              "{\"dse_journal\": 1, \"space\": "
              "\"depths=1|banks=8|regs=16|scales=0.25|cores=2|seed=7|"
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

TEST(DseJournal, FastTierPointLineRoundTrips)
{
    // Fast-tier points journal their fidelity tag and survive a
    // parse/re-serialize cycle byte for byte, exactly like cycle
    // points.
    for (EvalFidelity f :
         {EvalFidelity::Table, EvalFidelity::Analytic}) {
        DsePoint p = goldenPoint();
        p.fidelity = f;
        std::string line = dseJournalPointLine(7, p);
        EXPECT_NE(line.find(std::string("\"fidelity\": \"") +
                            fidelityName(f) + "\""),
                  std::string::npos);
        size_t index = 0;
        DsePoint parsed;
        ASSERT_TRUE(parseDseJournalPointLine(line, index, parsed));
        EXPECT_EQ(parsed.fidelity, f);
        EXPECT_EQ(dseJournalPointLine(7, parsed), line);
    }
}

TEST(DseJournal, FleetFieldsRoundTrip)
{
    // Fleet axes journal as optional trailing fields, present only
    // when non-default — a ranks=1 zero-transfer point serializes to
    // the exact pre-fleet bytes (pinned by GoldenPointLine above).
    DsePoint base = goldenPoint();
    std::string base_line = dseJournalPointLine(5, base);
    EXPECT_EQ(base_line.find("\"ranks\""), std::string::npos);
    EXPECT_EQ(base_line.find("\"transfer_per_op_ns\""),
              std::string::npos);

    DsePoint p = goldenPoint();
    p.fleetRanks = 8;
    p.transferPerOpNs = 1.0 / 3.0;
    std::string line = dseJournalPointLine(5, p);
    EXPECT_NE(line.find("\"ranks\": 8"), std::string::npos);
    EXPECT_NE(line.find("\"transfer_per_op_ns\": "),
              std::string::npos);

    size_t index = 0;
    DsePoint parsed;
    ASSERT_TRUE(parseDseJournalPointLine(line, index, parsed));
    EXPECT_EQ(index, 5u);
    expectIdentical(parsed, p);
    EXPECT_EQ(dseJournalPointLine(5, parsed), line);

    // A zero-rank count is a torn or foreign line, never a point.
    std::string bad = line;
    size_t at = bad.find("\"ranks\": 8");
    ASSERT_NE(at, std::string::npos);
    bad.replace(at, 10, "\"ranks\": 0");
    EXPECT_FALSE(parseDseJournalPointLine(bad, index, parsed));
}

TEST(DseJournal, OldFormatLineWithoutFidelityReadsAsCycle)
{
    // Journals written before the tiered evaluator carry no fidelity
    // field. Those lines were produced by Machine::run, so they are
    // cycle-accurate by construction: the parser accepts them and
    // tags them Cycle. Pinned — changing this to a rejection is a
    // deliberate, reviewed format break.
    std::string line = dseJournalPointLine(3, goldenPoint());
    const std::string tail = ", \"fidelity\": \"cycle\"";
    size_t at = line.find(tail);
    ASSERT_NE(at, std::string::npos);
    std::string old_format = line.erase(at, tail.size());

    size_t index = 0;
    DsePoint p;
    ASSERT_TRUE(parseDseJournalPointLine(old_format, index, p));
    EXPECT_EQ(index, 3u);
    EXPECT_EQ(p.fidelity, EvalFidelity::Cycle);
    expectIdentical(p, goldenPoint());
}

TEST(DseJournal, UnknownFidelityNameIsRejected)
{
    // A *present but unrecognized* tier name is a torn or foreign
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
        evaluateDesign(cfg, suite, 0.05, 1, 1, &cache, &cold);
    DsePoint b =
        evaluateDesign(cfg, suite, 0.05, 1, 1, &cache, &warm);
    EXPECT_EQ(cold.compiles, 1u);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(warm.compiles, 1u);
    EXPECT_EQ(warm.cacheHits, 1u); // second evaluation hits
    expectIdentical(a, b);         // and a hit cannot change results
    EXPECT_EQ(cache.stats().hitRate(), 0.5);
}

TEST(DseSweep, SweepPointsEqualPerPointEvaluation)
{
    // runDseSweep prepares each (workload, scale) pair once, one scale
    // at a time; every point must still equal evaluateDesign of its
    // coordinates, which prepares on its own. Two scales cover the
    // per-scale preparation of both the sweep and its refinement.
    DseSweepOptions o;
    o.space.depths = {1, 2};
    o.space.banks = {8};
    o.space.regs = {16, 32};
    o.space.scales = {0.03, 0.05};
    o.space.suite = {pcSuite()[0], sptrsvSuite()[0]};
    o.threads = 2;
    o.shards = 3;
    ProgramCache cache;
    o.cache = &cache;
    std::string path = ::testing::TempDir() + "dse_prepared.jsonl";
    std::remove(path.c_str());
    o.journalPath = path;

    DseSweepResult swept = runDseSweep(o);
    std::vector<DseGridPoint> grid = expandDseGrid(o.space);
    ASSERT_EQ(swept.points.size(), 8u);
    EXPECT_GT(swept.prepareSeconds, 0.0);
    size_t feasible = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
        SCOPED_TRACE(i);
        DsePoint single =
            evaluateDesign(grid[i].cfg, o.space.suite, grid[i].scale,
                           o.space.seed, grid[i].cores);
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

    // Refinement walks the scales again: each cycle re-evaluated
    // survivor equals the cycle sweep's point.
    DseSweepOptions r = o;
    r.journalPath.clear();
    r.resume = false;
    r.fidelity = EvalFidelity::Table;
    r.refine = true;
    DseSweepResult refined = runDseSweep(r);
    std::vector<char> refined_at(o.space.scales.size(), 0);
    size_t survivors = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
        if (refined.points[i].fidelity != EvalFidelity::Cycle)
            continue;
        SCOPED_TRACE(i);
        expectIdentical(refined.points[i], swept.points[i]);
        refined_at[grid[i].scale == o.space.scales[1]] = 1;
        ++survivors;
    }
    EXPECT_EQ(survivors, refined.refineSurvivors);
    EXPECT_EQ(refined_at, std::vector<char>(2, 1)); // at both scales
}

TEST(DseSweep, CoresAxisScalesThroughputAndStaysFeasible)
{
    std::vector<WorkloadSpec> suite = {pcSuite()[0]};
    ArchConfig cfg;
    cfg.depth = 2;
    cfg.banks = 8;
    cfg.regsPerBank = 32;
    DsePoint one = evaluateDesign(cfg, suite, 0.05, 1, 1);
    DsePoint four = evaluateDesign(cfg, suite, 0.05, 1, 4);
    ASSERT_TRUE(one.feasible);
    ASSERT_TRUE(four.feasible);
    // Four cores run a 4-input batch in roughly one program's wall
    // cycles: latency/op (and EDP) must drop, throughput must rise.
    EXPECT_LT(four.latencyPerOpNs, one.latencyPerOpNs);
    EXPECT_GT(four.throughputGops, one.throughputGops);
    EXPECT_EQ(four.cores, 4u);
}

} // namespace
} // namespace dpu
