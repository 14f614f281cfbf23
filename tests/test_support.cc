/**
 * @file
 * Unit tests for src/support: logging, rng, bitvec, stats, table,
 * and the strict CLI value parsers.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "support/bitvec.hh"
#include "support/cli.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/stats.hh"
#include "support/table.hh"

namespace dpu {
namespace {

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(dpu_panic("boom"), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(dpu_fatal("bad input"), FatalError);
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(dpu_assert(1 + 1 == 2, "math"));
}

TEST(Logging, AssertThrowsOnFalse)
{
    EXPECT_THROW(dpu_assert(false, "nope"), PanicError);
}

TEST(Logging, MessageContainsFileAndText)
{
    try {
        dpu_fatal("special-marker");
        FAIL() << "should have thrown";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("special-marker"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("test_support"),
                  std::string::npos);
    }
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, BelowInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(13), 13u);
}

TEST(Rng, BelowCoversDomain)
{
    Rng rng(7);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, BelowSequenceIsPinned)
{
    // FNV-1a-64 over below()'s results for small bounds, bounds next
    // to 2^32 and 2^63 + 1, which rejects about half its draws, then
    // one raw draw so the number of draws consumed is pinned too. A
    // rewrite of below() must keep every result and every rejection.
    Rng rng(20261020);
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (uint64_t bound = 1; bound <= 4096; ++bound)
        for (int i = 0; i < 4; ++i)
            mix(rng.below(bound));
    for (uint64_t bound : {(uint64_t(1) << 32) - 1, (uint64_t(1) << 32) + 1,
                           (uint64_t(1) << 63) + 1})
        for (int i = 0; i < 256; ++i)
            mix(rng.below(bound));
    mix(rng.next());
    EXPECT_EQ(h, 0xe4f26fd71ec6f045ull);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    std::set<int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        int64_t v = rng.range(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(BitVec, StartsClear)
{
    BitVec bv(100);
    EXPECT_EQ(bv.count(), 0u);
    EXPECT_TRUE(bv.none());
    EXPECT_EQ(bv.firstZero(), 0u);
}

TEST(BitVec, SetAndGet)
{
    BitVec bv(70);
    bv.set(0);
    bv.set(69);
    EXPECT_TRUE(bv.get(0));
    EXPECT_TRUE(bv.get(69));
    EXPECT_FALSE(bv.get(35));
    EXPECT_EQ(bv.count(), 2u);
}

TEST(BitVec, FirstZeroSkipsSetPrefix)
{
    BitVec bv(10);
    for (size_t i = 0; i < 4; ++i)
        bv.set(i);
    EXPECT_EQ(bv.firstZero(), 4u);
    bv.clear(2);
    EXPECT_EQ(bv.firstZero(), 2u);
}

TEST(BitVec, FirstZeroFullReturnsSize)
{
    BitVec bv(65);
    for (size_t i = 0; i < 65; ++i)
        bv.set(i);
    EXPECT_EQ(bv.firstZero(), 65u);
}

TEST(BitVec, AllOnesConstructor)
{
    BitVec bv(130, true);
    EXPECT_EQ(bv.count(), 130u);
    EXPECT_EQ(bv.firstZero(), 130u);
}

TEST(BitVec, ResetClearsAll)
{
    BitVec bv(64, true);
    bv.reset();
    EXPECT_TRUE(bv.none());
}

TEST(RankSet, EmptySetHasNoNeighbours)
{
    for (size_t n : {0u, 1u, 64u, 100u, 5000u}) {
        RankSet s(n);
        EXPECT_TRUE(s.empty());
        EXPECT_EQ(s.size(), 0u);
        EXPECT_EQ(s.next(0), RankSet::npos);
        EXPECT_EQ(s.prev(0), RankSet::npos);
        EXPECT_EQ(s.prev(n), RankSet::npos);
        EXPECT_EQ(s.next(n), RankSet::npos);
    }
}

TEST(RankSet, MatchesStdSetUnderRandomInsertErase)
{
    // Sizes around the word (64) and summary-word (4096) boundaries,
    // and ones that are not a multiple of 64.
    for (size_t n : {1u, 63u, 64u, 65u, 100u, 4095u, 4096u, 4097u, 9000u}) {
        SCOPED_TRACE(n);
        Rng rng(n);
        RankSet s(n);
        std::set<size_t> ref;
        std::vector<size_t> edges;
        for (size_t r : {size_t(0), size_t(63), size_t(64), size_t(4095),
                         size_t(4096), n - 1})
            if (r < n)
                edges.push_back(r);
        auto pick = [&] {
            return rng.below(2) ? edges[rng.below(edges.size())]
                                : rng.below(n);
        };
        auto expect_same = [&](size_t r) {
            auto it = ref.lower_bound(r);
            EXPECT_EQ(s.next(r), it == ref.end() ? RankSet::npos : *it)
                << "next(" << r << ")";
            EXPECT_EQ(s.prev(r),
                      it == ref.begin() ? RankSet::npos : *std::prev(it))
                << "prev(" << r << ")";
        };
        // Fill, drain, then churn, so both dense words and long empty
        // stretches between members get probed.
        for (uint64_t insert_pct : {90u, 10u, 50u}) {
            for (int op = 0; op < 1500; ++op) {
                size_t r = pick();
                if (rng.below(100) < insert_pct) {
                    s.insert(r);
                    ref.insert(r);
                } else {
                    s.erase(r);
                    ref.erase(r);
                }
                ASSERT_EQ(s.size(), ref.size());
                ASSERT_EQ(s.empty(), ref.empty());
                EXPECT_EQ(s.contains(r), ref.count(r) == 1);
                expect_same(rng.below(n + 1));
                expect_same(pick());
                expect_same(pick() + 1);
            }
            for (size_t r : edges) {
                expect_same(r);
                expect_same(r + 1);
            }
        }
        // Drain completely: every query then finds nothing.
        for (size_t r : std::vector<size_t>(ref.begin(), ref.end()))
            s.erase(r);
        EXPECT_TRUE(s.empty());
        EXPECT_EQ(s.next(0), RankSet::npos);
        EXPECT_EQ(s.prev(n), RankSet::npos);
    }
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.stddev(), 1.118, 1e-3);
}

TEST(Summary, EmptyMeanPanics)
{
    Summary s;
    EXPECT_THROW(s.mean(), PanicError);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Table, AlignedOutput)
{
    TablePrinter t({"name", "value"});
    t.row().cell("x").num(1.5, 1);
    t.row().cell("longer").num(static_cast<long long>(42));
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    TablePrinter t({"a", "b"});
    t.row().cell("1").cell("2");
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Cli, ParseUint32AcceptsPlainDecimals)
{
    uint32_t v = 99;
    EXPECT_TRUE(parseUint32Arg("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUint32Arg("8", v));
    EXPECT_EQ(v, 8u);
    EXPECT_TRUE(parseUint32Arg("4294967295", v));
    EXPECT_EQ(v, 4294967295u);
}

TEST(Cli, ParseUint32RejectsGarbage)
{
    uint32_t v = 7;
    // The atoi failure modes this parser exists to catch.
    EXPECT_FALSE(parseUint32Arg("abc", v));
    EXPECT_FALSE(parseUint32Arg("", v));
    EXPECT_FALSE(parseUint32Arg("4x", v));
    EXPECT_FALSE(parseUint32Arg("-1", v));
    EXPECT_FALSE(parseUint32Arg(" 4", v));
    EXPECT_FALSE(parseUint32Arg("+4", v));
    EXPECT_FALSE(parseUint32Arg("4294967296", v)); // 2^32
    EXPECT_FALSE(parseUint32Arg(nullptr, v));
    EXPECT_EQ(v, 7u); // untouched on failure
}

TEST(Cli, ParseUint32ListSplitsOnCommas)
{
    // The dse_sweep --axes value lists ("depth=1,2,3").
    std::vector<uint32_t> v;
    EXPECT_TRUE(parseUint32ListArg("8", v));
    EXPECT_EQ(v, (std::vector<uint32_t>{8}));
    EXPECT_TRUE(parseUint32ListArg("1,2,3", v));
    EXPECT_EQ(v, (std::vector<uint32_t>{1, 2, 3}));
}

TEST(Cli, ParseUint32ListRejectsJunkWithoutClobbering)
{
    std::vector<uint32_t> v{42};
    EXPECT_FALSE(parseUint32ListArg("", v));
    EXPECT_FALSE(parseUint32ListArg(nullptr, v));
    EXPECT_FALSE(parseUint32ListArg(",", v));
    EXPECT_FALSE(parseUint32ListArg("1,", v));
    EXPECT_FALSE(parseUint32ListArg(",1", v));
    EXPECT_FALSE(parseUint32ListArg("1,,2", v));
    EXPECT_FALSE(parseUint32ListArg("1,abc", v));
    EXPECT_FALSE(parseUint32ListArg("1, 2", v));
    EXPECT_FALSE(parseUint32ListArg("1,-2", v));
    EXPECT_EQ(v, (std::vector<uint32_t>{42})); // untouched on failure
}

TEST(Cli, ParseUint64CoversTheFullRange)
{
    uint64_t v = 0;
    EXPECT_TRUE(parseUint64Arg("18446744073709551615", v));
    EXPECT_EQ(v, 18446744073709551615ull);
    EXPECT_FALSE(parseUint64Arg("18446744073709551616", v));
    EXPECT_FALSE(parseUint64Arg("1e3", v));
}

TEST(Cli, ParseDoubleAcceptsNumbersRejectsJunk)
{
    double v = -1;
    EXPECT_TRUE(parseDoubleArg("0.25", v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_TRUE(parseDoubleArg("1e-3", v));
    EXPECT_DOUBLE_EQ(v, 1e-3);
    EXPECT_TRUE(parseDoubleArg("-2", v));
    EXPECT_DOUBLE_EQ(v, -2.0);
    EXPECT_FALSE(parseDoubleArg("x", v));
    EXPECT_FALSE(parseDoubleArg("", v));
    EXPECT_FALSE(parseDoubleArg("0.5junk", v));
    EXPECT_FALSE(parseDoubleArg("nan", v));
    EXPECT_FALSE(parseDoubleArg("inf", v));
    EXPECT_FALSE(parseDoubleArg(" 1", v));
    EXPECT_FALSE(parseDoubleArg(nullptr, v));
}

} // namespace
} // namespace dpu
