/**
 * @file
 * Unit tests for the common substrate: RNG determinism and
 * distribution sanity, statistics helpers, timelines and logging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/timeline.hh"
#include "common/types.hh"
#include "workloads/profile.hh"

using namespace chameleon;

TEST(Types, UnitLiterals)
{
    EXPECT_EQ(1_KiB, 1024u);
    EXPECT_EQ(1_MiB, 1024u * 1024u);
    EXPECT_EQ(4_GiB, 4ull << 30);
}

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
}

TEST(Types, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(4096));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(48));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(4096), 12u);
    EXPECT_EQ(floorLog2(5), 2u);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowIsBounded)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowIsRoughlyUniform)
{
    Rng rng(11);
    const std::uint64_t buckets = 8;
    std::uint64_t counts[8] = {};
    const int n = 80000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.below(buckets)];
    for (std::uint64_t c : counts) {
        EXPECT_GT(c, n / 8 * 0.9);
        EXPECT_LT(c, n / 8 * 1.1);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(5);
    const double target = 8.0;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.geometric(target));
    EXPECT_NEAR(sum / n, target, 0.35);
}

TEST(Rng, GeometricDegenerateMean)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, ZipfIsSkewed)
{
    Rng rng(9);
    const std::uint64_t n = 1000;
    std::uint64_t low = 0, total = 20000;
    for (std::uint64_t i = 0; i < total; ++i)
        if (rng.zipf(n, 0.8) < n / 10)
            ++low;
    // With skew, the first decile should receive far more than 10%.
    EXPECT_GT(static_cast<double>(low) / static_cast<double>(total),
              0.3);
}

TEST(Rng, ZipfBounded)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i) {
        ASSERT_LT(rng.zipf(37, 0.6), 37u);
        ASSERT_LT(rng.zipf(37, 1.0), 37u);
    }
    EXPECT_EQ(rng.zipf(1, 0.7), 0u);
}

namespace
{

/** Rng::geometric as first written: log1p(-p) on every draw. */
std::uint64_t
literalGeometric(Rng &rng, double mean)
{
    if (mean <= 1.0)
        return 1;
    const double p = 1.0 / mean;
    double u = rng.uniform();
    if (u >= 1.0)
        u = 0.999999999999;
    return static_cast<std::uint64_t>(
               std::floor(std::log1p(-u) / std::log1p(-p))) + 1;
}

/** Rng::zipf as first written: pow(n, 1 - s) on every draw. */
std::uint64_t
literalZipf(Rng &rng, std::uint64_t n, double s)
{
    if (n <= 1)
        return 0;
    const double u = rng.uniform();
    if (s == 1.0) {
        const double hn = std::log(static_cast<double>(n));
        auto r = static_cast<std::uint64_t>(std::exp(u * hn)) - 1;
        return r < n ? r : n - 1;
    }
    const double e = 1.0 - s;
    const double nm = std::pow(static_cast<double>(n), e);
    auto r = static_cast<std::uint64_t>(
                 std::pow(u * (nm - 1.0) + 1.0, 1.0 / e)) - 1;
    return r < n ? r : n - 1;
}

} // namespace

TEST(Rng, GeometricDistMatchesLiteralFormula)
{
    // Twin generators: equal samples and an equal number of draws
    // (a mean <= 1 must draw nothing).
    for (double mean : {0.5, 1.0, 1.5, 8.0, 16.72, 1000.0}) {
        Rng a(31), b(31);
        const GeometricDist dist(mean);
        for (int i = 0; i < 100'000; ++i)
            ASSERT_EQ(dist(a), literalGeometric(b, mean))
                << "mean " << mean << " draw " << i;
        EXPECT_EQ(a.next(), b.next()) << "mean " << mean;
        Rng c(31), d(31);
        EXPECT_EQ(c.geometric(mean), literalGeometric(d, mean));
    }
}

TEST(Rng, GeometricDistFastPathExactAtBoundaries)
{
    // Every gap and run mean the Table II generators use, plus a
    // near-degenerate, a small and a very large one, with the step
    // between checked boundaries: mean 1e5 has 3.6 M of them (20 s),
    // so every 29th one is checked, spread over the whole range.
    std::vector<std::pair<double, std::uint64_t>> means = {
        {1.5, 1}, {8.0, 1}, {1e5, 29}};
    for (const AppProfile &p : tableTwoSuite()) {
        means.emplace_back(std::max(1.0, 1000.0 / p.llcMpki), 1);
        means.emplace_back(p.seqRunBlocks, 1);
    }
    constexpr std::int64_t lastGridPoint = (1ll << 53) - 1;
    for (const auto &[mean, step] : means) {
        if (mean <= 1.0)
            continue;
        const GeometricDist dist(mean);
        const double logQ = std::log1p(-(1.0 / mean));
        std::uint64_t mismatches = 0;
        // The draw steps from k to k + 1 where log1p(-u) / logQ
        // crosses k, at u_k = 1 - q^k; check the 2^-53 grid around
        // every such threshold up to u = 1 - e^-36, next to the
        // grid's last point 1 - 2^-53.
        for (std::uint64_t k = 1;
             static_cast<double>(k) * -logQ <= 36.0; k += step) {
            const long double uk =
                -std::expm1l(static_cast<long double>(k) * logQ);
            const auto j0 = static_cast<std::int64_t>(uk * 0x1p53L);
            const std::int64_t lo = std::max<std::int64_t>(j0 - 64, 0);
            const std::int64_t hi = std::min(j0 + 64, lastGridPoint);
            for (std::int64_t j = lo; j <= hi; ++j) {
                const double u = static_cast<double>(j) * 0x1p-53;
                const auto literal = static_cast<std::uint64_t>(
                    std::floor(std::log1p(-u) / logQ)) + 1;
                mismatches += dist.fromUniform(u) != literal;
            }
        }
        EXPECT_EQ(mismatches, 0u) << "mean " << mean;
    }
}

TEST(Rng, ZipfDistMatchesLiteralFormula)
{
    const std::pair<std::uint64_t, double> cases[] = {
        {0, 0.6}, {1, 0.7}, {2, 0.6}, {37, 1.0}, {1000, 0.8},
        {5243, 0.3}, {65536, 1.0}, {4096, 1.4}};
    for (const auto &[n, s] : cases) {
        Rng a(47), b(47);
        const ZipfDist dist(n, s);
        for (int i = 0; i < 100'000; ++i)
            ASSERT_EQ(dist(a), literalZipf(b, n, s))
                << "n " << n << " s " << s << " draw " << i;
        EXPECT_EQ(a.next(), b.next()) << "n " << n << " s " << s;
        Rng c(47), d(47);
        EXPECT_EQ(c.zipf(n, s), literalZipf(d, n, s));
    }
}

TEST(Stats, MeanTracker)
{
    MeanTracker t;
    EXPECT_EQ(t.count(), 0u);
    EXPECT_EQ(t.mean(), 0.0);
    t.sample(2.0);
    t.sample(4.0);
    t.sample(9.0);
    EXPECT_DOUBLE_EQ(t.mean(), 5.0);
    EXPECT_DOUBLE_EQ(t.min(), 2.0);
    EXPECT_DOUBLE_EQ(t.max(), 9.0);
    EXPECT_EQ(t.count(), 3u);
    t.reset();
    EXPECT_EQ(t.count(), 0u);
}

TEST(Stats, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geoMean({1.0, 10.0, 100.0}), 10.0, 1e-9);
    EXPECT_EQ(geoMean({}), 0.0);
}

TEST(Stats, ArithMean)
{
    EXPECT_DOUBLE_EQ(arithMean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_EQ(arithMean({}), 0.0);
}

TEST(Stats, HistogramBucketsAndPercentile)
{
    Histogram h(10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i));
    EXPECT_EQ(h.samples(), 100u);
    EXPECT_EQ(h.bucket(0), 10u);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 10.0);
    EXPECT_NEAR(h.percentile(0.99), 100.0, 10.0);
}

TEST(Stats, HistogramOverflow)
{
    Histogram h(1.0, 4);
    h.sample(100.0);
    EXPECT_EQ(h.bucket(h.buckets() - 1), 1u);
}

TEST(Stats, HistogramBucketBoundaries)
{
    // [0,2) [2,4) [4,6) + overflow: values exactly on a boundary
    // belong to the bucket they open.
    Histogram h(2.0, 3);
    h.sample(0.0);
    h.sample(1.9999);
    h.sample(2.0);
    h.sample(5.9999);
    h.sample(6.0); // first value past the tracked range
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 1u);
    EXPECT_EQ(h.bucket(3), 1u); // overflow bucket
    EXPECT_EQ(h.samples(), 5u);
}

TEST(Stats, HistogramHostileSamples)
{
    // Negative, NaN, infinite and size_t-overflowing samples must not
    // index out of bounds (the naive double->size_t cast is UB).
    Histogram h(1.0, 4);
    h.sample(-1.0);
    h.sample(-1e300);
    h.sample(std::nan(""));
    EXPECT_EQ(h.bucket(0), 3u);
    h.sample(1e300);
    h.sample(std::numeric_limits<double>::infinity());
    EXPECT_EQ(h.bucket(h.buckets() - 1), 2u);
    EXPECT_EQ(h.samples(), 5u);
}

TEST(Stats, HistogramPercentileEdges)
{
    Histogram empty(1.0, 4);
    EXPECT_EQ(empty.percentile(0.5), 0.0);
    Histogram h(1.0, 4);
    h.sample(2.5);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    // The single sample sits in bucket [2,3).
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 3.0);

    // Nearest rank: a target below one sample still needs a sample,
    // so few-sample quantiles never report the empty first bucket.
    Histogram one(1.0, 512);
    one.sample(300.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.50), 301.0);
    EXPECT_DOUBLE_EQ(one.percentile(0.99), 301.0);
    Histogram two(1.0, 512);
    two.sample(0.04);
    two.sample(2560.0);
    EXPECT_DOUBLE_EQ(two.percentile(0.50), 1.0);
    EXPECT_GT(two.percentile(0.99), 512.0) << "p99 is the overflow";
}

TEST(Stats, MeanTrackerSingleNegativeSample)
{
    // Regression guard: min/max must track the first sample even when
    // it is negative (the n == 1 clause, not the 0.0 initializers).
    MeanTracker t;
    t.sample(-3.0);
    EXPECT_DOUBLE_EQ(t.mean(), -3.0);
    EXPECT_DOUBLE_EQ(t.min(), -3.0);
    EXPECT_DOUBLE_EQ(t.max(), -3.0);
    EXPECT_DOUBLE_EQ(t.total(), -3.0);
}

TEST(Stats, MeanTrackerResetForgetsExtremes)
{
    MeanTracker t;
    t.sample(100.0);
    t.reset();
    t.sample(-5.0);
    EXPECT_DOUBLE_EQ(t.max(), -5.0);
    EXPECT_DOUBLE_EQ(t.min(), -5.0);
}

TEST(Stats, TextTableAlignsAndFormats)
{
    TextTable t({"name", "v"});
    t.addRow({"a", "1.00"});
    t.addRow({"bb", "10.00"});
    const std::string s = t.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("10.00"), std::string::npos);
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
}

TEST(Log, StrFormat)
{
    EXPECT_EQ(strFormat("x=%d y=%s", 3, "z"), "x=3 y=z");
    EXPECT_EQ(strFormat("%05.1f", 2.25), "002.2");
}

TEST(Timeline, SamplesAndExtremes)
{
    Timeline t("free");
    EXPECT_TRUE(t.empty());
    t.sample(0, 5.0);
    t.sample(100, 1.0);
    t.sample(200, 9.0);
    EXPECT_EQ(t.samples().size(), 3u);
    EXPECT_DOUBLE_EQ(t.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(t.maxValue(), 9.0);
}

TEST(Timeline, SparklineShape)
{
    Timeline t("s");
    for (int i = 0; i < 100; ++i)
        t.sample(static_cast<Cycle>(i), static_cast<double>(i));
    const std::string line = t.sparkline(20);
    EXPECT_EQ(line.size(), 20u);
    // Rising series: last column should render "denser" than first.
    EXPECT_LT(line.front(), line.back());
}

TEST(Timeline, EmptySparkline)
{
    Timeline t("e");
    EXPECT_EQ(t.sparkline(10), "");
}

TEST(Timeline, EmptyExtremesAreZero)
{
    Timeline t("e");
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.minValue(), 0.0);
    EXPECT_EQ(t.maxValue(), 0.0);
}

TEST(Timeline, SingleNegativeSample)
{
    Timeline t("n");
    t.sample(0, -2.5);
    EXPECT_FALSE(t.empty());
    EXPECT_DOUBLE_EQ(t.minValue(), -2.5);
    EXPECT_DOUBLE_EQ(t.maxValue(), -2.5);
    // A flat series still renders the requested width.
    EXPECT_EQ(t.sparkline(8).size(), 8u);
}
