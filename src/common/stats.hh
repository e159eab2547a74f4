/**
 * @file
 * Lightweight statistics primitives: scalar counters, mean/max trackers,
 * fixed-bucket histograms, geometric means, and a column-aligned table
 * printer used by the benchmark harnesses to emit paper-style rows.
 */

#ifndef CHAMELEON_COMMON_STATS_HH
#define CHAMELEON_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace chameleon
{

/** Running mean / min / max / count over a stream of samples. */
class MeanTracker
{
  public:
    void
    sample(double v)
    {
        sum += v;
        ++n;
        // The explicit sentinel (not "n == 1") makes the first-sample
        // seeding independent of the comparison order, so an all-
        // negative stream can never leave min/max at the 0.0 reset
        // value.
        if (empty || v < mn)
            mn = v;
        if (empty || v > mx)
            mx = v;
        empty = false;
    }

    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }
    double min() const { return empty ? 0.0 : mn; }
    double max() const { return empty ? 0.0 : mx; }
    std::uint64_t count() const { return n; }
    double total() const { return sum; }

    void
    reset()
    {
        sum = 0.0;
        mn = mx = 0.0;
        n = 0;
        empty = true;
    }

  private:
    double sum = 0.0;
    double mn = 0.0;
    double mx = 0.0;
    std::uint64_t n = 0;
    bool empty = true;
};

/** Histogram over [0, bucketWidth * nBuckets) with an overflow bucket. */
class Histogram
{
  public:
    Histogram(double bucket_width, std::size_t n_buckets)
        : width(bucket_width), counts(n_buckets + 1, 0)
    {
    }

    void
    sample(double v)
    {
        // Clamp in double space: casting a negative, NaN, or
        // size_t-overflowing quotient is undefined behaviour.
        const double scaled = v / width;
        std::size_t idx;
        if (!(scaled >= 0.0))
            idx = 0; // negative or NaN samples land in [0, width)
        else if (scaled >= static_cast<double>(counts.size() - 1))
            idx = counts.size() - 1; // overflow bucket (also +inf)
        else
            idx = static_cast<std::size_t>(scaled);
        ++counts[idx];
        ++total;
    }

    std::uint64_t bucket(std::size_t i) const { return counts[i]; }
    std::size_t buckets() const { return counts.size(); }
    std::uint64_t samples() const { return total; }

    /**
     * Nearest-rank percentile at bucket resolution: the upper edge of
     * the bucket holding the ceil(frac * samples)-th smallest sample.
     */
    double percentile(double frac) const;

    /** Lower edge of bucket @p i (the last bucket is the overflow). */
    double bucketLow(std::size_t i) const
    {
        return width * static_cast<double>(i);
    }

    /**
     * JSON object: bucket width, sample count, and the per-bucket
     * counts (last entry is the overflow bucket). Shared by metric
     * snapshots and the trace analyzer.
     */
    std::string toJson() const;

  private:
    double width;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
};

/** Geometric mean of a vector of strictly positive values. */
double geoMean(const std::vector<double> &values);

/** Arithmetic mean convenience. */
double arithMean(const std::vector<double> &values);

/**
 * Column-aligned plain-text table, matching the row/series layout of the
 * paper figures so bench output is diffable against EXPERIMENTS.md.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> header);

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Render with aligned columns; first column left, rest right. */
    std::string str() const;

    /** Render and write to stdout. */
    void print() const;

    /** Format helper: fixed-point with @p digits decimals. */
    static std::string fmt(double v, int digits = 2);

  private:
    std::vector<std::vector<std::string>> rows;
};

} // namespace chameleon

#endif // CHAMELEON_COMMON_STATS_HH
