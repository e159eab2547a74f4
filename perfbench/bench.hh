/**
 * @file
 * Shared pieces of the repository benchmark: the run options, the
 * report every workload fills, the metric catalogue, and small
 * statistics helpers. See README.md for what each workload and metric
 * means.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Command-line options common to every workload. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** Per-layer (traced) run instead of the end-to-end run. */
    bool trace = false;
};

/** One metric the benchmark knows, with its unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, printed by every untraced run. */
extern const std::vector<MetricDef> kEndToEnd;
/** Per-layer metrics, printed by every traced run. */
extern const std::vector<MetricDef> kPerLayer;

/**
 * What a workload run produced: named metric values, operation
 * counts, and the outcome of every output check. Human-readable
 * detail goes to stdout through note(); the JSON result line is
 * printed last by main().
 */
class Report
{
  public:
    void set(std::string_view name, double value);
    /** Value of a metric set earlier (0 if unset). */
    double get(std::string_view name) const;
    bool has(std::string_view name) const;

    /** Record one output check; a failure makes the run incorrect. */
    void check(bool ok, const std::string &what);
    bool correct() const { return problems.empty(); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Metric values in the order set. */
    std::vector<std::pair<std::string, double>> values;
    std::vector<std::string> problems;
};

/** printf to stdout, one line per call, prefixed for grepping. */
void note(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

double secondsSince(Clock::time_point t0);
double msSince(Clock::time_point t0);

double median(std::vector<double> v);

/** Nearest-rank percentile of @p sorted (ascending), p in [0, 1]. */
double percentile(const std::vector<double> &sorted, double p);

/** Samples strictly above the nearest-rank @p p percentile. */
std::size_t samplesBeyond(const std::vector<double> &sorted, double p);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** User + system CPU seconds this process has used. */
double processCpuSeconds();

/** Threads currently in this process (/proc/self/status). */
unsigned processThreads();

/** FNV-1a 64 over byte strings: the output digests. */
class Digest
{
  public:
    void add(std::string_view bytes);
    void addU64(std::uint64_t v);
    void addF64(double v);
    std::uint64_t value() const { return h; }
    std::string hex() const;

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

/** Workload entry points (sim_bench.cc, serve_bench.cc). */
void runSimGrid(const Args &args, Report &report);
void runSimPressure(const Args &args, Report &report);
void runServeMixed(const Args &args, Report &report);
void runServeOverload(const Args &args, Report &report);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
