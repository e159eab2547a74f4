/**
 * @file
 * perfbench entry point: parses the run options, records the host, runs one
 * workload and prints its report. The last stdout line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}; every line
 * before it is human-readable detail.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Workloads: sim_grid, sim_pressure, serve_mixed, serve_overload.
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * ones. Exit status is 0 when the run completed (its JSON says
 * whether the outputs were correct), 1 when a workload threw, 2 on bad
 * usage or a non-Release build.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hh"
#include "common/log.hh"

namespace perfbench
{

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"ns_per_ref", "ns"},
    {"wall_s", "s"},
    {"cold_p50_ms", "ms"},
    {"goodput_jobs_per_s", "jobs/s"},
    {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"workloads.next_ns", "ns"},
    {"workloads.refs", "count"},
    {"os.translate_ns", "ns"},
    {"os.translate_calls", "count"},
    {"os.minor_faults", "count"},
    {"os.major_faults", "count"},
    {"os.swap_outs", "count"},
    {"os.autonuma_ns", "ns"},
    {"os.migrations", "count"},
    {"os.isa_allocs", "count"},
    {"os.isa_frees", "count"},
    {"memorg.access_ns", "ns"},
    {"memorg.reads", "count"},
    {"memorg.writes", "count"},
    {"memorg.stacked_hit_rate", "fraction"},
    {"memorg.swaps", "count"},
    {"memorg.fills", "count"},
    {"memorg.writebacks", "count"},
    {"memorg.isa_moves", "count"},
    {"memorg.cache_mode_fraction", "fraction"},
    {"dram.stacked.reads", "count"},
    {"dram.stacked.writes", "count"},
    {"dram.stacked.row_hit_rate", "fraction"},
    {"dram.stacked.bytes", "bytes"},
    {"dram.stacked.avg_read_cycles", "cycles"},
    {"dram.offchip.reads", "count"},
    {"dram.offchip.writes", "count"},
    {"dram.offchip.row_hit_rate", "fraction"},
    {"dram.offchip.bytes", "bytes"},
    {"dram.offchip.avg_read_cycles", "cycles"},
    {"sim.loop_ns", "ns"},
    {"sim.traced_ns_per_ref", "ns"},
    {"sim.cell_wall_max_s", "s"},
    {"sweep.busy_frac", "fraction"},
    {"sweep.tail_s", "s"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.hit_p99_ms", "ms"},
    {"serve.cold_p99_ms", "ms"},
    {"serve.submit_rtt_ms", "ms"},
    {"serve.decode_ms", "ms"},
    {"serve.admission_ms", "ms"},
    {"serve.cache_ms", "ms"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p99_ms", "ms"},
    {"serve.simulate_ms", "ms"},
    {"serve.encode_ms", "ms"},
    {"serve.stats_scrape_ms", "ms"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.coalesced", "count"},
    {"serve.busy", "count"},
    {"serve.admission_rejected", "count"},
    {"serve.timed_out", "count"},
    {"serve.threads_peak", "count"},
    {"serve.leak_cpu_s", "s"},
    {"serve.gen_lag_ms", "ms"},
    {"trace.overhead_frac", "fraction"},
};

void
Report::set(std::string_view name, double value)
{
    for (auto &[n, v] : values)
        if (n == name) {
            v = value;
            return;
        }
    values.emplace_back(std::string(name), value);
}

double
Report::get(std::string_view name) const
{
    for (const auto &[n, v] : values)
        if (n == name)
            return v;
    return 0.0;
}

bool
Report::has(std::string_view name) const
{
    for (const auto &[n, v] : values)
        if (n == name)
            return true;
    return false;
}

void
Report::check(bool ok, const std::string &what)
{
    note("check %s: %s", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        problems.push_back(what);
}

void
note(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::vprintf(fmt, ap);
    va_end(ap);
    std::putchar('\n');
    std::fflush(stdout);
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1000.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    return sorted[rank == 0 ? 0 : std::min(rank, sorted.size()) - 1];
}

std::size_t
samplesBeyond(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0;
    const double cut = percentile(sorted, p);
    return static_cast<std::size_t>(
        sorted.end() -
        std::upper_bound(sorted.begin(), sorted.end(), cut));
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
processCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

unsigned
processThreads()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(
                std::strtoul(line.c_str() + 8, nullptr, 10));
    return 0;
}

void
Digest::add(std::string_view bytes)
{
    for (const char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
}

void
Digest::addU64(std::uint64_t v)
{
    char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<char>(v >> (8 * i));
    add(std::string_view(buf, 8));
}

void
Digest::addF64(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    addU64(bits);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "sim_grid|sim_pressure|serve_mixed|serve_overload "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseU64(const char *s)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-')
        usage("bad number");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        if (flag == "--workload") {
            a.workload = val;
            have_workload = true;
        } else if (flag == "--seed") {
            a.seed = parseU64(val);
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseU64(val));
        } else if (flag == "--trace") {
            const std::uint64_t t = parseU64(val);
            if (t > 1)
                usage("--trace takes 0 or 1");
            a.trace = t == 1;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (a.seconds < 1.0)
        usage("--seconds must be at least 1");
    return a;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

void
printJson(const Report &r, const std::vector<MetricDef> &defs)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                r.correct() ? "true" : "false", r.attempted, r.failed);
    // A non-finite value already failed a check; keep the line JSON.
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const double v = r.get(defs[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, std::isfinite(v) ? v : 0.0,
                    defs[i].unit);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);

    void (*run)(const Args &, Report &) = nullptr;
    if (args.workload == "sim_grid")
        run = runSimGrid;
    else if (args.workload == "sim_pressure")
        run = runSimPressure;
    else if (args.workload == "serve_mixed")
        run = runServeMixed;
    else if (args.workload == "serve_overload")
        run = runServeOverload;
    else
        usage(("unknown workload " + args.workload).c_str());

    // Host time is only comparable between optimized builds.
    const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
    const bool asserts_on = true;
#else
    const bool asserts_on = false;
#endif
    if (build_type != "Release" || asserts_on) {
        std::fprintf(stderr,
                     "perfbench: refusing a %s build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     build_type.c_str());
        return 2;
    }
    chameleon::setQuiet(true);

    note("host: nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s",
         ::sysconf(_SC_NPROCESSORS_ONLN), cpuModel().c_str(), __VERSION__,
         build_type.c_str());
    note("run: workload=%s seed=%" PRIu64 " seconds=%.0f trace=%d",
         args.workload.c_str(), args.seed, args.seconds,
         args.trace ? 1 : 0);

    Report report;
    try {
        run(args, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    const std::vector<MetricDef> &defs = args.trace ? kPerLayer : kEndToEnd;
    for (const MetricDef &d : defs) {
        // Every end-to-end metric is measured on every workload and is
        // never zero; a per-layer metric of a layer the workload does
        // not exercise reads 0.
        const bool present = report.has(d.name);
        const double v = report.get(d.name);
        if (!std::isfinite(v) || (!args.trace && !(present && v > 0.0)))
            report.check(false, std::string(d.name) +
                                    (args.trace ? " is finite"
                                                : " measured, finite "
                                                  "and positive"));
        note("metric %-30s %16.6f %s%s", d.name, v, d.unit,
             present ? "" : "  (layer not exercised)");
    }
    if (report.attempted == 0)
        report.check(false, "at least one operation attempted");
    printJson(report, defs);
    return 0;
}
