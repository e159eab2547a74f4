/**
 * @file
 * Serving workloads: an in-process chameleond Server (2 workers) on
 * loopback, fed by an open loop. One sender thread submits on a fixed
 * schedule; collector threads fetch results on their own connections.
 * Every latency runs from the request's scheduled send time, so a
 * stalled sender or server shows up in it.
 *
 *  serve_mixed     hot-set requests (cache hits), unique cold jobs and
 *                  a few cold twin pairs (single-flight), the cold
 *                  share alone above the 2-worker capacity.
 *  serve_overload  unique cold jobs only, above the 2-worker capacity.
 *
 * Both keep the workers saturated and shed the excess at the bounded
 * queue: on a shared host, workers that idle between jobs pay a wake-up
 * cost that swings from run to run, which no bound can hold. A Stats
 * scrape runs each second in both.
 */

#include <pthread.h>
#include <sched.h>
#include <sys/sysinfo.h>

#include <algorithm>
#include <cinttypes>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "common/rng.hh"
#include "obs/span.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "sim_cells.hh"

namespace perfbench
{

namespace
{

using namespace chameleon;
using namespace chameleon::serve;

/** Traffic mix of one serve workload. */
struct ServeShape
{
    /** Scheduled request slots per second. */
    double ratePerS = 0.0;
    /** Share of slots that draw from the hot set. */
    double hotFrac = 0.0;
    /** Share of slots that send a cold twin pair back to back. */
    double dupFrac = 0.0;
    /** Per-job deadline: the latency limit for goodput. */
    std::uint32_t deadlineMs = 0;
};

constexpr unsigned kWorkers = 2;
/** Sender + collectors: the client threads and connections. */
constexpr unsigned kCollectors = 3;
/** Hot-set size: distinct specs answered from the cache. */
constexpr std::size_t kHotSet = 8;
/** Cold specs replayed locally by a traced run for the sim layers. */
constexpr std::size_t kReplayCells = 16;
/** Cold replies re-simulated locally as an output check. */
constexpr std::size_t kColdChecks = 4;

struct JobMix
{
    const char *design;
    const char *app;
};

constexpr JobMix kMix[] = {
    {"chameleon-opt", "stream"}, {"chameleon", "mcf"},
    {"alloy-cache", "lbm"},      {"pom", "hpccg"},
    {"flat-ddr", "stream"},      {"chameleon-opt", "leslie3d"},
    {"pom", "bwaves"},           {"chameleon", "GemsFDTD"},
};

SubmitRunRequest
makeRequest(const JobMix &mix, std::uint64_t seed, std::uint32_t deadline)
{
    SubmitRunRequest r;
    r.design = mix.design;
    r.app = mix.app;
    r.seed = seed;
    r.scale = 256;
    r.instrPerCore = 20'000;
    r.minRefsPerCore = 1'000;
    r.deadlineMs = deadline;
    return r;
}

enum class Kind : std::uint8_t
{
    Hot,
    Cold,
};

struct Planned
{
    SubmitRunRequest req;
    double dueS = 0.0;
    Kind kind = Kind::Cold;
};

/** The schedule: a pure function of the seed and the shape. */
std::vector<Planned>
makeSchedule(const ServeShape &shape, std::uint64_t seed, double seconds,
             std::vector<SubmitRunRequest> &hot_set)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
    hot_set.clear();
    for (std::size_t i = 0; i < kHotSet; ++i)
        hot_set.push_back(
            makeRequest(kMix[i], 1000 + seed, shape.deadlineMs));

    std::vector<Planned> plan;
    std::uint64_t cold_seq = 0;
    const auto slots =
        static_cast<std::size_t>(shape.ratePerS * seconds);
    for (std::size_t k = 0; k < slots; ++k) {
        const double due = static_cast<double>(k) / shape.ratePerS;
        const double u = rng.uniform();
        if (u < shape.hotFrac) {
            plan.push_back(
                {hot_set[rng.next() % kHotSet], due, Kind::Hot});
            continue;
        }
        // Cold specs cycle through the mix, so every seed runs the same
        // share of each (design, app); the seed varies the streams.
        const JobMix &mix = kMix[cold_seq % std::size(kMix)];
        const SubmitRunRequest req = makeRequest(
            mix, seed * 1'000'000 + cold_seq++, shape.deadlineMs);
        plan.push_back({req, due, Kind::Cold});
        if (u < shape.hotFrac + shape.dupFrac)
            plan.push_back({req, due, Kind::Cold});
    }
    return plan;
}

/** What happened to one scheduled request, as the client saw it. */
struct Outcome
{
    bool submitted = false;
    bool rejected = false; ///< Busy: admission or full queue
    bool error = false;    ///< transport / protocol / unexpected reply
    double latencyMs = 0.0;
    double lagMs = 0.0;
    double submitRttMs = 0.0;
    JobResultReply reply;
};

/** Closable FIFO of (schedule index, job id) for one collector role. */
class WorkQueue
{
  public:
    void
    push(std::size_t index, std::uint64_t job)
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            items.emplace_back(index, job);
        }
        cv.notify_one();
    }

    void
    close()
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            closed = true;
        }
        cv.notify_all();
    }

    std::optional<std::pair<std::size_t, std::uint64_t>>
    pop()
    {
        std::unique_lock<std::mutex> lock(mtx);
        cv.wait(lock, [this] { return closed || !items.empty(); });
        if (items.empty())
            return std::nullopt;
        auto item = items.front();
        items.pop_front();
        return item;
    }

  private:
    std::mutex mtx;
    std::condition_variable cv;
    std::deque<std::pair<std::size_t, std::uint64_t>> items;
    bool closed = false;
};

ServerConfig
serverConfig(bool traced)
{
    ServerConfig cfg;
    cfg.workers = kWorkers;
    if (traced) {
        cfg.traceSamplePct = 100.0;
        // Large enough that a run never wraps a ring: a drop fails it.
        cfg.spanRingSpans = 1u << 17;
    }
    return cfg;
}

/** Restrict the calling thread to CPUs [first, last). */
void
pinCurrentThread(unsigned first, unsigned last)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (unsigned c = first; c < last; ++c)
        CPU_SET(c, &set);
    ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

/**
 * Median of Server construction + start() until a Health reply, over
 * 101 servers. Unpinned: a cross-CPU wake-up per setup made the median
 * swing more between runs.
 */
double
measureSetup(Report &report)
{
    std::vector<double> s;
    bool serving = true;
    for (int i = 0; i < 101; ++i) {
        const auto t0 = Clock::now();
        Server server(serverConfig(false));
        server.start();
        ClientConfig cc;
        cc.port = server.port();
        Client client(cc);
        const HealthReply h = client.health();
        s.push_back(secondsSince(t0));
        serving = serving && h.state == 0;
    }
    report.check(serving, "every fresh server reports serving");
    return median(s);
}

/** One open-loop pass against a fresh server. */
struct PassResult
{
    std::vector<Planned> plan;
    std::vector<Outcome> out;
    std::vector<double> scrapeMs;
    double wallS = 0.0;
    unsigned threadsPeak = 0;
    ServerStats stats;
    ResultCache::Stats cacheDelta;
    double leakCpuS = 0.0;
    std::vector<SpanRecord> spans;
    SpanSinkStats spanStats;
};

RunResult
localRun(const SubmitRunRequest &req)
{
    // Exactly Server::executeJob's option mapping.
    BenchOptions o;
    o.seed = req.seed;
    o.scale = req.scale;
    o.instrPerCore = req.instrPerCore;
    o.minRefsPerCore = req.minRefsPerCore;
    o.jobs = 1;
    return runRateWorkload(*designFromLabel(req.design),
                           findProfile(tableTwoSuite(o.scale), req.app), o);
}

/** A served reply carries exactly the local run's statistics. */
bool
sameAsLocal(const JobResultReply &got, const SubmitRunRequest &req)
{
    JobResultReply want = got;
    fillResultReply(want, localRun(req));
    return got.state == JobState::Ok &&
           encodeJobResultReply(want) == encodeJobResultReply(got);
}

PassResult
runPass(const ServeShape &shape, const Args &args, double seconds,
        bool traced, Report &report)
{
    PassResult p;
    std::vector<SubmitRunRequest> hot_set;
    p.plan = makeSchedule(shape, args.seed, seconds, hot_set);
    p.out.resize(p.plan.size());

    // The server (workers, I/O thread, and any replacement workers it
    // spawns) runs on all CPUs but the last, the load generator on the
    // last one, as if the clients were on another machine: threads
    // inherit the affinity of the thread that creates them.
    const unsigned ncpu = std::max(1, get_nprocs());
    Server server(serverConfig(traced));
    pinCurrentThread(0, ncpu > 1 ? ncpu - 1 : 1);
    server.start();
    pinCurrentThread(ncpu > 1 ? ncpu - 1 : 0, ncpu);
    ClientConfig cc;
    cc.port = server.port();

    // Before timing, fill the cache with the hot set (so every hot
    // request in the window is a hit) and give the admission
    // estimator its service-time average: one job per spec, in turn.
    {
        Client c(cc);
        for (SubmitRunRequest req : hot_set) {
            if (shape.hotFrac == 0.0)
                req.seed += 7919; // warm-up only, never scheduled
            c.result(c.submitRun(req).jobId, 30'000);
        }
    }
    const ResultCache::Stats cache0 = server.cacheStats();

    WorkQueue hot_q, cold_q;
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    std::vector<Clock::time_point> finished(kCollectors, t0);

    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kCollectors; ++i) {
        // With a hot set, one collector serves hits only, so a hit's
        // reply never waits behind a simulation.
        WorkQueue &q = (shape.hotFrac > 0.0 && i == 0) ? hot_q : cold_q;
        threads.emplace_back([&, i, qp = &q] {
            Client c(cc);
            while (auto item = qp->pop()) {
                const auto [idx, job] = *item;
                Outcome &o = p.out[idx];
                try {
                    o.reply = c.result(job, 30'000);
                    const auto now = Clock::now();
                    o.latencyMs = std::chrono::duration<double, std::milli>(
                                      now - t0)
                                      .count() -
                                  p.plan[idx].dueS * 1000.0;
                    finished[i] = std::max(finished[i], now);
                    if (!jobStateTerminal(o.reply.state))
                        o.error = true;
                } catch (const ServeError &) {
                    o.error = true;
                }
            }
        });
    }

    // The sender: submit each request at its scheduled time, scrape
    // Stats once a second, and sample the thread count.
    {
        Client c(cc);
        auto next_scrape = t0 + std::chrono::seconds(1);
        auto next_sample = t0;
        for (std::size_t i = 0; i < p.plan.size(); ++i) {
            const Planned &pl = p.plan[i];
            const auto due =
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(pl.dueS));
            std::this_thread::sleep_until(due);
            auto now = Clock::now();
            if (now >= next_scrape) {
                c.statsText();
                p.scrapeMs.push_back(msSince(now));
                next_scrape += std::chrono::seconds(1);
                now = Clock::now();
            }
            if (now >= next_sample) {
                p.threadsPeak = std::max(p.threadsPeak, processThreads());
                next_sample = now + std::chrono::milliseconds(100);
            }
            Outcome &o = p.out[i];
            o.lagMs = std::chrono::duration<double, std::milli>(now - due)
                          .count();
            try {
                const SubmitRunReply rep = c.submitRun(pl.req);
                o.submitRttMs = msSince(now);
                o.submitted = true;
                (pl.kind == Kind::Hot ? hot_q : cold_q).push(i, rep.jobId);
            } catch (const ServeError &e) {
                if (e.kind() == ServeErrorKind::ServerError &&
                    e.code() == ErrCode::Busy)
                    o.rejected = true;
                else
                    o.error = true;
            }
        }
    }
    hot_q.close();
    cold_q.close();
    for (std::thread &t : threads)
        t.join();
    p.wallS = std::chrono::duration<double>(
                  *std::max_element(finished.begin(), finished.end()) -
                  t0)
                  .count();
    p.threadsPeak = std::max(p.threadsPeak, processThreads());
    p.cacheDelta = server.cacheStats();
    p.cacheDelta.hits -= cache0.hits;
    p.cacheDelta.misses -= cache0.misses;
    p.cacheDelta.coalesced -= cache0.coalesced;

    // Output checks: cached hot replies and a few cold replies equal a
    // fresh local simulation of the same spec.
    if (!traced) {
        Client c(cc);
        std::size_t bad = 0;
        if (shape.hotFrac > 0.0)
            for (const SubmitRunRequest &req : hot_set) {
                const JobResultReply r =
                    c.result(c.submitRun(req).jobId, 30'000);
                bad += !(r.cacheFlags & kResultFromCache) ||
                       !sameAsLocal(r, req);
            }
        report.check(bad == 0, "every hot-set cached reply equals a "
                               "fresh local runRateWorkload");
        std::size_t checked = 0;
        bad = 0;
        for (std::size_t i = 0; i < p.plan.size() && checked < kColdChecks;
             ++i)
            if (p.plan[i].kind == Kind::Cold && p.out[i].submitted &&
                p.out[i].reply.state == JobState::Ok) {
                bad += !sameAsLocal(p.out[i].reply, p.plan[i].req);
                ++checked;
            }
        report.check(checked > 0 && bad == 0,
                     std::to_string(checked) +
                         " cold replies equal a fresh local run");
    }
    server.requestDrain();
    server.awaitDrained();
    p.stats = server.stats();
    report.check(p.stats.lostJobs() == 0,
                 "accepted == terminal after the drain (accepted " +
                     std::to_string(p.stats.accepted) + ")");
    // Abandoned simulations keep running past their jobs' terminal
    // state; stop() joins them, so what it burns is the leak.
    const double cpu0 = processCpuSeconds();
    server.stop();
    p.leakCpuS = processCpuSeconds() - cpu0;
    pinCurrentThread(0, ncpu);
    if (traced) {
        p.spans = server.spanSink()->sortedSpans();
        p.spanStats = server.spanSink()->stats();
    }
    return p;
}

struct Latencies
{
    std::vector<double> hit;
    std::vector<double> cold;
    std::vector<double> all;
    std::size_t good = 0;
    std::size_t errors = 0;
    std::size_t rejected = 0;
    std::size_t timedOut = 0;
    double serviceS = 0.0;
    double simRefs = 0.0;
};

Latencies
summarize(const PassResult &p, const ServeShape &shape)
{
    Latencies l;
    for (std::size_t i = 0; i < p.plan.size(); ++i) {
        const Outcome &o = p.out[i];
        if (o.rejected) {
            ++l.rejected;
            continue;
        }
        if (o.error || !o.submitted) {
            ++l.errors;
            continue;
        }
        const JobState st = o.reply.state;
        if (st == JobState::TimedOut) {
            ++l.timedOut;
            continue;
        }
        if (st != JobState::Ok) {
            ++l.errors;
            continue;
        }
        l.good += o.latencyMs <= shape.deadlineMs;
        l.all.push_back(o.latencyMs);
        if (o.reply.cacheFlags & kResultFromCache)
            l.hit.push_back(o.latencyMs);
        else
            l.cold.push_back(o.latencyMs);
        if (o.reply.cacheFlags == 0) {
            l.serviceS += o.reply.wallSeconds;
            l.simRefs += 2.0 * static_cast<double>(o.reply.memRefs);
        }
    }
    std::sort(l.hit.begin(), l.hit.end());
    std::sort(l.cold.begin(), l.cold.end());
    std::sort(l.all.begin(), l.all.end());
    return l;
}

void
notePct(const char *what, const std::vector<double> &sorted)
{
    note("%s: n=%zu p50 %.3f ms, p99 %.3f ms (%zu samples beyond p99)",
         what, sorted.size(), percentile(sorted, 0.5),
         percentile(sorted, 0.99), samplesBeyond(sorted, 0.99));
}

double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void
runServe(const Args &args, Report &report, const ServeShape &shape)
{
    note("shape: %.0f slots/s, hot %.2f, twin pairs %.2f, deadline %u ms, "
         "%u workers, %u collectors + 1 sender",
         shape.ratePerS, shape.hotFrac, shape.dupFrac, shape.deadlineMs,
         kWorkers, kCollectors);
    const double setup = measureSetup(report);
    const double seconds = args.trace ? args.seconds / 2.0 : args.seconds;
    const PassResult p = runPass(shape, args, seconds, false, report);
    const Latencies l = summarize(p, shape);

    report.attempted += p.plan.size();
    report.failed += l.errors;
    report.check(l.errors == 0, "no request failed (transport, protocol "
                                "or job failure)");
    notePct("hit latency", l.hit);
    notePct("cold latency", l.cold);
    note("requests %zu: ok %zu (within deadline %zu), rejected %zu, "
         "timed out %zu, errors %zu; cache hits %" PRIu64
         ", misses %" PRIu64 ", coalesced %" PRIu64,
         p.plan.size(), l.all.size(), l.good, l.rejected, l.timedOut,
         l.errors, p.cacheDelta.hits, p.cacheDelta.misses,
         p.cacheDelta.coalesced);
    if (shape.hotFrac > 0.0)
        report.check(!l.hit.empty() && !l.cold.empty() &&
                         p.cacheDelta.coalesced > 0,
                     "serve_mixed has cache hits, cold simulations and "
                     "coalesced twins");
    else
        report.check(l.rejected + l.timedOut > 0,
                     "serve_overload has rejections or timeouts");

    std::vector<double> lag, rtt;
    for (const Outcome &o : p.out) {
        lag.push_back(o.lagMs);
        if (o.submitted)
            rtt.push_back(o.submitRttMs);
    }
    std::sort(lag.begin(), lag.end());

    if (!args.trace) {
        report.set("setup_s", setup);
        report.set("ns_per_ref",
                   l.simRefs > 0 ? l.serviceS * 1e9 / l.simRefs : 0.0);
        report.set("wall_s", p.wallS);
        report.set("cold_p50_ms", percentile(l.cold, 0.5));
        report.set("goodput_jobs_per_s",
                   static_cast<double>(l.good) / p.wallS);
        report.set("peak_rss_mb", peakRssMb());
        return;
    }

    report.set("serve.hit_p50_ms", percentile(l.hit, 0.5));
    report.set("serve.hit_p99_ms", percentile(l.hit, 0.99));
    report.set("serve.cold_p99_ms", percentile(l.cold, 0.99));
    report.set("serve.submit_rtt_ms", median(rtt));
    report.set("serve.stats_scrape_ms", median(p.scrapeMs));
    report.set("serve.cache_hits", static_cast<double>(p.cacheDelta.hits));
    report.set("serve.cache_misses",
               static_cast<double>(p.cacheDelta.misses));
    report.set("serve.coalesced",
               static_cast<double>(p.cacheDelta.coalesced));
    report.set("serve.busy", static_cast<double>(p.stats.rejectedBusy));
    report.set("serve.admission_rejected",
               static_cast<double>(p.stats.admissionRejected));
    report.set("serve.timed_out", static_cast<double>(p.stats.timedOut));
    report.set("serve.threads_peak", p.threadsPeak);
    report.set("serve.leak_cpu_s", p.leakCpuS);
    report.set("serve.gen_lag_ms", percentile(lag, 0.99));

    // Traced rerun of the same schedule: per-stage times from the
    // server's own spans.
    const PassResult tp = runPass(shape, args, seconds, true, report);
    const Latencies tl = summarize(tp, shape);
    report.attempted += tp.plan.size();
    report.failed += tl.errors;
    report.check(tp.spanStats.dropped == 0,
                 "span rings dropped nothing (" +
                     std::to_string(tp.spanStats.recorded) +
                     " spans recorded)");
    std::vector<double> by_kind[spanKindCount];
    for (const SpanRecord &s : tp.spans)
        by_kind[static_cast<std::size_t>(s.kind)].push_back(
            static_cast<double>(s.endUs - s.startUs) / 1000.0);
    for (auto &v : by_kind)
        std::sort(v.begin(), v.end());
    const auto stage = [&](SpanKind k) -> const std::vector<double> & {
        return by_kind[static_cast<std::size_t>(k)];
    };
    // Sub-stage spans are a few microseconds at µs resolution, so
    // their means say more than their medians.
    report.set("serve.decode_ms", mean(stage(SpanKind::SrvDecode)));
    report.set("serve.admission_ms", mean(stage(SpanKind::SrvAdmission)));
    report.set("serve.cache_ms", mean(stage(SpanKind::SrvCache)));
    report.set("serve.queue_wait_p50_ms",
               percentile(stage(SpanKind::SrvQueueWait), 0.5));
    report.set("serve.queue_wait_p99_ms",
               percentile(stage(SpanKind::SrvQueueWait), 0.99));
    report.set("serve.simulate_ms", mean(stage(SpanKind::SrvSimulate)));
    report.set("serve.encode_ms", mean(stage(SpanKind::SrvEncode)));
    for (std::size_t k = 0; k < spanKindCount; ++k)
        if (!by_kind[k].empty())
            note("span %-16s n=%zu mean %.4f ms p50 %.4f ms p99 %.4f ms",
                 spanKindName(static_cast<SpanKind>(k)), by_kind[k].size(),
                 mean(by_kind[k]), percentile(by_kind[k], 0.5),
                 percentile(by_kind[k], 0.99));
    note("traced pass: mean latency %.4f ms vs untraced %.4f ms",
         mean(tl.all), mean(l.all));
    report.set("trace.overhead_frac", mean(tl.all) / mean(l.all) - 1.0);

    // The simulator layers under the serving path: replay the first
    // cold specs locally, traced, against untraced System::run.
    std::vector<CellSpec> cells;
    for (const Planned &pl : p.plan) {
        if (pl.kind != Kind::Cold || cells.size() == kReplayCells)
            continue;
        BenchOptions o;
        o.seed = pl.req.seed;
        o.scale = pl.req.scale;
        o.instrPerCore = pl.req.instrPerCore;
        o.minRefsPerCore = pl.req.minRefsPerCore;
        cells.push_back(makeCell(
            pl.req.design,
            makeSystemConfig(*designFromLabel(pl.req.design), o),
            findProfile(tableTwoSuite(o.scale), pl.req.app), o));
    }
    LayerTimes times;
    std::vector<CellOutcome> replayed;
    std::size_t mismatched = 0;
    double cell_max = 0.0;
    for (const CellSpec &c : cells) {
        const CellOutcome ref = runCell(c);
        cell_max = std::max(cell_max, ref.cellS);
        replayed.push_back(replayCell(c, times));
        mismatched += !sameOutcome(replayed.back(), ref);
    }
    report.attempted += cells.size();
    report.check(mismatched == 0,
                 "traced replay counters equal System::run on " +
                     std::to_string(cells.size()) + " cold specs");
    reportLayers(report, times, replayed);
    report.set("sim.cell_wall_max_s", cell_max);
}

} // namespace

void
runServeMixed(const Args &args, Report &report)
{
    ServeShape s;
    s.ratePerS = 900.0;
    s.hotFrac = 0.50;
    s.dupFrac = 0.02;
    s.deadlineMs = 1000;
    runServe(args, report, s);
}

void
runServeOverload(const Args &args, Report &report)
{
    ServeShape s;
    s.ratePerS = 450.0;
    s.hotFrac = 0.0;
    s.dupFrac = 0.0;
    s.deadlineMs = 1000;
    runServe(args, report, s);
}

} // namespace perfbench
