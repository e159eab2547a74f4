/**
 * @file
 * Distributed-tracing suite (ctest -L obs): span-id hex round trips,
 * SpanSink ring semantics and drop accounting under threads, the
 * Perfetto JSON export/load round trip, clock-offset correction in
 * the cross-process merge, protocol-v4 trace-context round trips,
 * the Stats exposition (histograms + slow-request exemplars), the
 * tail-sampling contract (errors always flush, unsampled successes
 * never do), and the flagship fleet test: a hedged, failed-over job
 * against real chameleond subprocesses behind chaos proxies whose
 * span files merge into one single-rooted, orphan-free timeline.
 *
 * In-process server tests inject a stub runner so they exercise the
 * tracing machinery without paying for simulations; the fleet test
 * at the bottom runs the real binary (CHAM_CHAMELEOND_BIN).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/span.hh"
#include "obs/trace_merge.hh"
#include "serve/chaos_proxy.hh"
#include "serve/client.hh"
#include "serve/pool.hh"
#include "serve/protocol.hh"
#include "serve/resilient_client.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "serve/subprocess.hh"

using namespace chameleon;
using namespace chameleon::serve;

namespace
{

RunResult
stubResult()
{
    RunResult r;
    r.ipcGeoMean = 1.0;
    r.instructions = 1000;
    r.memRefs = 100;
    return r;
}

SubmitRunRequest
jobWithSeed(std::uint64_t seed)
{
    SubmitRunRequest req;
    req.design = "chameleon-opt";
    req.app = "stream";
    req.seed = seed;
    req.scale = 256;
    req.instrPerCore = 2'000;
    req.minRefsPerCore = 200;
    return req;
}

/** A server wired to a stub runner on an ephemeral port. */
struct StubServer
{
    explicit StubServer(
        std::function<RunResult(const SubmitRunRequest &)> runner,
        std::function<void(ServerConfig &)> tweak = {})
    {
        ServerConfig cfg;
        cfg.workers = 2;
        cfg.queueCapacity = 64;
        cfg.runner = std::move(runner);
        if (tweak)
            tweak(cfg);
        server = std::make_unique<Server>(std::move(cfg));
        server->start();
    }

    Client
    client() const
    {
        ClientConfig ccfg;
        ccfg.port = server->port();
        return Client(ccfg);
    }

    std::unique_ptr<Server> server;
};

SpanRecord
makeSpan(std::uint64_t trace_lo, std::uint64_t span_id,
         std::uint64_t parent, std::uint64_t start_us,
         std::uint64_t end_us, SpanKind kind,
         std::uint8_t flags = kSpanSampled)
{
    SpanRecord sp;
    sp.traceHi = 0x1111'2222'3333'4444ULL;
    sp.traceLo = trace_lo;
    sp.spanId = span_id;
    sp.parentId = parent;
    sp.startUs = start_us;
    sp.endUs = end_us;
    sp.kind = kind;
    sp.flags = flags;
    return sp;
}

std::size_t
countKind(const MergedTrace &merged, SpanKind kind)
{
    std::size_t n = 0;
    for (const LoadedSpan &ls : merged.spans)
        if (ls.rec.kind == kind)
            ++n;
    return n;
}

} // namespace

// ---------------------------------------------------------------
// Span ids and hex round trips
// ---------------------------------------------------------------

TEST(SpanIds, HexRoundTrip)
{
    for (const std::uint64_t v :
         {std::uint64_t(0), std::uint64_t(1), std::uint64_t(0xdeadbeef),
          ~std::uint64_t(0)}) {
        const std::string hex = hexU64(v);
        EXPECT_EQ(hex.size(), 16u);
        std::uint64_t back = 1;
        ASSERT_TRUE(parseHexU64(hex, back)) << hex;
        EXPECT_EQ(back, v);
    }
    std::uint64_t out = 0;
    EXPECT_FALSE(parseHexU64("xyz", out));
    EXPECT_FALSE(parseHexU64("", out));

    const std::string tid = hexTraceId(0xabcULL, 0x123ULL);
    ASSERT_EQ(tid.size(), 32u);
    std::uint64_t hi = 0, lo = 0;
    ASSERT_TRUE(parseHexU64(tid.substr(0, 16), hi));
    ASSERT_TRUE(parseHexU64(tid.substr(16), lo));
    EXPECT_EQ(hi, 0xabcULL);
    EXPECT_EQ(lo, 0x123ULL);
}

TEST(SpanIds, FreshIdsAreNonZeroAndDistinct)
{
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t id = newSpanId();
        EXPECT_NE(id, 0u);
        EXPECT_TRUE(seen.insert(id).second) << "duplicate span id";
    }
    std::uint64_t hi = 0, lo = 0;
    newTraceId(hi, lo);
    EXPECT_TRUE(hi != 0 || lo != 0);
    std::uint64_t hi2 = 0, lo2 = 0;
    newTraceId(hi2, lo2);
    EXPECT_TRUE(hi != hi2 || lo != lo2);
}

// ---------------------------------------------------------------
// SpanSink: ring semantics and drop accounting
// ---------------------------------------------------------------

TEST(SpanSinkSuite, OverwriteOldestCountsDrops)
{
    SpanSinkConfig cfg;
    cfg.ringSpans = 8;
    SpanSink sink(cfg);
    for (std::uint64_t i = 0; i < 20; ++i)
        sink.record(makeSpan(1, 100 + i, 0, i, i + 1,
                             SpanKind::SrvSimulate));
    const SpanSinkStats st = sink.stats();
    EXPECT_EQ(st.recorded, 20u);
    EXPECT_EQ(st.retained, 8u);
    EXPECT_EQ(st.dropped, 12u);

    // The retained spans are the 8 newest, still sorted by start.
    const std::vector<SpanRecord> spans = sink.sortedSpans();
    ASSERT_EQ(spans.size(), 8u);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].startUs, 12 + i);
        if (i > 0) {
            EXPECT_LE(spans[i - 1].startUs, spans[i].startUs);
        }
    }
}

TEST(SpanSinkSuite, DropAccountingUnderThreads)
{
    // Satellite check: every thread gets its own overwrite-oldest
    // ring, so recorded == dropped + retained must hold exactly even
    // with concurrent writers (this is the invariant the epoll
    // worker threads rely on for the Stats drop counters).
    constexpr std::size_t kThreads = 4;
    constexpr std::uint64_t kPerThread = 1'000;
    constexpr std::size_t kRing = 64;

    SpanSinkConfig cfg;
    cfg.ringSpans = kRing;
    SpanSink sink(cfg);

    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&sink, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                sink.record(makeSpan(t + 1, i + 1, 0, i, i + 1,
                                     SpanKind::ClientAttempt));
        });
    for (std::thread &t : threads)
        t.join();

    const SpanSinkStats st = sink.stats();
    EXPECT_EQ(st.recorded, kThreads * kPerThread);
    EXPECT_EQ(st.retained, kThreads * kRing);
    EXPECT_EQ(st.dropped, kThreads * (kPerThread - kRing));
    EXPECT_EQ(st.recorded, st.dropped + st.retained);
    EXPECT_EQ(sink.sortedSpans().size(), kThreads * kRing);
}

TEST(SpanSinkSuite, StatsWhileRecordingIsRaceFree)
{
    // The daemon's I/O thread calls stats() on every Stats scrape
    // while worker threads record spans. Under ThreadSanitizer this
    // fails unless the ring head is published atomically.
    constexpr std::uint64_t kSpans = 20'000;
    SpanSinkConfig cfg;
    cfg.ringSpans = 64;
    SpanSink sink(cfg);

    // The recorder holds off until the first scrape, so the two
    // threads overlap even on a loaded host.
    std::atomic<bool> scraping{false};
    std::atomic<bool> done{false};
    std::thread recorder([&sink, &scraping, &done] {
        while (!scraping.load())
            std::this_thread::yield();
        for (std::uint64_t i = 0; i < kSpans; ++i)
            sink.record(makeSpan(1, i + 1, 0, i, i + 1,
                                 SpanKind::SrvSimulate));
        done.store(true);
    });
    std::uint64_t last = 0;
    do {
        const SpanSinkStats st = sink.stats();
        EXPECT_GE(st.recorded, last);
        EXPECT_EQ(st.recorded, st.dropped + st.retained);
        last = st.recorded;
        scraping.store(true);
    } while (!done.load());
    recorder.join();
    EXPECT_EQ(sink.stats().recorded, kSpans);
}

TEST(SpanSinkSuite, PerfettoJsonRoundTrip)
{
    SpanSinkConfig cfg;
    cfg.process = "unittest";
    SpanSink sink(cfg);
    sink.record(makeSpan(7, 10, 0, 100, 400, SpanKind::CtlRequest));
    sink.record(makeSpan(7, 11, 10, 150, 350,
                         SpanKind::ClientAttempt,
                         kSpanSampled | kSpanError));
    sink.noteClockOffset(0xfeedULL, -2'500, 80);

    SpanFile file;
    std::string error;
    ASSERT_TRUE(loadSpanJson(sink.toPerfettoJson(), file, error))
        << error;
    EXPECT_EQ(file.process, "unittest");
    EXPECT_EQ(file.serverId, 0u) << "client-side file";
    EXPECT_EQ(file.recorded, 2u);
    EXPECT_EQ(file.dropped, 0u);
    ASSERT_EQ(file.spans.size(), 2u);
    ASSERT_EQ(file.offsets.count(0xfeedULL), 1u);
    EXPECT_EQ(file.offsets.at(0xfeedULL), -2'500);

    const SpanRecord &attempt = file.spans[0].spanId == 11
                                    ? file.spans[0]
                                    : file.spans[1];
    EXPECT_EQ(attempt.traceLo, 7u);
    EXPECT_EQ(attempt.parentId, 10u);
    EXPECT_EQ(attempt.startUs, 150u);
    EXPECT_EQ(attempt.endUs, 350u);
    EXPECT_EQ(attempt.kind, SpanKind::ClientAttempt);
    EXPECT_NE(attempt.flags & kSpanError, 0);
}

TEST(SpanSinkSuite, TightestRttWinsClockOffset)
{
    SpanSink sink;
    sink.noteClockOffset(5, 1'000, 900); // sloppy round trip
    sink.noteClockOffset(5, 1'200, 40);  // tight: must win
    sink.noteClockOffset(5, 2'000, 500); // worse again: ignored

    SpanFile file;
    std::string error;
    ASSERT_TRUE(loadSpanJson(sink.toPerfettoJson(), file, error))
        << error;
    ASSERT_EQ(file.offsets.count(5), 1u);
    EXPECT_EQ(file.offsets.at(5), 1'200);
}

// ---------------------------------------------------------------
// trace_merge: clock correction and tree checking
// ---------------------------------------------------------------

TEST(TraceMergeSuite, CorrectsServerClockFromHandshakeOffset)
{
    // Client file: root span [1000, 9000] plus the offset it learned
    // for server 0xbeef (+500000 us: the server clock runs ahead).
    constexpr std::int64_t kOffset = 500'000;
    SpanSinkConfig ccfg;
    ccfg.process = "ctl";
    SpanSink csink(ccfg);
    csink.record(makeSpan(42, 1, 0, 1'000, 9'000,
                          SpanKind::CtlRequest));
    csink.record(makeSpan(42, 2, 1, 1'200, 8'800,
                          SpanKind::ClientAttempt));
    csink.noteClockOffset(0xbeefULL, kOffset, 50);

    // Server file: the same job's spans on the server clock.
    SpanSinkConfig scfg;
    scfg.process = "chameleond:9999";
    SpanSink ssink(scfg);
    ssink.setServerId(0xbeefULL);
    ssink.record(makeSpan(42, 3, 2, 2'000 + kOffset, 8'000 + kOffset,
                          SpanKind::SrvJob));
    ssink.record(makeSpan(42, 4, 3, 2'500 + kOffset, 7'500 + kOffset,
                          SpanKind::SrvSimulate));

    std::vector<SpanFile> files(2);
    std::string error;
    ASSERT_TRUE(loadSpanJson(csink.toPerfettoJson(), files[0], error))
        << error;
    ASSERT_TRUE(loadSpanJson(ssink.toPerfettoJson(), files[1], error))
        << error;
    EXPECT_EQ(files[1].serverId, 0xbeefULL);

    const MergedTrace merged = mergeSpans(std::move(files));
    ASSERT_EQ(merged.files.size(), 2u);
    EXPECT_EQ(merged.files[0].appliedOffsetUs, 0);
    EXPECT_EQ(merged.files[1].appliedOffsetUs, -kOffset);

    // After correction the server spans nest inside the client ones
    // on one timeline.
    ASSERT_EQ(merged.spans.size(), 4u);
    for (const LoadedSpan &ls : merged.spans)
        if (ls.rec.kind == SpanKind::SrvJob) {
            EXPECT_EQ(ls.rec.startUs, 2'000u);
            EXPECT_EQ(ls.rec.endUs, 8'000u);
            EXPECT_EQ(ls.process, "chameleond:9999");
        }

    const TraceTreeCheck check =
        checkTraceTree(merged, 0x1111'2222'3333'4444ULL, 42);
    EXPECT_EQ(check.spans, 4u);
    EXPECT_EQ(check.roots, 1u);
    EXPECT_EQ(check.orphans, 0u);
    EXPECT_EQ(check.processes, 2u);
    EXPECT_TRUE(check.singleTrace);

    const std::string json = mergedToPerfettoJson(merged);
    EXPECT_NE(json.find("chameleond:9999"), std::string::npos);
    EXPECT_NE(json.find(hexTraceId(0x1111'2222'3333'4444ULL, 42)),
              std::string::npos);
}

TEST(TraceMergeSuite, FiltersByTraceIdAndRanksTraces)
{
    SpanSink sink;
    for (std::uint64_t i = 0; i < 3; ++i)
        sink.record(makeSpan(100, 10 + i, i == 0 ? 0 : 10, 10 * i,
                             10 * i + 5, SpanKind::PoolHop));
    sink.record(makeSpan(200, 50, 0, 7, 9, SpanKind::CtlRequest));

    std::vector<SpanFile> files(1);
    std::string error;
    ASSERT_TRUE(loadSpanJson(sink.toPerfettoJson(), files[0], error));

    const MergedTrace all = mergeSpans(files);
    const auto ranked = traceIdsBySpanCount(all);
    ASSERT_EQ(ranked.size(), 2u);
    EXPECT_EQ(ranked[0].first,
              hexTraceId(0x1111'2222'3333'4444ULL, 100));
    EXPECT_EQ(ranked[0].second, 3u);

    const MergedTrace one =
        mergeSpans(files, 0x1111'2222'3333'4444ULL, 200);
    ASSERT_EQ(one.spans.size(), 1u);
    EXPECT_EQ(one.spans[0].rec.spanId, 50u);
}

// ---------------------------------------------------------------
// Protocol v4: trace context on the wire
// ---------------------------------------------------------------

TEST(ProtocolV4, SubmitCarriesTraceContext)
{
    SubmitRunRequest req = jobWithSeed(9);
    req.traceIdHi = 0xaaaa'bbbb'cccc'ddddULL;
    req.traceIdLo = 0x1234'5678'9abc'def0ULL;
    req.parentSpanId = 0x42;
    req.traceFlags = kTraceSampled;

    SubmitRunRequest back;
    ASSERT_TRUE(decodeSubmitRun(encodeSubmitRun(req), back));
    EXPECT_EQ(back.traceIdHi, req.traceIdHi);
    EXPECT_EQ(back.traceIdLo, req.traceIdLo);
    EXPECT_EQ(back.parentSpanId, req.parentSpanId);
    EXPECT_EQ(back.traceFlags, kTraceSampled);
    EXPECT_EQ(back.design, req.design);
    EXPECT_EQ(back.seed, req.seed);
}

TEST(ProtocolV4, SubmitReplyCarriesClockEcho)
{
    SubmitRunReply rep;
    rep.jobId = 77;
    rep.queueDepth = 3;
    rep.serverNowUs = 123'456'789;
    rep.serverId = 0xdead'beef'cafe'f00dULL;
    SubmitRunReply back;
    ASSERT_TRUE(decodeSubmitReply(encodeSubmitReply(rep), back));
    EXPECT_EQ(back.jobId, 77u);
    EXPECT_EQ(back.serverNowUs, 123'456'789u);
    EXPECT_EQ(back.serverId, rep.serverId);
}

TEST(ProtocolV4, ResultReplyCarriesTraceId)
{
    JobResultReply rep;
    rep.jobId = 5;
    rep.state = JobState::Ok;
    rep.traceIdHi = 11;
    rep.traceIdLo = 22;
    JobResultReply back;
    ASSERT_TRUE(decodeJobResultReply(encodeJobResultReply(rep), back));
    EXPECT_EQ(back.traceIdHi, 11u);
    EXPECT_EQ(back.traceIdLo, 22u);
}

TEST(ProtocolV4, StatsReplyRoundTrip)
{
    StatsReply rep;
    rep.text = "# TYPE serve_e2e_ms summary\nserve_e2e_ms_count 4\n";
    StatsReply back;
    ASSERT_TRUE(decodeStatsReply(encodeStatsReply(rep), back));
    EXPECT_EQ(back.text, rep.text);
    EXPECT_EQ(MsgType::Stats, static_cast<MsgType>(15));
    EXPECT_EQ(MsgType::StatsReply, static_cast<MsgType>(16));
}

TEST(ProtocolV4, TraceContextExcludedFromCacheKey)
{
    const SubmitRunRequest plain = jobWithSeed(3);
    SubmitRunRequest traced = plain;
    traced.traceIdHi = 1;
    traced.traceIdLo = 2;
    traced.parentSpanId = 3;
    traced.traceFlags = kTraceSampled;
    EXPECT_EQ(cacheKey(plain), cacheKey(traced))
        << "trace context steers observability, not simulation";
}

// ---------------------------------------------------------------
// Stats exposition: histograms, exemplars, span counters
// ---------------------------------------------------------------

TEST(StatsEndpoint, ExposesHistogramsAndExemplars)
{
    StubServer srv([](const SubmitRunRequest &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return stubResult();
    });
    Client client = srv.client();
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        const SubmitRunReply sub =
            client.submitRun(jobWithSeed(seed));
        const JobResultReply res = client.result(sub.jobId, 10'000);
        ASSERT_EQ(res.state, JobState::Ok);
        // v4: even untraced submissions come back with a server-
        // minted trace id, so exemplars stay addressable.
        EXPECT_TRUE(res.traceIdHi != 0 || res.traceIdLo != 0);
    }

    const std::string text = client.statsText();
    for (const char *needle :
         {"# TYPE serve_queue_wait_ms summary",
          "# TYPE serve_service_ms summary",
          "# TYPE serve_e2e_ms summary",
          "serve_e2e_ms{quantile=\"0.50\"}",
          "serve_e2e_ms{quantile=\"0.95\"}",
          "serve_e2e_ms{quantile=\"0.99\"}", "serve_e2e_ms_count",
          "serve_slow_request_ms{rank=\"0\"", "trace_id=\"",
          "# TYPE serve_spans_recorded counter",
          "# TYPE serve_spans_dropped counter",
          "# TYPE serve_spans_retained gauge",
          "# TYPE serve_jobs_accepted counter"})
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing: " << needle << "\n"
            << text;

    // Five completed jobs -> the e2e histogram saw five samples.
    EXPECT_NE(text.find("serve_e2e_ms_count 5"), std::string::npos)
        << text;
}

// ---------------------------------------------------------------
// Tail sampling: errors always flush, unsampled successes never do
// ---------------------------------------------------------------

TEST(TailSampling, UnsampledSuccessLeavesNoSpans)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    Client client = srv.client();
    SubmitRunRequest req = jobWithSeed(1);
    req.traceIdHi = 1;
    req.traceIdLo = 100;
    req.traceFlags = 0; // traced but not sampled
    const SubmitRunReply sub = client.submitRun(req);
    ASSERT_EQ(client.result(sub.jobId, 10'000).state, JobState::Ok);
    EXPECT_EQ(srv.server->spanSink()->stats().recorded, 0u)
        << "an unsampled success must not flush its span buffer";
}

TEST(TailSampling, SampledSuccessFlushesAllStages)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    Client client = srv.client();
    SubmitRunRequest req = jobWithSeed(2);
    req.traceIdHi = 1;
    req.traceIdLo = 200;
    req.parentSpanId = 55;
    req.traceFlags = kTraceSampled;
    const SubmitRunReply sub = client.submitRun(req);
    ASSERT_EQ(client.result(sub.jobId, 10'000).state, JobState::Ok);

    const std::vector<SpanRecord> spans =
        srv.server->spanSink()->sortedSpans();
    std::set<SpanKind> kinds;
    for (const SpanRecord &sp : spans) {
        EXPECT_EQ(sp.traceLo, 200u);
        kinds.insert(sp.kind);
        if (sp.kind == SpanKind::SrvJob) {
            EXPECT_EQ(sp.parentId, 55u)
                << "server umbrella must parent to the wire span";
        }
    }
    for (const SpanKind kind :
         {SpanKind::SrvJob, SpanKind::SrvDecode,
          SpanKind::SrvAdmission, SpanKind::SrvQueueWait,
          SpanKind::SrvSimulate, SpanKind::SrvEncode})
        EXPECT_EQ(kinds.count(kind), 1u)
            << "missing stage " << spanKindName(kind);
}

TEST(TailSampling, FailedJobFlushesEvenAtZeroPct)
{
    StubServer srv([](const SubmitRunRequest &) -> RunResult {
        throw std::runtime_error("injected failure");
    });
    Client client = srv.client();
    SubmitRunRequest req = jobWithSeed(3);
    req.noCache = true;
    req.traceIdHi = 1;
    req.traceIdLo = 300;
    req.traceFlags = 0; // NOT sampled — only the error keeps it
    const SubmitRunReply sub = client.submitRun(req);
    const JobResultReply res = client.result(sub.jobId, 10'000);
    ASSERT_EQ(res.state, JobState::Failed);
    EXPECT_EQ(res.traceIdLo, 300u);

    bool sawErrJob = false;
    for (const SpanRecord &sp :
         srv.server->spanSink()->sortedSpans())
        if (sp.kind == SpanKind::SrvJob && sp.traceLo == 300) {
            EXPECT_NE(sp.flags & kSpanError, 0);
            sawErrJob = true;
        }
    EXPECT_TRUE(sawErrJob)
        << "a failed job must tail-flush its spans";
}

TEST(TailSampling, SamplePctMintsTracesForUntracedRequests)
{
    // --trace-sample-pct 100: every untraced submission gets a
    // minted, sampled trace.
    StubServer srv(
        [](const SubmitRunRequest &) { return stubResult(); },
        [](ServerConfig &cfg) { cfg.traceSamplePct = 100.0; });
    Client client = srv.client();
    const SubmitRunReply sub = client.submitRun(jobWithSeed(4));
    const JobResultReply res = client.result(sub.jobId, 10'000);
    ASSERT_EQ(res.state, JobState::Ok);
    EXPECT_TRUE(res.traceIdHi != 0 || res.traceIdLo != 0);
    EXPECT_GT(srv.server->spanSink()->stats().recorded, 0u);
}

// ---------------------------------------------------------------
// ResilientClient: attempt spans and clock-offset learning
// ---------------------------------------------------------------

TEST(ClientSpans, AttemptSpansAndClockOffsetFlow)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    SpanSink sink;
    ClientConfig ccfg;
    ccfg.port = srv.server->port();
    RetryPolicy pol;
    pol.deadlineMs = 20'000;
    ResilientClient rc(ccfg, pol);
    rc.setSpanSink(&sink);

    SubmitRunRequest req = jobWithSeed(5);
    req.traceIdHi = 9;
    req.traceIdLo = 900;
    req.parentSpanId = newSpanId();
    req.traceFlags = kTraceSampled;
    const JobResultReply res = rc.runJob(req);
    EXPECT_EQ(res.state, JobState::Ok);

    const std::vector<SpanRecord> spans = sink.sortedSpans();
    ASSERT_FALSE(spans.empty());
    bool sawAttempt = false;
    for (const SpanRecord &sp : spans)
        if (sp.kind == SpanKind::ClientAttempt) {
            EXPECT_EQ(sp.traceLo, 900u);
            EXPECT_EQ(sp.parentId, req.parentSpanId);
            sawAttempt = true;
        }
    EXPECT_TRUE(sawAttempt);

    // The submit reply's timestamp echo produced a per-server clock
    // offset in the sink's metadata.
    SpanFile file;
    std::string error;
    ASSERT_TRUE(loadSpanJson(sink.toPerfettoJson(), file, error))
        << error;
    EXPECT_EQ(file.offsets.size(), 1u)
        << "one server measured -> one offset";
    EXPECT_EQ(file.offsets.count(srv.server->serverId()), 1u);
}

// ---------------------------------------------------------------
// Fleet: hedged + failed-over job -> one merged timeline
// ---------------------------------------------------------------

#ifdef CHAM_CHAMELEOND_BIN

TEST(FleetTrace, HedgedFailoverMergesIntoSingleTimeline)
{
    const std::string dir = ::testing::TempDir();
    const std::string clientFile = dir + "trace_client.json";
    const std::string daemonFile[2] = {dir + "trace_d0.json",
                                       dir + "trace_d1.json"};

    // Two real daemons behind proxies; shard 0 of the pool is a dead
    // port. d0 sits behind a proxy that delays every frame past the
    // client io timeout (a hard straggler), d1 behind a clean
    // pass-through proxy.
    Subprocess daemons[2];
    std::uint16_t daemonPorts[2];
    for (int s = 0; s < 2; ++s) {
        ASSERT_TRUE(daemons[s].spawn(
            {CHAM_CHAMELEOND_BIN, "--port", "0", "--workers", "2",
             "--trace-out", daemonFile[s], "--quiet"}));
        daemonPorts[s] = daemons[s].readPortLine(10'000);
        ASSERT_GT(daemonPorts[s], 0u);
    }

    ChaosConfig slowCfg;
    slowCfg.targetPort = daemonPorts[0];
    slowCfg.seed = 11;
    slowCfg.delayRate = 1.0;
    slowCfg.delayMs = 3'000;
    ChaosProxy slowProxy(slowCfg);

    ChaosConfig cleanCfg;
    cleanCfg.targetPort = daemonPorts[1];
    cleanCfg.seed = 12;
    ChaosProxy cleanProxy(cleanCfg);

    const std::vector<Endpoint> endpoints = {
        Endpoint{"127.0.0.1", 1}, // dead: connection refused
        Endpoint{"127.0.0.1", slowProxy.start()},
        Endpoint{"127.0.0.1", cleanProxy.start()},
    };

    // Find a seed whose owner order is exactly dead -> slow ->
    // clean: the primary arm must fail over off the dead shard and
    // the hedge arm (which starts one owner past the primary) must
    // fail over off the straggler.
    std::vector<std::string> labels;
    for (const Endpoint &ep : endpoints)
        labels.push_back(ep.label());
    const HashRing ring(labels);
    std::uint64_t seed = 0;
    for (;; ++seed) {
        ASSERT_LT(seed, 10'000u) << "no seed with owners 0,1,2";
        const auto owners =
            ring.owners(cacheKey(jobWithSeed(seed)), 3);
        if (owners.size() == 3 && owners[0] == 0 && owners[1] == 1)
            break;
    }

    std::uint64_t traceHi = 0, traceLo = 0;
    newTraceId(traceHi, traceLo);
    PoolOutcome out;
    std::uint64_t rootSpan = 0;
    SpanSinkConfig scfg;
    scfg.process = "test_distributed_trace";
    SpanSink sink(scfg);
    {
        PoolConfig pc;
        pc.endpoints = endpoints;
        pc.client.connectTimeoutMs = 300;
        pc.client.ioTimeoutMs = 800;
        pc.retry.maxAttempts = 1; // per-shard: fail fast, hop on
        pc.retry.baseBackoffMs = 5;
        pc.retry.deadlineMs = 60'000;
        pc.retry.pollQuantumMs = 100;
        pc.probeIntervalMs = 0;
        pc.hedgeEnabled = true;
        pc.hedgeDelayMs = 150;
        ShardPool pool(pc);
        pool.setSpanSink(&sink);

        SubmitRunRequest req = jobWithSeed(seed);
        req.traceIdHi = traceHi;
        req.traceIdLo = traceLo;
        req.traceFlags = kTraceSampled;
        rootSpan = newSpanId();
        req.parentSpanId = rootSpan;

        const std::uint64_t t0 = monotonicNowUs();
        out = pool.runJob(req);
        SpanRecord root;
        root.traceHi = traceHi;
        root.traceLo = traceLo;
        root.spanId = rootSpan;
        root.startUs = t0;
        root.endUs = monotonicNowUs();
        root.kind = SpanKind::CtlRequest;
        root.flags = static_cast<std::uint8_t>(
            kSpanSampled | (out.ok ? 0 : kSpanError));
        sink.record(root);

        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_TRUE(out.hedged)
            << "the straggler must have outlived the hedge delay";
        EXPECT_GE(out.failovers, 1u)
            << "the dead shard must have forced a failover";
        EXPECT_EQ(out.shard, 2u) << "only the clean shard can win";

        // The pool destructor joins the parked loser arm, so every
        // span is in the sink before the export below.
    }
    sink.writePerfettoJson(clientFile);

    for (int s = 0; s < 2; ++s) {
        daemons[s].kill(SIGTERM);
        EXPECT_EQ(daemons[s].wait(), 0) << "daemon " << s;
    }

    std::vector<SpanFile> files;
    for (const std::string &path :
         {clientFile, daemonFile[0], daemonFile[1]}) {
        SpanFile file;
        std::string error;
        ASSERT_TRUE(loadSpanFile(path, file, error))
            << path << ": " << error;
        files.push_back(std::move(file));
    }

    const MergedTrace merged =
        mergeSpans(std::move(files), traceHi, traceLo);
    const TraceTreeCheck check =
        checkTraceTree(merged, traceHi, traceLo);
    EXPECT_TRUE(check.singleTrace);
    EXPECT_EQ(check.roots, 1u) << "exactly one ctl.request root";
    EXPECT_EQ(check.orphans, 0u)
        << "every span's parent must be present across processes";
    EXPECT_GE(check.processes, 2u)
        << "client and at least the winning daemon contribute";

    // The hedged, failed-over shape: one umbrella, both arms, at
    // least three hops (dead -> straggler -> clean plus the hedge
    // arm's own hops), and the winning daemon's server-side stages.
    EXPECT_EQ(countKind(merged, SpanKind::CtlRequest), 1u);
    EXPECT_EQ(countKind(merged, SpanKind::PoolJob), 1u);
    EXPECT_EQ(countKind(merged, SpanKind::PoolArm), 2u);
    EXPECT_GE(countKind(merged, SpanKind::PoolHop), 3u);
    EXPECT_GE(countKind(merged, SpanKind::ClientAttempt), 2u);
    EXPECT_GE(countKind(merged, SpanKind::SrvJob), 1u);
    EXPECT_GE(countKind(merged, SpanKind::SrvSimulate), 1u);

    // And the root really is the ctl span we minted.
    for (const LoadedSpan &ls : merged.spans)
        if (ls.rec.parentId == 0) {
            EXPECT_EQ(ls.rec.spanId, rootSpan);
        }
}

#endif // CHAM_CHAMELEOND_BIN
