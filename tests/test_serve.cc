/**
 * @file
 * Serving-daemon suite (ctest -L serve): wire-protocol round trips
 * and defensive decoding, then the Server over real loopback TCP —
 * concurrent clients, bounded-queue backpressure, deadlines that stop
 * the running job (stub and real simulation), degraded fault
 * results, and the graceful-drain zero-lost invariant.
 *
 * Server tests inject a stub runner (ServerConfig::runner), so they
 * exercise the serving machinery — framing, queueing, threading,
 * state — without paying for real simulations; one end-to-end test
 * at the bottom runs the real simulator through the daemon.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "serve/client.hh"
#include "serve/net_util.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "thread_probe.hh"

using namespace chameleon;
using namespace chameleon::serve;

namespace
{

SubmitRunRequest
sampleRequest()
{
    SubmitRunRequest req;
    req.design = "chameleon-opt";
    req.app = "stream";
    req.seed = 42;
    req.scale = 512;
    req.instrPerCore = 10'000;
    req.minRefsPerCore = 500;
    req.faultRate = 1e-4;
    req.faultStuck = 1e-3;
    req.faultSpikes = 0.05;
    req.oracle = true;
    req.deadlineMs = 1234;
    return req;
}

RunResult
stubResult()
{
    RunResult r;
    r.ipcGeoMean = 1.25;
    r.stackedHitRate = 0.875;
    r.amal = 123.5;
    r.cacheModeFraction = 0.5;
    r.cpuUtilization = 0.9;
    r.swaps = 11;
    r.fills = 22;
    r.majorFaults = 3;
    r.minorFaults = 400;
    r.instructions = 120'000;
    r.memRefs = 6'000;
    r.makespan = 987'654;
    return r;
}

/** Raw loopback TCP connection for malformed-bytes tests. */
int
rawConnect(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

/** Read frames until one decodes (or the peer closes / 5s pass). */
bool
readOneFrame(int fd, Frame &frame)
{
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[4096];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
        std::size_t consumed = 0;
        if (decodeFrame(buf.data(), buf.size(), frame, consumed) ==
            FrameStatus::Ok)
            return true;
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return false;
        buf.insert(buf.end(), chunk, chunk + n);
    }
    return false;
}

/** A server wired to a stub runner, started on an ephemeral port. */
struct StubServer
{
    explicit StubServer(
        std::function<RunResult(const SubmitRunRequest &)> runner,
        unsigned workers = 2, std::size_t queue_capacity = 64,
        std::uint32_t default_deadline_ms = 0,
        std::function<void(ServerConfig &)> tweak = {})
    {
        ServerConfig cfg;
        cfg.workers = workers;
        cfg.queueCapacity = queue_capacity;
        cfg.defaultDeadlineMs = default_deadline_ms;
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

} // namespace

// ---------------------------------------------------------------
// Protocol: encoding round trips
// ---------------------------------------------------------------

TEST(ServeProtocol, SubmitRunRoundTrip)
{
    const SubmitRunRequest in = sampleRequest();
    SubmitRunRequest out;
    ASSERT_TRUE(decodeSubmitRun(encodeSubmitRun(in), out));
    EXPECT_EQ(out.design, in.design);
    EXPECT_EQ(out.app, in.app);
    EXPECT_EQ(out.seed, in.seed);
    EXPECT_EQ(out.scale, in.scale);
    EXPECT_EQ(out.instrPerCore, in.instrPerCore);
    EXPECT_EQ(out.minRefsPerCore, in.minRefsPerCore);
    EXPECT_DOUBLE_EQ(out.faultRate, in.faultRate);
    EXPECT_DOUBLE_EQ(out.faultStuck, in.faultStuck);
    EXPECT_DOUBLE_EQ(out.faultSpikes, in.faultSpikes);
    EXPECT_EQ(out.oracle, in.oracle);
    EXPECT_EQ(out.deadlineMs, in.deadlineMs);
}

TEST(ServeProtocol, ResultReplyRoundTrip)
{
    JobResultReply in;
    in.jobId = 7;
    in.state = JobState::Degraded;
    in.error = "partial";
    in.wallSeconds = 1.5;
    fillResultReply(in, stubResult());
    in.retiredSegments = 9;
    in.eccUncorrectable = 2;

    JobResultReply out;
    ASSERT_TRUE(decodeJobResultReply(encodeJobResultReply(in), out));
    EXPECT_EQ(out.jobId, 7u);
    EXPECT_EQ(out.state, JobState::Degraded);
    EXPECT_EQ(out.error, "partial");
    EXPECT_DOUBLE_EQ(out.ipc, 1.25);
    EXPECT_DOUBLE_EQ(out.hitRate, 0.875);
    EXPECT_DOUBLE_EQ(out.amal, 123.5);
    EXPECT_EQ(out.makespan, 987'654u);
    EXPECT_EQ(out.retiredSegments, 9u);
    EXPECT_EQ(out.eccUncorrectable, 2u);
}

TEST(ServeProtocol, AllSmallRepliesRoundTrip)
{
    SubmitRunReply sub{99, 5};
    SubmitRunReply sub2;
    ASSERT_TRUE(decodeSubmitReply(encodeSubmitReply(sub), sub2));
    EXPECT_EQ(sub2.jobId, 99u);
    EXPECT_EQ(sub2.queueDepth, 5u);

    JobStatusReply st{3, JobState::Running, 0.25};
    JobStatusReply st2;
    ASSERT_TRUE(decodeJobStatusReply(encodeJobStatusReply(st), st2));
    EXPECT_EQ(st2.state, JobState::Running);
    EXPECT_DOUBLE_EQ(st2.wallSeconds, 0.25);

    HealthReply h;
    h.state = 1;
    h.uptimeMs = 12345;
    h.queuedJobs = 2;
    h.runningJobs = 3;
    h.acceptedJobs = 40;
    h.completedJobs = 35;
    HealthReply h2;
    ASSERT_TRUE(decodeHealthReply(encodeHealthReply(h), h2));
    EXPECT_EQ(h2.state, 1);
    EXPECT_EQ(h2.uptimeMs, 12345u);
    EXPECT_EQ(h2.completedJobs, 35u);

    ErrorReply e{ErrCode::Busy, "queue full"};
    ErrorReply e2;
    ASSERT_TRUE(decodeError(encodeError(e), e2));
    EXPECT_EQ(e2.code, ErrCode::Busy);
    EXPECT_EQ(e2.message, "queue full");
}

// ---------------------------------------------------------------
// Protocol: defensive decoding
// ---------------------------------------------------------------

TEST(ServeProtocol, TruncatedFramesWantMoreBytes)
{
    const auto full =
        encodeFrame(MsgType::SubmitRun, encodeSubmitRun(sampleRequest()));
    Frame frame;
    std::size_t consumed = 0;
    // Every strict prefix is NeedMore, never Ok and never a crash.
    for (std::size_t n = 0; n < full.size(); ++n)
        ASSERT_EQ(decodeFrame(full.data(), n, frame, consumed),
                  FrameStatus::NeedMore)
            << "prefix length " << n;
    EXPECT_EQ(decodeFrame(full.data(), full.size(), frame, consumed),
              FrameStatus::Ok);
    EXPECT_EQ(consumed, full.size());
    EXPECT_EQ(frame.type, MsgType::SubmitRun);
}

TEST(ServeProtocol, BadMagicIsRejectedEvenPartial)
{
    std::vector<std::uint8_t> junk = {'G', 'E', 'T', ' ', '/', ' '};
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(junk.data(), junk.size(), frame, consumed),
              FrameStatus::BadMagic);
    // Even a 2-byte prefix that cannot be this protocol's magic is
    // rejected immediately rather than waiting for more bytes.
    EXPECT_EQ(decodeFrame(junk.data(), 2, frame, consumed),
              FrameStatus::BadMagic);
}

TEST(ServeProtocol, WrongVersionIsRejected)
{
    auto bytes = encodeFrame(MsgType::Health, {});
    bytes[4] = 0x7f; // version low byte
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(bytes.data(), bytes.size(), frame, consumed),
              FrameStatus::BadVersion);
}

TEST(ServeProtocol, OversizedDeclaredPayloadIsRejected)
{
    auto bytes = encodeFrame(MsgType::Health, {});
    const std::uint32_t huge = kMaxPayloadBytes + 1;
    std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
    Frame frame;
    std::size_t consumed = 0;
    EXPECT_EQ(decodeFrame(bytes.data(), bytes.size(), frame, consumed),
              FrameStatus::Oversized);
}

TEST(ServeProtocol, MalformedPayloadsFailCleanly)
{
    const auto good = encodeSubmitRun(sampleRequest());
    SubmitRunRequest out;

    // Truncation at every byte boundary.
    for (std::size_t n = 0; n < good.size(); ++n) {
        const std::vector<std::uint8_t> cut(good.begin(),
                                            good.begin() +
                                                static_cast<std::ptrdiff_t>(n));
        EXPECT_FALSE(decodeSubmitRun(cut, out)) << "cut at " << n;
    }

    // Trailing garbage is rejected, not silently ignored.
    auto padded = good;
    padded.push_back(0xAB);
    EXPECT_FALSE(decodeSubmitRun(padded, out));

    // A string length pointing past the payload end.
    auto lied = good;
    lied[0] = 0xFF;
    lied[1] = 0xFF;
    EXPECT_FALSE(decodeSubmitRun(lied, out));
}

TEST(ServeProtocol, OverlongStringIsRejected)
{
    WireWriter w;
    w.u32(kMaxStringBytes + 1);
    for (std::uint32_t i = 0; i < kMaxStringBytes + 1; ++i)
        w.u8('x');
    const auto payload = w.take();
    WireReader r(payload);
    std::string s;
    EXPECT_FALSE(r.str(s));
    EXPECT_FALSE(r.ok());
}

TEST(ServeProtocol, Labels)
{
    EXPECT_STREQ(jobStateLabel(JobState::Degraded), "degraded");
    EXPECT_STREQ(jobStateLabel(JobState::TimedOut), "timeout");
    EXPECT_STREQ(errCodeLabel(ErrCode::Busy), "busy");
    EXPECT_TRUE(jobStateTerminal(JobState::Failed));
    EXPECT_FALSE(jobStateTerminal(JobState::Running));
}

// ---------------------------------------------------------------
// Server over loopback TCP
// ---------------------------------------------------------------

TEST(ServeServer, SubmitRunsAndReturnsResult)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    Client c = srv.client();

    const SubmitRunReply sub = c.submitRun(sampleRequest());
    EXPECT_GE(sub.jobId, 1u);

    const JobResultReply res = c.result(sub.jobId, 10'000);
    EXPECT_EQ(res.state, JobState::Ok);
    EXPECT_DOUBLE_EQ(res.ipc, 1.25);
    EXPECT_DOUBLE_EQ(res.hitRate, 0.875);
    EXPECT_EQ(res.fills, 22u);

    const ServerStats st = srv.server->stats();
    EXPECT_EQ(st.accepted, 1u);
    EXPECT_EQ(st.completedOk, 1u);
    EXPECT_EQ(st.lostJobs(), 0u);
}

TEST(ServeServer, FaultDegradedRunsAreFirstClassResults)
{
    StubServer srv([](const SubmitRunRequest &) {
        RunResult r = stubResult();
        r.retiredSegments = 5;
        r.retiredBytes = 5u * 4096;
        r.eccUncorrectable = 1;
        return r;
    });
    Client c = srv.client();

    const SubmitRunReply sub = c.submitRun(sampleRequest());
    const JobResultReply res = c.result(sub.jobId, 10'000);
    EXPECT_EQ(res.state, JobState::Degraded);
    EXPECT_EQ(res.retiredSegments, 5u);
    EXPECT_EQ(res.eccUncorrectable, 1u);
    // Statistics still valid alongside the degradation counters.
    EXPECT_DOUBLE_EQ(res.ipc, 1.25);
    EXPECT_EQ(srv.server->stats().completedDegraded, 1u);
}

TEST(ServeServer, ThrowingJobReportsFailed)
{
    StubServer srv([](const SubmitRunRequest &) -> RunResult {
        throw std::runtime_error("injected boom");
    });
    Client c = srv.client();
    const SubmitRunReply sub = c.submitRun(sampleRequest());
    const JobResultReply res = c.result(sub.jobId, 10'000);
    EXPECT_EQ(res.state, JobState::Failed);
    EXPECT_NE(res.error.find("injected boom"), std::string::npos);
    EXPECT_EQ(srv.server->stats().lostJobs(), 0u);
}

TEST(ServeServer, UnknownJobAndBadRequestsAreTypedErrors)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    Client c = srv.client();

    try {
        c.result(424242, 0);
        FAIL() << "expected UnknownJob";
    } catch (const ServeError &e) {
        EXPECT_EQ(e.kind(), ServeErrorKind::ServerError);
        EXPECT_EQ(e.code(), ErrCode::UnknownJob);
    }

    SubmitRunRequest bad = sampleRequest();
    bad.design = "warp-drive";
    try {
        c.submitRun(bad);
        FAIL() << "expected BadRequest";
    } catch (const ServeError &e) {
        EXPECT_EQ(e.code(), ErrCode::BadRequest);
    }

    bad = sampleRequest();
    bad.app = "no-such-app";
    EXPECT_THROW(c.submitRun(bad), ServeError);

    bad = sampleRequest();
    bad.faultRate = 2.5;
    EXPECT_THROW(c.submitRun(bad), ServeError);

    bad = sampleRequest();
    bad.scale = 0;
    EXPECT_THROW(c.submitRun(bad), ServeError);

    EXPECT_EQ(srv.server->stats().rejectedInvalid, 4u);
    EXPECT_EQ(srv.server->stats().accepted, 0u);
}

TEST(ServeServer, BoundedQueueAnswersBusy)
{
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::atomic<int> started{0};

    StubServer srv(
        [&](const SubmitRunRequest &) {
            started.fetch_add(1);
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return release; });
            return stubResult();
        },
        /*workers=*/1, /*queue_capacity=*/1);
    Client c = srv.client();

    // Distinct seeds: identical jobs would coalesce behind the
    // leader (single-flight) instead of occupying queue slots.
    SubmitRunRequest r1 = sampleRequest();
    SubmitRunRequest r2 = sampleRequest();
    SubmitRunRequest r3 = sampleRequest();
    r2.seed = 43;
    r3.seed = 44;

    // First job: picked up by the single worker (leaves the queue).
    const SubmitRunReply a = c.submitRun(r1);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (started.load() == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(started.load(), 1);

    // Second job fills the queue; third must bounce with Busy.
    const SubmitRunReply b = c.submitRun(r2);
    bool busy = false;
    try {
        c.submitRun(r3);
    } catch (const ServeError &e) {
        busy = e.code() == ErrCode::Busy;
    }
    // Release the stub before asserting so a failure can't leave the
    // worker parked forever in the server destructor.
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    EXPECT_TRUE(busy) << "expected Busy";
    EXPECT_EQ(srv.server->stats().rejectedBusy, 1u);

    EXPECT_EQ(c.result(a.jobId, 10'000).state, JobState::Ok);
    EXPECT_EQ(c.result(b.jobId, 10'000).state, JobState::Ok);
    EXPECT_EQ(srv.server->stats().lostJobs(), 0u);
}

TEST(ServeServer, DeadlineExpiredJobReportsTimeout)
{
    constexpr std::uint64_t kStuckSeed = 42;
    std::atomic<bool> stopped{false};
    StubServer srv(
        [&](const SubmitRunRequest &req) -> RunResult {
            if (req.seed != kStuckSeed)
                return stubResult();
            // A hung simulator stand-in: runs until the reaper sets
            // its worker's stop flag, then takes System::run's exit.
            try {
                for (;;) {
                    throwIfStopRequested();
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                }
            } catch (const RunCancelled &) {
                stopped.store(true);
                throw;
            }
        },
        /*workers=*/1);
    Client c = srv.client();

    SubmitRunRequest req = sampleRequest();
    req.seed = kStuckSeed;
    req.deadlineMs = 50;
    const SubmitRunReply sub = c.submitRun(req);

    const JobResultReply res = c.result(sub.jobId, 10'000);
    EXPECT_EQ(res.state, JobState::TimedOut);
    EXPECT_NE(res.error.find("deadline"), std::string::npos);

    // The stop reaches the running job, and its RunCancelled is
    // discarded: the state stays timeout.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(5);
    while (!stopped.load() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(stopped.load());
    EXPECT_EQ(c.result(sub.jobId, 0).state, JobState::TimedOut);

    // The one worker is free again: the next job runs on it.
    req.seed = kStuckSeed + 1;
    req.deadlineMs = 0;
    const SubmitRunReply next = c.submitRun(req);
    EXPECT_EQ(c.result(next.jobId, 10'000).state, JobState::Ok);

    const ServerStats st = srv.server->stats();
    EXPECT_EQ(st.timedOut, 1u);
    EXPECT_EQ(st.completedOk, 1u);
    EXPECT_EQ(st.failed, 0u);
    EXPECT_EQ(st.lostJobs(), 0u);
}

TEST(ServeServer, DeadlinesStopRealSimulationsWithoutNewThreads)
{
    using Clock = std::chrono::steady_clock;
    // No runner hook: every job is a real simulation. At scale 512
    // an mcf job of 10M instructions per core runs for seconds, so a
    // 50 ms deadline expires while the first one runs and the other
    // seven are still queued.
    ServerConfig cfg;
    cfg.workers = 1;
    Server server(std::move(cfg));
    server.start();
    test::ThreadPeak peak;
    const std::size_t threads_after_start = test::threadCount();

    ClientConfig ccfg;
    ccfg.port = server.port();
    Client c(ccfg);

    SubmitRunRequest req;
    req.design = "chameleon-opt";
    req.app = "mcf";
    req.scale = 512;
    req.instrPerCore = 10'000'000;
    req.minRefsPerCore = 1'000;
    req.noCache = true;
    req.deadlineMs = 50;
    std::vector<std::uint64_t> ids;
    for (std::uint64_t i = 0; i < 8; ++i) {
        req.seed = 100 + i;
        ids.push_back(c.submitRun(req).jobId);
    }
    for (std::uint64_t id : ids)
        EXPECT_EQ(c.result(id, 30'000).state, JobState::TimedOut)
            << "job " << id;
    // The sampler is this test's only extra thread.
    EXPECT_LE(peak.stop(), threads_after_start);

    // The stopped simulation leaves the CPU within a poll quantum.
    timespec cpu0{}, cpu1{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu1);
    const double cpu_ms = (cpu1.tv_sec - cpu0.tv_sec) * 1e3 +
                          (cpu1.tv_nsec - cpu0.tv_nsec) / 1e6;
    EXPECT_LE(cpu_ms, 30.0) << "a timed-out simulation kept running";

    // ...and the worker it ran on takes the next job.
    req.seed = 1;
    req.instrPerCore = 20'000;
    req.deadlineMs = 0;
    const auto t0 = Clock::now();
    const SubmitRunReply sub = c.submitRun(req);
    EXPECT_EQ(c.result(sub.jobId, 30'000).state, JobState::Ok);
    EXPECT_LT(std::chrono::duration<double>(Clock::now() - t0).count(),
              10.0);
    // The sampler has exited and nothing took its place.
    EXPECT_LT(test::threadCount(), threads_after_start);

    server.stop();
    const ServerStats st = server.stats();
    EXPECT_EQ(st.timedOut, 8u);
    EXPECT_EQ(st.completedOk, 1u);
    EXPECT_EQ(st.lostJobs(), 0u);
}

TEST(ServeServer, SixteenConcurrentClients)
{
    StubServer srv(
        [](const SubmitRunRequest &req) {
            // A little jitter so completions interleave.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1 + req.seed % 5));
            return stubResult();
        },
        /*workers=*/4, /*queue_capacity=*/256);

    constexpr unsigned kClients = 16;
    constexpr unsigned kJobsPerClient = 3;
    std::atomic<unsigned> okCount{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kClients; ++t)
        threads.emplace_back([&, t] {
            Client c = srv.client();
            for (unsigned j = 0; j < kJobsPerClient; ++j) {
                SubmitRunRequest req = sampleRequest();
                req.seed = t * 100 + j;
                const SubmitRunReply sub = c.submitRun(req);
                const JobResultReply res =
                    c.result(sub.jobId, 30'000);
                if (res.state == JobState::Ok)
                    okCount.fetch_add(1);
            }
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(okCount.load(), kClients * kJobsPerClient);
    const ServerStats st = srv.server->stats();
    EXPECT_EQ(st.accepted, kClients * kJobsPerClient);
    EXPECT_EQ(st.completedOk, kClients * kJobsPerClient);
    EXPECT_EQ(st.lostJobs(), 0u);
    EXPECT_GE(st.connections, kClients);
}

TEST(ServeServer, DrainFinishesAcceptedJobsAndRefusesNew)
{
    StubServer srv(
        [](const SubmitRunRequest &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
            return stubResult();
        },
        /*workers=*/2, /*queue_capacity=*/64);
    Client c = srv.client();

    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i)
        ids.push_back(c.submitRun(sampleRequest()).jobId);

    const DrainReply d = c.drain();
    EXPECT_GT(d.remainingJobs, 0u);
    EXPECT_EQ(srv.server->state(), ServerStateKind::Draining);

    // New submissions bounce while queries keep working.
    try {
        c.submitRun(sampleRequest());
        FAIL() << "expected Draining";
    } catch (const ServeError &e) {
        EXPECT_EQ(e.code(), ErrCode::Draining);
    }

    // Every accepted job still reaches a terminal state and its
    // result stays collectable during the drain.
    for (std::uint64_t id : ids) {
        const JobResultReply res = c.result(id, 30'000);
        EXPECT_EQ(res.state, JobState::Ok) << "job " << id;
    }

    srv.server->awaitDrained();
    const ServerStats st = srv.server->stats();
    EXPECT_EQ(st.accepted, 6u);
    EXPECT_EQ(st.completedOk, 6u);
    EXPECT_EQ(st.lostJobs(), 0u);
    EXPECT_EQ(st.rejectedDraining, 1u);
}

TEST(ServeServer, GarbageBytesGetTypedErrorThenClose)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });

    const int fd = rawConnect(srv.server->port());
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_TRUE(sendAll(fd,
                        reinterpret_cast<const std::uint8_t *>(junk),
                        sizeof(junk) - 1));

    Frame frame;
    ASSERT_TRUE(readOneFrame(fd, frame));
    EXPECT_EQ(frame.type, MsgType::Error);
    ErrorReply err;
    ASSERT_TRUE(decodeError(frame.payload, err));
    EXPECT_EQ(err.code, ErrCode::Malformed);

    // The server closes the untrusted stream after the error reply.
    std::uint8_t b;
    EXPECT_EQ(::recv(fd, &b, 1, 0), 0);
    ::close(fd);
    EXPECT_GE(srv.server->stats().badFrames, 1u);
}

TEST(ServeServer, WrongVersionAndOversizedFramesGetTypedErrors)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });

    {
        int fd = rawConnect(srv.server->port());
        auto bytes = encodeFrame(MsgType::Health, {});
        bytes[4] = 0x09;
        ASSERT_TRUE(sendAll(fd, bytes.data(), bytes.size()));
        Frame frame;
        ASSERT_TRUE(readOneFrame(fd, frame));
        ErrorReply err;
        ASSERT_TRUE(decodeError(frame.payload, err));
        EXPECT_EQ(err.code, ErrCode::BadVersion);
        ::close(fd);
    }
    {
        int fd = rawConnect(srv.server->port());
        auto bytes = encodeFrame(MsgType::Health, {});
        const std::uint32_t huge = kMaxPayloadBytes + 7;
        std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
        ASSERT_TRUE(sendAll(fd, bytes.data(), bytes.size()));
        Frame frame;
        ASSERT_TRUE(readOneFrame(fd, frame));
        ErrorReply err;
        ASSERT_TRUE(decodeError(frame.payload, err));
        EXPECT_EQ(err.code, ErrCode::Oversized);
        ::close(fd);
    }

    // A truncated frame (valid prefix, missing payload bytes) must
    // not elicit a reply — the server waits for the rest.
    {
        int fd = rawConnect(srv.server->port());
        const auto full = encodeFrame(
            MsgType::SubmitRun, encodeSubmitRun(sampleRequest()));
        ASSERT_TRUE(sendAll(fd, full.data(), full.size() / 2));
        timeval tv{0, 300'000};
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        std::uint8_t b;
        EXPECT_LT(::recv(fd, &b, 1, 0), 0); // times out, no reply
        // Completing the frame gets the normal reply.
        ASSERT_TRUE(sendAll(fd, full.data() + full.size() / 2,
                            full.size() - full.size() / 2));
        Frame frame;
        ASSERT_TRUE(readOneFrame(fd, frame));
        EXPECT_EQ(frame.type, MsgType::SubmitReply);
        ::close(fd);
    }
}

TEST(ServeServer, MetricsAndHealthEndpoints)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    Client c = srv.client();

    const HealthReply h0 = c.health();
    EXPECT_EQ(h0.state, 0); // serving
    EXPECT_EQ(h0.acceptedJobs, 0u);

    const SubmitRunReply sub = c.submitRun(sampleRequest());
    ASSERT_EQ(c.result(sub.jobId, 10'000).state, JobState::Ok);

    const std::string text = c.statsText();
    EXPECT_NE(text.find("\nserve_jobs_accepted 1\n"), std::string::npos)
        << text;
    EXPECT_NE(text.find("\nserve_jobs_ok 1\n"), std::string::npos);
    EXPECT_NE(text.find(" serving, uptime "), std::string::npos);

    const HealthReply h1 = c.health();
    EXPECT_EQ(h1.acceptedJobs, 1u);
    EXPECT_EQ(h1.completedJobs, 1u);
}

TEST(ServeServer, RetiredMetricsSnapshotTypeIsUnknownType)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });

    // Type 7 was MetricsSnapshot. An old client sending it gets the
    // typed UnknownType error, and the connection keeps serving.
    const int fd = rawConnect(srv.server->port());
    const auto retired = encodeFrame(static_cast<MsgType>(7), {});
    ASSERT_TRUE(sendAll(fd, retired.data(), retired.size()));
    Frame frame;
    ASSERT_TRUE(readOneFrame(fd, frame));
    ASSERT_EQ(frame.type, MsgType::Error);
    ErrorReply err;
    ASSERT_TRUE(decodeError(frame.payload, err));
    EXPECT_EQ(err.code, ErrCode::UnknownType);

    const auto health = encodeFrame(MsgType::Health, {});
    ASSERT_TRUE(sendAll(fd, health.data(), health.size()));
    ASSERT_TRUE(readOneFrame(fd, frame));
    EXPECT_EQ(frame.type, MsgType::HealthReply);
    ::close(fd);
    EXPECT_EQ(srv.server->stats().badFrames, 1u);
}

TEST(ServeServer, ShutdownRequestDrainsAndFlagsExit)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    Client c = srv.client();
    c.shutdown();
    EXPECT_TRUE(srv.server->shutdownRequested());
    EXPECT_EQ(srv.server->state(), ServerStateKind::Draining);
    srv.server->awaitDrained();
    EXPECT_EQ(srv.server->stats().lostJobs(), 0u);
}

// ---------------------------------------------------------------
// End to end: one real simulation through the daemon
// ---------------------------------------------------------------

TEST(ServeServer, EndToEndRealSimulation)
{
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.bench.scale = 512;
    cfg.bench.instrPerCore = 20'000;
    cfg.bench.minRefsPerCore = 1'000;
    Server server(std::move(cfg));
    server.start();

    ClientConfig ccfg;
    ccfg.port = server.port();
    Client c(ccfg);

    SubmitRunRequest req;
    req.design = "chameleon-opt";
    req.app = "stream";
    req.scale = 512;
    req.instrPerCore = 20'000;
    req.minRefsPerCore = 1'000;
    const SubmitRunReply sub = c.submitRun(req);
    const JobResultReply res = c.result(sub.jobId, 60'000);
    EXPECT_EQ(res.state, JobState::Ok);
    EXPECT_GT(res.ipc, 0.0);
    EXPECT_GT(res.instructions, 0u);
    EXPECT_GT(res.memRefs, 0u);

    // Fault-injected run surfaces as degraded with full stats.
    req.faultStuck = 0.05;
    req.faultRate = 0.002;
    req.seed = 7;
    const SubmitRunReply sub2 = c.submitRun(req);
    const JobResultReply res2 = c.result(sub2.jobId, 60'000);
    EXPECT_EQ(res2.state, JobState::Degraded);
    EXPECT_GT(res2.retiredSegments, 0u);
    EXPECT_GT(res2.ipc, 0.0);

    server.stop();
    EXPECT_EQ(server.stats().lostJobs(), 0u);
}

// ---------------------------------------------------------------
// Protocol fuzz battery (PR 7): seeded, structure-aware mutations
// delivered to a live server over the epoll path. The only
// acceptable outcomes are a typed error reply, a normal reply, or a
// clean close / no reply — never a crash, never a wedged server.
// ---------------------------------------------------------------

namespace
{

enum class FuzzOutcome
{
    GotFrame,
    PeerClosed,
    TimedOut,
};

/** Read one frame with a bounded wait (fuzz inputs may get none). */
FuzzOutcome
readMaybeFrame(int fd, Frame &frame, int timeout_ms)
{
    setIoTimeout(fd, timeout_ms);
    std::vector<std::uint8_t> buf;
    std::uint8_t chunk[4096];
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
        std::size_t consumed = 0;
        if (decodeFrame(buf.data(), buf.size(), frame, consumed) ==
            FrameStatus::Ok)
            return FuzzOutcome::GotFrame;
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            return FuzzOutcome::PeerClosed;
        if (n < 0)
            return FuzzOutcome::TimedOut;
        buf.insert(buf.end(), chunk, chunk + n);
    }
    return FuzzOutcome::TimedOut;
}

/** The server must still answer a pristine request end to end. */
void
expectServerStillHealthy(StubServer &srv)
{
    Client c = srv.client();
    const HealthReply h = c.health();
    EXPECT_EQ(h.state, 0);
    const SubmitRunReply sub = c.submitRun(sampleRequest());
    EXPECT_EQ(c.result(sub.jobId, 10'000).state, JobState::Ok);
}

} // namespace

TEST(ServeFuzz, HeaderBytesFlippedAtEveryOffset)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    const auto valid = encodeFrame(
        MsgType::SubmitRun, encodeSubmitRun(sampleRequest()));

    // Structure-aware: the 12-byte header is magic(4) version(2)
    // type(2) length(4); flip low bit, high bit, and all bits of
    // each byte in turn on a fresh connection.
    for (std::size_t off = 0; off < 12; ++off) {
        for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
            auto bytes = valid;
            bytes[off] ^= mask;
            const int fd = rawConnect(srv.server->port());
            ASSERT_TRUE(sendAll(fd, bytes.data(), bytes.size()));
            Frame frame;
            const FuzzOutcome out = readMaybeFrame(fd, frame, 250);
            if (out == FuzzOutcome::GotFrame) {
                // A reply must be a well-formed protocol message:
                // either a typed error or, when the mutation was
                // harmless to framing, the normal submit reply.
                EXPECT_TRUE(frame.type == MsgType::Error ||
                            frame.type == MsgType::SubmitReply)
                    << "offset " << off << " mask " << int(mask);
                if (frame.type == MsgType::Error) {
                    ErrorReply err;
                    EXPECT_TRUE(decodeError(frame.payload, err));
                }
            }
            // PeerClosed / TimedOut (e.g. an inflated length field
            // reads as NeedMore) are clean outcomes too.
            ::close(fd);
        }
    }
    expectServerStillHealthy(srv);
}

TEST(ServeFuzz, SeededPayloadMutationsGetTypedRepliesOrErrors)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    const auto valid = encodeFrame(
        MsgType::SubmitRun, encodeSubmitRun(sampleRequest()));

    // Deterministic battery: corrupt 1-3 payload bytes per round.
    // Framing stays intact, so every round must get exactly one
    // reply: SubmitReply (harmless mutation) or a typed Error
    // (Malformed / BadRequest decode failure).
    std::mt19937 rng(0xC0FFEEu);
    std::uniform_int_distribution<std::size_t> pickOffset(
        12, valid.size() - 1);
    std::uniform_int_distribution<int> pickByte(0, 255);
    for (int round = 0; round < 48; ++round) {
        auto bytes = valid;
        const int flips = 1 + round % 3;
        for (int f = 0; f < flips; ++f)
            bytes[pickOffset(rng)] =
                static_cast<std::uint8_t>(pickByte(rng));
        const int fd = rawConnect(srv.server->port());
        ASSERT_TRUE(sendAll(fd, bytes.data(), bytes.size()));
        Frame frame;
        const FuzzOutcome out = readMaybeFrame(fd, frame, 3000);
        ASSERT_EQ(out, FuzzOutcome::GotFrame) << "round " << round;
        EXPECT_TRUE(frame.type == MsgType::Error ||
                    frame.type == MsgType::SubmitReply)
            << "round " << round;
        if (frame.type == MsgType::Error) {
            ErrorReply err;
            EXPECT_TRUE(decodeError(frame.payload, err));
        }
        ::close(fd);
    }
    expectServerStillHealthy(srv);
}

TEST(ServeFuzz, TruncationAtEveryOffsetNeverWedgesTheServer)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    const auto valid = encodeFrame(
        MsgType::SubmitRun, encodeSubmitRun(sampleRequest()));

    // Send every strict prefix, then hang up mid-frame. The server
    // must treat each as an abandoned partial read and clean up.
    for (std::size_t len = 0; len < valid.size(); ++len) {
        const int fd = rawConnect(srv.server->port());
        if (len > 0)
            ASSERT_TRUE(sendAll(fd, valid.data(), len));
        ::close(fd);
    }
    expectServerStillHealthy(srv);
}

TEST(ServeFuzz, InterleavedPartialWritesAcrossWakeups)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });

    // Two connections drip-feed their frames a few bytes at a time,
    // interleaved, so the server's per-connection reassembly buffers
    // span many epoll wakeups and must not bleed into each other.
    SubmitRunRequest reqA = sampleRequest();
    reqA.seed = 1001;
    const auto frameA =
        encodeFrame(MsgType::SubmitRun, encodeSubmitRun(reqA));
    const auto frameB = encodeFrame(MsgType::Health, {});

    const int fdA = rawConnect(srv.server->port());
    const int fdB = rawConnect(srv.server->port());

    std::size_t offA = 0, offB = 0;
    while (offA < frameA.size() || offB < frameB.size()) {
        if (offA < frameA.size()) {
            const std::size_t n =
                std::min<std::size_t>(3, frameA.size() - offA);
            ASSERT_TRUE(sendAll(fdA, frameA.data() + offA, n));
            offA += n;
        }
        if (offB < frameB.size()) {
            const std::size_t n =
                std::min<std::size_t>(2, frameB.size() - offB);
            ASSERT_TRUE(sendAll(fdB, frameB.data() + offB, n));
            offB += n;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    Frame fa, fb;
    ASSERT_TRUE(readOneFrame(fdA, fa));
    EXPECT_EQ(fa.type, MsgType::SubmitReply);
    ASSERT_TRUE(readOneFrame(fdB, fb));
    EXPECT_EQ(fb.type, MsgType::HealthReply);
    ::close(fdA);
    ::close(fdB);

    expectServerStillHealthy(srv);
}

// ---------------------------------------------------------------
// PR 5 invariants ported to the epoll path
// ---------------------------------------------------------------

TEST(ServeServer, DrainMidBurstAt256ClientsLosesNothing)
{
    StubServer srv(
        [](const SubmitRunRequest &) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
            return stubResult();
        },
        /*workers=*/4, /*queue_capacity=*/4096);

    constexpr unsigned kClients = 256;
    constexpr unsigned kJobsPerClient = 3;
    std::atomic<std::uint64_t> terminalSeen{0};
    std::atomic<std::uint64_t> rejectedDraining{0};
    std::atomic<std::uint64_t> clientErrors{0};

    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (unsigned t = 0; t < kClients; ++t)
        threads.emplace_back([&, t] {
            try {
                Client c = srv.client();
                for (unsigned j = 0; j < kJobsPerClient; ++j) {
                    SubmitRunRequest req = sampleRequest();
                    // Overlapping seeds on purpose: the burst mixes
                    // cache hits, single-flight followers, and
                    // fresh leaders — all must drain cleanly.
                    req.seed = (t * kJobsPerClient + j) % 64;
                    try {
                        const SubmitRunReply sub = c.submitRun(req);
                        const JobResultReply res =
                            c.result(sub.jobId, 60'000);
                        if (jobStateTerminal(res.state))
                            terminalSeen.fetch_add(1);
                    } catch (const ServeError &e) {
                        if (e.kind() ==
                                ServeErrorKind::ServerError &&
                            e.code() == ErrCode::Draining) {
                            rejectedDraining.fetch_add(1);
                            break;
                        }
                        clientErrors.fetch_add(1);
                        break;
                    }
                }
            } catch (...) {
                clientErrors.fetch_add(1);
            }
        });

    // SIGTERM-equivalent mid-burst: chameleond's handler calls
    // exactly this on the flag poll.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    srv.server->requestDrain();

    for (auto &t : threads)
        t.join();
    srv.server->awaitDrained();

    const ServerStats st = srv.server->stats();
    EXPECT_EQ(st.accepted, st.terminal());
    EXPECT_EQ(st.lostJobs(), 0u);
    EXPECT_EQ(st.rejectedDraining, rejectedDraining.load());
    EXPECT_EQ(clientErrors.load(), 0u);
    EXPECT_GE(terminalSeen.load(), 1u);
    EXPECT_EQ(srv.server->state(), ServerStateKind::Draining);
}

TEST(ServeServer, SlowClientIsDroppedWithoutStallingOthers)
{
    StubServer srv(
        [](const SubmitRunRequest &) { return stubResult(); },
        /*workers=*/2, /*queue_capacity=*/64,
        /*default_deadline_ms=*/0, [](ServerConfig &cfg) {
            // Tiny cap so the test trips it quickly.
            cfg.connBacklogBytes = 2048;
        });

    // A peer that pipelines stats requests and never reads: once
    // the kernel buffers fill, the server-side output queue grows
    // past connBacklogBytes and the peer must be dropped.
    const int slow = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(slow, 0);
    int tiny = 1024;
    ::setsockopt(slow, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(srv.server->port());
    ASSERT_EQ(::connect(slow, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);

    const auto statsReq = encodeFrame(MsgType::Stats, {});
    bool alive = true;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (alive && srv.server->stats().droppedSlowConns == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        for (int i = 0; i < 100 && alive; ++i)
            alive = sendAll(slow, statsReq.data(), statsReq.size());
    }

    // Give the drop a moment to land in the counters.
    const auto settle = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
    while (srv.server->stats().droppedSlowConns == 0 &&
           std::chrono::steady_clock::now() < settle)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(srv.server->stats().droppedSlowConns, 1u);
    ::close(slow);

    // Other clients keep full service while (and after) the slow
    // peer was backlogged: a round trip stays snappy.
    const auto t0 = std::chrono::steady_clock::now();
    Client c = srv.client();
    const HealthReply h = c.health();
    EXPECT_EQ(h.state, 0);
    const SubmitRunReply sub = c.submitRun(sampleRequest());
    EXPECT_EQ(c.result(sub.jobId, 10'000).state, JobState::Ok);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(elapsed_ms, 5000.0);
}
