/**
 * @file
 * Fleet-resilience suite (ctest -L resil): the consistent-hash ring
 * and its proportional-remap guarantee, retry backoff determinism,
 * the seeded chaos schedule and frame-aware proxy, typed client
 * failures across a daemon restart, deadline-aware admission
 * control, the retrying ResilientClient, ShardPool failover and
 * hedging against in-process servers, and a kill -9 crash-recovery
 * run against real chameleond subprocesses behind chaos proxies.
 *
 * In-process server tests inject a stub runner (ServerConfig::
 * runner) so they exercise resilience machinery without paying for
 * simulations; the subprocess tests at the bottom run the real
 * binary (path injected via CHAM_CHAMELEOND_BIN).
 *
 * Timing discipline: this suite must pass on a single-core
 * container, so every sleep-based assertion uses coarse margins
 * (hundreds of ms) and no test depends on threads running truly in
 * parallel.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics_registry.hh"
#include "serve/chaos_proxy.hh"
#include "serve/client.hh"
#include "serve/pool.hh"
#include "serve/resilient_client.hh"
#include "serve/result_cache.hh"
#include "serve/server.hh"
#include "serve/subprocess.hh"

using namespace chameleon;
using namespace chameleon::serve;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

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
        unsigned workers = 2, std::size_t queue_capacity = 64,
        std::function<void(ServerConfig &)> tweak = {})
    {
        ServerConfig cfg;
        cfg.workers = workers;
        cfg.queueCapacity = queue_capacity;
        cfg.runner = std::move(runner);
        if (tweak)
            tweak(cfg);
        server = std::make_unique<Server>(std::move(cfg));
        server->start();
    }

    std::uint16_t port() const { return server->port(); }

    Client
    client() const
    {
        ClientConfig ccfg;
        ccfg.port = server->port();
        return Client(ccfg);
    }

    std::unique_ptr<Server> server;
};

std::vector<std::uint64_t>
sampleKeys(std::size_t count)
{
    std::vector<std::uint64_t> keys;
    keys.reserve(count);
    std::uint64_t state = 0x1234'5678'9abc'def0ULL;
    for (std::size_t i = 0; i < count; ++i) {
        // SplitMix64 — deterministic spread over the key space.
        state += 0x9E3779B97F4A7C15ULL;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        keys.push_back(z ^ (z >> 31));
    }
    return keys;
}

std::vector<std::string>
shardLabels(std::size_t n)
{
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < n; ++i)
        labels.push_back("127.0.0.1:" + std::to_string(9000 + i));
    return labels;
}

} // namespace

// ---------------------------------------------------------------
// HashRing: balance and proportional remap
// ---------------------------------------------------------------

TEST(HashRing, BalancesKeysAcrossShards)
{
    const HashRing ring(shardLabels(3));
    const auto keys = sampleKeys(9'000);
    std::vector<std::size_t> per(3, 0);
    for (const std::uint64_t key : keys)
        ++per[ring.primary(key)];
    for (std::size_t s = 0; s < 3; ++s) {
        // Perfect balance is 1/3; vnode placement noise stays well
        // inside [15%, 55%].
        EXPECT_GT(per[s], keys.size() * 15 / 100)
            << "shard " << s << " starved";
        EXPECT_LT(per[s], keys.size() * 55 / 100)
            << "shard " << s << " overloaded";
    }
}

TEST(HashRing, OwnersAreDistinctAndStartAtPrimary)
{
    const HashRing ring(shardLabels(3));
    for (const std::uint64_t key : sampleKeys(64)) {
        const auto owners = ring.owners(key, 3);
        ASSERT_EQ(owners.size(), 3u);
        EXPECT_EQ(owners[0], ring.primary(key));
        const std::set<std::size_t> distinct(owners.begin(),
                                             owners.end());
        EXPECT_EQ(distinct.size(), 3u);
    }
}

TEST(HashRing, RemovingOneShardRemapsOnlyItsShare)
{
    const auto labels3 = shardLabels(3);
    auto labels2 = labels3;
    labels2.pop_back(); // remove shard 2
    const HashRing before(labels3);
    const HashRing after(labels2);
    const auto keys = sampleKeys(9'000);

    std::size_t owned_by_removed = 0;
    for (const std::uint64_t key : keys) {
        const std::size_t was = before.primary(key);
        const std::size_t now = after.primary(key);
        if (was == 2) {
            ++owned_by_removed;
        } else {
            // Keys not owned by the removed shard must not move —
            // the consistent-hash contract.
            EXPECT_EQ(was, now) << "key moved between survivors";
        }
    }
    const double moved = ringRemapFraction(before, after, keys);
    EXPECT_NEAR(moved,
                static_cast<double>(owned_by_removed) /
                    static_cast<double>(keys.size()),
                1e-9);
    // The removed shard owned about a third.
    EXPECT_GT(moved, 0.15);
    EXPECT_LT(moved, 0.55);
}

TEST(HashRing, AddingOneShardRemapsProportionally)
{
    const HashRing before(shardLabels(3));
    const HashRing after(shardLabels(4));
    const auto keys = sampleKeys(9'000);
    for (const std::uint64_t key : keys) {
        const std::size_t was = before.primary(key);
        const std::size_t now = after.primary(key);
        if (was != now) {
            EXPECT_EQ(now, 3u) << "remapped key must land on the "
                                  "new shard, not shuffle survivors";
        }
    }
    const double moved = ringRemapFraction(before, after, keys);
    // Ideal is 1/4; allow generous vnode noise.
    EXPECT_GT(moved, 0.10);
    EXPECT_LT(moved, 0.45);
}

// ---------------------------------------------------------------
// Retry policy: determinism and classification
// ---------------------------------------------------------------

TEST(RetryPolicy, BackoffIsDeterministicAndBounded)
{
    RetryPolicy pol;
    pol.baseBackoffMs = 20;
    pol.maxBackoffMs = 200;
    pol.backoffMultiplier = 2.0;
    pol.jitter = 0.5;
    pol.jitterSeed = 99;

    std::uint64_t s1 = pol.jitterSeed, s2 = pol.jitterSeed;
    for (unsigned attempt = 0; attempt < 8; ++attempt) {
        const std::uint32_t a = retryBackoffMs(pol, attempt, s1);
        const std::uint32_t b = retryBackoffMs(pol, attempt, s2);
        EXPECT_EQ(a, b) << "same seed must give the same jitter";
        EXPECT_LE(a, pol.maxBackoffMs);
        // Jitter shaves at most half; the floor is base * 2^n / 2.
        const double raw =
            std::min<double>(20.0 * (1u << attempt), 200.0);
        EXPECT_GE(a, static_cast<std::uint32_t>(raw * 0.5) - 1);
    }

    std::uint64_t s3 = 1234;
    bool differs = false;
    for (unsigned attempt = 0; attempt < 8; ++attempt)
        if (retryBackoffMs(pol, attempt, s3) !=
            retryBackoffMs(pol, attempt, s1))
            differs = true;
    EXPECT_TRUE(differs) << "different seeds should jitter apart";
}

TEST(RetryPolicy, ClassifiesRetriableErrors)
{
    const RetryPolicy pol;
    auto retriable = [&](ServeErrorKind kind, ErrCode code) {
        return serveErrorRetriable(ServeError(kind, code, "x"), pol);
    };
    EXPECT_TRUE(retriable(ServeErrorKind::ConnectFailed,
                          ErrCode::None));
    EXPECT_TRUE(retriable(ServeErrorKind::SendFailed, ErrCode::None));
    EXPECT_TRUE(retriable(ServeErrorKind::Timeout, ErrCode::None));
    EXPECT_TRUE(retriable(ServeErrorKind::Disconnected,
                          ErrCode::None));
    EXPECT_TRUE(retriable(ServeErrorKind::ProtocolError,
                          ErrCode::None));
    EXPECT_TRUE(retriable(ServeErrorKind::ServerError, ErrCode::Busy));
    EXPECT_TRUE(retriable(ServeErrorKind::ServerError,
                          ErrCode::UnknownJob));
    EXPECT_TRUE(retriable(ServeErrorKind::ServerError,
                          ErrCode::Internal));
    EXPECT_FALSE(retriable(ServeErrorKind::ServerError,
                           ErrCode::BadRequest));
    EXPECT_FALSE(retriable(ServeErrorKind::ServerError,
                           ErrCode::Draining));
    EXPECT_FALSE(retriable(ServeErrorKind::Cancelled, ErrCode::None));
    EXPECT_FALSE(retriable(ServeErrorKind::RetriesExhausted,
                           ErrCode::None));

    RetryPolicy drainy;
    drainy.retryDraining = true;
    EXPECT_TRUE(serveErrorRetriable(
        ServeError(ServeErrorKind::ServerError, ErrCode::Draining,
                   "x"),
        drainy));
}

// ---------------------------------------------------------------
// Chaos schedule: pure, seeded, reproducible
// ---------------------------------------------------------------

TEST(ChaosSchedule, DeterministicPerCoordinates)
{
    ChaosConfig cfg;
    cfg.seed = 7;
    cfg.dropRate = 0.1;
    cfg.delayRate = 0.1;
    cfg.dupRate = 0.1;
    cfg.splitRate = 0.1;
    cfg.resetRate = 0.1;

    for (std::uint64_t conn = 0; conn < 8; ++conn)
        for (std::uint64_t frame = 0; frame < 64; ++frame)
            for (const ChaosDir dir : {ChaosDir::ClientToServer,
                                       ChaosDir::ServerToClient})
                EXPECT_EQ(plannedAction(cfg, conn, dir, frame),
                          plannedAction(cfg, conn, dir, frame));

    EXPECT_EQ(scheduleDigest(cfg, 16, 32),
              scheduleDigest(cfg, 16, 32));
    ChaosConfig other = cfg;
    other.seed = 8;
    EXPECT_NE(scheduleDigest(cfg, 16, 32),
              scheduleDigest(other, 16, 32));
}

TEST(ChaosSchedule, ZeroRatesAlwaysForward)
{
    const ChaosConfig cfg; // all rates 0
    for (std::uint64_t frame = 0; frame < 256; ++frame)
        EXPECT_EQ(plannedAction(cfg, 0, ChaosDir::ServerToClient,
                                frame),
                  ChaosAction::Forward);
}

TEST(ChaosSchedule, RatesRoughlyMatchFrequencies)
{
    ChaosConfig cfg;
    cfg.seed = 3;
    cfg.dropRate = 0.25;
    std::size_t drops = 0;
    constexpr std::size_t kFrames = 4'000;
    for (std::uint64_t f = 0; f < kFrames; ++f)
        if (plannedAction(cfg, 1, ChaosDir::ClientToServer, f) ==
            ChaosAction::Drop)
            ++drops;
    EXPECT_GT(drops, kFrames / 6);  // > 16%
    EXPECT_LT(drops, kFrames / 3);  // < 33%
}

// ---------------------------------------------------------------
// ChaosProxy: relaying with injected faults
// ---------------------------------------------------------------

TEST(ChaosProxy, CleanPassthrough)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    ChaosConfig cc;
    cc.targetPort = srv.port();
    ChaosProxy proxy(cc);
    const std::uint16_t port = proxy.start();

    ClientConfig ccfg;
    ccfg.port = port;
    Client client(ccfg);
    const SubmitRunReply sub = client.submitRun(jobWithSeed(1));
    const JobResultReply res = client.result(sub.jobId, 5'000);
    EXPECT_EQ(res.state, JobState::Ok);

    const ChaosStats st = proxy.stats();
    EXPECT_EQ(st.connsAccepted, 1u);
    EXPECT_GT(st.framesForwarded, 0u);
    EXPECT_EQ(st.framesDropped, 0u);
}

TEST(ChaosProxy, DelayHoldsReplies)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    ChaosConfig cc;
    cc.targetPort = srv.port();
    cc.delayRate = 1.0; // every frame
    cc.delayMs = 400;
    cc.chaosUpstream = false; // downstream only
    ChaosProxy proxy(cc);
    const std::uint16_t port = proxy.start();

    ClientConfig ccfg;
    ccfg.port = port;
    Client client(ccfg);
    const auto t0 = Clock::now();
    const SubmitRunReply sub = client.submitRun(jobWithSeed(2));
    EXPECT_GE(msSince(t0), 300.0)
        << "the submit reply should have been held ~400 ms";
    const JobResultReply res = client.result(sub.jobId, 5'000);
    EXPECT_EQ(res.state, JobState::Ok);
    EXPECT_GT(proxy.stats().framesDelayed, 0u);
}

TEST(ChaosProxy, DeadUpstreamClosesClient)
{
    ChaosConfig cc;
    cc.targetPort = 1; // nothing listens here
    ChaosProxy proxy(cc);
    const std::uint16_t port = proxy.start();

    ClientConfig ccfg;
    ccfg.port = port;
    ccfg.ioTimeoutMs = 2'000;
    Client client(ccfg);
    EXPECT_THROW(client.health(), ServeError);
    // The client can observe the close a beat before the relay
    // thread books the failed dial; poll briefly.
    const auto t0 = Clock::now();
    while (proxy.stats().upstreamDialFailures == 0 &&
           msSince(t0) < 2'000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(proxy.stats().upstreamDialFailures, 1u);
}

TEST(ChaosProxy, DuplicatedFramesRecoverViaResilientClient)
{
    StubServer srv([](const SubmitRunRequest &) {
        return stubResult();
    });
    ChaosConfig cc;
    cc.targetPort = srv.port();
    cc.dupRate = 0.5;
    cc.chaosUpstream = false;
    // The schedule is a pure function of (seed, conn, dir, frame),
    // so pick a seed where the first connection's submit reply is
    // duplicated (desyncing the stream and forcing a retry) while
    // the second connection forwards it cleanly (letting the retry
    // recover). plannedAction() makes this choice deterministic.
    for (cc.seed = 1;; ++cc.seed)
        if (plannedAction(cc, 0, ChaosDir::ServerToClient, 0) ==
                ChaosAction::Duplicate &&
            plannedAction(cc, 1, ChaosDir::ServerToClient, 0) ==
                ChaosAction::Forward &&
            plannedAction(cc, 1, ChaosDir::ServerToClient, 1) ==
                ChaosAction::Forward)
            break;
    ChaosProxy proxy(cc);
    const std::uint16_t port = proxy.start();

    ClientConfig ccfg;
    ccfg.port = port;
    RetryPolicy pol;
    pol.maxAttempts = 6;
    pol.baseBackoffMs = 5;
    pol.deadlineMs = 20'000;
    pol.pollQuantumMs = 100;
    ResilientClient rc(ccfg, pol);
    AttemptStats stats;
    // The duplicated submit reply leaves a stale frame in the
    // stream; the next read surfaces a typed ProtocolError, which
    // must reconnect-and-retry to a clean result rather than wedge.
    const JobResultReply res = rc.runJob(jobWithSeed(3), &stats);
    EXPECT_TRUE(res.state == JobState::Ok ||
                res.state == JobState::Degraded);
    EXPECT_GE(stats.retries, 1u);
    EXPECT_GT(proxy.stats().framesDuplicated, 0u);
}

// ---------------------------------------------------------------
// Client across a daemon restart (satellite: one typed error, then
// lazy reconnect on the same Client object)
// ---------------------------------------------------------------

TEST(ClientRestart, OneTypedErrorThenReconnects)
{
    auto runner = [](const SubmitRunRequest &) {
        return stubResult();
    };
    auto first = std::make_unique<StubServer>(runner);
    const std::uint16_t port = first->port();

    ClientConfig ccfg;
    ccfg.port = port;
    ccfg.ioTimeoutMs = 2'000;
    Client client(ccfg);
    EXPECT_EQ(client.health().state, 0);
    EXPECT_TRUE(client.connected());

    // Kill the daemon under the established connection.
    first.reset();

    // The next call surfaces exactly one typed connection-level
    // error (which closes the socket)...
    try {
        client.health();
        FAIL() << "health() against a dead daemon must throw";
    } catch (const ServeError &e) {
        EXPECT_TRUE(e.kind() == ServeErrorKind::SendFailed ||
                    e.kind() == ServeErrorKind::Disconnected ||
                    e.kind() == ServeErrorKind::ConnectFailed)
            << "got " << serveErrorKindLabel(e.kind());
    }
    EXPECT_FALSE(client.connected());

    // ...and once a new daemon owns the port, the SAME Client
    // object lazily reconnects — no rebuild required.
    StubServer second(runner, 2, 64, [port](ServerConfig &cfg) {
        cfg.port = port;
    });
    EXPECT_EQ(client.health().state, 0);
    const SubmitRunReply sub = client.submitRun(jobWithSeed(4));
    EXPECT_GT(sub.jobId, 0u);
}

// ---------------------------------------------------------------
// Server: deadline-aware admission + Busy retry-after hints
// ---------------------------------------------------------------

TEST(Admission, RejectsWhenQueueWaitExceedsDeadline)
{
    std::mutex gate;
    std::atomic<bool> seeded{false};
    auto runner = [&](const SubmitRunRequest &) {
        if (!seeded.load()) {
            // Seed the service-time EWMA with a honest 200 ms job.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
            seeded.store(true);
        } else {
            std::lock_guard<std::mutex> hold(gate);
        }
        return stubResult();
    };
    StubServer srv(runner, /*workers=*/1, /*queue=*/64);
    Client client = srv.client();

    // Seed EWMA.
    SubmitRunRequest seed_job = jobWithSeed(100);
    seed_job.noCache = true;
    const SubmitRunReply s0 = client.submitRun(seed_job);
    const JobResultReply r0 = client.result(s0.jobId, 10'000);
    ASSERT_EQ(r0.state, JobState::Ok);

    // Hold the worker and pile up a queue: wait estimate becomes
    // ewma (~200 ms) * pending / 1 worker.
    std::unique_lock<std::mutex> hold(gate);
    for (std::uint64_t i = 0; i < 12; ++i) {
        SubmitRunRequest req = jobWithSeed(200 + i);
        req.noCache = true; // no deadline: always admitted
        client.submitRun(req);
    }

    // ~12 queued * 200 ms >> a 300 ms deadline: must be rejected
    // with Busy and a positive retry-after hint.
    SubmitRunRequest late = jobWithSeed(999);
    late.noCache = true;
    late.deadlineMs = 300;
    try {
        client.submitRun(late);
        FAIL() << "admission should have rejected the job";
    } catch (const ServeError &e) {
        EXPECT_EQ(e.kind(), ServeErrorKind::ServerError);
        EXPECT_EQ(e.code(), ErrCode::Busy);
        EXPECT_GT(e.retryAfterMs(), 0u);
    }
    EXPECT_EQ(srv.server->stats().admissionRejected, 1u);
    EXPECT_NE(srv.server->statsText().find(
                  "\nserve_admission_rejected 1\n"),
              std::string::npos);

    hold.unlock();
}

TEST(Admission, FullQueueBusyCarriesRetryHint)
{
    std::mutex gate;
    auto runner = [&](const SubmitRunRequest &) {
        std::lock_guard<std::mutex> hold(gate);
        return stubResult();
    };
    StubServer srv(runner, /*workers=*/1, /*queue=*/1);
    Client client = srv.client();

    std::unique_lock<std::mutex> hold(gate);
    SubmitRunRequest a = jobWithSeed(1);
    a.noCache = true;
    client.submitRun(a); // running (blocked on the gate)
    // Give the worker a beat to dequeue the first job.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    SubmitRunRequest b = jobWithSeed(2);
    b.noCache = true;
    client.submitRun(b); // fills the 1-slot queue

    SubmitRunRequest c = jobWithSeed(3);
    c.noCache = true;
    try {
        client.submitRun(c);
        FAIL() << "full queue must answer Busy";
    } catch (const ServeError &e) {
        EXPECT_EQ(e.code(), ErrCode::Busy);
        EXPECT_GE(e.retryAfterMs(), 1u);
    }
    hold.unlock();
}

TEST(ResilientClientSuite, RetriesBusyUntilAdmitted)
{
    // An atomic gate (not a mutex) holds the worker: the release
    // below happens on another thread, and a mutex may only be
    // unlocked by its locking thread.
    std::atomic<bool> release{false};
    auto runner = [&](const SubmitRunRequest &) {
        while (!release.load())
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        return stubResult();
    };
    StubServer srv(runner, /*workers=*/1, /*queue=*/1);

    Client filler = srv.client();
    SubmitRunRequest a = jobWithSeed(10);
    a.noCache = true;
    filler.submitRun(a);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    SubmitRunRequest b = jobWithSeed(11);
    b.noCache = true;
    filler.submitRun(b);

    ClientConfig ccfg;
    ccfg.port = srv.port();
    RetryPolicy pol;
    pol.maxAttempts = 20;
    pol.baseBackoffMs = 50;
    pol.maxBackoffMs = 200;
    pol.deadlineMs = 30'000;
    ResilientClient rc(ccfg, pol);

    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(400));
        release.store(true);
    });
    AttemptStats stats;
    SubmitRunRequest c = jobWithSeed(12);
    c.noCache = true;
    const JobResultReply res = rc.runJob(c, &stats);
    releaser.join();
    EXPECT_EQ(res.state, JobState::Ok);
    EXPECT_GE(stats.retries, 1u) << "the Busy queue must have "
                                    "forced at least one retry";
}

TEST(ResilientClientSuite, ExhaustionThrowsTypedError)
{
    ClientConfig ccfg;
    ccfg.port = 1; // connection refused
    ccfg.connectTimeoutMs = 200;
    RetryPolicy pol;
    pol.maxAttempts = 3;
    pol.baseBackoffMs = 5;
    pol.deadlineMs = 5'000;
    ResilientClient rc(ccfg, pol);
    AttemptStats stats;
    try {
        rc.runJob(jobWithSeed(1), &stats);
        FAIL() << "must exhaust retries";
    } catch (const ServeError &e) {
        EXPECT_EQ(e.kind(), ServeErrorKind::RetriesExhausted);
    }
    EXPECT_EQ(stats.attempts, 3u);
    EXPECT_EQ(stats.retries, 2u);
}

// ---------------------------------------------------------------
// ShardPool: placement, failover, hedging, metrics
// ---------------------------------------------------------------

TEST(ShardPoolSuite, FailsOverWhenPrimaryDies)
{
    auto runner = [](const SubmitRunRequest &) {
        return stubResult();
    };
    auto srv0 = std::make_unique<StubServer>(runner);
    StubServer srv1(runner);

    PoolConfig pc;
    pc.endpoints = {Endpoint{"127.0.0.1", srv0->port()},
                    Endpoint{"127.0.0.1", srv1.port()}};
    pc.client.connectTimeoutMs = 300;
    pc.client.ioTimeoutMs = 2'000;
    pc.retry.maxAttempts = 2;
    pc.retry.baseBackoffMs = 5;
    pc.retry.deadlineMs = 10'000;
    pc.retry.pollQuantumMs = 100;
    pc.probeIntervalMs = 100;
    pc.hedgeEnabled = false;
    ShardPool pool(pc);

    // Kill shard 0; every job must still succeed via shard 1, and
    // jobs whose ring primary was shard 0 count failovers.
    srv0.reset();
    unsigned owned_by_dead = 0;
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
        const SubmitRunRequest req = jobWithSeed(seed);
        const PoolOutcome out = pool.runJob(req);
        ASSERT_TRUE(out.ok) << out.error;
        EXPECT_EQ(out.shard, 1u);
        if (out.failovers > 0)
            ++owned_by_dead;
    }
    EXPECT_GT(owned_by_dead, 0u)
        << "some keys must have been owned by the dead shard";
    const PoolStats st = pool.stats();
    EXPECT_GT(st.failovers, 0u);
    EXPECT_EQ(st.jobs, 12u);
    // The health prober needs a couple of 100 ms ticks to cross the
    // consecutive-failure threshold and eject shard 0.
    const auto t0 = Clock::now();
    while (pool.shardUp(0) && msSince(t0) < 5'000.0)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(pool.shardUp(0));
    EXPECT_TRUE(pool.shardUp(1));
    EXPECT_GT(pool.stats().shardsEjected, 0u);
}

TEST(ShardPoolSuite, HedgeRescuesStragglerShard)
{
    // Shard 0 is pathologically slow; shard 1 is fast. Hedged jobs
    // whose primary is shard 0 must finish long before the 1500 ms
    // straggler by winning on shard 1.
    auto slow = [](const SubmitRunRequest &) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(1'500));
        return stubResult();
    };
    auto fast = [](const SubmitRunRequest &) {
        return stubResult();
    };
    StubServer srv0(slow);
    StubServer srv1(fast);

    PoolConfig pc;
    pc.endpoints = {Endpoint{"127.0.0.1", srv0.port()},
                    Endpoint{"127.0.0.1", srv1.port()}};
    pc.client.ioTimeoutMs = 5'000;
    pc.retry.maxAttempts = 2;
    pc.retry.deadlineMs = 20'000;
    pc.retry.pollQuantumMs = 100;
    pc.probeIntervalMs = 0; // no prober: isolate hedging
    pc.hedgeEnabled = true;
    pc.hedgeDelayMs = 60;
    ShardPool pool(pc);

    // Find a request whose primary is the slow shard.
    std::uint64_t seed = 0;
    while (pool.primaryFor(jobWithSeed(seed)) != 0)
        ++seed;

    const auto t0 = Clock::now();
    const PoolOutcome out = pool.runJob(jobWithSeed(seed));
    const double ms = msSince(t0);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_TRUE(out.hedged);
    EXPECT_TRUE(out.hedgeWon);
    EXPECT_EQ(out.shard, 1u);
    EXPECT_LT(ms, 1'000.0)
        << "hedge must beat the 1500 ms straggler";

    const PoolStats st = pool.stats();
    EXPECT_GE(st.hedgesFired, 1u);
    EXPECT_GE(st.hedgesWon, 1u);
}

TEST(ShardPoolSuite, RegistersFleetMetrics)
{
    auto runner = [](const SubmitRunRequest &) {
        return stubResult();
    };
    StubServer srv(runner);
    PoolConfig pc;
    pc.endpoints = {Endpoint{"127.0.0.1", srv.port()}};
    pc.probeIntervalMs = 0;
    ShardPool pool(pc);

    MetricsRegistry reg;
    pool.registerMetrics(reg);
    for (const char *name :
         {"serve_retries", "serve_failovers", "serve_hedges_fired",
          "serve_hedges_won", "pool_shard_up", "pool_shard_ejected"})
        EXPECT_TRUE(reg.has(name)) << name;
    EXPECT_DOUBLE_EQ(reg.value("pool_shard_up"), 1.0);
    EXPECT_DOUBLE_EQ(reg.value("serve_retries"), 0.0);
}

TEST(ShardPoolSuite, ProbeEjectsDrainingShard)
{
    auto runner = [](const SubmitRunRequest &) {
        return stubResult();
    };
    StubServer srv0(runner);
    StubServer srv1(runner);
    PoolConfig pc;
    pc.endpoints = {Endpoint{"127.0.0.1", srv0.port()},
                    Endpoint{"127.0.0.1", srv1.port()}};
    pc.probeIntervalMs = 0; // probe manually for determinism
    pc.probeFailThreshold = 2;
    pc.hedgeEnabled = false;
    ShardPool pool(pc);

    srv0.server->requestDrain();
    pool.probeOnce();
    EXPECT_TRUE(pool.shardUp(0)) << "one failure is not ejection";
    pool.probeOnce();
    EXPECT_FALSE(pool.shardUp(0)) << "draining shard must eject "
                                     "after the failure threshold";
    EXPECT_TRUE(pool.shardUp(1));
    EXPECT_EQ(pool.stats().shardsEjected, 1u);
}

// ---------------------------------------------------------------
// Subprocess + real chameleond: crash recovery under chaos
// ---------------------------------------------------------------

#ifdef CHAM_CHAMELEOND_BIN

TEST(SubprocessSuite, SpawnReadPortAndDrain)
{
    Subprocess daemon;
    ASSERT_TRUE(daemon.spawn({CHAM_CHAMELEOND_BIN, "--port", "0",
                              "--workers", "1", "--quiet"}));
    const std::uint16_t port = daemon.readPortLine(10'000);
    ASSERT_GT(port, 0u);

    ClientConfig ccfg;
    ccfg.port = port;
    Client client(ccfg);
    EXPECT_EQ(client.health().state, 0);

    daemon.kill(SIGTERM);
    EXPECT_EQ(daemon.wait(), 0) << "graceful drain must exit 0";
}

TEST(CrashRecovery, Kill9UnderChaosAllJobsResolve)
{
    // Two real daemons behind mildly chaotic proxies; SIGKILL one
    // mid-burst. Every job must resolve (no hangs), the survivor
    // absorbs the dead shard's ring share, and the pool records the
    // failovers.
    Subprocess daemons[2];
    std::uint16_t daemonPorts[2];
    for (int s = 0; s < 2; ++s) {
        ASSERT_TRUE(daemons[s].spawn({CHAM_CHAMELEOND_BIN, "--port",
                                      "0", "--workers", "2",
                                      "--quiet"}));
        daemonPorts[s] = daemons[s].readPortLine(10'000);
        ASSERT_GT(daemonPorts[s], 0u);
    }

    std::vector<std::unique_ptr<ChaosProxy>> proxies;
    std::vector<Endpoint> endpoints;
    for (int s = 0; s < 2; ++s) {
        ChaosConfig cc;
        cc.targetPort = daemonPorts[s];
        cc.seed = 41 + static_cast<std::uint64_t>(s);
        cc.dropRate = 0.01;
        cc.delayRate = 0.01;
        cc.delayMs = 30;
        proxies.push_back(std::make_unique<ChaosProxy>(cc));
        endpoints.push_back(
            Endpoint{"127.0.0.1", proxies.back()->start()});
    }

    PoolConfig pc;
    pc.endpoints = endpoints;
    pc.client.connectTimeoutMs = 300;
    pc.client.ioTimeoutMs = 1'500;
    pc.retry.maxAttempts = 4;
    pc.retry.baseBackoffMs = 10;
    pc.retry.maxBackoffMs = 200;
    pc.retry.deadlineMs = 30'000;
    pc.retry.pollQuantumMs = 150;
    pc.probeIntervalMs = 100;
    pc.hedgeEnabled = true;
    pc.hedgeDelayMs = 250;
    ShardPool pool(pc);

    constexpr unsigned kJobs = 24;
    constexpr unsigned kThreads = 3;
    std::atomic<unsigned> nextJob{0};
    std::atomic<unsigned> done{0};
    std::atomic<unsigned> ok{0};

    std::thread killer([&] {
        while (done.load() < kJobs / 3)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        daemons[0].kill(SIGKILL);
        daemons[0].wait();
    });

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t)
        workers.emplace_back([&] {
            for (;;) {
                const unsigned idx = nextJob.fetch_add(1);
                if (idx >= kJobs)
                    return;
                const PoolOutcome out =
                    pool.runJob(jobWithSeed(5'000 + idx));
                done.fetch_add(1);
                if (out.ok)
                    ok.fetch_add(1);
                else
                    ADD_FAILURE() << "job " << idx
                                  << " failed: " << out.error;
            }
        });
    for (std::thread &t : workers)
        t.join();
    killer.join();

    EXPECT_EQ(done.load(), kJobs) << "every job must resolve";
    EXPECT_EQ(ok.load(), kJobs);
    const PoolStats st = pool.stats();
    EXPECT_GT(st.failovers, 0u)
        << "the dead shard's keys must have failed over";
    EXPECT_FALSE(pool.shardUp(0));
    EXPECT_TRUE(pool.shardUp(1));

    daemons[1].kill(SIGTERM);
    EXPECT_EQ(daemons[1].wait(), 0)
        << "the survivor must drain cleanly with zero lost jobs";
}

#endif // CHAM_CHAMELEOND_BIN
