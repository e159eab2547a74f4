#include "serve/pool.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/log.hh"
#include "common/rng.hh"
#include "obs/metrics_registry.hh"
#include "serve/result_cache.hh"

namespace chameleon::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Capacity of the sliding latency window the hedge delay derives
 *  from; small enough to adapt, large enough for a stable p99. */
constexpr std::size_t kLatencyWindow = 256;

/** FNV-1a over a std::string (ring point labels), finished with a
 *  SplitMix64-style mix. Raw FNV-1a has weak avalanche on short
 *  near-identical strings ("host:port#0".."#63"), which clusters
 *  vnode points and skews ring ownership far from 1/N; the finalizer
 *  spreads them uniformly over the 64-bit ring. */
std::uint64_t
hashLabel(const std::string &s)
{
    return splitMix64Mix(fnv1a64(
        reinterpret_cast<const std::uint8_t *>(s.data()), s.size()));
}

/** p-th percentile (0..1) of @p samples by copy-and-sort; the window
 *  is tiny, so the copy is cheaper than maintaining order. */
double
percentileOf(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
}

} // namespace

std::string
Endpoint::label() const
{
    return strFormat("%s:%u", host.c_str(), unsigned(port));
}

HashRing::HashRing(const std::vector<std::string> &labels,
                   unsigned vnodes)
    : shardCount(labels.size())
{
    points.reserve(labels.size() * vnodes);
    for (std::size_t shard = 0; shard < labels.size(); ++shard) {
        for (unsigned replica = 0; replica < vnodes; ++replica) {
            const std::string point =
                strFormat("%s#%u", labels[shard].c_str(), replica);
            points.push_back(Point{hashLabel(point), shard});
        }
    }
    std::sort(points.begin(), points.end(),
              [](const Point &a, const Point &b) {
                  return a.hash != b.hash ? a.hash < b.hash
                                          : a.shard < b.shard;
              });
}

std::size_t
HashRing::primary(std::uint64_t key) const
{
    if (points.empty())
        panic("HashRing::primary() on an empty ring");
    auto it = std::lower_bound(
        points.begin(), points.end(), key,
        [](const Point &p, std::uint64_t k) { return p.hash < k; });
    if (it == points.end())
        it = points.begin(); // wrap: first point clockwise of key
    return it->shard;
}

std::vector<std::size_t>
HashRing::owners(std::uint64_t key, std::size_t max) const
{
    std::vector<std::size_t> out;
    if (points.empty() || max == 0)
        return out;
    auto it = std::lower_bound(
        points.begin(), points.end(), key,
        [](const Point &p, std::uint64_t k) { return p.hash < k; });
    const std::size_t want = std::min(max, shardCount);
    for (std::size_t step = 0;
         step < points.size() && out.size() < want; ++step) {
        if (it == points.end())
            it = points.begin();
        if (std::find(out.begin(), out.end(), it->shard) == out.end())
            out.push_back(it->shard);
        ++it;
    }
    return out;
}

double
ringRemapFraction(const HashRing &before, const HashRing &after,
                  const std::vector<std::uint64_t> &keys)
{
    if (keys.empty())
        return 0.0;
    std::size_t moved = 0;
    for (const std::uint64_t key : keys)
        if (before.primary(key) != after.primary(key))
            ++moved;
    return static_cast<double>(moved) /
           static_cast<double>(keys.size());
}

ShardPool::ShardPool(PoolConfig config)
    : cfg(std::move(config)), eps(cfg.endpoints)
{
    if (eps.empty())
        fatal("ShardPool needs at least one endpoint");
    std::vector<std::string> labels;
    labels.reserve(eps.size());
    for (const Endpoint &ep : eps)
        labels.push_back(ep.label());
    ring = HashRing(labels);
    shards.assign(eps.size(), ShardState{});
    {
        std::lock_guard<std::mutex> lock(mu);
        counters.shardsUp = eps.size();
    }
    if (cfg.probeIntervalMs > 0 && eps.size() > 1)
        prober = std::thread([this] { proberLoop(); });
}

ShardPool::~ShardPool()
{
    stopping.store(true, std::memory_order_relaxed);
    if (prober.joinable())
        prober.join();
    std::vector<std::thread> leftover;
    {
        std::lock_guard<std::mutex> lock(armsMu);
        leftover.swap(arms);
    }
    for (std::thread &t : leftover)
        if (t.joinable())
            t.join();
}

std::size_t
ShardPool::primaryFor(const SubmitRunRequest &req) const
{
    const auto owned = ring.owners(cacheKey(req), eps.size());
    std::lock_guard<std::mutex> lock(mu);
    for (const std::size_t shard : owned)
        if (shards[shard].up)
            return shard;
    return owned.empty() ? 0 : owned.front();
}

bool
ShardPool::shardUp(std::size_t shard) const
{
    std::lock_guard<std::mutex> lock(mu);
    return shard < shards.size() && shards[shard].up;
}

std::uint32_t
ShardPool::currentHedgeDelayMs() const
{
    if (cfg.hedgeDelayMs > 0)
        return cfg.hedgeDelayMs;
    std::vector<double> window;
    {
        std::lock_guard<std::mutex> lock(mu);
        window = latencyWindowMs;
    }
    if (window.size() < cfg.hedgeMinSamples)
        return cfg.hedgeDelayDefaultMs;
    const double p99 = percentileOf(std::move(window), 0.99);
    return std::clamp(static_cast<std::uint32_t>(p99),
                      cfg.hedgeDelayMinMs, cfg.hedgeDelayMaxMs);
}

PoolStats
ShardPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

void
ShardPool::registerMetrics(MetricsRegistry &registry)
{
    auto counter = [this](std::uint64_t PoolStats::*member) {
        return [this, member] {
            std::lock_guard<std::mutex> lock(mu);
            return static_cast<double>(counters.*member);
        };
    };
    registry.registerMetric("serve_retries", MetricKind::Counter,
                            counter(&PoolStats::retries));
    registry.registerMetric("serve_failovers", MetricKind::Counter,
                            counter(&PoolStats::failovers));
    registry.registerMetric("serve_hedges_fired", MetricKind::Counter,
                            counter(&PoolStats::hedgesFired));
    registry.registerMetric("serve_hedges_won", MetricKind::Counter,
                            counter(&PoolStats::hedgesWon));
    registry.registerMetric("pool_shard_up", MetricKind::Gauge,
                            counter(&PoolStats::shardsUp));
    registry.registerMetric("pool_shard_ejected", MetricKind::Counter,
                            counter(&PoolStats::shardsEjected));
}

void
ShardPool::noteShardFailure(std::size_t shard)
{
    std::lock_guard<std::mutex> lock(mu);
    ShardState &s = shards[shard];
    ++counters.probeFailures;
    if (++s.consecutiveFailures >= cfg.probeFailThreshold && s.up) {
        s.up = false;
        --counters.shardsUp;
        ++counters.shardsEjected;
    }
}

void
ShardPool::noteShardSuccess(std::size_t shard)
{
    std::lock_guard<std::mutex> lock(mu);
    ShardState &s = shards[shard];
    s.consecutiveFailures = 0;
    if (!s.up) {
        s.up = true;
        ++counters.shardsUp;
    }
}

void
ShardPool::recordLatencyMs(double ms)
{
    std::lock_guard<std::mutex> lock(mu);
    if (latencyWindowMs.size() < kLatencyWindow) {
        latencyWindowMs.push_back(ms);
    } else {
        latencyWindowMs[latencyNext] = ms;
        latencyNext = (latencyNext + 1) % kLatencyWindow;
    }
}

void
ShardPool::probeOnce()
{
    for (std::size_t shard = 0; shard < eps.size(); ++shard) {
        ClientConfig cc = cfg.client;
        cc.host = eps[shard].host;
        cc.port = eps[shard].port;
        // Probes must be snappy even when the daemon is wedged.
        cc.connectTimeoutMs = std::min(cc.connectTimeoutMs, 500);
        cc.ioTimeoutMs = std::min(cc.ioTimeoutMs, 1'000);
        try {
            Client probe(cc);
            const HealthReply health = probe.health();
            if (health.state == 0)
                noteShardSuccess(shard);
            else
                noteShardFailure(shard); // draining/stopped: route away
        } catch (const ServeError &) {
            noteShardFailure(shard);
        }
    }
}

void
ShardPool::proberLoop()
{
    constexpr std::uint32_t kSliceMs = 20;
    while (!stopping.load(std::memory_order_relaxed)) {
        probeOnce();
        const auto until =
            Clock::now() +
            std::chrono::milliseconds(cfg.probeIntervalMs);
        while (Clock::now() < until &&
               !stopping.load(std::memory_order_relaxed))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kSliceMs));
    }
}

void
ShardPool::reapFinishedArms()
{
    // Opportunistic: hedge losers usually finish within one poll
    // quantum of losing; joining them here keeps the straggler list
    // from growing across a long-lived pool.
    std::lock_guard<std::mutex> lock(armsMu);
    arms.erase(std::remove_if(arms.begin(), arms.end(),
                              [](std::thread &t) {
                                  return !t.joinable();
                              }),
               arms.end());
}

void
ShardPool::runArm(const SubmitRunRequest &req,
                  const std::vector<std::size_t> &owners,
                  std::size_t first_owner, bool is_hedge,
                  const std::shared_ptr<JobCtx> &ctx)
{
    unsigned attempts = 0;
    unsigned failovers = 0;
    ServeErrorKind last_kind = ServeErrorKind::RetriesExhausted;
    ErrCode last_code = ErrCode::None;
    std::string last_error = "no shard available";
    std::size_t last_shard = owners.empty() ? 0 : owners[0];

    // Tracing: this arm's hop spans nest under one pool.arm span,
    // which nests under the pool.job span runJob put into
    // req.parentSpanId. Each hop rewrites parentSpanId so the
    // ResilientClient's attempts nest under the hop that ran them.
    const bool traced =
        spans != nullptr && (req.traceIdHi != 0 || req.traceIdLo != 0);
    const bool sampled = (req.traceFlags & kTraceSampled) != 0;
    const std::uint64_t armSpan = traced ? newSpanId() : 0;
    const std::uint64_t tArm0 = traced ? monotonicNowUs() : 0;
    SubmitRunRequest hopReq;
    if (traced)
        hopReq = req;
    const SubmitRunRequest &sendReq = traced ? hopReq : req;
    const auto rec = [&](SpanKind kind, std::uint64_t span_id,
                         std::uint64_t parent, std::uint64_t t0,
                         std::uint64_t a0, bool err) {
        if (!traced || !(sampled || err))
            return;
        SpanRecord sp;
        sp.traceHi = req.traceIdHi;
        sp.traceLo = req.traceIdLo;
        sp.spanId = span_id;
        sp.parentId = parent;
        sp.startUs = t0;
        sp.endUs = monotonicNowUs();
        sp.arg0 = a0;
        sp.kind = kind;
        sp.flags = static_cast<std::uint8_t>(
            (sampled ? kSpanSampled : 0) | (err ? kSpanError : 0));
        spans->record(sp);
    };

    for (std::size_t step = first_owner; step < owners.size();
         ++step) {
        if (ctx->cancel.load(std::memory_order_relaxed))
            break;
        const std::size_t shard = owners[step];
        // The hedge arm starts one owner past the primary; both arms
        // may converge on the same tail shard, which is harmless —
        // the daemon coalesces the duplicate.
        if (!shardUp(shard) && step + 1 < owners.size())
            continue;
        last_shard = shard;

        ClientConfig cc = cfg.client;
        cc.host = eps[shard].host;
        cc.port = eps[shard].port;
        RetryPolicy rp = cfg.retry;
        // Decorrelate the two arms' jitter streams.
        rp.jitterSeed ^= (static_cast<std::uint64_t>(shard) << 32) ^
                         (is_hedge ? 0x9E3779B9ULL : 0);
        ResilientClient rc(cc, rp);
        if (traced)
            rc.setSpanSink(spans);
        const std::uint64_t hopSpan = traced ? newSpanId() : 0;
        if (traced)
            hopReq.parentSpanId = hopSpan;
        const std::uint64_t tHop0 = traced ? monotonicNowUs() : 0;

        AttemptStats st;
        try {
            const auto t0 = Clock::now();
            JobResultReply reply =
                rc.runJob(sendReq, &st, &ctx->cancel);
            attempts += st.attempts;
            noteShardSuccess(shard);
            recordLatencyMs(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0)
                    .count());
            rec(SpanKind::PoolHop, hopSpan, armSpan, tHop0, shard,
                false);
            rec(SpanKind::PoolArm, armSpan, req.parentSpanId, tArm0,
                is_hedge ? 1 : 0, false);

            std::lock_guard<std::mutex> lock(ctx->mu);
            --ctx->armsLive;
            if (!ctx->done) {
                ctx->done = true;
                ctx->out.ok = true;
                ctx->out.reply = std::move(reply);
                ctx->out.shard = shard;
                ctx->out.attempts += attempts;
                ctx->out.failovers += failovers;
                if (is_hedge)
                    ctx->out.hedgeWon = true;
                ctx->cancel.store(true, std::memory_order_relaxed);
                ctx->cv.notify_all();
            }
            {
                std::lock_guard<std::mutex> slock(mu);
                counters.retries += st.retries;
            }
            return;
        } catch (const ServeError &e) {
            attempts += st.attempts;
            {
                std::lock_guard<std::mutex> slock(mu);
                counters.retries += st.retries;
            }
            if (e.kind() == ServeErrorKind::Cancelled) {
                // Losing a hedge race is not an error worth keeping.
                rec(SpanKind::PoolHop, hopSpan, armSpan, tHop0, shard,
                    false);
                break;
            }
            rec(SpanKind::PoolHop, hopSpan, armSpan, tHop0, shard,
                true);
            last_kind = e.kind();
            last_code = e.code();
            last_error = e.what();
            // Hard connection trouble: mark the shard suspect so the
            // ring stops routing to it before the next probe tick.
            if (e.kind() == ServeErrorKind::RetriesExhausted ||
                e.kind() == ServeErrorKind::ConnectFailed)
                noteShardFailure(shard);
            if (step + 1 < owners.size()) {
                ++failovers;
                std::lock_guard<std::mutex> slock(mu);
                ++counters.failovers;
            }
        }
    }

    // The arm ended without publishing a result: cancelled (hedge
    // loser, err=false) or every shard failed (err=true).
    rec(SpanKind::PoolArm, armSpan, req.parentSpanId, tArm0,
        is_hedge ? 1 : 0,
        !ctx->cancel.load(std::memory_order_relaxed));

    std::lock_guard<std::mutex> lock(ctx->mu);
    --ctx->armsLive;
    ctx->out.attempts += attempts;
    ctx->out.failovers += failovers;
    if (!ctx->done && ctx->armsLive == 0) {
        // Every arm failed: publish the last failure as the outcome.
        ctx->done = true;
        ctx->out.ok = false;
        ctx->out.shard = last_shard;
        ctx->out.errorKind = last_kind;
        ctx->out.errorCode = last_code;
        ctx->out.error = std::move(last_error);
        ctx->cv.notify_all();
    }
}

PoolOutcome
ShardPool::runJob(const SubmitRunRequest &req)
{
    reapFinishedArms();

    // Tracing: both arms see this job's pool.job span as their
    // parent; the umbrella itself is recorded once the outcome is
    // known (sampled, or tail-kept when the whole job failed).
    const bool traced =
        spans != nullptr && (req.traceIdHi != 0 || req.traceIdLo != 0);
    const bool sampled = (req.traceFlags & kTraceSampled) != 0;
    const std::uint64_t poolSpan = traced ? newSpanId() : 0;
    const std::uint64_t tJob0 = traced ? monotonicNowUs() : 0;
    SubmitRunRequest preq = req;
    if (traced)
        preq.parentSpanId = poolSpan;

    const std::vector<std::size_t> owners =
        ring.owners(cacheKey(req), eps.size());
    auto ctx = std::make_shared<JobCtx>();
    ctx->armsLive = 1;

    std::thread primary_arm([this, preq, owners, ctx] {
        runArm(preq, owners, 0, false, ctx);
    });

    const bool can_hedge = cfg.hedgeEnabled && owners.size() > 1;
    const std::uint32_t hedge_delay = currentHedgeDelayMs();
    std::thread hedge_arm;

    {
        std::unique_lock<std::mutex> lock(ctx->mu);
        if (can_hedge) {
            const bool finished = ctx->cv.wait_for(
                lock, std::chrono::milliseconds(hedge_delay),
                [&] { return ctx->done; });
            if (!finished) {
                ctx->out.hedged = true;
                ++ctx->armsLive;
                {
                    std::lock_guard<std::mutex> slock(mu);
                    ++counters.hedgesFired;
                }
                hedge_arm = std::thread([this, preq, owners, ctx] {
                    runArm(preq, owners, 1, true, ctx);
                });
            }
        }
        ctx->cv.wait(lock, [&] { return ctx->done; });
    }

    // The winner returned; the loser notices ctx->cancel within one
    // poll quantum. Park its thread for the reaper instead of
    // blocking this caller on the join.
    auto park = [this](std::thread &t) {
        if (!t.joinable())
            return;
        std::lock_guard<std::mutex> lock(armsMu);
        arms.push_back(std::move(t));
    };

    PoolOutcome out;
    int live = 0;
    {
        std::lock_guard<std::mutex> lock(ctx->mu);
        out = ctx->out;
        live = ctx->armsLive;
    }
    if (live <= 0 || !out.ok) {
        // No live loser: join both arms inline (cheap, already done).
        if (primary_arm.joinable())
            primary_arm.join();
        if (hedge_arm.joinable())
            hedge_arm.join();
    } else {
        park(primary_arm);
        park(hedge_arm);
    }

    {
        std::lock_guard<std::mutex> lock(mu);
        ++counters.jobs;
        if (out.hedged && out.hedgeWon)
            ++counters.hedgesWon;
    }

    if (traced && (sampled || !out.ok)) {
        SpanRecord sp;
        sp.traceHi = req.traceIdHi;
        sp.traceLo = req.traceIdLo;
        sp.spanId = poolSpan;
        sp.parentId = req.parentSpanId;
        sp.startUs = tJob0;
        sp.endUs = monotonicNowUs();
        sp.arg0 = out.shard;
        sp.kind = SpanKind::PoolJob;
        sp.flags = static_cast<std::uint8_t>(
            (sampled ? kSpanSampled : 0) |
            (out.ok ? 0 : kSpanError));
        spans->record(sp);
    }
    return out;
}

} // namespace chameleon::serve
