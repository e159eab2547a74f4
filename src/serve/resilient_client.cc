#include "serve/resilient_client.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"

namespace chameleon::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Uniform double in [0, 1) from one SplitMix64 draw. */
double
u01(std::uint64_t &state)
{
    return static_cast<double>(splitMix64(state) >> 11) *
           (1.0 / 9007199254740992.0);
}

} // namespace

bool
serveErrorRetriable(const ServeError &e, const RetryPolicy &policy)
{
    switch (e.kind()) {
    case ServeErrorKind::ConnectFailed:
    case ServeErrorKind::SendFailed:
    case ServeErrorKind::Timeout:
    case ServeErrorKind::Disconnected:
        return true;
    // A desynced stream (e.g. a chaos-duplicated frame) is cured by
    // the reconnect the failed call already performed: the next
    // attempt starts on a clean stream.
    case ServeErrorKind::ProtocolError:
        return true;
    case ServeErrorKind::ServerError:
        switch (e.code()) {
        case ErrCode::Busy:
        case ErrCode::Internal:
            return true;
        // The daemon restarted and forgot the job id; resubmitting is
        // idempotent thanks to the content-addressed result cache.
        case ErrCode::UnknownJob:
            return true;
        case ErrCode::Draining:
            return policy.retryDraining;
        default:
            return false;
        }
    case ServeErrorKind::RetriesExhausted:
    case ServeErrorKind::Cancelled:
        return false;
    }
    return false;
}

std::uint32_t
retryBackoffMs(const RetryPolicy &policy, unsigned attempt,
               std::uint64_t &jitter_state)
{
    double backoff = static_cast<double>(policy.baseBackoffMs);
    for (unsigned i = 0; i < attempt; ++i)
        backoff *= policy.backoffMultiplier;
    backoff = std::min(backoff, static_cast<double>(policy.maxBackoffMs));
    if (policy.jitter > 0.0)
        backoff *= 1.0 - policy.jitter * u01(jitter_state);
    return static_cast<std::uint32_t>(std::max(backoff, 0.0));
}

ResilientClient::ResilientClient(ClientConfig client_config,
                                 RetryPolicy policy)
    : cli(std::move(client_config)), pol(policy),
      jitterState(policy.jitterSeed)
{
}

void
ResilientClient::interruptibleSleep(std::uint32_t ms,
                                    const std::atomic<bool> *cancel)
{
    constexpr std::uint32_t kSliceMs = 20;
    const auto until = Clock::now() + std::chrono::milliseconds(ms);
    while (Clock::now() < until) {
        if (cancel && cancel->load(std::memory_order_relaxed))
            throw ServeError(ServeErrorKind::Cancelled, ErrCode::None,
                             "cancelled: twin request finished first");
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<std::uint32_t>(kSliceMs, ms)));
    }
}

JobResultReply
ResilientClient::runJob(const SubmitRunRequest &req, AttemptStats *stats,
                        const std::atomic<bool> *cancel)
{
    const auto start = Clock::now();
    const bool bounded = pol.deadlineMs > 0;
    const auto deadline =
        start + std::chrono::milliseconds(pol.deadlineMs);

    auto remaining_ms = [&]() -> std::int64_t {
        if (!bounded)
            return std::numeric_limits<std::int64_t>::max();
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   deadline - Clock::now())
            .count();
    };
    auto check_cancel = [&] {
        if (cancel && cancel->load(std::memory_order_relaxed))
            throw ServeError(ServeErrorKind::Cancelled, ErrCode::None,
                             "cancelled: twin request finished first");
    };

    AttemptStats local;
    AttemptStats &s = stats ? *stats : local;
    s = AttemptStats{};

    // Tracing: spans buffer locally and flush only when the request
    // was sampled or this call ends in an error, so the unsampled
    // happy path never touches the sink rings. Each attempt rewrites
    // parentSpanId so the server's srv.job span nests under the
    // attempt that actually reached it.
    const bool traced =
        spans != nullptr && (req.traceIdHi != 0 || req.traceIdLo != 0);
    const bool sampled = (req.traceFlags & kTraceSampled) != 0;
    SubmitRunRequest tracedReq;
    if (traced)
        tracedReq = req;
    const SubmitRunRequest &sendReq = traced ? tracedReq : req;
    std::vector<SpanRecord> buf;
    const auto bufSpan = [&](SpanKind kind, std::uint64_t span_id,
                             std::uint64_t t0, std::uint64_t t1,
                             std::uint64_t a0, bool err) {
        if (!traced)
            return;
        SpanRecord sp;
        sp.traceHi = req.traceIdHi;
        sp.traceLo = req.traceIdLo;
        sp.spanId = span_id;
        sp.parentId = req.parentSpanId;
        sp.startUs = t0;
        sp.endUs = t1;
        sp.arg0 = a0;
        sp.kind = kind;
        sp.flags = static_cast<std::uint8_t>(
            (sampled ? kSpanSampled : 0) | (err ? kSpanError : 0));
        buf.push_back(sp);
    };
    const auto flush = [&](bool err) {
        if (!traced || !(sampled || err))
            return;
        for (const SpanRecord &sp : buf)
            spans->record(sp);
        buf.clear();
    };

    std::string last_error = "no attempt made";
    ErrCode last_code = ErrCode::None;
    const unsigned max_attempts = std::max(1u, pol.maxAttempts);

    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        check_cancel();
        if (remaining_ms() <= 0)
            break;
        ++s.attempts;
        if (attempt > 0)
            ++s.retries;
        const std::uint64_t attemptSpan = traced ? newSpanId() : 0;
        if (traced)
            tracedReq.parentSpanId = attemptSpan;
        const std::uint64_t tAttempt0 = monotonicNowUs();
        try {
            const SubmitRunReply submitted = cli.submitRun(sendReq);
            if (traced && cli.lastServerId() != 0)
                spans->noteClockOffset(cli.lastServerId(),
                                       cli.lastClockOffsetUs(),
                                       cli.lastRttUs());
            // Poll in short quanta so cancellation and the deadline
            // budget are honoured even while the job runs.
            for (;;) {
                check_cancel();
                const std::int64_t left = remaining_ms();
                if (left <= 0)
                    throw ServeError(
                        ServeErrorKind::Timeout, ErrCode::None,
                        strFormat("deadline budget of %u ms exhausted "
                                  "waiting for job %llu",
                                  pol.deadlineMs,
                                  static_cast<unsigned long long>(
                                      submitted.jobId)));
                const auto wait = static_cast<std::uint32_t>(
                    std::min<std::int64_t>(left, pol.pollQuantumMs));
                const JobResultReply reply =
                    cli.result(submitted.jobId, wait);
                if (jobStateTerminal(reply.state)) {
                    const bool err =
                        reply.state == JobState::Failed ||
                        reply.state == JobState::TimedOut;
                    bufSpan(SpanKind::ClientAttempt, attemptSpan,
                            tAttempt0, monotonicNowUs(), attempt,
                            err);
                    flush(err);
                    return reply;
                }
            }
        } catch (const ServeError &e) {
            bufSpan(SpanKind::ClientAttempt, attemptSpan, tAttempt0,
                    monotonicNowUs(), attempt,
                    e.kind() != ServeErrorKind::Cancelled);
            if (e.kind() == ServeErrorKind::Cancelled) {
                // A hedged twin won; not an error worth tail-keeping.
                flush(false);
                throw;
            }
            if (!serveErrorRetriable(e, pol)) {
                flush(true);
                throw;
            }
            last_error = e.what();
            last_code = e.code();
            if (attempt + 1 >= max_attempts)
                break;
            std::uint32_t backoff =
                retryBackoffMs(pol, attempt, jitterState);
            // The server knows when its overload clears; trust it.
            backoff = std::max(backoff, e.retryAfterMs());
            const std::int64_t left = remaining_ms();
            if (left <= 0)
                break;
            backoff = static_cast<std::uint32_t>(
                std::min<std::int64_t>(backoff, left));
            s.backoffMsTotal += backoff;
            const std::uint64_t tBackoff0 = monotonicNowUs();
            try {
                interruptibleSleep(backoff, cancel);
            } catch (const ServeError &) {
                flush(false); // cancelled mid-backoff
                throw;
            }
            bufSpan(SpanKind::ClientBackoff, traced ? newSpanId() : 0,
                    tBackoff0, monotonicNowUs(), backoff, false);
        }
    }

    flush(true);
    throw ServeError(
        ServeErrorKind::RetriesExhausted, last_code,
        strFormat("retries-exhausted after %u attempt(s): %s",
                  s.attempts, last_error.c_str()),
        0);
}

} // namespace chameleon::serve
