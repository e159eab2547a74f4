#include "obs/span.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <random>

#include "common/json.hh"
#include "common/log.hh"
#include "common/rng.hh"

namespace chameleon
{
namespace
{

/** Process-wide id generator: a random base (so concurrent
 *  processes do not collide) advanced by an atomic counter and
 *  finalized through SplitMix64. */
std::uint64_t
nextUniqueId()
{
    static const std::uint64_t base = [] {
        std::random_device rd;
        return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    }();
    static std::atomic<std::uint64_t> counter{0};
    std::uint64_t id = 0;
    while (id == 0) {
        std::uint64_t state = base + ++counter;
        id = splitMix64(state);
    }
    return id;
}

} // namespace

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
    case SpanKind::CtlRequest: return "ctl.request";
    case SpanKind::PoolJob: return "pool.job";
    case SpanKind::PoolArm: return "pool.arm";
    case SpanKind::PoolHop: return "pool.hop";
    case SpanKind::ClientAttempt: return "client.attempt";
    case SpanKind::ClientBackoff: return "client.backoff";
    case SpanKind::SrvJob: return "srv.job";
    case SpanKind::SrvDecode: return "srv.decode";
    case SpanKind::SrvAdmission: return "srv.admission";
    case SpanKind::SrvCache: return "srv.cache";
    case SpanKind::SrvQueueWait: return "srv.queue_wait";
    case SpanKind::SrvSimulate: return "srv.simulate";
    case SpanKind::SrvEncode: return "srv.encode";
    }
    return "span.unknown";
}

std::uint64_t
monotonicNowUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::uint64_t
newSpanId()
{
    return nextUniqueId();
}

void
newTraceId(std::uint64_t &hi, std::uint64_t &lo)
{
    hi = nextUniqueId();
    lo = nextUniqueId();
}

std::string
hexU64(std::uint64_t v)
{
    return strFormat("%016" PRIx64, v);
}

std::string
hexTraceId(std::uint64_t hi, std::uint64_t lo)
{
    return hexU64(hi) + hexU64(lo);
}

bool
parseHexU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty() || s.size() > 16)
        return false;
    std::uint64_t v = 0;
    for (char c : s) {
        std::uint64_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<std::uint64_t>(c - 'A') + 10;
        else
            return false;
        v = (v << 4) | digit;
    }
    out = v;
    return true;
}

SpanSink::SpanSink(const SpanSinkConfig &config)
    : cfg(config), rings(config.ringSpans)
{
    if (cfg.ringSpans == 0)
        fatal("span: ring capacity must be non-zero");
}

void
SpanSink::noteClockOffset(std::uint64_t server_id,
                          std::int64_t offset_us, std::uint64_t rtt_us)
{
    if (server_id == 0)
        return;
    std::lock_guard<std::mutex> guard(metaMtx);
    auto it = offsets.find(server_id);
    if (it == offsets.end() || rtt_us < it->second.rttUs)
        offsets[server_id] = OffsetEstimate{offset_us, rtt_us};
}

void
SpanSink::setServerId(std::uint64_t server_id)
{
    std::lock_guard<std::mutex> guard(metaMtx);
    serverId = server_id;
}

std::vector<SpanRecord>
SpanSink::sortedSpans() const
{
    std::vector<SpanRecord> all;
    rings.forEachRetained(
        [&all](std::size_t, const SpanRecord &sp) { all.push_back(sp); });
    std::stable_sort(all.begin(), all.end(),
                     [](const SpanRecord &a, const SpanRecord &b) {
                         return a.startUs < b.startUs;
                     });
    return all;
}

std::string
SpanSink::toPerfettoJson() const
{
    const std::vector<SpanRecord> all = sortedSpans();
    const SpanSinkStats s = stats();

    std::map<std::uint64_t, OffsetEstimate> offsetsCopy;
    std::uint64_t serverIdCopy = 0;
    {
        std::lock_guard<std::mutex> guard(metaMtx);
        offsetsCopy = offsets;
        serverIdCopy = serverId;
    }

    std::string out;
    out.reserve(all.size() * 200 + 512);
    out += "{\"traceEvents\":[";
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
           "\"tid\":0,\"args\":{\"name\":";
    out += jsonQuote(cfg.process);
    out += "}}";
    for (const SpanRecord &sp : all) {
        out += ",\n{\"name\":";
        out += jsonQuote(spanKindName(sp.kind));
        const std::uint64_t dur =
            sp.endUs >= sp.startUs ? sp.endUs - sp.startUs : 0;
        out += strFormat(
            ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":%" PRIu64
            ",\"dur\":%" PRIu64 ",\"pid\":0,\"tid\":0,\"args\":{",
            sp.startUs, dur);
        out += "\"trace\":\"" + hexTraceId(sp.traceHi, sp.traceLo);
        out += "\",\"span\":\"" + hexU64(sp.spanId);
        out += "\",\"parent\":\"" + hexU64(sp.parentId);
        out += strFormat("\",\"v\":%" PRIu64 ",\"err\":%u}}",
                         sp.arg0,
                         (sp.flags & kSpanError) ? 1u : 0u);
    }
    out += "],\n\"displayTimeUnit\":\"ms\",\"otherData\":{";
    out += "\"process\":" + jsonQuote(cfg.process);
    if (serverIdCopy != 0)
        out += ",\"server_id\":\"" + hexU64(serverIdCopy) + "\"";
    out += ",\"clock_offsets\":{";
    bool first = true;
    for (const auto &kv : offsetsCopy) {
        if (!first)
            out += ",";
        first = false;
        out += "\"" + hexU64(kv.first) + "\":";
        out += strFormat("{\"offset_us\":%lld,\"rtt_us\":%" PRIu64 "}",
                         static_cast<long long>(kv.second.offsetUs),
                         kv.second.rttUs);
    }
    out += strFormat("},\"spans_recorded\":%" PRIu64
                     ",\"spans_dropped\":%" PRIu64 "}}\n",
                     s.recorded, s.dropped);
    return out;
}

void
SpanSink::writePerfettoJson(const std::string &path) const
{
    writeWholeFile(path, toPerfettoJson(), "span");
}

} // namespace chameleon
