/**
 * @file
 * Distributed-tracing spans for the serving fleet.
 *
 * A span is one timed stage of one request — a client attempt, a
 * pool hedge arm, the server's queue wait — tied to a 128-bit trace
 * id that travels across the wire (protocol v4) so every process
 * that touched a job tags its spans with the same id. Each process
 * records into a SpanSink (one branch on the serving hot paths when
 * tracing is off, a ring push when it is on) and flushes to its own
 * Perfetto JSON file. The trace_merge tool (src/obs/trace_merge.hh)
 * stitches those files into one cross-process timeline, correcting
 * clock skew from the handshake timestamp echo each SubmitRunReply
 * carries.
 *
 * Sampling contract: the *requester* decides the sampled flag
 * (protocol traceFlags bit 0) and every hop buffers its spans per
 * job, flushing them into the sink only when the job was sampled OR
 * ended in an error / deadline miss — so tail sampling catches every
 * failure even at --trace-sample-pct 0.
 */

#ifndef CHAMELEON_OBS_SPAN_HH
#define CHAMELEON_OBS_SPAN_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/thread_rings.hh"

namespace chameleon
{

/** Which stage of a request's life a span covers. */
enum class SpanKind : std::uint16_t
{
    CtlRequest = 0,    ///< client-side root: one user-visible request
    PoolJob = 1,       ///< ShardPool::runJob umbrella
    PoolArm = 2,       ///< one arm (primary or hedge) of a pool job
    PoolHop = 3,       ///< one failover hop (one shard) within an arm
    ClientAttempt = 4, ///< one ResilientClient attempt
    ClientBackoff = 5, ///< retry backoff sleep between attempts
    SrvJob = 6,        ///< server umbrella: accept to finalize
    SrvDecode = 7,     ///< frame decode + validation
    SrvAdmission = 8,  ///< deadline-aware admission decision
    SrvCache = 9,      ///< result-cache lookup / coalesce decision
    SrvQueueWait = 10, ///< accepted to worker pickup
    SrvSimulate = 11,  ///< the simulation itself
    SrvEncode = 12,    ///< result encode + reply
};

constexpr std::size_t spanKindCount = 13;

const char *spanKindName(SpanKind kind);

/** SpanRecord::flags bits. */
constexpr std::uint8_t kSpanSampled = 1u << 0;
constexpr std::uint8_t kSpanError = 1u << 1;

/**
 * One completed span. POD, fixed size: records into the sink ring
 * are single slot stores, never allocations.
 */
struct SpanRecord
{
    std::uint64_t traceHi = 0;
    std::uint64_t traceLo = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentId = 0; ///< 0 = root
    std::uint64_t startUs = 0;  ///< CLOCK_MONOTONIC, local clock
    std::uint64_t endUs = 0;
    std::uint64_t arg0 = 0; ///< kind-specific (shard, attempt, job id)
    SpanKind kind = SpanKind::CtlRequest;
    std::uint8_t flags = 0;
};

/** CLOCK_MONOTONIC now, in microseconds. */
std::uint64_t monotonicNowUs();

/** Process-unique non-zero span id (thread-safe). */
std::uint64_t newSpanId();

/** Fresh pseudo-random non-zero 128-bit trace id. */
void newTraceId(std::uint64_t &hi, std::uint64_t &lo);

/** Lower-case hex, zero-padded to 16 digits. */
std::string hexU64(std::uint64_t v);

/** 32-digit hex trace id (hi then lo). */
std::string hexTraceId(std::uint64_t hi, std::uint64_t lo);

/** Parse hexU64 output; returns false on malformed input. */
bool parseHexU64(const std::string &s, std::uint64_t &out);

struct SpanSinkConfig
{
    /** Per-thread ring capacity in spans; overwrite-oldest on wrap. */
    std::size_t ringSpans = 1u << 14;
    /** Label written as the Perfetto process_name ("chameleonctl",
     *  "chameleond:9731", ...). */
    std::string process = "chameleon";
};

using SpanSinkStats = ThreadRingStats;

/**
 * Per-process span collector over a ThreadRings<SpanRecord>
 * (obs/thread_rings.hh), overwrite-oldest so a hot server can never
 * block on tracing. Also the per-process aggregation point for the
 * clock offsets learned from SubmitRunReply timestamp echoes, so one
 * JSON file carries everything trace_merge needs.
 */
class SpanSink
{
  public:
    explicit SpanSink(const SpanSinkConfig &config = {});

    SpanSink(const SpanSink &) = delete;
    SpanSink &operator=(const SpanSink &) = delete;

    void record(const SpanRecord &span) { rings.push(span); }

    /** Null-safe helper so call sites stay one branch when off. */
    static void
    emit(SpanSink *sink, const SpanRecord &span)
    {
        if (sink)
            sink->record(span);
    }

    /**
     * Remember the clock offset of server @p serverId relative to
     * this process (serverMonoUs - localMonoUs, estimated at the
     * round trip midpoint). Keeps the estimate from the tightest
     * round trip seen — less queueing, less skew.
     */
    void noteClockOffset(std::uint64_t serverId,
                         std::int64_t offsetUs,
                         std::uint64_t rttUs);

    /** Mark this process as server @p serverId (written into the
     *  JSON metadata so client offset maps can find this file). */
    void setServerId(std::uint64_t serverId);

    /** Safe while producers record (the daemon scrapes it). */
    SpanSinkStats stats() const { return rings.stats(); }

    /** All retained spans, every ring, sorted by startUs. Producers
     *  must be quiescent. */
    std::vector<SpanRecord> sortedSpans() const;

    /** Perfetto/Chrome trace JSON: one complete-event ("ph":"X") per
     *  span plus process metadata, offsets map and drop counters. */
    std::string toPerfettoJson() const;
    void writePerfettoJson(const std::string &path) const;

  private:
    struct OffsetEstimate
    {
        std::int64_t offsetUs = 0;
        std::uint64_t rttUs = 0;
    };

    SpanSinkConfig cfg;
    ThreadRings<SpanRecord> rings;

    mutable std::mutex metaMtx;
    std::map<std::uint64_t, OffsetEstimate> offsets;
    std::uint64_t serverId = 0;
};

} // namespace chameleon

#endif // CHAMELEON_OBS_SPAN_HH
