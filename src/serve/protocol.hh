/**
 * @file
 * Wire protocol for chameleond, the simulation-serving daemon.
 *
 * Every message travels as one length-prefixed binary frame:
 *
 *   offset  size  field
 *   0       4     magic 0x434D4844 ("CHMD" big-endian spelling;
 *                 encoded little-endian on the wire like every other
 *                 integer)
 *   4       2     protocol version (kProtocolVersion)
 *   6       2     message type (MsgType)
 *   8       4     payload length in bytes (<= kMaxPayloadBytes)
 *   12      n     payload
 *
 * All integers are little-endian, doubles are IEEE-754 bit patterns
 * carried in a u64, strings are a u32 byte length followed by raw
 * bytes (no NUL). Decoding is defensive end to end: a truncated,
 * oversized, wrong-magic or wrong-version frame is reported as a
 * typed status — never a crash, never an over-read — and per-message
 * decoders are bounds-checked cursor reads that fail cleanly on
 * malformed payloads.
 *
 * Request/reply pairs:
 *   SubmitRun      -> SubmitReply          (or Error: Busy/Draining/
 *                                           BadRequest)
 *   JobStatus      -> JobStatusReply       (or Error: UnknownJob)
 *   JobResult      -> JobResultReply       (or Error: UnknownJob);
 *                     waitMs > 0 blocks server-side until the job is
 *                     terminal or the wait expires (state then still
 *                     Queued/Running)
 *   Stats          -> StatsReply           (Prometheus text: every
 *                                           obs::MetricsRegistry
 *                                           metric, histograms and
 *                                           slow-request exemplars)
 *   Health         -> HealthReply
 *   Drain          -> DrainReply           (refuse new jobs, finish
 *                                           accepted ones)
 *   Shutdown       -> ShutdownReply        (drain, then exit)
 *
 * Fault-injected runs that retire segments or see uncorrectable ECC
 * finish as JobState::Degraded — a first-class terminal result with
 * full statistics, not a dropped connection.
 */

#ifndef CHAMELEON_SERVE_PROTOCOL_HH
#define CHAMELEON_SERVE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/system.hh"

namespace chameleon::serve
{

constexpr std::uint32_t kFrameMagic = 0x434D4844;
/** v2: SubmitRun carries a no_cache flag, JobResultReply carries
 *  cache flags (served-from-cache / coalesced).
 *  v3: Error frames carry a retry-after hint (ms) so Busy/overload
 *  rejections tell the client when another attempt can succeed.
 *  v4: SubmitRun carries a 128-bit trace context (trace id, parent
 *  span id, sampling flag); SubmitReply echoes the server's
 *  monotonic clock and instance id (clock-offset handshake for
 *  cross-process trace stitching); JobResultReply carries the trace
 *  id back; Stats/StatsReply expose a Prometheus-style snapshot. */
constexpr std::uint16_t kProtocolVersion = 4;
constexpr std::size_t kFrameHeaderBytes = 12;
/** Hard payload cap: anything larger is rejected before allocation. */
constexpr std::uint32_t kMaxPayloadBytes = 1u << 20;
/** Longest string any payload field may carry. */
constexpr std::uint32_t kMaxStringBytes = 4096;

enum class MsgType : std::uint16_t
{
    Error = 0,
    SubmitRun = 1,
    SubmitReply = 2,
    JobStatus = 3,
    JobStatusReply = 4,
    JobResult = 5,
    JobResultReply = 6,
    // 7 and 8 carried MetricsSnapshot / MetricsReply, a JSON copy of
    // what Stats exposes. They are retired and never to be reused: an
    // old client sending 7 gets an UnknownType error.
    Health = 9,
    HealthReply = 10,
    Drain = 11,
    DrainReply = 12,
    Shutdown = 13,
    ShutdownReply = 14,
    Stats = 15,
    StatsReply = 16,
};

/** Typed failure reasons carried by Error frames. */
enum class ErrCode : std::uint16_t
{
    None = 0,
    Malformed = 1,   ///< payload failed to decode
    BadVersion = 2,  ///< frame version != kProtocolVersion
    Oversized = 3,   ///< payload length exceeds kMaxPayloadBytes
    UnknownType = 4, ///< unrecognized MsgType
    BadRequest = 5,  ///< well-formed but semantically invalid
    Busy = 6,        ///< job queue full; retry later
    Draining = 7,    ///< daemon refuses new jobs while draining
    UnknownJob = 8,  ///< no such job id
    Internal = 9,    ///< server-side failure
};

const char *errCodeLabel(ErrCode code);

/** Lifecycle of one submitted run. */
enum class JobState : std::uint8_t
{
    Queued = 0,
    Running = 1,
    Ok = 2,
    Degraded = 3, ///< completed, but faults retired capacity / saw
                  ///< uncorrectable ECC (result stats still valid)
    Failed = 4,
    TimedOut = 5,
};

/** "queued" / "running" / "ok" / "degraded" / "failed" / "timeout". */
const char *jobStateLabel(JobState state);

bool jobStateTerminal(JobState state);

/** One decoded frame: type + raw payload bytes. */
struct Frame
{
    MsgType type = MsgType::Error;
    std::vector<std::uint8_t> payload;
};

/** Outcome of trying to decode one frame from a byte stream. */
enum class FrameStatus : std::uint8_t
{
    Ok,        ///< frame + consumed are valid
    NeedMore,  ///< prefix of a valid frame; read more bytes
    BadMagic,  ///< stream is not speaking this protocol
    BadVersion,///< speaker uses an unsupported protocol version
    Oversized, ///< declared payload exceeds kMaxPayloadBytes
};

/** Serialize one frame (header + payload). */
std::vector<std::uint8_t> encodeFrame(
    MsgType type, const std::vector<std::uint8_t> &payload);

/**
 * Try to decode one frame from @p data[0..size). On Ok, @p frame and
 * @p consumed are set. NeedMore means the buffer holds a valid prefix
 * only. BadMagic/BadVersion/Oversized mean the stream cannot be
 * trusted further (the caller should error out and close).
 */
FrameStatus decodeFrame(const std::uint8_t *data, std::size_t size,
                        Frame &frame, std::size_t &consumed);

/** Append-only little-endian payload builder. */
class WireWriter
{
  public:
    void u8(std::uint8_t v) { buf.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void f64(double v);
    /** u32 byte length + raw bytes. */
    void str(std::string_view s);

    std::vector<std::uint8_t> take() { return std::move(buf); }

  private:
    std::vector<std::uint8_t> buf;
};

/**
 * Bounds-checked little-endian payload cursor. Every read reports
 * success; after the first failure the reader stays failed.
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : p(data), remaining(size)
    {
    }

    explicit WireReader(const std::vector<std::uint8_t> &payload)
        : WireReader(payload.data(), payload.size())
    {
    }

    bool u8(std::uint8_t &v);
    bool u16(std::uint16_t &v);
    bool u32(std::uint32_t &v);
    bool u64(std::uint64_t &v);
    bool f64(double &v);
    /** Rejects lengths above kMaxStringBytes. */
    bool str(std::string &s);

    bool ok() const { return good; }
    /** True when the whole payload was consumed without error. */
    bool atEnd() const { return good && remaining == 0; }

  private:
    bool take(std::size_t n, const std::uint8_t *&out);

    const std::uint8_t *p;
    std::size_t remaining;
    bool good = true;
};

/** SubmitRun: one (design, app, seed, knobs) simulation job. */
struct SubmitRunRequest
{
    std::string design; ///< designLabel() spelling, e.g. "chameleon-opt"
    std::string app;    ///< Table II profile name, e.g. "stream"
    std::uint64_t seed = 1;
    std::uint64_t scale = 256;
    std::uint64_t instrPerCore = 50'000;
    std::uint64_t minRefsPerCore = 2'000;
    double faultRate = 0.0;
    double faultStuck = 0.0;
    double faultSpikes = 0.0;
    bool oracle = false;
    /**
     * Bypass the server's result cache for this job: always run the
     * simulation, never insert the outcome. Deliberately excluded
     * from the cache key — it steers serving, not simulation.
     */
    bool noCache = false;
    /** Per-job wall-clock deadline, ms; 0 = server default. */
    std::uint32_t deadlineMs = 0;

    /**
     * Distributed-trace context (v4). All zero = untraced request;
     * the server then mints its own trace id so exemplars stay
     * addressable. Like noCache, deliberately excluded from the
     * result-cache key — it steers observability, not simulation.
     */
    std::uint64_t traceIdHi = 0;
    std::uint64_t traceIdLo = 0;
    std::uint64_t parentSpanId = 0;
    /** Bit 0: sampled — every hop flushes this job's spans. */
    std::uint8_t traceFlags = 0;
};

/** SubmitRunRequest::traceFlags bit 0. */
constexpr std::uint8_t kTraceSampled = 1;

struct SubmitRunReply
{
    std::uint64_t jobId = 0;
    /** Pending jobs ahead of this one at acceptance. */
    std::uint32_t queueDepth = 0;
    /** Server CLOCK_MONOTONIC at accept, µs — the timestamp echo
     *  clients turn into a per-server clock offset. */
    std::uint64_t serverNowUs = 0;
    /** Random per-process server instance id; keys the offset in
     *  trace metadata even when a proxy hides the real port. */
    std::uint64_t serverId = 0;
};

struct JobStatusRequest
{
    std::uint64_t jobId = 0;
};

struct JobStatusReply
{
    std::uint64_t jobId = 0;
    JobState state = JobState::Queued;
    /** Wall-clock seconds spent so far (terminal: total). */
    double wallSeconds = 0.0;
};

struct JobResultRequest
{
    std::uint64_t jobId = 0;
    /** Block server-side up to this long for a terminal state. */
    std::uint32_t waitMs = 0;
};

/** JobResultReply::cacheFlags bits. */
constexpr std::uint8_t kResultFromCache = 1; ///< answered by cache hit
constexpr std::uint8_t kResultCoalesced = 2; ///< rode an in-flight twin

/** Terminal (or, after a wait expires, interim) job outcome. */
struct JobResultReply
{
    std::uint64_t jobId = 0;
    JobState state = JobState::Queued;
    std::string error; ///< Failed: exception message
    double wallSeconds = 0.0;

    /** RunResult scalars (meaningful for Ok/Degraded). */
    double ipc = 0.0;
    double hitRate = 0.0;
    double amal = 0.0;
    double cacheModeFraction = -1.0;
    double cpuUtilization = 0.0;
    std::uint64_t swaps = 0;
    std::uint64_t fills = 0;
    std::uint64_t majorFaults = 0;
    std::uint64_t minorFaults = 0;
    std::uint64_t instructions = 0;
    std::uint64_t memRefs = 0;
    std::uint64_t makespan = 0;
    std::uint64_t eccCorrected = 0;
    std::uint64_t eccUncorrectable = 0;
    std::uint64_t faultSpikes = 0;
    std::uint64_t faultTimeouts = 0;
    std::uint64_t retiredSegments = 0;
    std::uint64_t retiredBytes = 0;
    std::uint64_t degradedCycles = 0;
    /** kResultFromCache / kResultCoalesced provenance bits. */
    std::uint8_t cacheFlags = 0;
    /** Trace id the job ran under (v4): the submitted context, or
     *  the id the server minted for an untraced request. */
    std::uint64_t traceIdHi = 0;
    std::uint64_t traceIdLo = 0;
};

/** Copy the RunResult scalars into a reply. */
void fillResultReply(JobResultReply &reply, const RunResult &result);

struct StatsRequest
{
};

struct StatsReply
{
    /** Prometheus-style text exposition (see Server::statsText):
     *  registry metrics, latency histograms with p50/p95/p99,
     *  slow-request exemplars, span-sink drop counters. */
    std::string text;
};

struct HealthRequest
{
};

struct HealthReply
{
    std::uint8_t state = 0; ///< 0 serving, 1 draining, 2 stopped
    std::uint64_t uptimeMs = 0;
    std::uint32_t queuedJobs = 0;
    std::uint32_t runningJobs = 0;
    std::uint64_t acceptedJobs = 0;
    std::uint64_t completedJobs = 0;
};

struct DrainRequest
{
};

struct DrainReply
{
    /** Jobs still queued or running when the drain was requested. */
    std::uint32_t remainingJobs = 0;
};

struct ShutdownRequest
{
};

struct ShutdownReply
{
};

struct ErrorReply
{
    ErrCode code = ErrCode::None;
    std::string message;
    /**
     * For Busy (queue full or deadline-aware admission reject): the
     * server's estimate of how long until a retry can be admitted,
     * in milliseconds. 0 = no hint.
     */
    std::uint32_t retryAfterMs = 0;
};

/**
 * Per-message payload codecs. Encoders cannot fail; decoders return
 * false on any truncation, overlong string, or trailing garbage.
 */
std::vector<std::uint8_t> encodeSubmitRun(const SubmitRunRequest &m);
bool decodeSubmitRun(const std::vector<std::uint8_t> &p,
                     SubmitRunRequest &m);

std::vector<std::uint8_t> encodeSubmitReply(const SubmitRunReply &m);
bool decodeSubmitReply(const std::vector<std::uint8_t> &p,
                       SubmitRunReply &m);

std::vector<std::uint8_t> encodeJobStatus(const JobStatusRequest &m);
bool decodeJobStatus(const std::vector<std::uint8_t> &p,
                     JobStatusRequest &m);

std::vector<std::uint8_t> encodeJobStatusReply(const JobStatusReply &m);
bool decodeJobStatusReply(const std::vector<std::uint8_t> &p,
                          JobStatusReply &m);

std::vector<std::uint8_t> encodeJobResult(const JobResultRequest &m);
bool decodeJobResult(const std::vector<std::uint8_t> &p,
                     JobResultRequest &m);

std::vector<std::uint8_t> encodeJobResultReply(const JobResultReply &m);
bool decodeJobResultReply(const std::vector<std::uint8_t> &p,
                          JobResultReply &m);

std::vector<std::uint8_t> encodeStatsReply(const StatsReply &m);
bool decodeStatsReply(const std::vector<std::uint8_t> &p,
                      StatsReply &m);

std::vector<std::uint8_t> encodeHealthReply(const HealthReply &m);
bool decodeHealthReply(const std::vector<std::uint8_t> &p,
                       HealthReply &m);

std::vector<std::uint8_t> encodeDrainReply(const DrainReply &m);
bool decodeDrainReply(const std::vector<std::uint8_t> &p,
                      DrainReply &m);

std::vector<std::uint8_t> encodeError(const ErrorReply &m);
bool decodeError(const std::vector<std::uint8_t> &p, ErrorReply &m);

} // namespace chameleon::serve

#endif // CHAMELEON_SERVE_PROTOCOL_HH
