#include "serve/protocol.hh"

#include <bit>
#include <cstring>

namespace chameleon::serve
{

const char *
errCodeLabel(ErrCode code)
{
    switch (code) {
      case ErrCode::None:
        return "none";
      case ErrCode::Malformed:
        return "malformed";
      case ErrCode::BadVersion:
        return "bad-version";
      case ErrCode::Oversized:
        return "oversized";
      case ErrCode::UnknownType:
        return "unknown-type";
      case ErrCode::BadRequest:
        return "bad-request";
      case ErrCode::Busy:
        return "busy";
      case ErrCode::Draining:
        return "draining";
      case ErrCode::UnknownJob:
        return "unknown-job";
      case ErrCode::Internal:
        return "internal";
    }
    return "?";
}

const char *
jobStateLabel(JobState state)
{
    switch (state) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Ok:
        return "ok";
      case JobState::Degraded:
        return "degraded";
      case JobState::Failed:
        return "failed";
      case JobState::TimedOut:
        return "timeout";
    }
    return "?";
}

bool
jobStateTerminal(JobState state)
{
    return state == JobState::Ok || state == JobState::Degraded ||
           state == JobState::Failed || state == JobState::TimedOut;
}

namespace
{

void
putU16(std::vector<std::uint8_t> &buf, std::uint16_t v)
{
    buf.push_back(static_cast<std::uint8_t>(v));
    buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &buf, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    return v;
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(
        p[0] | (static_cast<std::uint16_t>(p[1]) << 8));
}

} // namespace

std::vector<std::uint8_t>
encodeFrame(MsgType type, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> out;
    out.reserve(kFrameHeaderBytes + payload.size());
    putU32(out, kFrameMagic);
    putU16(out, kProtocolVersion);
    putU16(out, static_cast<std::uint16_t>(type));
    putU32(out, static_cast<std::uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    return out;
}

FrameStatus
decodeFrame(const std::uint8_t *data, std::size_t size, Frame &frame,
            std::size_t &consumed)
{
    if (size < kFrameHeaderBytes) {
        // Even a partial header can already prove the stream is not
        // ours: check the magic bytes we do have.
        for (std::size_t i = 0; i < size && i < 4; ++i) {
            const auto expect =
                static_cast<std::uint8_t>(kFrameMagic >> (8 * i));
            if (data[i] != expect)
                return FrameStatus::BadMagic;
        }
        return FrameStatus::NeedMore;
    }
    if (getU32(data) != kFrameMagic)
        return FrameStatus::BadMagic;
    if (getU16(data + 4) != kProtocolVersion)
        return FrameStatus::BadVersion;
    const std::uint32_t len = getU32(data + 8);
    if (len > kMaxPayloadBytes)
        return FrameStatus::Oversized;
    if (size < kFrameHeaderBytes + len)
        return FrameStatus::NeedMore;
    frame.type = static_cast<MsgType>(getU16(data + 6));
    frame.payload.assign(data + kFrameHeaderBytes,
                         data + kFrameHeaderBytes + len);
    consumed = kFrameHeaderBytes + len;
    return FrameStatus::Ok;
}

void
WireWriter::u16(std::uint16_t v)
{
    putU16(buf, v);
}

void
WireWriter::u32(std::uint32_t v)
{
    putU32(buf, v);
}

void
WireWriter::u64(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
WireWriter::f64(double v)
{
    u64(std::bit_cast<std::uint64_t>(v));
}

void
WireWriter::str(std::string_view s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    buf.insert(buf.end(), s.begin(), s.end());
}

bool
WireReader::take(std::size_t n, const std::uint8_t *&out)
{
    if (!good || remaining < n) {
        good = false;
        return false;
    }
    out = p;
    p += n;
    remaining -= n;
    return true;
}

bool
WireReader::u8(std::uint8_t &v)
{
    const std::uint8_t *q;
    if (!take(1, q))
        return false;
    v = q[0];
    return true;
}

bool
WireReader::u16(std::uint16_t &v)
{
    const std::uint8_t *q;
    if (!take(2, q))
        return false;
    v = getU16(q);
    return true;
}

bool
WireReader::u32(std::uint32_t &v)
{
    const std::uint8_t *q;
    if (!take(4, q))
        return false;
    v = getU32(q);
    return true;
}

bool
WireReader::u64(std::uint64_t &v)
{
    const std::uint8_t *q;
    if (!take(8, q))
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(q[i]) << (8 * i);
    return true;
}

bool
WireReader::f64(double &v)
{
    std::uint64_t bits;
    if (!u64(bits))
        return false;
    v = std::bit_cast<double>(bits);
    return true;
}

bool
WireReader::str(std::string &s)
{
    std::uint32_t len;
    if (!u32(len))
        return false;
    if (len > kMaxStringBytes) {
        good = false;
        return false;
    }
    const std::uint8_t *q;
    if (!take(len, q))
        return false;
    s.assign(reinterpret_cast<const char *>(q), len);
    return true;
}

std::vector<std::uint8_t>
encodeSubmitRun(const SubmitRunRequest &m)
{
    WireWriter w;
    w.str(m.design);
    w.str(m.app);
    w.u64(m.seed);
    w.u64(m.scale);
    w.u64(m.instrPerCore);
    w.u64(m.minRefsPerCore);
    w.f64(m.faultRate);
    w.f64(m.faultStuck);
    w.f64(m.faultSpikes);
    w.u8(m.oracle ? 1 : 0);
    w.u8(m.noCache ? 1 : 0);
    w.u32(m.deadlineMs);
    w.u64(m.traceIdHi);
    w.u64(m.traceIdLo);
    w.u64(m.parentSpanId);
    w.u8(m.traceFlags);
    return w.take();
}

bool
decodeSubmitRun(const std::vector<std::uint8_t> &p, SubmitRunRequest &m)
{
    WireReader r(p);
    std::uint8_t oracle = 0;
    std::uint8_t no_cache = 0;
    const bool ok = r.str(m.design) && r.str(m.app) && r.u64(m.seed) &&
                    r.u64(m.scale) && r.u64(m.instrPerCore) &&
                    r.u64(m.minRefsPerCore) && r.f64(m.faultRate) &&
                    r.f64(m.faultStuck) && r.f64(m.faultSpikes) &&
                    r.u8(oracle) && r.u8(no_cache) &&
                    r.u32(m.deadlineMs) && r.u64(m.traceIdHi) &&
                    r.u64(m.traceIdLo) && r.u64(m.parentSpanId) &&
                    r.u8(m.traceFlags);
    m.oracle = oracle != 0;
    m.noCache = no_cache != 0;
    return ok && r.atEnd();
}

std::vector<std::uint8_t>
encodeSubmitReply(const SubmitRunReply &m)
{
    WireWriter w;
    w.u64(m.jobId);
    w.u32(m.queueDepth);
    w.u64(m.serverNowUs);
    w.u64(m.serverId);
    return w.take();
}

bool
decodeSubmitReply(const std::vector<std::uint8_t> &p, SubmitRunReply &m)
{
    WireReader r(p);
    return r.u64(m.jobId) && r.u32(m.queueDepth) &&
           r.u64(m.serverNowUs) && r.u64(m.serverId) && r.atEnd();
}

std::vector<std::uint8_t>
encodeJobStatus(const JobStatusRequest &m)
{
    WireWriter w;
    w.u64(m.jobId);
    return w.take();
}

bool
decodeJobStatus(const std::vector<std::uint8_t> &p, JobStatusRequest &m)
{
    WireReader r(p);
    return r.u64(m.jobId) && r.atEnd();
}

std::vector<std::uint8_t>
encodeJobStatusReply(const JobStatusReply &m)
{
    WireWriter w;
    w.u64(m.jobId);
    w.u8(static_cast<std::uint8_t>(m.state));
    w.f64(m.wallSeconds);
    return w.take();
}

bool
decodeJobStatusReply(const std::vector<std::uint8_t> &p,
                     JobStatusReply &m)
{
    WireReader r(p);
    std::uint8_t state = 0;
    const bool ok =
        r.u64(m.jobId) && r.u8(state) && r.f64(m.wallSeconds);
    if (!ok || !r.atEnd() || state > 5)
        return false;
    m.state = static_cast<JobState>(state);
    return true;
}

std::vector<std::uint8_t>
encodeJobResult(const JobResultRequest &m)
{
    WireWriter w;
    w.u64(m.jobId);
    w.u32(m.waitMs);
    return w.take();
}

bool
decodeJobResult(const std::vector<std::uint8_t> &p, JobResultRequest &m)
{
    WireReader r(p);
    return r.u64(m.jobId) && r.u32(m.waitMs) && r.atEnd();
}

void
fillResultReply(JobResultReply &reply, const RunResult &result)
{
    reply.ipc = result.ipcGeoMean;
    reply.hitRate = result.stackedHitRate;
    reply.amal = result.amal;
    reply.cacheModeFraction = result.cacheModeFraction;
    reply.cpuUtilization = result.cpuUtilization;
    reply.swaps = result.swaps;
    reply.fills = result.fills;
    reply.majorFaults = result.majorFaults;
    reply.minorFaults = result.minorFaults;
    reply.instructions = result.instructions;
    reply.memRefs = result.memRefs;
    reply.makespan = result.makespan;
    reply.eccCorrected = result.eccCorrected;
    reply.eccUncorrectable = result.eccUncorrectable;
    reply.faultSpikes = result.faultSpikes;
    reply.faultTimeouts = result.faultTimeouts;
    reply.retiredSegments = result.retiredSegments;
    reply.retiredBytes = result.retiredBytes;
    reply.degradedCycles = result.degradedCycles;
}

std::vector<std::uint8_t>
encodeJobResultReply(const JobResultReply &m)
{
    WireWriter w;
    w.u64(m.jobId);
    w.u8(static_cast<std::uint8_t>(m.state));
    w.str(m.error);
    w.f64(m.wallSeconds);
    w.f64(m.ipc);
    w.f64(m.hitRate);
    w.f64(m.amal);
    w.f64(m.cacheModeFraction);
    w.f64(m.cpuUtilization);
    w.u64(m.swaps);
    w.u64(m.fills);
    w.u64(m.majorFaults);
    w.u64(m.minorFaults);
    w.u64(m.instructions);
    w.u64(m.memRefs);
    w.u64(m.makespan);
    w.u64(m.eccCorrected);
    w.u64(m.eccUncorrectable);
    w.u64(m.faultSpikes);
    w.u64(m.faultTimeouts);
    w.u64(m.retiredSegments);
    w.u64(m.retiredBytes);
    w.u64(m.degradedCycles);
    w.u8(m.cacheFlags);
    w.u64(m.traceIdHi);
    w.u64(m.traceIdLo);
    return w.take();
}

bool
decodeJobResultReply(const std::vector<std::uint8_t> &p,
                     JobResultReply &m)
{
    WireReader r(p);
    std::uint8_t state = 0;
    const bool ok =
        r.u64(m.jobId) && r.u8(state) && r.str(m.error) &&
        r.f64(m.wallSeconds) && r.f64(m.ipc) && r.f64(m.hitRate) &&
        r.f64(m.amal) && r.f64(m.cacheModeFraction) &&
        r.f64(m.cpuUtilization) && r.u64(m.swaps) && r.u64(m.fills) &&
        r.u64(m.majorFaults) && r.u64(m.minorFaults) &&
        r.u64(m.instructions) && r.u64(m.memRefs) &&
        r.u64(m.makespan) && r.u64(m.eccCorrected) &&
        r.u64(m.eccUncorrectable) && r.u64(m.faultSpikes) &&
        r.u64(m.faultTimeouts) && r.u64(m.retiredSegments) &&
        r.u64(m.retiredBytes) && r.u64(m.degradedCycles) &&
        r.u8(m.cacheFlags) && r.u64(m.traceIdHi) &&
        r.u64(m.traceIdLo);
    if (!ok || !r.atEnd() || state > 5)
        return false;
    m.state = static_cast<JobState>(state);
    return true;
}

std::vector<std::uint8_t>
encodeStatsReply(const StatsReply &m)
{
    WireWriter w;
    // The stats exposition may exceed kMaxStringBytes, so it
    // travels as raw bytes bounded by the frame cap instead of a
    // length-checked string field.
    w.u32(static_cast<std::uint32_t>(m.text.size()));
    std::vector<std::uint8_t> out = w.take();
    out.insert(out.end(), m.text.begin(), m.text.end());
    return out;
}

bool
decodeStatsReply(const std::vector<std::uint8_t> &p, StatsReply &m)
{
    WireReader r(p);
    std::uint32_t len;
    if (!r.u32(len) || len != p.size() - 4)
        return false;
    m.text.assign(reinterpret_cast<const char *>(p.data()) + 4, len);
    return true;
}

std::vector<std::uint8_t>
encodeHealthReply(const HealthReply &m)
{
    WireWriter w;
    w.u8(m.state);
    w.u64(m.uptimeMs);
    w.u32(m.queuedJobs);
    w.u32(m.runningJobs);
    w.u64(m.acceptedJobs);
    w.u64(m.completedJobs);
    return w.take();
}

bool
decodeHealthReply(const std::vector<std::uint8_t> &p, HealthReply &m)
{
    WireReader r(p);
    return r.u8(m.state) && r.u64(m.uptimeMs) &&
           r.u32(m.queuedJobs) && r.u32(m.runningJobs) &&
           r.u64(m.acceptedJobs) && r.u64(m.completedJobs) &&
           r.atEnd();
}

std::vector<std::uint8_t>
encodeDrainReply(const DrainReply &m)
{
    WireWriter w;
    w.u32(m.remainingJobs);
    return w.take();
}

bool
decodeDrainReply(const std::vector<std::uint8_t> &p, DrainReply &m)
{
    WireReader r(p);
    return r.u32(m.remainingJobs) && r.atEnd();
}

std::vector<std::uint8_t>
encodeError(const ErrorReply &m)
{
    WireWriter w;
    w.u16(static_cast<std::uint16_t>(m.code));
    w.str(m.message);
    w.u32(m.retryAfterMs);
    return w.take();
}

bool
decodeError(const std::vector<std::uint8_t> &p, ErrorReply &m)
{
    WireReader r(p);
    std::uint16_t code = 0;
    if (!r.u16(code) || !r.str(m.message) ||
        !r.u32(m.retryAfterMs) || !r.atEnd() || code > 9)
        return false;
    m.code = static_cast<ErrCode>(code);
    return true;
}

} // namespace chameleon::serve
