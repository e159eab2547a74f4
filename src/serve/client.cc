#include "serve/client.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/log.hh"
#include "obs/span.hh"
#include "serve/net_util.hh"

namespace chameleon::serve
{

const char *
serveErrorKindLabel(ServeErrorKind kind)
{
    switch (kind) {
    case ServeErrorKind::ConnectFailed: return "connect-failed";
    case ServeErrorKind::SendFailed: return "send-failed";
    case ServeErrorKind::Timeout: return "timeout";
    case ServeErrorKind::Disconnected: return "disconnected";
    case ServeErrorKind::ProtocolError: return "protocol-error";
    case ServeErrorKind::ServerError: return "server-error";
    case ServeErrorKind::RetriesExhausted: return "retries-exhausted";
    case ServeErrorKind::Cancelled: return "cancelled";
    }
    return "unknown";
}

Client::Client(ClientConfig config) : cfg(std::move(config)) {}

Client::~Client() { close(); }

void
Client::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
    rxBuf.clear();
}

void
Client::fail(ServeErrorKind kind, const std::string &what)
{
    close();
    throw ServeError(kind, ErrCode::None,
                     std::string(serveErrorKindLabel(kind)) + ": " + what);
}

void
Client::connect()
{
    if (fd >= 0)
        return;

    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        fail(ServeErrorKind::ConnectFailed,
             strFormat("socket(): %s", std::strerror(errno)));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(cfg.port);
    if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1)
        fail(ServeErrorKind::ConnectFailed,
             strFormat("bad host '%s'", cfg.host.c_str()));

    // Non-blocking connect + poll so a dead host honours
    // connectTimeoutMs instead of the kernel's multi-minute default.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

    int rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    if (rc < 0 && errno != EINPROGRESS)
        fail(ServeErrorKind::ConnectFailed,
             strFormat("connect(%s:%u): %s", cfg.host.c_str(),
                       unsigned(cfg.port), std::strerror(errno)));

    if (rc < 0) {
        pollfd pfd{fd, POLLOUT, 0};
        rc = ::poll(&pfd, 1, cfg.connectTimeoutMs);
        if (rc == 0)
            fail(ServeErrorKind::ConnectFailed,
                 strFormat("connect(%s:%u): timed out after %d ms",
                           cfg.host.c_str(), unsigned(cfg.port),
                           cfg.connectTimeoutMs));
        int soErr = 0;
        socklen_t len = sizeof(soErr);
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soErr, &len);
        if (rc < 0 || soErr != 0)
            fail(ServeErrorKind::ConnectFailed,
                 strFormat("connect(%s:%u): %s", cfg.host.c_str(),
                           unsigned(cfg.port),
                           std::strerror(soErr ? soErr : errno)));
    }

    ::fcntl(fd, F_SETFL, flags);
    setNoDelay(fd);
    setIoTimeout(fd, cfg.ioTimeoutMs);
}

Frame
Client::readFrame(int budget_ms)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(budget_ms);
    std::uint8_t chunk[16384];
    for (;;) {
        Frame frame;
        std::size_t consumed = 0;
        switch (decodeFrame(rxBuf.data(), rxBuf.size(), frame,
                            consumed)) {
        case FrameStatus::Ok:
            rxBuf.erase(rxBuf.begin(),
                        rxBuf.begin() +
                            static_cast<std::ptrdiff_t>(consumed));
            return frame;
        case FrameStatus::NeedMore:
            break;
        case FrameStatus::BadMagic:
        case FrameStatus::BadVersion:
        case FrameStatus::Oversized:
            fail(ServeErrorKind::ProtocolError,
                 "server sent an undecodable frame");
        }

        if (std::chrono::steady_clock::now() >= deadline)
            fail(ServeErrorKind::Timeout,
                 strFormat("no reply within %d ms", budget_ms));

        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                fail(ServeErrorKind::Timeout,
                     strFormat("receive timed out (%d ms budget)",
                               budget_ms));
            fail(ServeErrorKind::Disconnected,
                 strFormat("recv(): %s", std::strerror(errno)));
        }
        if (n == 0)
            fail(ServeErrorKind::Disconnected,
                 "server closed the connection");
        rxBuf.insert(rxBuf.end(), chunk, chunk + n);
    }
}

Frame
Client::roundTrip(MsgType type, const std::vector<std::uint8_t> &payload,
                  int extra_wait_ms)
{
    connect();

    // A peer that restarted between requests surfaces here as EPIPE
    // or ECONNRESET. fail() closes the socket, so the next request on
    // this Client reconnects lazily — one typed error per restart,
    // never a poisoned connection.
    const auto bytes = encodeFrame(type, payload);
    if (!sendAll(fd, bytes.data(), bytes.size()))
        fail(ServeErrorKind::SendFailed,
             strFormat("send(): %s", std::strerror(errno)));

    // Lengthen the socket timeout for calls the server may park
    // (JobResult with waitMs); restore it afterwards.
    const int budget = cfg.ioTimeoutMs + extra_wait_ms;
    if (extra_wait_ms > 0)
        setIoTimeout(fd, budget);
    Frame reply = readFrame(budget);
    if (extra_wait_ms > 0)
        setIoTimeout(fd, cfg.ioTimeoutMs);

    if (reply.type == MsgType::Error) {
        ErrorReply err;
        if (!decodeError(reply.payload, err))
            fail(ServeErrorKind::ProtocolError,
                 "undecodable Error frame");
        throw ServeError(
            ServeErrorKind::ServerError, err.code,
            strFormat("server error %s: %s", errCodeLabel(err.code),
                      err.message.c_str()),
            err.retryAfterMs);
    }
    return reply;
}

namespace
{

/** Reply frames must carry the expected type and decode cleanly. A
 *  mismatch means the stream is desynced (e.g. a stale or duplicated
 *  frame), so the connection is closed — the next request on this
 *  Client reconnects onto a clean stream. */
template <typename Reply, typename Decoder>
Reply
expectReply(Client &client, const Frame &frame, MsgType want,
            Decoder decode)
{
    Reply reply{};
    if (frame.type != want || !decode(frame.payload, reply)) {
        client.close();
        throw ServeError(ServeErrorKind::ProtocolError, ErrCode::None,
                         "protocol-error: unexpected reply frame");
    }
    return reply;
}

} // namespace

SubmitRunReply
Client::submitRun(const SubmitRunRequest &req)
{
    // Bracket the round trip so the serverNowUs echo becomes a clock
    // offset: at the round-trip midpoint the server stamped its
    // monotonic clock, so offset = serverNow − midpoint with an
    // error bounded by rtt/2.
    const std::uint64_t sentUs = monotonicNowUs();
    const Frame reply =
        roundTrip(MsgType::SubmitRun, encodeSubmitRun(req));
    const std::uint64_t recvUs = monotonicNowUs();
    SubmitRunReply out = expectReply<SubmitRunReply>(
        *this, reply, MsgType::SubmitReply, decodeSubmitReply);
    if (out.serverId != 0) {
        const std::int64_t midpoint = static_cast<std::int64_t>(
            sentUs + (recvUs - sentUs) / 2);
        lastSrvId = out.serverId;
        lastOffsetUs =
            static_cast<std::int64_t>(out.serverNowUs) - midpoint;
        lastRtt = recvUs - sentUs;
    }
    return out;
}

JobStatusReply
Client::status(std::uint64_t job_id)
{
    const Frame reply = roundTrip(
        MsgType::JobStatus, encodeJobStatus(JobStatusRequest{job_id}));
    return expectReply<JobStatusReply>(*this, reply,
                                       MsgType::JobStatusReply,
                                       decodeJobStatusReply);
}

JobResultReply
Client::result(std::uint64_t job_id, std::uint32_t wait_ms)
{
    const Frame reply = roundTrip(
        MsgType::JobResult,
        encodeJobResult(JobResultRequest{job_id, wait_ms}),
        static_cast<int>(wait_ms));
    return expectReply<JobResultReply>(*this, reply,
                                       MsgType::JobResultReply,
                                       decodeJobResultReply);
}

std::string
Client::statsText()
{
    const Frame reply = roundTrip(MsgType::Stats, {});
    const StatsReply m = expectReply<StatsReply>(
        *this, reply, MsgType::StatsReply, decodeStatsReply);
    return m.text;
}

HealthReply
Client::health()
{
    const Frame reply = roundTrip(MsgType::Health, {});
    return expectReply<HealthReply>(*this, reply, MsgType::HealthReply,
                                    decodeHealthReply);
}

DrainReply
Client::drain()
{
    const Frame reply = roundTrip(MsgType::Drain, {});
    return expectReply<DrainReply>(*this, reply, MsgType::DrainReply,
                                   decodeDrainReply);
}

void
Client::shutdown()
{
    const Frame reply = roundTrip(MsgType::Shutdown, {});
    if (reply.type != MsgType::ShutdownReply)
        fail(ServeErrorKind::ProtocolError,
             "unexpected reply to Shutdown");
}

} // namespace chameleon::serve
