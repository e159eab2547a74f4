/**
 * @file
 * Blocking chameleond client: one TCP connection, one request/reply
 * frame exchange per call. Used by chameleonctl, the serve_load
 * bench, and the serve test suite.
 *
 * Every failure is a typed ServeError: connection-level problems
 * (ConnectFailed / SendFailed / Timeout / Disconnected /
 * ProtocolError) and server-side Error frames (the server's ErrCode
 * is preserved in ServeError::code). Callers that treat Busy or
 * Draining as expected outcomes catch the exception and inspect
 * kind()/code().
 *
 * A failed call closes the connection, so one Client object survives
 * a daemon restart: the failing request surfaces one typed
 * SendFailed/Disconnected error and the next request lazily
 * reconnects — callers never need to destroy and rebuild the Client.
 * For automatic backoff-retry on top of this, see
 * serve/resilient_client.hh.
 */

#ifndef CHAMELEON_SERVE_CLIENT_HH
#define CHAMELEON_SERVE_CLIENT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "serve/protocol.hh"

namespace chameleon::serve
{

struct ClientConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** TCP connect budget. */
    int connectTimeoutMs = 2'000;
    /**
     * Per-call send/receive budget. Calls that wait server-side
     * (JobResult with waitMs) get this added on top of the wait.
     */
    int ioTimeoutMs = 10'000;
};

/** Why a client call failed. */
enum class ServeErrorKind : std::uint8_t
{
    ConnectFailed,   ///< could not establish the TCP connection
    SendFailed,      ///< request never left: EPIPE/ECONNRESET on send
    Timeout,         ///< send/receive exceeded the io budget
    Disconnected,    ///< peer closed or reset mid-exchange
    ProtocolError,   ///< undecodable or unexpected reply frame
    ServerError,     ///< server answered with an Error frame (see code)
    RetriesExhausted,///< ResilientClient gave up (see nested message)
    Cancelled,       ///< a hedged twin won; this arm was abandoned
};

const char *serveErrorKindLabel(ServeErrorKind kind);

class ServeError : public std::runtime_error
{
  public:
    ServeError(ServeErrorKind kind, ErrCode code, const std::string &what,
               std::uint32_t retry_after_ms = 0)
        : std::runtime_error(what), errKind(kind), errCode(code),
          retryAfter(retry_after_ms)
    {
    }

    ServeErrorKind kind() const { return errKind; }
    /** Meaningful when kind() == ServerError; None otherwise. */
    ErrCode code() const { return errCode; }
    /** Server's retry-after hint in ms (Busy rejections); 0 = none. */
    std::uint32_t retryAfterMs() const { return retryAfter; }

  private:
    ServeErrorKind errKind;
    ErrCode errCode;
    std::uint32_t retryAfter;
};

class Client
{
  public:
    explicit Client(ClientConfig config);
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Establish the connection (idempotent). Every request method
     * calls this lazily, so an explicit connect() is only needed to
     * surface ConnectFailed eagerly.
     */
    void connect();

    bool connected() const { return fd >= 0; }

    void close();

    SubmitRunReply submitRun(const SubmitRunRequest &req);
    JobStatusReply status(std::uint64_t job_id);
    /** Prometheus-style stats exposition (see Server::statsText). */
    std::string statsText();
    /**
     * Fetch a job's result, blocking server-side up to @p wait_ms for
     * a terminal state. The reply's state may still be Queued/Running
     * when the wait expires — check jobStateTerminal().
     */
    JobResultReply result(std::uint64_t job_id,
                          std::uint32_t wait_ms = 0);
    HealthReply health();
    DrainReply drain();
    void shutdown();

    /**
     * Clock handshake learned from the last successful submitRun:
     * the server's instance id and its CLOCK_MONOTONIC offset
     * relative to this process (serverMono − localMono, µs,
     * estimated at the round-trip midpoint), plus the round-trip
     * time that bounds the estimate's error. serverId 0 = no
     * handshake yet.
     */
    std::uint64_t lastServerId() const { return lastSrvId; }
    std::int64_t lastClockOffsetUs() const { return lastOffsetUs; }
    std::uint64_t lastRttUs() const { return lastRtt; }

  private:
    /** Send one frame, read exactly one reply frame. */
    Frame roundTrip(MsgType type,
                    const std::vector<std::uint8_t> &payload,
                    int extra_wait_ms = 0);
    Frame readFrame(int budget_ms);
    [[noreturn]] void fail(ServeErrorKind kind, const std::string &what);

    ClientConfig cfg;
    int fd = -1;
    /** Bytes received but not yet consumed as a frame. */
    std::vector<std::uint8_t> rxBuf;
    std::uint64_t lastSrvId = 0;
    std::int64_t lastOffsetUs = 0;
    std::uint64_t lastRtt = 0;
};

} // namespace chameleon::serve

#endif // CHAMELEON_SERVE_CLIENT_HH
