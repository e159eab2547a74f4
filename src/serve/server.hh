/**
 * @file
 * chameleond's serving core: an epoll-driven TCP server that keeps a
 * warm simulator fleet behind the wire protocol of
 * serve/protocol.hh.
 *
 * Threading model (PR 7 replaced the thread-per-connection design):
 *  - ONE nonblocking I/O thread owns the listener, every connection,
 *    and an epoll instance: it accepts, reassembles frames from
 *    partial reads, dispatches complete frames, and flushes
 *    per-connection output queues. 1024 idle clients cost zero
 *    threads and zero syscalls.
 *  - a worker pool executing queued jobs, one System per job, exactly
 *    like SweepRunner cells. Workers never touch a socket: finished
 *    results are handed back to the I/O thread through a completion
 *    queue plus a wake pipe.
 *  - deadline reaping runs on the I/O thread's epoll tick: an
 *    overdue job is finalized as TimedOut right at its deadline, and
 *    if a worker is running it, that worker's stop flag is set (see
 *    StopScope in sim/system.hh). The simulation throws RunCancelled
 *    within stopPollRefs references, the worker discards that late
 *    outcome and takes the next job, so the pool keeps the size it
 *    had at start().
 *
 * Blocking JobResult waits are asynchronous server-side: a waiter
 * (connection, job, deadline) is parked in a table; the finalizing
 * thread queues the reply bytes and wakes the I/O thread. No thread
 * ever parks on behalf of a client.
 *
 * Slow clients get bounded backpressure: each connection owns an
 * output queue capped at ServerConfig::connBacklogBytes; a peer that
 * stops reading past that cap is dropped (counted in
 * stats().droppedSlowConns) and never stalls the event loop or other
 * connections.
 *
 * Result cache (serve/result_cache.hh): SubmitRun is content-
 * addressed. A hit finalizes the job immediately from the cached
 * frame (microseconds, no worker dispatch); a miss with an identical
 * job already in flight coalesces behind that leader (single-flight:
 * N concurrent twins run the simulation once); otherwise the job is
 * queued and its terminal Ok/Degraded result is inserted on
 * completion. SubmitRunRequest::noCache opts a job out of all three.
 *
 * Admission control is deadline-aware overload control, not a binary
 * full-queue check: the server keeps an EWMA of recent job service
 * times and estimates the queue wait a new job would see. A job whose
 * estimated wait already exceeds its deadline is rejected at the door
 * (counted in stats().admissionRejected) instead of burning a queue
 * slot on work that is guaranteed to time out. Every Busy reply —
 * admission or full-queue — carries a retry-after hint (ms) derived
 * from the same estimate, so clients back off for exactly as long as
 * the overload is expected to last. The daemon never queues
 * unboundedly and simulator work never runs on the I/O thread.
 *
 * Graceful drain (SIGTERM in chameleond, or a Drain/Shutdown frame):
 * new submissions are refused with Error{Draining}, every accepted
 * job — leaders and coalesced followers alike — still reaches a
 * terminal state, and status/result/metrics queries keep working.
 * stats().lostJobs() == 0 after a drain is the invariant the smoke
 * test and serve_load assert.
 */

#ifndef CHAMELEON_SERVE_SERVER_HH
#define CHAMELEON_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "obs/metrics_registry.hh"
#include "obs/span.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "sim/experiment.hh"

namespace chameleon::serve
{

struct ServerConfig
{
    /** TCP port on 127.0.0.1; 0 = ephemeral (read back via port()). */
    std::uint16_t port = 0;
    /** Worker threads executing jobs. */
    unsigned workers = 4;
    /** Pending-job bound; a full queue answers Busy. */
    std::size_t queueCapacity = 64;
    /** Default per-job deadline, ms (0 = none). */
    std::uint32_t defaultDeadlineMs = 0;
    /** Cap on a JobResult server-side wait. */
    std::uint32_t maxResultWaitMs = 60'000;
    /** Result-cache byte budget; 0 disables the cache. */
    std::size_t cacheBytes = 64u << 20;
    /** Per-connection output-queue cap; a slower reader is dropped. */
    std::size_t connBacklogBytes = 4u << 20;
    /**
     * Base simulation options; per-request fields (seed, scale,
     * instr, refs, fault rates, oracle) override these per job.
     */
    BenchOptions bench;
    /**
     * Test hook: replaces the simulator call for each job. Exceptions
     * thrown here surface as JobState::Failed.
     */
    std::function<RunResult(const SubmitRunRequest &)> runner;
    /**
     * Tail-sampling percentage [0, 100] applied to submissions that
     * arrive WITHOUT a trace context (the server mints one); requests
     * that carry a context keep the sampling decision their sender
     * made. Jobs ending Failed/TimedOut always flush their spans,
     * whatever this says.
     */
    double traceSamplePct = 0.0;
    /** Per-thread span-ring capacity (see obs/span.hh). */
    std::size_t spanRingSpans = 1u << 14;
};

enum class ServerStateKind : std::uint8_t
{
    Serving = 0,
    Draining = 1,
    Stopped = 2,
};

struct ServerStats
{
    std::uint64_t accepted = 0;
    std::uint64_t rejectedBusy = 0;
    /** Deadline-aware admission: queue-wait estimate already exceeds
     *  the job's deadline, so queueing it would only waste a slot. */
    std::uint64_t admissionRejected = 0;
    std::uint64_t rejectedDraining = 0;
    std::uint64_t rejectedInvalid = 0;
    std::uint64_t completedOk = 0;
    std::uint64_t completedDegraded = 0;
    std::uint64_t failed = 0;
    std::uint64_t timedOut = 0;
    std::uint64_t connections = 0;
    std::uint64_t framesRx = 0;
    std::uint64_t badFrames = 0;
    /** Connections dropped for exceeding connBacklogBytes. */
    std::uint64_t droppedSlowConns = 0;

    std::uint64_t
    terminal() const
    {
        return completedOk + completedDegraded + failed + timedOut;
    }

    /** Accepted jobs that never reached a terminal state. */
    std::uint64_t
    lostJobs() const
    {
        return accepted - terminal();
    }
};

class Server
{
  public:
    explicit Server(ServerConfig config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind 127.0.0.1:port, start the I/O thread and worker pool.
     * Throws std::runtime_error when the socket cannot be set up.
     */
    void start();

    /** Actual listening port (after start(); resolves port 0). */
    std::uint16_t port() const { return boundPort; }

    /** Refuse new submissions; accepted jobs keep running. */
    void requestDrain();

    /** True once every accepted job reached a terminal state. */
    bool drained() const;

    /** Block until drained() (jobs finish or hit their deadline). */
    void awaitDrained();

    /** True after a client sent Shutdown (daemon exits on this). */
    bool shutdownRequested() const
    {
        return shutdownFlag.load(std::memory_order_acquire);
    }

    ServerStateKind state() const
    {
        return stateFlag.load(std::memory_order_acquire);
    }

    /** Close the listener and every connection, join all threads. */
    void stop();

    ServerStats stats() const;

    /** Result-cache counters (hits/misses/coalesced/evictions/…). */
    ResultCache::Stats cacheStats() const { return cache.stats(); }

    const ServerConfig &config() const { return cfg; }

    /**
     * Prometheus-style text exposition: every registry metric, the
     * queue-wait / service / e2e latency histograms with p50/p95/p99
     * quantile lines, span-sink drop accounting, and the top-K
     * slow-request exemplars with their trace ids and stage
     * breakdown. Served over the wire as the Stats message.
     */
    std::string statsText();

    /** The daemon's span sink (valid after start()). */
    SpanSink *spanSink() { return spans.get(); }

    /** Random per-process instance id echoed in SubmitReply. */
    std::uint64_t serverId() const { return srvId; }

  private:
    using Clock = std::chrono::steady_clock;

    struct Job
    {
        std::uint64_t id = 0;
        SubmitRunRequest req;
        JobState state = JobState::Queued;
        std::string error;
        RunResult result;
        double wallSeconds = 0.0;
        std::uint32_t deadlineMs = 0;
        Clock::time_point acceptedAt{};
        Clock::time_point startedAt{};
        /** Stop flag of the worker running this job (while Running). */
        std::atomic<bool> *stop = nullptr;
        /** Cache bookkeeping (kResultFromCache/kResultCoalesced). */
        std::uint8_t cacheFlags = 0;
        std::uint64_t cacheKey = 0;
        /** True while this job owns the inflight[cacheKey] slot. */
        bool cacheLeader = false;
        /** May the terminal result be inserted into the cache? */
        bool cacheable = false;
        /** Coalesced twins finalized together with this leader. */
        std::vector<std::uint64_t> followers;

        // --- distributed tracing (v4) --------------------------------
        std::uint64_t traceHi = 0;
        std::uint64_t traceLo = 0;
        /** Requester's span this job's srv.job span nests under. */
        std::uint64_t parentSpan = 0;
        /** The srv.job umbrella span id; stage spans nest under it. */
        std::uint64_t srvSpanId = 0;
        /** SubmitRun frame arrival, monotonic µs. */
        std::uint64_t recvUs = 0;
        /** Sampling decision (sender's, or the server's for minted
         *  contexts); errors flush regardless. */
        bool sampled = false;
        /** Set by finalizeJob: spans went to the sink, so the encode
         *  stage may record directly. */
        bool traceFlushed = false;
        /** Stage spans buffered until the flush decision. */
        std::vector<SpanRecord> spanBuf;
    };

    /** One connection, owned exclusively by the I/O thread. */
    struct Conn
    {
        int fd = -1;
        std::vector<std::uint8_t> rx;
        /** Output frames not yet fully written. */
        std::deque<std::vector<std::uint8_t>> tx;
        /** Bytes of tx.front() already sent. */
        std::size_t txOffset = 0;
        /** Total unsent bytes across tx. */
        std::size_t txBytes = 0;
        /** EPOLLOUT currently armed. */
        bool wantWrite = false;
        /** Flush remaining tx, then close (protocol fatal). */
        bool closing = false;
    };

    /** A parked JobResult wait (guarded by mtx). */
    struct Waiter
    {
        int fd = -1;
        std::uint64_t jobId = 0;
        Clock::time_point deadline{};
    };

    // --- I/O thread -------------------------------------------------
    void ioLoop();
    void acceptReady();
    /** Returns false when the connection was closed. */
    bool readConn(Conn &conn);
    bool flushConn(Conn &conn);
    /** Queue reply bytes; may drop a slow peer. False = closed. */
    bool queueSend(Conn &conn, std::vector<std::uint8_t> bytes);
    void closeConn(int fd);
    void armWrite(Conn &conn, bool enable);
    /** Deliver worker-completed replies from ioQueue to conns. */
    void pumpCompletions();
    /** Wake the I/O thread's epoll_wait. */
    void wakeIo();

    // --- frame dispatch (I/O thread) --------------------------------
    /** Returns false when the connection was closed. */
    bool dispatchFrame(Conn &conn, const Frame &frame);
    std::vector<std::uint8_t> handleSubmit(const Frame &frame);
    std::vector<std::uint8_t> handleStatus(const Frame &frame);
    /** Empty return = parked as a waiter, reply comes later. */
    std::vector<std::uint8_t> handleResult(Conn &conn,
                                           const Frame &frame);
    std::vector<std::uint8_t> handleStats();
    std::vector<std::uint8_t> handleHealth();
    std::vector<std::uint8_t> handleDrain();
    std::vector<std::uint8_t> handleShutdown();

    // --- job machinery ----------------------------------------------
    void workerLoop();
    /** Enforce deadlines + expire waiters; I/O thread tick. */
    void reapOverdueJobs();
    RunResult executeJob(const SubmitRunRequest &req);
    /** Validate a submission; returns an error message or "". */
    std::string validateRequest(const SubmitRunRequest &req) const;
    /**
     * Caller holds mtx. Finalizes the job, releases its single-
     * flight slot, finalizes coalesced followers, inserts cacheable
     * results, and answers parked waiters via the completion queue.
     */
    void finalizeJob(Job &job, JobState state, RunResult result,
                     std::string error, double wall_seconds);
    /** Caller holds mtx: queue replies for waiters on @p job. */
    void answerWaiters(const Job &job);
    void registerMetrics();
    /**
     * Caller holds mtx. Feeds the latency histograms + slow-request
     * exemplars and, when the job is sampled or errored, flushes its
     * buffered stage spans plus synthesized queue-wait / simulate /
     * umbrella spans to the sink.
     */
    void recordJobObservability(Job &job);
    /** Record one srv.encode span if @p job's trace was flushed. */
    void recordEncodeSpan(const Job &job, std::uint64_t t0_us,
                          std::uint64_t t1_us);
    /**
     * Refresh metricShadow from live counters; returns the uptime in
     * ms. Called by statsText. Takes mtx then metricsMtx.
     */
    std::uint64_t refreshMetricShadow();

    JobResultReply buildResultReply(const Job &job) const;

    ServerConfig cfg;
    std::uint16_t boundPort = 0;
    int listenFd = -1;
    int epollFd = -1;
    /** Pipe used to wake the I/O thread's epoll_wait. */
    int wakePipe[2] = {-1, -1};

    std::atomic<ServerStateKind> stateFlag{ServerStateKind::Stopped};
    std::atomic<bool> stopFlag{false};
    std::atomic<bool> shutdownFlag{false};

    mutable std::mutex mtx;
    std::condition_variable cvWork;  ///< workers: pending available
    std::condition_variable cvJobs;  ///< waiters: job state changed
    std::map<std::uint64_t, Job> jobs;
    std::deque<std::uint64_t> pending;
    /** Single-flight: cache key -> leader job id. */
    std::unordered_map<std::uint64_t, std::uint64_t> inflight;
    std::vector<Waiter> waiters;
    std::uint64_t nextJobId = 1;
    unsigned runningJobs = 0;
    ServerStats counters;
    /**
     * EWMA of recent simulated-job service times (seconds), fed by
     * finalizeJob for real (non-cache-hit) completions; drives the
     * deadline-aware admission estimate. Guarded by mtx.
     */
    double ewmaServiceSec = 0.0;

    /**
     * Cross-thread completion channel: (fd, frame bytes) pairs the
     * I/O thread delivers on its next pass. Guarded by ioMtx; lock
     * order is mtx -> ioMtx, and the I/O thread never takes mtx
     * while holding ioMtx.
     */
    std::mutex ioMtx;
    std::deque<std::pair<int, std::vector<std::uint8_t>>> ioQueue;

    /** fd -> connection; touched only by the I/O thread. */
    std::unordered_map<int, Conn> conns;

    ResultCache cache;

    std::thread ioThread;
    std::vector<std::thread> workers;

    mutable std::mutex metricsMtx;
    MetricsRegistry registry;
    /** Values the registry getters read; refreshed in statsText. */
    std::vector<double> metricShadow;
    Clock::time_point startedAt{};

    // --- observability (v4) -----------------------------------------
    /** A completed request kept as a slow-request exemplar. */
    struct Exemplar
    {
        double e2eMs = 0.0;
        double queueMs = 0.0;
        double serviceMs = 0.0;
        std::uint64_t traceHi = 0;
        std::uint64_t traceLo = 0;
        std::uint64_t jobId = 0;
        std::string design;
        JobState state = JobState::Queued;
    };
    /** Top-K exemplars, sorted by e2eMs descending. */
    static constexpr std::size_t kMaxExemplars = 8;

    std::unique_ptr<SpanSink> spans;
    /** Random per-process id echoed in SubmitReply handshakes. */
    std::uint64_t srvId = 0;
    // Latency histograms + exemplars, guarded by mtx.
    Histogram queueWaitHist{1.0, 512};  ///< ms, 1 ms buckets
    Histogram serviceHist{1.0, 512};    ///< ms
    Histogram e2eHist{1.0, 512};        ///< ms
    std::vector<Exemplar> exemplars;
};

} // namespace chameleon::serve

#endif // CHAMELEON_SERVE_SERVER_HH
