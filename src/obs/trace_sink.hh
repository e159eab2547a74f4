/**
 * @file
 * TraceSink — the event collector of the observability layer.
 *
 * Events go into a ThreadRings<TraceEvent> (obs/thread_rings.hh):
 * one lock-free overwrite-oldest ring per producing thread. A full
 * ring keeps the tail of a run, which is what a debugging session
 * needs, and the overwritten events are counted, never silently
 * hidden.
 *
 * Export produces Chrome trace-event JSON (the format Perfetto and
 * chrome://tracing load): instant events per TraceKind, plus counter
 * tracks ("ph":"C") for the periodic metric samples. Events from all
 * thread buffers are merged and sorted by timestamp so the exported
 * stream is monotonic regardless of buffer interleaving.
 *
 * Instrumentation sites hold a `TraceSink *` that is null when no
 * sink is attached; the disabled path is a single branch on that
 * pointer (see TraceSink::emit), keeping instrumented hot loops
 * within noise of the uninstrumented build.
 *
 * A sink may be shared by several single-producer threads and
 * stats() may run beside them, but export/dump must run after the
 * producers have quiesced — one sink per sweep cell in practice.
 */

#ifndef CHAMELEON_OBS_TRACE_SINK_HH
#define CHAMELEON_OBS_TRACE_SINK_HH

#include <string>
#include <vector>

#include "obs/thread_rings.hh"
#include "obs/trace_event.hh"

namespace chameleon
{

/** Sink tuning. */
struct TraceSinkConfig
{
    /** Events kept per producing thread (ring capacity). */
    std::size_t ringEvents = 1u << 16;
    /**
     * Cycles per exported microsecond ("ts" field). The default is
     * the simulator's 3.6GHz CPU clock, so one trace microsecond is
     * one simulated microsecond.
     */
    double cyclesPerMicrosecond = 3600.0;
};

/** Total event accounting. */
using TraceSinkStats = ThreadRingStats;

/** The event collector. */
class TraceSink
{
  public:
    explicit TraceSink(const TraceSinkConfig &config = TraceSinkConfig());

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Record one event (lock-free after this thread's first call). */
    void
    record(Cycle when, TraceKind kind, std::uint64_t a0 = 0,
           std::uint64_t a1 = 0, std::uint64_t a2 = 0)
    {
        rings.push(TraceEvent{when, kind, a0, a1, a2});
    }

    /**
     * Null-safe recording helper for instrumentation sites: compiles
     * to one branch when @p sink is null (tracing disabled).
     */
    static void
    emit(TraceSink *sink, Cycle when, TraceKind kind,
         std::uint64_t a0 = 0, std::uint64_t a1 = 0,
         std::uint64_t a2 = 0)
    {
        if (sink) [[unlikely]]
            sink->record(when, kind, a0, a1, a2);
    }

    /** Record one counter sample (Chrome counter track). */
    void
    recordCounter(Cycle when, TraceKind kind, double value)
    {
        record(when, kind, traceEncodeValue(value));
    }

    /** Aggregate accounting over every thread buffer; safe while
     *  producers record. */
    TraceSinkStats stats() const { return rings.stats(); }

    /**
     * All retained events, merged across thread buffers and sorted by
     * timestamp (ties keep buffer order). Producers must be quiescent.
     */
    std::vector<TraceEvent> sortedEvents() const;

    /** Serialize to Chrome trace-event JSON. */
    std::string toChromeJson() const;

    /** Write toChromeJson() to @p path (fatal on I/O error). */
    void writeChromeJson(const std::string &path) const;

    /**
     * Dump (to stderr) the most recent @p n events whose arg0 names
     * segment group @p group — plus, for context, any non-group
     * event in the same window — most recent last. Used by the
     * invariant checker to show what led up to a violation.
     */
    void dumpRecentForGroup(std::uint64_t group, std::size_t n = 64)
        const;

  private:
    TraceSinkConfig cfg;
    ThreadRings<TraceEvent> rings;
};

/**
 * Per-cell output path for sweep grids: inserts ".<cell>.<design>.
 * <app>" before the extension of @p base so every cell of a --trace
 * or --metrics sweep writes its own file. Label characters outside
 * [A-Za-z0-9._-] become '-'.
 */
std::string perCellObsPath(const std::string &base, std::size_t cell,
                           const std::string &design,
                           const std::string &app);

} // namespace chameleon

#endif // CHAMELEON_OBS_TRACE_SINK_HH
