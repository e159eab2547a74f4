/**
 * @file
 * chameleonctl — command-line client for a chameleond fleet.
 *
 *   chameleonctl --port N [--host H] [--timeout MS] <command> ...
 *   chameleonctl --ports N1,N2,N3 [--retries N] [--hedge-ms MS]
 *                [--no-hedge] [--trace-out PATH]
 *                [--trace-sample-pct P] submit ...
 *
 * Commands:
 *   submit --design D --app A [--seed N] [--scale N] [--instr N]
 *          [--refs N] [--faults R] [--fault-stuck F]
 *          [--fault-spikes R] [--oracle] [--deadline MS] [--wait MS]
 *          [--no-cache]
 *       Submit one run. With --wait, block for the result and print
 *       it as one JSON line. With --ports, the job is placed on its
 *       consistent-hash shard and driven by the resilient pool:
 *       transient failures retry with backoff, dead shards fail over
 *       along the ring, stragglers are hedged. The JSON line then
 *       carries "shard", "attempts", "failovers" and "hedged".
 *   status <jobid>      Print the job's state.
 *   result <jobid> [--wait MS]
 *   stats [--watch] [--interval-ms MS] [--count N]
 *       Print the Prometheus-style stats exposition: every daemon
 *       metric, queue-wait/service/e2e latency histograms
 *       (p50/p95/p99), span drop accounting, and the slow-request
 *       exemplars with their trace ids. With --ports, one section
 *       per shard. --watch refreshes every --interval-ms (default
 *       1000) until interrupted or --count snapshots were printed.
 *   health              Print daemon health.
 *   drain               Ask the daemon to refuse new jobs.
 *   shutdown            Ask the daemon to drain and exit.
 *
 * Tracing (--trace-out and/or --trace-sample-pct with submit): the
 * ctl mints a 128-bit trace id, opens a ctl.request root span and
 * propagates the context through the pool, the resilient clients and
 * the daemons (protocol v4). --trace-out writes this process's spans
 * as Perfetto JSON on exit — feed it with the daemons' --trace-out
 * files to trace_merge for one cross-process timeline. The sampled
 * flag is decided here (--trace-sample-pct, default 100 when tracing
 * is on); failed jobs keep their spans at every hop regardless. The
 * result JSON carries "trace_id" either way.
 *
 * Non-submit commands address a single daemon: the first --ports
 * entry (or --port).
 *
 * Exit codes:
 *   0 success (job finished ok)
 *   1 usage error
 *   2 connection / hard protocol / server error
 *   3 job failed or timed out server-side
 *   4 wait expired before a terminal state
 *   5 job finished degraded (faults retired capacity; stats valid)
 *   6 retries exhausted (every shard/attempt failed transiently)
 */

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "obs/span.hh"
#include "serve/client.hh"
#include "serve/pool.hh"
#include "serve/result_cache.hh"

namespace
{

using namespace chameleon;
using namespace chameleon::serve;

std::uint64_t
parseUnsigned(const char *flag, const char *raw)
{
    if (raw == nullptr)
        fatal("%s expects a value", flag);
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(raw, &end, 10);
    if (raw[0] == '-' || end == raw || *end != '\0' || errno == ERANGE)
        fatal("%s expects a non-negative integer, got '%s'", flag, raw);
    return v;
}

double
parseDouble(const char *flag, const char *raw)
{
    if (raw == nullptr)
        fatal("%s expects a value", flag);
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(raw, &end);
    if (end == raw || *end != '\0' || errno == ERANGE)
        fatal("%s expects a number, got '%s'", flag, raw);
    return v;
}

std::uint16_t
parsePort(const char *flag, const std::string &raw)
{
    const std::uint64_t v = parseUnsigned(flag, raw.c_str());
    if (v == 0 || v > 65535)
        fatal("%s: port must be in [1, 65535]", flag);
    return static_cast<std::uint16_t>(v);
}

/** One JSON line summarizing a result reply; @p outcome adds the
 *  pool's routing story when the job went through the fleet path. */
void
printResult(const JobResultReply &r, const PoolOutcome *outcome,
            const Endpoint *shard)
{
    std::string out = strFormat(
        "{\"job\":%llu,\"state\":%s,\"wall_s\":",
        static_cast<unsigned long long>(r.jobId),
        jsonQuote(jobStateLabel(r.state)).c_str());
    out += jsonNumber(r.wallSeconds, 6);
    if (r.cacheFlags & kResultFromCache)
        out += ",\"cached\":true";
    if (r.cacheFlags & kResultCoalesced)
        out += ",\"coalesced\":true";
    if (r.traceIdHi != 0 || r.traceIdLo != 0)
        out += ",\"trace_id\":" +
               jsonQuote(hexTraceId(r.traceIdHi, r.traceIdLo));
    if (shard != nullptr)
        out += ",\"shard\":" + jsonQuote(shard->label());
    if (outcome != nullptr) {
        out += strFormat(",\"attempts\":%u,\"failovers\":%u",
                         outcome->attempts, outcome->failovers);
        out += outcome->hedged ? ",\"hedged\":true"
                               : ",\"hedged\":false";
        if (outcome->hedgeWon)
            out += ",\"hedge_won\":true";
    }
    if (!r.error.empty())
        out += ",\"error\":" + jsonQuote(r.error);
    if (r.state == JobState::Ok || r.state == JobState::Degraded) {
        out += ",\"ipc\":" + jsonNumber(r.ipc, 6);
        out += ",\"hit_rate\":" + jsonNumber(r.hitRate, 6);
        out += ",\"amal\":" + jsonNumber(r.amal, 6);
        out += strFormat(
            ",\"instructions\":%llu,\"mem_refs\":%llu"
            ",\"swaps\":%llu,\"fills\":%llu",
            static_cast<unsigned long long>(r.instructions),
            static_cast<unsigned long long>(r.memRefs),
            static_cast<unsigned long long>(r.swaps),
            static_cast<unsigned long long>(r.fills));
        if (r.retiredSegments > 0 || r.eccUncorrectable > 0)
            out += strFormat(
                ",\"ecc_uncorrectable\":%llu,\"retired_segments\":%llu",
                static_cast<unsigned long long>(r.eccUncorrectable),
                static_cast<unsigned long long>(r.retiredSegments));
    }
    out += "}";
    std::printf("%s\n", out.c_str());
}

int
resultExitCode(const JobResultReply &r)
{
    if (r.state == JobState::Ok)
        return 0;
    if (r.state == JobState::Degraded)
        return 5;
    if (jobStateTerminal(r.state))
        return 3;
    return 4;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: chameleonctl --port N | --ports N1,N2,... [--host H] "
        "[--timeout MS] [--retries N] [--hedge-ms MS] [--no-hedge] "
        "[--trace-out PATH] [--trace-sample-pct P] "
        "<submit|status|result|stats|health|drain|shutdown> "
        "...\n");
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    ClientConfig ccfg;
    std::vector<Endpoint> endpoints;
    std::string host = "127.0.0.1";
    unsigned retries = 3;
    std::uint32_t hedgeMs = 0;
    bool hedge = true;
    std::string traceOut;
    double tracePct = 100.0;
    bool tracePctSet = false;
    int i = 1;

    // Global flags come before the command word.
    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *val = (i + 1 < argc) ? argv[i + 1] : nullptr;
        if (arg == "--port") {
            if (val == nullptr)
                fatal("--port expects a value");
            endpoints.push_back(Endpoint{host, parsePort("--port", val)});
            ++i;
        } else if (arg == "--ports") {
            if (val == nullptr)
                fatal("--ports expects a comma-separated list");
            std::string list = val;
            std::size_t pos = 0;
            while (pos <= list.size()) {
                const std::size_t comma = list.find(',', pos);
                const std::string one = list.substr(
                    pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
                if (!one.empty())
                    endpoints.push_back(
                        Endpoint{host, parsePort("--ports", one)});
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            ++i;
        } else if (arg == "--host") {
            if (val == nullptr)
                fatal("--host expects a value");
            host = val;
            for (Endpoint &ep : endpoints)
                ep.host = host;
            ++i;
        } else if (arg == "--timeout") {
            ccfg.ioTimeoutMs = static_cast<int>(
                parseUnsigned("--timeout", val));
            ++i;
        } else if (arg == "--retries") {
            retries = static_cast<unsigned>(
                parseUnsigned("--retries", val));
            ++i;
        } else if (arg == "--hedge-ms") {
            hedgeMs = static_cast<std::uint32_t>(
                parseUnsigned("--hedge-ms", val));
            ++i;
        } else if (arg == "--no-hedge") {
            hedge = false;
        } else if (arg == "--trace-out") {
            if (val == nullptr)
                fatal("--trace-out expects a path");
            traceOut = val;
            ++i;
        } else if (arg == "--trace-sample-pct") {
            const double v = parseDouble("--trace-sample-pct", val);
            if (!(v >= 0.0 && v <= 100.0))
                fatal("--trace-sample-pct must lie in [0, 100]");
            tracePct = v;
            tracePctSet = true;
            ++i;
        } else {
            break;
        }
    }

    if (i >= argc)
        return usage();
    if (endpoints.empty())
        fatal("--port or --ports is required (chameleond prints its "
              "port at startup)");
    ccfg.host = endpoints[0].host;
    ccfg.port = endpoints[0].port;

    const std::string cmd = argv[i++];

    try {
        if (cmd == "submit") {
            SubmitRunRequest req;
            std::uint32_t waitMs = 0;
            for (; i < argc; ++i) {
                const std::string arg = argv[i];
                const char *val = (i + 1 < argc) ? argv[i + 1] : nullptr;
                if (arg == "--design") {
                    if (val == nullptr)
                        fatal("--design expects a value");
                    req.design = val;
                    ++i;
                } else if (arg == "--app") {
                    if (val == nullptr)
                        fatal("--app expects a value");
                    req.app = val;
                    ++i;
                } else if (arg == "--seed") {
                    req.seed = parseUnsigned("--seed", val);
                    ++i;
                } else if (arg == "--scale") {
                    req.scale = parseUnsigned("--scale", val);
                    ++i;
                } else if (arg == "--instr") {
                    req.instrPerCore = parseUnsigned("--instr", val);
                    ++i;
                } else if (arg == "--refs") {
                    req.minRefsPerCore = parseUnsigned("--refs", val);
                    ++i;
                } else if (arg == "--faults") {
                    req.faultRate = parseDouble("--faults", val);
                    ++i;
                } else if (arg == "--fault-stuck") {
                    req.faultStuck = parseDouble("--fault-stuck", val);
                    ++i;
                } else if (arg == "--fault-spikes") {
                    req.faultSpikes = parseDouble("--fault-spikes", val);
                    ++i;
                } else if (arg == "--oracle") {
                    req.oracle = true;
                } else if (arg == "--no-cache") {
                    req.noCache = true;
                } else if (arg == "--deadline") {
                    req.deadlineMs = static_cast<std::uint32_t>(
                        parseUnsigned("--deadline", val));
                    ++i;
                } else if (arg == "--wait") {
                    waitMs = static_cast<std::uint32_t>(
                        parseUnsigned("--wait", val));
                    ++i;
                } else {
                    fatal("submit: unknown flag '%s'", arg.c_str());
                }
            }
            if (req.design.empty() || req.app.empty())
                fatal("submit requires --design and --app");

            // Tracing: mint the 128-bit context + ctl.request root
            // span here; every downstream hop (pool, resilient
            // client, daemon) nests under it. The local sink only
            // exists when --trace-out names a file — the sampled
            // flag travels on the wire either way, so daemons record
            // their side even when the ctl keeps nothing.
            const bool traced = !traceOut.empty() || tracePctSet;
            std::uint64_t ctlSpan = 0;
            bool sampledReq = false;
            std::unique_ptr<SpanSink> sink;
            if (traced) {
                newTraceId(req.traceIdHi, req.traceIdLo);
                ctlSpan = newSpanId();
                req.parentSpanId = ctlSpan;
                sampledReq =
                    static_cast<double>(req.traceIdLo % 10'000) <
                    tracePct * 100.0;
                if (sampledReq)
                    req.traceFlags |= kTraceSampled;
                if (!traceOut.empty()) {
                    SpanSinkConfig sc;
                    sc.process = "chameleonctl";
                    sink = std::make_unique<SpanSink>(sc);
                }
            }
            const std::uint64_t tRoot0 = monotonicNowUs();
            const auto recordRoot = [&](bool err) {
                if (!sink || !(sampledReq || err))
                    return;
                SpanRecord sp;
                sp.traceHi = req.traceIdHi;
                sp.traceLo = req.traceIdLo;
                sp.spanId = ctlSpan;
                sp.startUs = tRoot0;
                sp.endUs = monotonicNowUs();
                sp.kind = SpanKind::CtlRequest;
                sp.flags = static_cast<std::uint8_t>(
                    (sampledReq ? kSpanSampled : 0) |
                    (err ? kSpanError : 0));
                sink->record(sp);
            };
            const auto writeSink = [&] {
                if (!sink)
                    return;
                try {
                    sink->writePerfettoJson(traceOut);
                } catch (const std::exception &ex) {
                    std::fprintf(stderr,
                                 "chameleonctl: span export failed: "
                                 "%s\n",
                                 ex.what());
                }
            };

            // Consistent-hash placement even for fire-and-forget:
            // job ids are shard-local, so the caller must learn
            // which daemon owns the job.
            std::size_t shard = 0;
            if (endpoints.size() > 1) {
                std::vector<std::string> labels;
                labels.reserve(endpoints.size());
                for (const Endpoint &ep : endpoints)
                    labels.push_back(ep.label());
                shard = HashRing(labels).primary(cacheKey(req));
            }

            if (waitMs == 0) {
                ClientConfig one = ccfg;
                one.host = endpoints[shard].host;
                one.port = endpoints[shard].port;
                Client client(one);
                SubmitRunReply sub;
                try {
                    sub = client.submitRun(req);
                } catch (const ServeError &) {
                    recordRoot(true);
                    writeSink();
                    throw;
                }
                if (sink && client.lastServerId() != 0)
                    sink->noteClockOffset(client.lastServerId(),
                                          client.lastClockOffsetUs(),
                                          client.lastRttUs());
                recordRoot(false);
                writeSink();
                std::string line = strFormat(
                    "{\"job\":%llu,\"queue_depth\":%u,\"shard\":%s",
                    static_cast<unsigned long long>(sub.jobId),
                    unsigned(sub.queueDepth),
                    jsonQuote(endpoints[shard].label()).c_str());
                if (traced)
                    line += ",\"trace_id\":" +
                            jsonQuote(hexTraceId(req.traceIdHi,
                                                 req.traceIdLo));
                std::printf("%s}\n", line.c_str());
                return 0;
            }

            PoolConfig pc;
            pc.endpoints = endpoints;
            pc.client = ccfg;
            pc.retry.maxAttempts = retries + 1;
            pc.retry.deadlineMs = waitMs;
            // One-shot invocation: failover covers dead shards, so
            // skip the background prober thread.
            pc.probeIntervalMs = 0;
            pc.hedgeEnabled = hedge && endpoints.size() > 1;
            pc.hedgeDelayMs = hedgeMs;
            ShardPool pool(pc);
            if (sink)
                pool.setSpanSink(sink.get());
            const PoolOutcome out = pool.runJob(req);
            recordRoot(!out.ok);
            writeSink();
            if (!out.ok) {
                std::fprintf(
                    stderr,
                    "chameleonctl: %s (attempts %u, failovers %u, "
                    "trace %s)\n",
                    out.error.c_str(), out.attempts, out.failovers,
                    traced ? hexTraceId(req.traceIdHi, req.traceIdLo)
                                 .c_str()
                           : "off");
                return out.errorKind ==
                               ServeErrorKind::RetriesExhausted
                           ? 6
                           : 2;
            }
            printResult(out.reply, &out, &endpoints[out.shard]);
            return resultExitCode(out.reply);
        }

        Client client(ccfg);

        if (cmd == "status") {
            if (i >= argc)
                fatal("status requires a job id");
            const std::uint64_t id = parseUnsigned("status", argv[i]);
            const JobStatusReply s = client.status(id);
            std::printf("{\"job\":%llu,\"state\":%s,\"wall_s\":%s}\n",
                        static_cast<unsigned long long>(s.jobId),
                        jsonQuote(jobStateLabel(s.state)).c_str(),
                        jsonNumber(s.wallSeconds, 6).c_str());
            return 0;
        }

        if (cmd == "result") {
            if (i >= argc)
                fatal("result requires a job id");
            const std::uint64_t id = parseUnsigned("result", argv[i++]);
            std::uint32_t waitMs = 0;
            if (i < argc && std::string(argv[i]) == "--wait") {
                waitMs = static_cast<std::uint32_t>(parseUnsigned(
                    "--wait", (i + 1 < argc) ? argv[i + 1] : nullptr));
                i += 2;
            }
            const JobResultReply r = client.result(id, waitMs);
            printResult(r, nullptr, nullptr);
            return resultExitCode(r);
        }

        if (cmd == "stats") {
            bool watch = false;
            std::uint32_t intervalMs = 1'000;
            std::uint64_t count = 0; // 0 = until interrupted
            for (; i < argc; ++i) {
                const std::string arg = argv[i];
                const char *val =
                    (i + 1 < argc) ? argv[i + 1] : nullptr;
                if (arg == "--watch") {
                    watch = true;
                } else if (arg == "--interval-ms") {
                    intervalMs = static_cast<std::uint32_t>(
                        parseUnsigned("--interval-ms", val));
                    ++i;
                } else if (arg == "--count") {
                    count = parseUnsigned("--count", val);
                    ++i;
                } else {
                    fatal("stats: unknown flag '%s'", arg.c_str());
                }
            }
            for (std::uint64_t iter = 0;; ++iter) {
                if (watch && iter > 0)
                    std::printf("\033[2J\033[H"); // clear + home
                for (const Endpoint &ep : endpoints) {
                    ClientConfig one = ccfg;
                    one.host = ep.host;
                    one.port = ep.port;
                    Client shard_client(one);
                    if (endpoints.size() > 1)
                        std::printf("== %s ==\n", ep.label().c_str());
                    try {
                        std::printf(
                            "%s", shard_client.statsText().c_str());
                    } catch (const ServeError &ex) {
                        // One dead shard must not hide the others.
                        std::printf("# unreachable: %s\n", ex.what());
                    }
                }
                std::fflush(stdout);
                if (!watch || (count != 0 && iter + 1 >= count))
                    break;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(intervalMs));
            }
            return 0;
        }

        if (cmd == "health") {
            const HealthReply h = client.health();
            static const char *kStates[] = {"serving", "draining",
                                            "stopped"};
            const char *state =
                h.state < 3 ? kStates[h.state] : "unknown";
            std::printf(
                "{\"state\":\"%s\",\"uptime_ms\":%llu,\"queued\":%u,"
                "\"running\":%u,\"accepted\":%llu,\"completed\":%llu}\n",
                state, static_cast<unsigned long long>(h.uptimeMs),
                unsigned(h.queuedJobs), unsigned(h.runningJobs),
                static_cast<unsigned long long>(h.acceptedJobs),
                static_cast<unsigned long long>(h.completedJobs));
            return 0;
        }

        if (cmd == "drain") {
            const DrainReply d = client.drain();
            std::printf("{\"remaining_jobs\":%u}\n",
                        unsigned(d.remainingJobs));
            return 0;
        }

        if (cmd == "shutdown") {
            client.shutdown();
            std::printf("{\"shutdown\":true}\n");
            return 0;
        }
    } catch (const ServeError &ex) {
        std::fprintf(stderr, "chameleonctl: %s\n", ex.what());
        return 2;
    }

    std::fprintf(stderr, "chameleonctl: unknown command '%s'\n",
                 cmd.c_str());
    return usage();
}
