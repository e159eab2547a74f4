#include "sim/sweep_runner.hh"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/json.hh"
#include "common/log.hh"

namespace chameleon
{

const char *
cellStatusLabel(CellStatus status)
{
    switch (status) {
      case CellStatus::Ok:
        return "ok";
      case CellStatus::Failed:
        return "failed";
      case CellStatus::Timeout:
        return "timeout";
    }
    return "unknown";
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

namespace
{

/**
 * Checkpoint lines are whitespace-separated; labels containing
 * whitespace (or nothing at all) cannot round-trip, so such cells are
 * simply not persisted.
 */
bool
checkpointSafe(const std::string &label)
{
    if (label.empty())
        return false;
    for (char c : label)
        if (std::isspace(static_cast<unsigned char>(c)))
            return false;
    return true;
}

/** The header ties a checkpoint to one sweep configuration. */
std::string
checkpointHeader(const BenchOptions &opts)
{
    return strFormat(
        "chameleon-checkpoint v1 seed=%llu scale=%llu instr=%llu "
        "refs=%llu",
        static_cast<unsigned long long>(opts.seed),
        static_cast<unsigned long long>(opts.scale),
        static_cast<unsigned long long>(opts.instrPerCore),
        static_cast<unsigned long long>(opts.minRefsPerCore));
}

/** Sequential field reader over one checkpoint line. */
struct LineCursor
{
    const char *p;
    bool ok = true;

    void
    skipSpace()
    {
        while (*p == ' ' || *p == '\t')
            ++p;
    }

    std::string
    word()
    {
        skipSpace();
        const char *start = p;
        while (*p && *p != ' ' && *p != '\t')
            ++p;
        if (p == start)
            ok = false;
        return std::string(start, p);
    }

    std::uint64_t
    u64()
    {
        skipSpace();
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(p, &end, 0);
        if (end == p)
            ok = false;
        p = end;
        return v;
    }

    /** Doubles are stored as %a hexfloats and round-trip exactly. */
    double
    f64()
    {
        skipSpace();
        char *end = nullptr;
        const double v = std::strtod(p, &end);
        if (end == p)
            ok = false;
        p = end;
        return v;
    }
};

/**
 * Serialize one completed cell. The scalar order here and in
 * parseCheckpointCell must match; every floating-point field uses %a
 * so a resumed sweep reproduces bit-identical results (and therefore
 * byte-identical --json output).
 */
void
printCheckpointCell(std::FILE *f, std::size_t index,
                    const SweepRecord &rec)
{
    const RunResult &r = rec.result;
    std::fprintf(
        f,
        "cell %llu %s %s %a %a %a %llu %llu %a %a %llu %llu %a "
        "%llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
        "%llu %llu %llu %llu",
        static_cast<unsigned long long>(index), rec.design.c_str(),
        rec.app.c_str(), rec.wallSeconds, r.ipcGeoMean,
        r.stackedHitRate, static_cast<unsigned long long>(r.swaps),
        static_cast<unsigned long long>(r.fills), r.amal,
        r.cacheModeFraction,
        static_cast<unsigned long long>(r.majorFaults),
        static_cast<unsigned long long>(r.minorFaults),
        r.cpuUtilization,
        static_cast<unsigned long long>(r.instructions),
        static_cast<unsigned long long>(r.memRefs),
        static_cast<unsigned long long>(r.makespan),
        static_cast<unsigned long long>(r.oracleStores),
        static_cast<unsigned long long>(r.oracleLoadChecks),
        static_cast<unsigned long long>(r.oracleInvariantChecks),
        static_cast<unsigned long long>(r.oracleViolations),
        static_cast<unsigned long long>(r.eccCorrected),
        static_cast<unsigned long long>(r.eccUncorrectable),
        static_cast<unsigned long long>(r.faultSpikes),
        static_cast<unsigned long long>(r.faultTimeouts),
        static_cast<unsigned long long>(r.retiredSegments),
        static_cast<unsigned long long>(r.retiredBytes),
        static_cast<unsigned long long>(r.degradedCycles),
        static_cast<unsigned long long>(r.ipcPerCore.size()));
    for (double ipc : r.ipcPerCore)
        std::fprintf(f, " %a", ipc);
    std::fprintf(f, "\n");
}

/** Parse one "cell ..." line; returns false on any malformation. */
bool
parseCheckpointCell(const std::string &line, std::size_t &index,
                    SweepRecord &rec)
{
    LineCursor c{line.c_str()};
    if (c.word() != "cell")
        return false;
    index = c.u64();
    rec.design = c.word();
    rec.app = c.word();
    rec.wallSeconds = c.f64();
    RunResult &r = rec.result;
    r.ipcGeoMean = c.f64();
    r.stackedHitRate = c.f64();
    r.swaps = c.u64();
    r.fills = c.u64();
    r.amal = c.f64();
    r.cacheModeFraction = c.f64();
    r.majorFaults = c.u64();
    r.minorFaults = c.u64();
    r.cpuUtilization = c.f64();
    r.instructions = c.u64();
    r.memRefs = c.u64();
    r.makespan = c.u64();
    r.oracleStores = c.u64();
    r.oracleLoadChecks = c.u64();
    r.oracleInvariantChecks = c.u64();
    r.oracleViolations = c.u64();
    r.eccCorrected = c.u64();
    r.eccUncorrectable = c.u64();
    r.faultSpikes = c.u64();
    r.faultTimeouts = c.u64();
    r.retiredSegments = c.u64();
    r.retiredBytes = c.u64();
    r.degradedCycles = c.u64();
    const std::uint64_t n_ipc = c.u64();
    if (!c.ok || n_ipc > 4096)
        return false;
    r.ipcPerCore.resize(n_ipc);
    for (std::uint64_t i = 0; i < n_ipc; ++i)
        r.ipcPerCore[i] = c.f64();
    if (!c.ok)
        return false;
    rec.status = CellStatus::Ok;
    rec.fromCheckpoint = true;
    return true;
}

} // namespace

SweepRunner::SweepRunner(const BenchOptions &options)
    : opts(options), workerCount(resolveJobs(options.jobs))
{
    if (!opts.checkpointPath.empty())
        loadCheckpoint();
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        shutdown = true;
    }
    cv.notify_all();
    for (std::thread &w : workers)
        w.join();
    if (checkpointFile)
        std::fclose(checkpointFile);
}

void
SweepRunner::loadCheckpoint()
{
    std::FILE *f = std::fopen(opts.checkpointPath.c_str(), "r");
    if (!f)
        return; // no checkpoint yet: fresh sweep

    std::string buf;
    char chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        buf.append(chunk, got);
    std::fclose(f);

    std::size_t pos = 0;
    auto next_line = [&](std::string &line) -> bool {
        if (pos >= buf.size())
            return false;
        const std::size_t nl = buf.find('\n', pos);
        if (nl == std::string::npos) {
            line = buf.substr(pos);
            pos = buf.size();
        } else {
            line = buf.substr(pos, nl - pos);
            pos = nl + 1;
        }
        return true;
    };

    std::string line;
    if (!next_line(line) || line != checkpointHeader(opts)) {
        warn("checkpoint %s belongs to a different sweep "
             "configuration (seed/scale/instr/refs); starting fresh",
             opts.checkpointPath.c_str());
        return;
    }
    checkpointHeaderMatched = true;

    while (next_line(line)) {
        if (line.empty())
            continue;
        std::size_t index;
        SweepRecord rec;
        if (!parseCheckpointCell(line, index, rec)) {
            // Expected after a kill mid-write: the final line is
            // truncated. Everything before it is still good.
            warn("checkpoint %s: discarding a malformed trailing "
                 "entry (interrupted write?)",
                 opts.checkpointPath.c_str());
            break;
        }
        loadedCells[index] = std::move(rec);
    }
    if (!loadedCells.empty())
        inform("checkpoint %s: %llu completed cells loaded",
               opts.checkpointPath.c_str(),
               static_cast<unsigned long long>(loadedCells.size()));
}

void
SweepRunner::appendCheckpoint(std::size_t index,
                              const SweepRecord &rec)
{
    // Caller holds mtx: the file handle and header state are shared.
    if (opts.checkpointPath.empty())
        return;
    if (!checkpointSafe(rec.design) || !checkpointSafe(rec.app)) {
        warn("checkpoint: cell %llu label contains whitespace; "
             "not persisted",
             static_cast<unsigned long long>(index));
        return;
    }
    if (!checkpointFile) {
        // Append to a checkpoint we resumed from; otherwise start a
        // fresh file (also replacing a mismatched stale one).
        checkpointFile =
            std::fopen(opts.checkpointPath.c_str(),
                       checkpointHeaderMatched ? "a" : "w");
        if (!checkpointFile) {
            warn("checkpoint: cannot open %s for writing; "
                 "checkpointing disabled",
                 opts.checkpointPath.c_str());
            opts.checkpointPath.clear();
            return;
        }
        if (!checkpointHeaderMatched) {
            std::fprintf(checkpointFile, "%s\n",
                         checkpointHeader(opts).c_str());
            checkpointHeaderMatched = true;
        }
    }
    printCheckpointCell(checkpointFile, index, rec);
    // One cell per flush: a killed sweep keeps everything that
    // finished, losing at most the in-flight line.
    std::fflush(checkpointFile);
}

std::size_t
SweepRunner::submit(std::string design, std::string app,
                    std::function<RunResult()> job)
{
    std::size_t index;
    bool resumed = false;
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (collected)
            panic("SweepRunner: submit() after collect()");
        index = queue.size();

        const auto it = loadedCells.find(index);
        if (it != loadedCells.end() && it->second.design == design &&
            it->second.app == app) {
            // Completed in a previous run of this sweep: reuse the
            // recorded result, never execute the job.
            queue.push_back(Pending{nullptr});
            records.push_back(std::move(it->second));
            loadedCells.erase(it);
            finalized.push_back(true);
            ++finalizedCount;
            ++resumedCount;
            resumed = true;
        } else {
            queue.push_back(Pending{std::move(job)});
            SweepRecord rec;
            rec.design = std::move(design);
            rec.app = std::move(app);
            records.push_back(std::move(rec));
            finalized.push_back(false);
        }
    }

    if (workerCount <= 1) {
        // Sequential mode: run inline right now, exactly as the
        // pre-parallel benches did (same order, same thread).
        nextJob = index + 1;
        if (!resumed)
            runJob(index, nullptr);
        return index;
    }
    if (resumed) {
        cv.notify_all();
        return index;
    }

    // Lazily start workers on first submission, never more than the
    // job count so tiny grids don't spawn idle threads.
    if (workers.size() < workerCount) {
        std::lock_guard<std::mutex> lock(mtx);
        while (workers.size() < workerCount &&
               workers.size() < queue.size())
            workers.emplace_back([this] { workerLoop(); });
    }
    cv.notify_one();
    return index;
}

void
SweepRunner::runJob(std::size_t index, std::atomic<bool> *stop)
{
    // The vectors may reallocate under concurrent submit(); touch
    // them only while holding the lock, never during the run itself.
    std::function<RunResult()> job;
    {
        std::lock_guard<std::mutex> lock(mtx);
        job = std::move(queue[index].job);
        queue[index].job = nullptr;
        queue[index].running = true;
        queue[index].startedAt = Clock::now();
        queue[index].stop = stop;
        if (stop)
            stop->store(false);
    }

    RunResult result;
    std::string error;
    unsigned attempts = 0;
    const auto t0 = Clock::now();
    while (true) {
        ++attempts;
        error.clear();
        try {
            result = job();
            break;
        } catch (const std::exception &e) {
            error = e.what();
        } catch (...) {
            error = "unknown exception";
        }
        bool stop;
        {
            std::lock_guard<std::mutex> lock(mtx);
            stop = shutdown || finalized[index] ||
                   attempts > opts.maxRetries;
        }
        if (stop)
            break;
        // Exponential backoff before the retry: transient failures
        // (OOM under a co-scheduled burst, filesystem hiccups on
        // trace reads) deserve a calmer machine.
        const unsigned shift =
            attempts - 1 < 8 ? attempts - 1 : 8;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(25u << shift));
    }
    const auto t1 = Clock::now();
    const double wall =
        std::chrono::duration<double>(t1 - t0).count();

    {
        std::lock_guard<std::mutex> lock(mtx);
        queue[index].running = false;
        if (finalized[index]) {
            // collect() timed this cell out and set our stop flag;
            // the late result (usually RunCancelled) is discarded.
            cv.notify_all();
            return;
        }
        SweepRecord &rec = records[index];
        rec.result = std::move(result);
        rec.wallSeconds = wall;
        rec.attempts = attempts;
        if (!error.empty()) {
            rec.status = CellStatus::Failed;
            rec.error = std::move(error);
        } else if (opts.cellTimeoutSec > 0.0 &&
                   wall > opts.cellTimeoutSec) {
            // Finished, but over budget (the only way --timeout can
            // trigger in sequential mode, where nothing can stop a
            // running cell).
            rec.status = CellStatus::Timeout;
        } else {
            rec.status = CellStatus::Ok;
            appendCheckpoint(index, rec);
        }
        finalized[index] = true;
        ++finalizedCount;
    }
    cv.notify_all();
}

void
SweepRunner::workerLoop()
{
    // collect() sets this flag to stop the cell this thread runs.
    std::atomic<bool> stop{false};
    const StopScope scope(&stop);
    while (true) {
        std::size_t index;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cv.wait(lock, [this] {
                return shutdown || nextJob < queue.size();
            });
            if (nextJob >= queue.size()) {
                if (shutdown)
                    return;
                continue;
            }
            index = nextJob++;
            if (!queue[index].job)
                continue; // resumed from checkpoint, nothing to run
        }
        runJob(index, &stop);
    }
}

std::vector<SweepRecord>
SweepRunner::collect()
{
    if (workerCount > 1) {
        std::unique_lock<std::mutex> lock(mtx);
        while (finalizedCount < queue.size()) {
            if (cv.wait_for(lock, std::chrono::milliseconds(50),
                            [this] {
                                return finalizedCount >= queue.size();
                            }))
                break;
            if (opts.cellTimeoutSec <= 0.0)
                continue;
            // Time out cells running past the budget and stop them:
            // the worker's RunCancelled ends in the discard path of
            // runJob(), and the worker moves on to the next cell.
            const auto now = Clock::now();
            for (std::size_t i = 0; i < queue.size(); ++i) {
                if (finalized[i] || !queue[i].running)
                    continue;
                const double elapsed =
                    std::chrono::duration<double>(
                        now - queue[i].startedAt)
                        .count();
                if (elapsed <= opts.cellTimeoutSec)
                    continue;
                records[i].status = CellStatus::Timeout;
                records[i].wallSeconds = elapsed;
                finalized[i] = true;
                ++finalizedCount;
                queue[i].stop->store(true);
                warn("sweep: cell %s/%s exceeded --timeout %.1fs; "
                     "stopped",
                     records[i].design.c_str(),
                     records[i].app.c_str(), opts.cellTimeoutSec);
            }
        }
    }
    collected = true;

    std::size_t failed = 0, timed_out = 0;
    for (const SweepRecord &rec : records) {
        if (rec.status == CellStatus::Failed) {
            ++failed;
            warn("sweep: cell %s/%s failed after %u attempt%s: %s",
                 rec.design.c_str(), rec.app.c_str(), rec.attempts,
                 rec.attempts == 1 ? "" : "s", rec.error.c_str());
        } else if (rec.status == CellStatus::Timeout) {
            ++timed_out;
        }
    }
    if (failed || timed_out)
        warn("sweep: %llu of %llu cells incomplete (%llu failed, "
             "%llu timed out); their rows carry \"status\" in --json",
             static_cast<unsigned long long>(failed + timed_out),
             static_cast<unsigned long long>(records.size()),
             static_cast<unsigned long long>(failed),
             static_cast<unsigned long long>(timed_out));

    if (!opts.jsonPath.empty())
        writeSweepJson(opts.jsonPath, records, opts, workerCount);
    return std::move(records);
}

std::vector<RunResult>
SweepRunner::collectResults()
{
    std::vector<RunResult> out;
    for (SweepRecord &rec : collect())
        out.push_back(std::move(rec.result));
    return out;
}

void
writeSweepJson(const std::string &path,
               const std::vector<SweepRecord> &recs,
               const BenchOptions &opts, unsigned jobs_used)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("--json: cannot open %s for writing", path.c_str());
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const SweepRecord &r = recs[i];
        std::fprintf(
            f,
            "  {\"design\": \"%s\", \"app\": \"%s\", "
            "\"seed\": %llu, \"jobs\": %u, \"status\": \"%s\", ",
            jsonEscape(r.design).c_str(), jsonEscape(r.app).c_str(),
            static_cast<unsigned long long>(opts.seed), jobs_used,
            cellStatusLabel(r.status));
        if (r.status == CellStatus::Failed)
            std::fprintf(f, "\"error\": \"%s\", ",
                         jsonEscape(r.error).c_str());
        std::fprintf(
            f,
            "\"ipc\": %.6f, \"hit_rate\": %.6f, "
            "\"swaps\": %llu, \"fills\": %llu, "
            "\"amal\": %.3f, \"instructions\": %llu, "
            "\"mem_refs\": %llu, "
            "\"retired_segments\": %llu, \"retired_bytes\": %llu, "
            "\"ecc_corrected\": %llu, \"ecc_uncorrectable\": %llu, "
            "\"degraded_cycles\": %llu, "
            "\"wall_seconds\": %.6f}%s\n",
            r.result.ipcGeoMean, r.result.stackedHitRate,
            static_cast<unsigned long long>(r.result.swaps),
            static_cast<unsigned long long>(r.result.fills),
            r.result.amal,
            static_cast<unsigned long long>(r.result.instructions),
            static_cast<unsigned long long>(r.result.memRefs),
            static_cast<unsigned long long>(r.result.retiredSegments),
            static_cast<unsigned long long>(r.result.retiredBytes),
            static_cast<unsigned long long>(r.result.eccCorrected),
            static_cast<unsigned long long>(
                r.result.eccUncorrectable),
            static_cast<unsigned long long>(
                r.result.degradedCycles),
            r.wallSeconds, i + 1 < recs.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
}

} // namespace chameleon
