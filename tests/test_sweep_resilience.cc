/**
 * @file
 * Resilience tests for the sweep engine: bounded retry with backoff,
 * per-cell wall-clock timeouts (sequential over-budget marking and
 * the parallel cooperative stop), and the checkpoint/resume round
 * trip — a resumed sweep re-uses completed cells and reproduces the
 * --json aggregate byte-for-byte.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/experiment.hh"
#include "sim/sweep_runner.hh"
#include "thread_probe.hh"

using namespace chameleon;

namespace
{

BenchOptions
tinyOpts(unsigned jobs)
{
    BenchOptions o;
    o.scale = 512;
    o.instrPerCore = 20'000;
    o.minRefsPerCore = 2'000;
    o.jobs = jobs;
    return o;
}

/** Deterministic synthetic result so checkpoints are comparable. */
RunResult
fakeResult(std::uint64_t i)
{
    RunResult r;
    r.ipcGeoMean = 0.5 + 0.001 * static_cast<double>(i);
    r.stackedHitRate = 0.25 * static_cast<double>(i % 4);
    r.swaps = 10 * i;
    r.fills = 3 * i;
    r.amal = 100.0 + static_cast<double>(i) / 3.0;
    r.instructions = 1000 + i;
    r.memRefs = 100 + i;
    r.retiredSegments = i % 3;
    r.retiredBytes = (i % 3) * 2048;
    r.eccCorrected = 7 * i;
    r.degradedCycles = i * 12345;
    r.ipcPerCore = {0.1 * static_cast<double>(i),
                    1.0 / (static_cast<double>(i) + 3.0)};
    return r;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(SweepResilience, RetriesTransientFailuresWithBackoff)
{
    for (unsigned jobs : {1u, 3u}) {
        BenchOptions opts = tinyOpts(jobs);
        opts.maxRetries = 3;
        SweepRunner runner(opts);
        auto flaky_calls = std::make_shared<std::atomic<int>>(0);
        runner.submit("d", "flaky", [flaky_calls]() -> RunResult {
            if (flaky_calls->fetch_add(1) < 2)
                throw std::runtime_error("transient");
            return fakeResult(1);
        });
        auto hopeless_calls = std::make_shared<std::atomic<int>>(0);
        runner.submit("d", "hopeless",
                      [hopeless_calls]() -> RunResult {
                          hopeless_calls->fetch_add(1);
                          throw std::runtime_error("permanent");
                      });
        const auto recs = runner.collect();
        ASSERT_EQ(recs.size(), 2u);
        EXPECT_EQ(recs[0].status, CellStatus::Ok) << "jobs=" << jobs;
        EXPECT_EQ(recs[0].attempts, 3u);
        EXPECT_EQ(flaky_calls->load(), 3);
        EXPECT_EQ(recs[1].status, CellStatus::Failed);
        EXPECT_EQ(recs[1].error, "permanent");
        EXPECT_EQ(recs[1].attempts, 1u + opts.maxRetries);
        EXPECT_EQ(hopeless_calls->load(),
                  1 + static_cast<int>(opts.maxRetries));
    }
}

TEST(SweepResilience, SequentialTimeoutMarksOverBudgetCells)
{
    BenchOptions opts = tinyOpts(1);
    opts.cellTimeoutSec = 0.01;
    SweepRunner runner(opts);
    runner.submit("d", "slow", [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        return fakeResult(0);
    });
    runner.submit("d", "fast", [] { return fakeResult(1); });
    const auto recs = runner.collect();
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].status, CellStatus::Timeout);
    EXPECT_EQ(recs[1].status, CellStatus::Ok);
}

TEST(SweepResilience, ParallelTimeoutAbandonsStuckCellPromptly)
{
    using Clock = std::chrono::steady_clock;
    BenchOptions opts = tinyOpts(2);
    opts.cellTimeoutSec = 0.2;
    // Counted with the sampler running (a sanitizer runtime may add a
    // helper thread once the process has a second one).
    test::ThreadPeak peak;
    const std::size_t threads_before = test::threadCount();
    auto runner = std::make_unique<SweepRunner>(opts);
    runner->submit("d", "stuck", []() -> RunResult {
        // A hung simulator stand-in: runs until its worker's stop flag
        // is set, then takes System::run's exit.
        for (;;) {
            throwIfStopRequested();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    for (int i = 1; i <= 3; ++i)
        runner->submit("d", "ok" + std::to_string(i),
                       [i] { return fakeResult(i); });
    const auto t0 = Clock::now();
    const std::vector<SweepRecord> recs = runner->collect();
    const auto t1 = Clock::now();
    runner.reset();
    const auto t2 = Clock::now();
    EXPECT_LT(std::chrono::duration<double>(t1 - t0).count(), 1.0);
    EXPECT_LT(std::chrono::duration<double>(t2 - t1).count(), 0.5)
        << "the stopped worker must exit";
    // The runner may add its 2 workers and never a replacement for
    // the stopped cell.
    EXPECT_LE(peak.stop(), threads_before + 2);

    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs[0].status, CellStatus::Timeout);
    EXPECT_GE(recs[0].wallSeconds, opts.cellTimeoutSec);
    for (int i = 1; i <= 3; ++i) {
        EXPECT_EQ(recs[i].status, CellStatus::Ok) << "cell " << i;
        EXPECT_EQ(recs[i].result.instructions, 1000u + i);
    }
}

TEST(SweepResilience, CheckpointRoundTripIsByteIdentical)
{
    const std::string ckpt = "/tmp/chameleon_ckpt_roundtrip.txt";
    const std::string json_a = "/tmp/chameleon_ckpt_a.json";
    const std::string json_b = "/tmp/chameleon_ckpt_b.json";
    std::remove(ckpt.c_str());

    BenchOptions opts = tinyOpts(2);
    opts.checkpointPath = ckpt;

    auto run_sweep = [&](const std::string &json,
                         std::atomic<int> *executions) {
        BenchOptions o = opts;
        o.jsonPath = json;
        SweepRunner runner(o);
        for (std::uint64_t i = 0; i < 6; ++i)
            runner.submit("design" + std::to_string(i % 2),
                          "app" + std::to_string(i),
                          [i, executions] {
                              if (executions)
                                  executions->fetch_add(1);
                              return fakeResult(i);
                          });
        const auto recs = runner.collect();
        return std::make_pair(recs, runner.resumedCells());
    };

    std::atomic<int> first_runs{0};
    const auto [recs_a, resumed_a] = run_sweep(json_a, &first_runs);
    EXPECT_EQ(first_runs.load(), 6);
    EXPECT_EQ(resumed_a, 0u);
    for (const auto &r : recs_a)
        EXPECT_EQ(r.status, CellStatus::Ok);

    // Second run of the same sweep: every cell resumes, nothing
    // executes, and the --json aggregate is byte-identical.
    std::atomic<int> second_runs{0};
    const auto [recs_b, resumed_b] = run_sweep(json_b, &second_runs);
    EXPECT_EQ(second_runs.load(), 0);
    EXPECT_EQ(resumed_b, 6u);
    for (const auto &r : recs_b)
        EXPECT_TRUE(r.fromCheckpoint);
    EXPECT_EQ(slurp(json_a), slurp(json_b));

    std::remove(ckpt.c_str());
    std::remove(json_a.c_str());
    std::remove(json_b.c_str());
}

TEST(SweepResilience, InterruptedCheckpointResumesCompletedCells)
{
    const std::string ckpt = "/tmp/chameleon_ckpt_partial.txt";
    std::remove(ckpt.c_str());
    BenchOptions opts = tinyOpts(1);
    opts.checkpointPath = ckpt;

    {
        SweepRunner runner(opts);
        for (std::uint64_t i = 0; i < 4; ++i)
            runner.submit("d", "app" + std::to_string(i),
                          [i] { return fakeResult(i); });
        runner.collect();
    }

    // Simulate a kill mid-write: keep the header + the first two
    // cells, then leave a truncated third line.
    std::ifstream in(ckpt);
    std::string line, kept;
    for (int i = 0; i < 3 && std::getline(in, line); ++i)
        kept += line + "\n";
    in.close();
    std::ofstream out(ckpt, std::ios::trunc);
    out << kept << "cell 2 d app2 0x1."; // interrupted entry
    out.close();

    std::atomic<int> reruns{0};
    SweepRunner runner(opts);
    for (std::uint64_t i = 0; i < 4; ++i)
        runner.submit("d", "app" + std::to_string(i), [i, &reruns] {
            reruns.fetch_add(1);
            return fakeResult(i);
        });
    const auto recs = runner.collect();
    EXPECT_EQ(runner.resumedCells(), 2u);
    EXPECT_EQ(reruns.load(), 2) << "only the lost cells re-run";
    ASSERT_EQ(recs.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(recs[i].status, CellStatus::Ok);
        EXPECT_EQ(recs[i].fromCheckpoint, i < 2);
        EXPECT_EQ(recs[i].result.instructions,
                  fakeResult(i).instructions);
        EXPECT_EQ(recs[i].result.ipcPerCore,
                  fakeResult(i).ipcPerCore);
    }
    std::remove(ckpt.c_str());
}

TEST(SweepResilience, MismatchedCheckpointHeaderStartsFresh)
{
    const std::string ckpt = "/tmp/chameleon_ckpt_mismatch.txt";
    std::remove(ckpt.c_str());
    BenchOptions opts = tinyOpts(1);
    opts.checkpointPath = ckpt;
    opts.seed = 1;
    {
        SweepRunner runner(opts);
        runner.submit("d", "app0", [] { return fakeResult(0); });
        runner.collect();
    }

    // A different seed is a different sweep: the stale checkpoint
    // must be ignored and rewritten, not resumed.
    opts.seed = 2;
    std::atomic<int> reruns{0};
    {
        SweepRunner runner(opts);
        runner.submit("d", "app0", [&reruns] {
            reruns.fetch_add(1);
            return fakeResult(0);
        });
        runner.collect();
        EXPECT_EQ(runner.resumedCells(), 0u);
        EXPECT_EQ(reruns.load(), 1);
    }
    EXPECT_NE(slurp(ckpt).find("seed=2"), std::string::npos)
        << "checkpoint must be rewritten for the new configuration";
    std::remove(ckpt.c_str());
}

TEST(SweepResilience, FailedCellsAreMarkedInJson)
{
    const std::string json = "/tmp/chameleon_failed_cells.json";
    BenchOptions opts = tinyOpts(2);
    opts.jsonPath = json;
    SweepRunner runner(opts);
    runner.submit("d", "good", [] { return fakeResult(0); });
    runner.submit("d", "bad", []() -> RunResult {
        throw std::runtime_error("boom \"quoted\"");
    });
    runner.collect();
    const std::string text = slurp(json);
    EXPECT_NE(text.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(text.find("\"status\": \"failed\""),
              std::string::npos);
    EXPECT_NE(text.find("\"error\": \"boom \\\"quoted\\\"\""),
              std::string::npos)
        << "error strings must be JSON-escaped";
    std::remove(json.c_str());
}
