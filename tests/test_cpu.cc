/**
 * @file
 * Core timing model tests: MLP window semantics, fault blocking,
 * IPC accounting.
 */

#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hh"
#include "cpu/core_model.hh"

using namespace chameleon;

TEST(CoreModel, ComputeAdvancesClockAtCpiOne)
{
    CoreModel core;
    core.retireCompute(100);
    EXPECT_EQ(core.now(), 100u);
    EXPECT_EQ(core.retired(), 100u);
    EXPECT_DOUBLE_EQ(core.ipc(), 1.0);
}

TEST(CoreModel, ReadsOverlapUpToWindow)
{
    CoreConfig cfg;
    cfg.maxOutstanding = 2;
    CoreModel core(cfg);
    // Two misses fit in the window without stalling.
    Cycle t1 = core.issueRead();
    core.completeRead(t1 + 1000);
    Cycle t2 = core.issueRead();
    core.completeRead(t2 + 1000);
    EXPECT_LE(core.now(), 2u + 0u); // only the two retire ticks
    // Third miss must wait for the first to complete.
    Cycle t3 = core.issueRead();
    EXPECT_GE(t3, 1000u);
}

TEST(CoreModel, DrainWaitsForAllOutstanding)
{
    CoreModel core;
    Cycle t = core.issueRead();
    core.completeRead(t + 5000);
    core.drain();
    EXPECT_GE(core.now(), 5000u);
}

TEST(CoreModel, WritesArePosted)
{
    CoreModel core;
    core.retireWrite();
    core.retireWrite();
    EXPECT_EQ(core.now(), 2u);
    EXPECT_EQ(core.retired(), 2u);
}

TEST(CoreModel, FaultBlocksAndIsTracked)
{
    CoreModel core;
    core.retireCompute(10);
    core.blockFor(100'000);
    EXPECT_EQ(core.now(), 100'010u);
    EXPECT_EQ(core.faultStall(), 100'000u);
    EXPECT_LT(core.ipc(), 0.001);
}

TEST(CoreModel, IpcReflectsMemoryStalls)
{
    CoreConfig cfg;
    cfg.maxOutstanding = 1;
    CoreModel core(cfg);
    for (int i = 0; i < 10; ++i) {
        core.retireCompute(10);
        const Cycle t = core.issueRead();
        core.completeRead(t + 90); // 90-cycle memory latency
    }
    core.drain();
    // ~110 instructions over ~10*(10+90) cycles.
    EXPECT_NEAR(core.ipc(), 110.0 / 1000.0, 0.03);
}

namespace
{

/** The window as a min-heap: the reference the flat window matches. */
struct HeapCore
{
    std::uint32_t maxOutstanding = 1;
    Cycle clock = 0;
    std::uint64_t retired = 0;
    std::priority_queue<Cycle, std::vector<Cycle>, std::greater<Cycle>>
        outstanding;

    Cycle
    issueRead()
    {
        while (outstanding.size() >= maxOutstanding) {
            if (outstanding.top() > clock)
                clock = outstanding.top();
            outstanding.pop();
        }
        return clock;
    }

    void
    drain()
    {
        while (!outstanding.empty()) {
            if (outstanding.top() > clock)
                clock = outstanding.top();
            outstanding.pop();
        }
    }
};

} // namespace

TEST(CoreModel, MatchesHeapWindowOnRandomSequences)
{
    for (std::uint32_t window : {1u, 2u, 4u}) {
        CoreConfig cfg;
        cfg.maxOutstanding = window;
        CoreModel core(cfg);
        HeapCore ref;
        ref.maxOutstanding = window;
        Rng rng(window);
        for (int i = 0; i < 100'000; ++i) {
            switch (rng.below(4)) {
              case 0: {
                const std::uint64_t n = rng.below(50);
                core.retireCompute(n);
                ref.clock += n;
                ref.retired += n;
                break;
              }
              case 1: {
                const Cycle issue = core.issueRead();
                ASSERT_EQ(issue, ref.issueRead()) << "op " << i;
                // Completions land out of issue order.
                const Cycle done = issue + 40 + rng.below(400);
                core.completeRead(done);
                ref.outstanding.push(done);
                ++ref.retired;
                ++ref.clock;
                break;
              }
              case 2:
                core.retireWrite();
                ++ref.retired;
                ++ref.clock;
                break;
              default:
                if (rng.below(64) == 0) {
                    core.drain();
                    ref.drain();
                }
                break;
            }
            ASSERT_EQ(core.now(), ref.clock) << "op " << i;
            ASSERT_EQ(core.retired(), ref.retired) << "op " << i;
        }
        core.drain();
        ref.drain();
        EXPECT_EQ(core.now(), ref.clock);
    }
}
