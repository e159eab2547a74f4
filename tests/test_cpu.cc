/**
 * @file
 * Core timing model tests: MLP window semantics, fault blocking,
 * IPC accounting.
 */

#include <gtest/gtest.h>

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
