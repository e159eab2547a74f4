/**
 * @file
 * DRAM device model tests: timing invariants, row-buffer behaviour,
 * bus serialization, refresh blackouts, bulk-transfer accounting, and
 * parameterized checks over both Table I device configurations.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dram/dram_device.hh"
#include "dram/timings.hh"

using namespace chameleon;

namespace
{

DramTimings
tinyConfig()
{
    DramTimings t = offchipDramConfig(1, 16_MiB);
    t.name = "tiny";
    return t;
}

} // namespace

TEST(DramTimings, PeakBandwidthTableI)
{
    const DramTimings stacked = stackedDramConfig();
    const DramTimings off = offchipDramConfig();
    // 1.6GHz * 2 (DDR) * 16B * 2ch = 102.4 GB/s
    EXPECT_NEAR(stacked.peakBandwidth(), 102.4e9, 1e8);
    // 0.8GHz * 2 * 8B * 2ch = 25.6 GB/s
    EXPECT_NEAR(off.peakBandwidth(), 25.6e9, 1e8);
}

TEST(DramTimings, BurstCycles)
{
    EXPECT_EQ(stackedDramConfig().burstCycles(), 2u);
    EXPECT_EQ(offchipDramConfig().burstCycles(), 4u);
    EXPECT_EQ(offchipDramConfig().burstCycles(128), 8u);
}

TEST(DramDevice, StackedFasterThanOffchipUnloaded)
{
    DramDevice stacked(stackedDramConfig(64));
    DramDevice off(offchipDramConfig(64));
    EXPECT_LT(stacked.idleHitLatency(), off.idleHitLatency());
}

TEST(DramDevice, CompletionAfterIssue)
{
    DramDevice dev(tinyConfig());
    Rng rng; // default seed
    for (int i = 0; i < 2000; ++i) {
        const Cycle when = static_cast<Cycle>(i) * 7;
        const Addr addr = (static_cast<Addr>(i) * 8191) % (16_MiB);
        const Cycle done =
            dev.access(addr / 64 * 64, AccessType::Read, when);
        ASSERT_GT(done, when);
    }
    (void)rng;
}

TEST(DramDevice, RowHitFasterThanConflict)
{
    DramDevice dev(tinyConfig());
    // Open a row, then hit it.
    const Cycle t0 = 1'000'000;
    dev.access(0, AccessType::Read, t0);
    const Cycle hit_done = dev.access(64, AccessType::Read, t0 + 500);
    const Cycle hit_lat = hit_done - (t0 + 500);

    // Conflict: same bank, different row. With 2 channels and a 2KiB
    // row, addresses 2*rowBytes*channels apart in the same bank-step
    // pattern conflict; compute a conflicting address by walking until
    // the stats show a conflict.
    const std::uint64_t conflicts_before = dev.stats().rowConflicts;
    Cycle conf_lat = 0;
    for (Addr cand = 4_KiB; cand < 8_MiB; cand += 4_KiB) {
        const Cycle start = t0 + 1'000'000;
        const Cycle done = dev.access(cand, AccessType::Read, start);
        if (dev.stats().rowConflicts > conflicts_before) {
            conf_lat = done - start;
            break;
        }
    }
    ASSERT_GT(conf_lat, 0u) << "no conflicting address found";
    EXPECT_LT(hit_lat, conf_lat);
}

TEST(DramDevice, SequentialStreamHitsRows)
{
    DramDevice dev(tinyConfig());
    Cycle t = 0;
    for (Addr a = 0; a < 1_MiB; a += 64)
        dev.access(a, AccessType::Read, t += 10);
    const auto &st = dev.stats();
    // A linear sweep should be strongly row-hit dominated.
    EXPECT_GT(st.rowHits, (st.rowMisses + st.rowConflicts) * 4);
}

TEST(DramDevice, RandomPatternConflicts)
{
    DramDevice dev(tinyConfig());
    Rng rng(17);
    Cycle t = 0;
    for (int i = 0; i < 20000; ++i)
        dev.access(rng.below(16_MiB / 64) * 64, AccessType::Read,
                   t += 3);
    const auto &st = dev.stats();
    EXPECT_GT(st.rowConflicts, st.rowHits);
}

TEST(DramDevice, BusSerializesBackToBack)
{
    DramDevice dev(tinyConfig());
    // Two same-channel same-row accesses issued at the same cycle
    // (64B blocks interleave across the 2 channels, so blocks 0 and 2
    // share channel 0): the second serializes on the data bus.
    const Cycle t0 = 40'000; // clear of the refresh blackout
    const Cycle d1 = dev.access(0, AccessType::Read, t0);
    const Cycle d2 = dev.access(128, AccessType::Read, t0);
    EXPECT_GT(d2, d1);
}

TEST(DramDevice, ThroughputBoundedByPeakBandwidth)
{
    const DramTimings cfg = tinyConfig();
    DramDevice dev(cfg);
    // Saturate: issue every access at cycle 0 and measure the time to
    // drain N blocks.
    const std::uint64_t blocks = 4096;
    Cycle last = 0;
    for (std::uint64_t i = 0; i < blocks; ++i)
        last = std::max(last,
                        dev.access(i * 64, AccessType::Read, 0));
    const double bytes = static_cast<double>(blocks) * 64.0;
    const double seconds =
        static_cast<double>(last) / (cpuFreqGhz * 1e9);
    const double gbps = bytes / seconds;
    EXPECT_LE(gbps, cfg.peakBandwidth() * 1.05);
    // And the model should achieve a decent fraction of peak when
    // streaming.
    EXPECT_GE(gbps, cfg.peakBandwidth() * 0.3);
}

TEST(DramDevice, RefreshBlackoutDelays)
{
    DramTimings cfg = tinyConfig();
    DramDevice dev(cfg);
    // An access landing exactly at the top of a refresh interval is
    // pushed past tRFC.
    const auto t_refi =
        static_cast<Cycle>(cfg.tRefiNs * cpuFreqGhz + 0.5);
    const auto t_rfc =
        static_cast<Cycle>(cfg.tRfcNs * cpuFreqGhz + 0.5);
    const Cycle when = t_refi; // start of second refresh window
    const Cycle done = dev.access(0, AccessType::Read, when);
    EXPECT_GE(done, when + t_rfc);
    EXPECT_GT(dev.stats().refreshStalls, 0u);
}

TEST(DramDevice, RefreshWindowCacheOutOfOrder)
{
    // The device caches the tREFI window of the last request. A
    // request that jumps back across windows must still get exactly
    // the blackout a fresh device gives it. The earlier requests go
    // to channel 1 so they leave channel 0's bank and bus untouched.
    const DramTimings cfg = tinyConfig();
    const auto t_refi =
        static_cast<Cycle>(cfg.tRefiNs * cpuFreqGhz + 0.5);
    const auto t_rfc =
        static_cast<Cycle>(cfg.tRfcNs * cpuFreqGhz + 0.5);
    const Cycle probes[] = {0, 1, t_rfc - 1, t_rfc, t_refi - 1, t_refi,
                            t_refi + t_rfc / 2, 2 * t_refi + t_rfc};
    const Cycle primes[] = {5 * t_refi + 3, 7 * t_refi + t_rfc + 9};
    for (Cycle prime : primes) {
        for (Cycle probe : probes) {
            DramDevice fresh(cfg);
            const Cycle want = fresh.access(0, AccessType::Read, probe);

            DramDevice dev(cfg);
            dev.access(64, AccessType::Read, prime);
            dev.access(64 + 2 * cfg.rowBytes, AccessType::Read,
                       prime + t_refi);
            const std::uint64_t stalls0 = dev.stats().refreshStalls;
            EXPECT_EQ(dev.access(0, AccessType::Read, probe), want)
                << "prime " << prime << " probe " << probe;
            EXPECT_EQ(dev.stats().refreshStalls - stalls0,
                      fresh.stats().refreshStalls)
                << "prime " << prime << " probe " << probe;
        }
    }
}

TEST(DramDevice, NonPowerOfTwoGeometryIsFatal)
{
    DramTimings three = tinyConfig();
    three.channels = 3;
    EXPECT_DEATH(DramDevice{three}, "channels 3 must be a power of two");
    DramTimings banks = tinyConfig();
    banks.banksPerRank = 6;
    EXPECT_DEATH(DramDevice{banks}, "must be a power of two");
}

TEST(DramDevice, StatsCountReadsWritesBytes)
{
    DramDevice dev(tinyConfig());
    dev.access(0, AccessType::Read, 0);
    dev.access(64, AccessType::Write, 0);
    dev.access(128, AccessType::Read, 0);
    EXPECT_EQ(dev.stats().reads, 2u);
    EXPECT_EQ(dev.stats().writes, 1u);
    EXPECT_EQ(dev.stats().bytesTransferred, 192u);
    EXPECT_GT(dev.stats().avgReadLatency(), 0.0);
    dev.resetStats();
    EXPECT_EQ(dev.stats().reads, 0u);
}

TEST(DramDevice, BulkTransferAccountsAllBytes)
{
    DramDevice dev(tinyConfig());
    dev.bulkTransfer(0, 2048, AccessType::Read, 100);
    EXPECT_EQ(dev.stats().bytesTransferred, 2048u);
    EXPECT_EQ(dev.stats().reads, 32u);
}

namespace
{

/** What the per-block loop returned, and how many blocks it stole
 *  idle slots for. */
struct PerBlockOutcome
{
    Cycle done;
    std::uint64_t idleBlocks;
};

/**
 * bulkTransfer as the per-block loop it was before the idle blocks
 * were accounted in closed form: every demandImpactStride-th block
 * goes through access(); every other one adds 64 bytes, one read or
 * write (left to the caller here) and one burst to the completion.
 */
PerBlockOutcome
perBlockBulkTransfer(DramDevice &dev, Addr addr, std::uint64_t bytes,
                     AccessType type, Cycle when)
{
    const Cycle burst = dev.memToCpu(dev.timings().burstCycles());
    PerBlockOutcome out{when, 0};
    std::uint32_t k = 0;
    for (std::uint64_t off = 0; off < bytes; off += 64, ++k) {
        Addr a = addr + off;
        if (a >= dev.capacity())
            a %= dev.capacity();
        if (k % DramDevice::demandImpactStride == 0) {
            out.done = dev.access(a, type, when);
        } else {
            ++out.idleBlocks;
            out.done += burst;
        }
    }
    return out;
}

} // namespace

TEST(DramDevice, BulkTransferClosedFormMatchesPerBlockLoop)
{
    struct Case
    {
        const char *what;
        Addr addr;
        std::uint64_t bytes;
        AccessType type;
    };
    const Case cases[] = {
        {"2 KiB segment", 4096, 2048, AccessType::Read},
        {"2 KiB segment write", 8192, 2048, AccessType::Write},
        {"13 blocks", 1_MiB, 13 * 64, AccessType::Read},
        {"partial last block", 2_MiB, 21 * 64 + 5, AccessType::Write},
        {"one byte", 3_MiB, 1, AccessType::Read},
        {"zero bytes", 0, 0, AccessType::Read},
        {"wraps at capacity", 16_MiB - 5 * 64, 4096, AccessType::Read},
    };
    // Both devices see the same sequence, so each case starts from
    // the state the previous ones left behind.
    DramDevice fast(tinyConfig());
    DramDevice slow(tinyConfig());
    std::uint64_t idleReads = 0, idleWrites = 0;
    Cycle when = 1000;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        const Cycle got = fast.bulkTransfer(c.addr, c.bytes, c.type, when);
        const PerBlockOutcome ref =
            perBlockBulkTransfer(slow, c.addr, c.bytes, c.type, when);
        (c.type == AccessType::Read ? idleReads : idleWrites) +=
            ref.idleBlocks;
        EXPECT_EQ(got, ref.done);

        DramStats want = slow.stats();
        want.reads += idleReads;
        want.writes += idleWrites;
        want.bytesTransferred += 64 * (idleReads + idleWrites);
        const DramStats &have = fast.stats();
        EXPECT_EQ(have.reads, want.reads);
        EXPECT_EQ(have.writes, want.writes);
        EXPECT_EQ(have.rowHits, want.rowHits);
        EXPECT_EQ(have.rowMisses, want.rowMisses);
        EXPECT_EQ(have.rowConflicts, want.rowConflicts);
        EXPECT_EQ(have.refreshStalls, want.refreshStalls);
        EXPECT_EQ(have.eccCorrected, want.eccCorrected);
        EXPECT_EQ(have.eccUncorrectable, want.eccUncorrectable);
        EXPECT_EQ(have.spikeDelays, want.spikeDelays);
        EXPECT_EQ(have.readLatencySum, want.readLatencySum);
        EXPECT_EQ(have.bytesTransferred, want.bytesTransferred);
        when += 700;
    }
}

TEST(DramDevice, BulkTransferCompletesAfterStart)
{
    DramDevice dev(tinyConfig());
    const Cycle done = dev.bulkTransfer(0, 2048, AccessType::Write,
                                        5000);
    EXPECT_GT(done, 5000u);
}

TEST(DramDevice, OutOfRangeAddressPanics)
{
    DramDevice dev(tinyConfig());
    EXPECT_DEATH(dev.access(16_MiB, AccessType::Read, 0), "beyond");
}

TEST(DramDevice, QueueDelayGrowsUnderLoad)
{
    DramDevice dev(tinyConfig());
    EXPECT_EQ(dev.estimatedQueueDelay(0), 0u);
    for (int i = 0; i < 64; ++i)
        dev.access(static_cast<Addr>(i) * 64, AccessType::Read, 0);
    EXPECT_GT(dev.estimatedQueueDelay(0), 0u);
}

/** Parameterized over both Table I device configurations. */
class DramConfigTest : public ::testing::TestWithParam<int>
{
  protected:
    DramTimings
    config() const
    {
        return GetParam() == 0 ? stackedDramConfig(64)
                               : offchipDramConfig(64);
    }
};

TEST_P(DramConfigTest, MonotoneUnderBackpressure)
{
    DramDevice dev(config());
    Cycle prev = 0;
    for (int i = 0; i < 1000; ++i) {
        const Cycle done = dev.access((i * 64) % dev.capacity(),
                                      AccessType::Read, 0);
        EXPECT_GE(done, prev > 64 ? prev - 64 : 0);
        prev = std::max(prev, done);
    }
}

TEST_P(DramConfigTest, EveryAddressMapsSomewhere)
{
    DramDevice dev(config());
    Rng rng(23);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = rng.below(dev.capacity() / 64) * 64;
        EXPECT_GT(dev.access(a, AccessType::Read, 0), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(BothDevices, DramConfigTest,
                         ::testing::Values(0, 1));
