/**
 * @file
 * Flat and Alloy organization tests: OS-visible capacities, hit/miss
 * paths, TAD fills and writebacks, MAP predictor behaviour, and
 * functional data integrity.
 */

#include <gtest/gtest.h>

#include <memory>
#include <unordered_map>

#include "common/rng.hh"
#include "dram/dram_device.hh"
#include "memorg/alloy_cache.hh"
#include "memorg/flat_memory.hh"

using namespace chameleon;

namespace
{

struct Devices
{
    std::unique_ptr<DramDevice> stacked;
    std::unique_ptr<DramDevice> offchip;

    Devices(std::uint64_t s_bytes = 1_MiB,
            std::uint64_t o_bytes = 5_MiB)
    {
        DramTimings st = stackedDramConfig();
        st.capacity = s_bytes;
        DramTimings ot = offchipDramConfig();
        ot.capacity = o_bytes;
        stacked = std::make_unique<DramDevice>(st);
        offchip = std::make_unique<DramDevice>(ot);
    }
};

} // namespace

TEST(FlatMemory, DdrOnlyBaseline)
{
    Devices d;
    FlatMemory flat(nullptr, d.offchip.get());
    EXPECT_EQ(flat.osVisibleBytes(), 5_MiB);
    const auto r = flat.access(0, AccessType::Read, 0);
    EXPECT_FALSE(r.stackedHit);
    EXPECT_GT(r.done, 0u);
    EXPECT_STREQ(flat.name(), "flat-ddr");
}

TEST(FlatMemory, NumaFlatRoutesByAddress)
{
    Devices d;
    FlatMemory flat(d.stacked.get(), d.offchip.get());
    EXPECT_EQ(flat.osVisibleBytes(), 6_MiB);
    EXPECT_TRUE(flat.access(0, AccessType::Read, 0).stackedHit);
    EXPECT_FALSE(flat.access(1_MiB, AccessType::Read, 0).stackedHit);
    EXPECT_STREQ(flat.name(), "numa-flat");
}

TEST(FlatMemory, OutOfRangePanics)
{
    Devices d;
    FlatMemory flat(d.stacked.get(), d.offchip.get());
    EXPECT_DEATH(flat.access(6_MiB, AccessType::Read, 0), "beyond");
}

TEST(FlatMemory, FunctionalReadbackBothZones)
{
    Devices d;
    FlatMemory flat(d.stacked.get(), d.offchip.get());
    flat.enableFunctional(true);
    flat.functionalWrite(0x40, 111);
    flat.functionalWrite(1_MiB + 0x80, 222);
    EXPECT_EQ(flat.functionalRead(0x40).value(), 111u);
    EXPECT_EQ(flat.functionalRead(1_MiB + 0x80).value(), 222u);
    EXPECT_FALSE(flat.functionalRead(2_MiB).has_value());
}

TEST(AlloyCache, CapacityIsOffchipOnly)
{
    Devices d;
    AlloyCache alloy(d.stacked.get(), d.offchip.get());
    EXPECT_EQ(alloy.osVisibleBytes(), 5_MiB);
    // TAD overhead: fewer lines than raw stacked capacity.
    EXPECT_LT(alloy.numLines() * 64, 1_MiB);
}

TEST(AlloyCache, MissThenHit)
{
    Devices d;
    AlloyCache alloy(d.stacked.get(), d.offchip.get());
    const auto miss = alloy.access(0x1000, AccessType::Read, 0);
    EXPECT_FALSE(miss.stackedHit);
    const auto hit = alloy.access(0x1000, AccessType::Read, miss.done);
    EXPECT_TRUE(hit.stackedHit);
    EXPECT_EQ(alloy.stats().fills, 1u);
}

TEST(AlloyCache, HitIsFasterThanPredictedHitMiss)
{
    Devices d;
    AlloyCache alloy(d.stacked.get(), d.offchip.get());
    // Warm the predictor towards "hit" for this page, then compare a
    // genuine hit with a conflicting (serial) miss.
    alloy.access(0x1000, AccessType::Read, 0);
    const Cycle t = 1'000'000;
    const auto hit = alloy.access(0x1000, AccessType::Read, t);
    // Conflict at the same line index: line count lines -> stride.
    const Addr conflicting = 0x1000 + alloy.numLines() * 64;
    const auto miss = alloy.access(conflicting, AccessType::Read,
                                   2'000'000);
    EXPECT_LT(hit.done - t, miss.done - 2'000'000);
}

TEST(AlloyCache, DirectMappedConflictEvicts)
{
    Devices d;
    AlloyCache alloy(d.stacked.get(), d.offchip.get());
    const Addr a = 0x2000;
    const Addr b = a + alloy.numLines() * 64;
    alloy.access(a, AccessType::Read, 0);
    alloy.access(b, AccessType::Read, 0);
    const auto r = alloy.access(a, AccessType::Read, 0);
    EXPECT_FALSE(r.stackedHit) << "b must have evicted a";
}

TEST(AlloyCache, DirtyVictimWritesBack)
{
    Devices d;
    AlloyCache alloy(d.stacked.get(), d.offchip.get());
    alloy.enableFunctional(true);
    const Addr a = 0x3000;
    const Addr b = a + alloy.numLines() * 64;
    alloy.access(a, AccessType::Write, 0);
    alloy.functionalWrite(a, 777);
    alloy.access(b, AccessType::Read, 0); // evicts dirty a
    EXPECT_EQ(alloy.stats().writebacks, 1u);
    // a's data must have survived the eviction into off-chip.
    EXPECT_EQ(alloy.functionalRead(a).value(), 777u);
    // And b is now cached; a misses.
    EXPECT_TRUE(alloy.access(b, AccessType::Read, 0).stackedHit);
    EXPECT_FALSE(alloy.access(a, AccessType::Read, 0).stackedHit);
}

TEST(AlloyCache, PredictorLearnsMissRegion)
{
    Devices d;
    AlloyCache alloy(d.stacked.get(), d.offchip.get());
    // Stream far more lines than the cache holds: the predictor
    // should learn "miss" and overlap the off-chip fetch, making the
    // steady-state miss latency close to a raw off-chip access.
    Cycle t = 0;
    MemAccessResult last;
    for (Addr a = 0; a < 4_MiB; a += 64) {
        last = alloy.access(a, AccessType::Read, t);
        t = last.done;
    }
    // Sample a fresh miss with a trained predictor.
    const Cycle t0 = t + 100'000;
    const auto probe = alloy.access(4_MiB + 64, AccessType::Read, t0);
    const Cycle miss_lat = probe.done - t0;
    const Cycle raw = d.offchip->access(64, AccessType::Read,
                                        t0 + 200'000) -
                      (t0 + 200'000);
    EXPECT_LT(miss_lat, raw * 3);
}

TEST(AlloyCache, NonPowerOfTwoPredictorIsFatal)
{
    Devices d;
    AlloyConfig cfg;
    cfg.predictorEntries = 3000;
    EXPECT_DEATH(AlloyCache(d.stacked.get(), d.offchip.get(), cfg),
                 "predictorEntries 3000 must be 0 or a power of two");
    cfg.predictorEntries = 0;
    AlloyCache serial(d.stacked.get(), d.offchip.get(), cfg);
    EXPECT_TRUE(serial.access(0, AccessType::Read, 0).done > 0);
}

TEST(AlloyCache, PackedLineRoundTrip)
{
    // 1 MiB stacked holds 14563 lines. A 2^62-byte off-chip pool
    // (device state does not scale with capacity) gives 42-bit tags.
    Devices d(1_MiB, 1ull << 62);
    AlloyCache alloy(d.stacked.get(), d.offchip.get());
    alloy.enableFunctional(true);
    const std::uint64_t n = alloy.numLines();

    // Never filled: no tag, clean, invalid.
    const AlloyCache::LineView empty = alloy.lineView(5);
    EXPECT_EQ(empty.tag, invalidAddr);
    EXPECT_FALSE(empty.valid);
    EXPECT_FALSE(empty.dirty);

    // A read fill is clean; a write hit sets dirty and keeps the tag.
    const Addr a = (3 * n + 5) * 64;
    alloy.access(a, AccessType::Read, 0);
    AlloyCache::LineView v = alloy.lineView(5);
    EXPECT_EQ(v.tag, 3u);
    EXPECT_TRUE(v.valid);
    EXPECT_FALSE(v.dirty);
    EXPECT_TRUE(alloy.access(a + 8, AccessType::Write, 10).stackedHit);
    v = alloy.lineView(5);
    EXPECT_EQ(v.tag, 3u);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(alloy.lineHomeAddr(5), a);

    // The dirty victim is written back to lineHomeAddr: its data is
    // readable at its home once a conflicting line replaces it.
    alloy.functionalWrite(a, 4242);
    const Addr b = (7 * n + 5) * 64;
    alloy.access(b, AccessType::Read, 20);
    EXPECT_EQ(alloy.stats().writebacks, 1u);
    v = alloy.lineView(5);
    EXPECT_EQ(v.tag, 7u);
    EXPECT_FALSE(v.dirty);
    EXPECT_EQ(alloy.lineHomeAddr(5), b);
    EXPECT_EQ(alloy.functionalPeekLoc(MemOrganization::offchipLoc(a)),
              4242u);

    // The last OS-visible line carries the largest tag.
    const Addr last = alloy.osVisibleBytes() - 64;
    const std::uint64_t idx = alloy.lineIndexOf(last);
    const Addr max_tag = (last / 64) / n;
    EXPECT_GT(max_tag, 1ull << 41);
    alloy.access(last, AccessType::Write, 30);
    v = alloy.lineView(idx);
    EXPECT_EQ(v.tag, max_tag);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(alloy.lineHomeAddr(idx), last);
    EXPECT_TRUE(alloy.access(last, AccessType::Read, 40).stackedHit);
}

TEST(AlloyCache, FunctionalIntegrityUnderTraffic)
{
    Devices d;
    AlloyCache alloy(d.stacked.get(), d.offchip.get());
    alloy.enableFunctional(true);
    Rng rng(77);
    std::unordered_map<Addr, std::uint64_t> shadow;
    Cycle t = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = rng.below(5_MiB / 64) * 64;
        const bool write = rng.chance(0.4);
        alloy.access(a, write ? AccessType::Write : AccessType::Read,
                     ++t);
        if (write) {
            const std::uint64_t v = rng.next();
            alloy.functionalWrite(a, v);
            shadow[a] = v;
        } else {
            auto it = shadow.find(a);
            if (it != shadow.end()) {
                const auto got = alloy.functionalRead(a);
                ASSERT_TRUE(got.has_value()) << "lost block";
                ASSERT_EQ(*got, it->second) << "corrupted block";
            }
        }
    }
}
