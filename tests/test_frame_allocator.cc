/**
 * @file
 * Frame allocator tests: zone accounting, policy behaviour, THP
 * break/compact/split paths, and error handling.
 */

#include <gtest/gtest.h>

#include <string>
#include <unordered_set>
#include <vector>

#include "os/frame_allocator.hh"

#include "fnv_digest.hh"

using namespace chameleon;

namespace
{

FrameAllocatorConfig
smallConfig(AllocPolicy policy = AllocPolicy::Uniform)
{
    FrameAllocatorConfig c;
    c.stackedBytes = 4_MiB;
    c.offchipBytes = 20_MiB;
    c.policy = policy;
    c.seed = 99;
    return c;
}

/**
 * FNV-1a digest of one fixed allocation script: policy pages that
 * break chunks in both zones, zone-targeted pages, policy and
 * zone-targeted huge pages, a free of every policy page, huge pages
 * until compaction has re-assembled and handed out every whole chunk,
 * then pages until exhaustion. Every returned address (invalidAddr
 * for a failure), the final counters and the zone free bytes go in.
 */
std::string
handOutDigest(const FrameAllocatorConfig &cfg)
{
    test::Fnv d;
    auto rec = [&d](std::optional<Addr> a) {
        d.add(a ? *a : invalidAddr);
    };

    FrameAllocator fa(cfg);
    std::vector<Addr> pages;
    for (int i = 0; i < 700; ++i) {
        const auto a = fa.allocPage();
        rec(a);
        if (a)
            pages.push_back(*a);
    }
    for (int i = 0; i < 40; ++i) {
        rec(fa.allocPage(MemNode::Stacked));
        rec(fa.allocPage(MemNode::OffChip));
    }
    rec(fa.allocHuge());
    rec(fa.allocHuge(MemNode::OffChip));
    rec(fa.allocHuge(MemNode::Stacked));
    for (std::size_t i = 0; i < pages.size(); i += 2)
        fa.freePage(pages[i]);
    for (std::size_t i = 1; i < pages.size(); i += 2)
        fa.freePage(pages[i]);
    while (const auto huge = fa.allocHuge())
        rec(huge);
    while (const auto a = fa.allocPage())
        rec(a);
    rec(std::nullopt);

    const FrameAllocatorStats &s = fa.stats();
    for (std::uint64_t v :
         {s.pageAllocs, s.pageFrees, s.hugeAllocs, s.hugeFrees,
          s.compactions, s.failedAllocs, s.retiredFrames,
          fa.freeBytesInZone(MemNode::Stacked),
          fa.freeBytesInZone(MemNode::OffChip)})
        d.add(v);
    return d.hex();
}

} // namespace

TEST(FrameAllocator, FreshAllocatorIsAllFree)
{
    FrameAllocator fa(smallConfig());
    EXPECT_EQ(fa.freeBytes(), 24_MiB);
    EXPECT_EQ(fa.freeBytesInZone(MemNode::Stacked), 4_MiB);
    EXPECT_EQ(fa.freeBytesInZone(MemNode::OffChip), 20_MiB);
}

TEST(FrameAllocator, AllocReducesFreeFreeRestores)
{
    FrameAllocator fa(smallConfig());
    const auto f = fa.allocPage();
    ASSERT_TRUE(f.has_value());
    EXPECT_TRUE(fa.isAllocated(*f));
    EXPECT_EQ(fa.freeBytes(), 24_MiB - pageBytes);
    fa.freePage(*f);
    EXPECT_EQ(fa.freeBytes(), 24_MiB);
    EXPECT_FALSE(fa.isAllocated(*f));
}

TEST(FrameAllocator, UniqueFramesUntilExhaustion)
{
    FrameAllocatorConfig cfg = smallConfig();
    cfg.stackedBytes = 2_MiB;
    cfg.offchipBytes = 2_MiB;
    FrameAllocator fa(cfg);
    std::unordered_set<Addr> seen;
    for (;;) {
        const auto f = fa.allocPage();
        if (!f)
            break;
        ASSERT_TRUE(seen.insert(*f).second) << "duplicate frame";
    }
    EXPECT_EQ(seen.size(), 4_MiB / pageBytes);
    EXPECT_EQ(fa.freeBytes(), 0u);
    EXPECT_GT(fa.stats().failedAllocs, 0u);
}

TEST(FrameAllocator, FastFirstFillsStackedFirst)
{
    FrameAllocator fa(smallConfig(AllocPolicy::FastFirst));
    for (std::uint64_t i = 0; i < 4_MiB / pageBytes; ++i) {
        const auto f = fa.allocPage();
        ASSERT_TRUE(f);
        EXPECT_EQ(static_cast<int>(fa.nodeOf(*f)),
                  static_cast<int>(MemNode::Stacked));
    }
    const auto f = fa.allocPage();
    ASSERT_TRUE(f);
    EXPECT_EQ(static_cast<int>(fa.nodeOf(*f)),
              static_cast<int>(MemNode::OffChip));
}

TEST(FrameAllocator, SlowFirstFillsOffchipFirst)
{
    FrameAllocator fa(smallConfig(AllocPolicy::SlowFirst));
    const auto f = fa.allocPage();
    ASSERT_TRUE(f);
    EXPECT_EQ(static_cast<int>(fa.nodeOf(*f)),
              static_cast<int>(MemNode::OffChip));
}

TEST(FrameAllocator, UniformSpreadsProportionally)
{
    FrameAllocator fa(smallConfig(AllocPolicy::Uniform));
    std::uint64_t stacked = 0, total = 0;
    for (std::uint64_t i = 0; i < 2000; ++i) {
        const auto f = fa.allocPage();
        ASSERT_TRUE(f);
        if (fa.nodeOf(*f) == MemNode::Stacked)
            ++stacked;
        ++total;
    }
    // Stacked zone is 1/6 of capacity; allocations should land there
    // roughly proportionally.
    const double frac = static_cast<double>(stacked) /
                        static_cast<double>(total);
    EXPECT_NEAR(frac, 1.0 / 6.0, 0.05);
}

TEST(FrameAllocator, ZoneRestrictedAllocation)
{
    FrameAllocator fa(smallConfig());
    const auto f = fa.allocPage(MemNode::Stacked);
    ASSERT_TRUE(f);
    EXPECT_EQ(static_cast<int>(fa.nodeOf(*f)),
              static_cast<int>(MemNode::Stacked));
    // Exhaust stacked; zone-restricted then fails (-ENOMEM).
    while (fa.allocPage(MemNode::Stacked))
        ;
    EXPECT_FALSE(fa.allocPage(MemNode::Stacked));
    EXPECT_TRUE(fa.allocPage(MemNode::OffChip));
}

TEST(FrameAllocator, HugeAllocAligned)
{
    FrameAllocator fa(smallConfig());
    const auto h = fa.allocHuge();
    ASSERT_TRUE(h);
    EXPECT_EQ(*h % hugePageBytes, 0u);
    EXPECT_EQ(fa.freeBytes(), 24_MiB - hugePageBytes);
    fa.freeHuge(*h);
    EXPECT_EQ(fa.freeBytes(), 24_MiB);
}

TEST(FrameAllocator, CompactionReassemblesChunks)
{
    FrameAllocatorConfig cfg = smallConfig();
    cfg.stackedBytes = 2_MiB;
    cfg.offchipBytes = 2_MiB;
    FrameAllocator fa(cfg);
    // Break both chunks into pages, then free everything.
    std::vector<Addr> pages;
    while (auto f = fa.allocPage())
        pages.push_back(*f);
    for (Addr p : pages)
        fa.freePage(p);
    // Huge allocation must succeed via compaction.
    const auto h1 = fa.allocHuge();
    const auto h2 = fa.allocHuge();
    EXPECT_TRUE(h1);
    EXPECT_TRUE(h2);
    EXPECT_GT(fa.stats().compactions, 0u);
}

TEST(FrameAllocator, SplitHugeAllowsPageFrees)
{
    FrameAllocator fa(smallConfig());
    const auto h = fa.allocHuge();
    ASSERT_TRUE(h);
    fa.splitHuge(*h);
    for (std::uint64_t i = 0; i < framesPerChunk; ++i)
        fa.freePage(*h + i * pageBytes);
    EXPECT_EQ(fa.freeBytes(), 24_MiB);
}

TEST(FrameAllocator, DoubleFreePanics)
{
    FrameAllocator fa(smallConfig());
    const auto f = fa.allocPage();
    fa.freePage(*f);
    EXPECT_DEATH(fa.freePage(*f), "double free");
}

TEST(FrameAllocator, MisalignedFreePanics)
{
    FrameAllocator fa(smallConfig());
    EXPECT_DEATH(fa.freePage(123), "bad page free");
    EXPECT_DEATH(fa.freeHuge(pageBytes), "bad huge free");
}

TEST(FrameAllocator, BadGeometryIsFatal)
{
    FrameAllocatorConfig cfg = smallConfig();
    cfg.stackedBytes = 3 * 1_KiB;
    EXPECT_DEATH(FrameAllocator{cfg}, "2MiB multiples");
}

TEST(FrameAllocator, NodeOfBoundary)
{
    FrameAllocator fa(smallConfig());
    EXPECT_EQ(static_cast<int>(fa.nodeOf(0)),
              static_cast<int>(MemNode::Stacked));
    EXPECT_EQ(static_cast<int>(fa.nodeOf(4_MiB - 1)),
              static_cast<int>(MemNode::Stacked));
    EXPECT_EQ(static_cast<int>(fa.nodeOf(4_MiB)),
              static_cast<int>(MemNode::OffChip));
}

TEST(FrameAllocator, StatsAccounting)
{
    FrameAllocator fa(smallConfig());
    const auto a = fa.allocPage();
    const auto b = fa.allocHuge();
    fa.freePage(*a);
    fa.freeHuge(*b);
    EXPECT_EQ(fa.stats().pageAllocs, 1u);
    EXPECT_EQ(fa.stats().pageFrees, 1u);
    EXPECT_EQ(fa.stats().hugeAllocs, 1u);
    EXPECT_EQ(fa.stats().hugeFrees, 1u);
}

TEST(FrameAllocator, AllocationSequencePinned)
{
    // The hand-out order and the Uniform policy's RNG draws are part
    // of every simulation's output. The expected digests were
    // recorded from the original allocator; never regenerate them
    // from changed code.
    FrameAllocatorConfig numa = smallConfig(AllocPolicy::FastFirst);
    numa.stackedWatermarkBytes = numa.stackedBytes / 8;
    EXPECT_EQ(handOutDigest(smallConfig(AllocPolicy::Uniform)),
              "81ea15dabdeb5216");
    EXPECT_EQ(handOutDigest(smallConfig(AllocPolicy::FastFirst)),
              "412c7f9a6e016035");
    EXPECT_EQ(handOutDigest(smallConfig(AllocPolicy::SlowFirst)),
              "31ce2f7a7f67b12d");
    EXPECT_EQ(handOutDigest(numa), "98a3a3faf65de035");
}
