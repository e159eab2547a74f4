/**
 * @file
 * Segment-space address arithmetic: group/slot decomposition must be
 * a bijection with homeAddr, device addresses must tile both pools,
 * and invalid geometries must be rejected. Includes property-style
 * randomized roundtrips over several capacity ratios.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.hh"
#include "memorg/segment_space.hh"

using namespace chameleon;

TEST(SegmentSpace, BasicGeometry1to5)
{
    SegmentSpace s(4_MiB, 20_MiB, 2_KiB);
    EXPECT_EQ(s.numGroups(), 4_MiB / 2_KiB);
    EXPECT_EQ(s.slotsPerGroup(), 6u);
    EXPECT_EQ(s.osVisibleBytes(), 24_MiB);
}

TEST(SegmentSpace, StackedAddressesAreSlotZero)
{
    SegmentSpace s(4_MiB, 20_MiB, 2_KiB);
    EXPECT_EQ(s.slotOf(0), 0u);
    EXPECT_EQ(s.groupOf(0), 0u);
    EXPECT_EQ(s.slotOf(4_MiB - 1), 0u);
    EXPECT_EQ(s.groupOf(4_MiB - 1), s.numGroups() - 1);
    EXPECT_EQ(s.slotOf(4_MiB), 1u);
    EXPECT_EQ(s.groupOf(4_MiB), 0u);
}

TEST(SegmentSpace, OffchipSlotsStrideAcrossGroups)
{
    SegmentSpace s(4_MiB, 20_MiB, 2_KiB);
    // Consecutive off-chip segments belong to consecutive groups, so
    // OS allocation runs spread over many groups (Fig 6 discussion).
    EXPECT_EQ(s.groupOf(4_MiB), 0u);
    EXPECT_EQ(s.groupOf(4_MiB + 2_KiB), 1u);
    EXPECT_EQ(s.slotOf(4_MiB), s.slotOf(4_MiB + 2_KiB));
}

TEST(SegmentSpace, HomeAddrRoundtrip)
{
    SegmentSpace s(4_MiB, 20_MiB, 2_KiB);
    for (std::uint64_t g = 0; g < s.numGroups(); g += 37) {
        for (std::uint32_t slot = 0; slot < s.slotsPerGroup(); ++slot) {
            const Addr home = s.homeAddr(g, slot);
            EXPECT_EQ(s.groupOf(home), g);
            EXPECT_EQ(s.slotOf(home), slot);
        }
    }
}

TEST(SegmentSpace, DeviceAddressesTileBothPools)
{
    SegmentSpace s(1_MiB, 3_MiB, 2_KiB);
    std::unordered_set<Addr> stacked_devs, offchip_devs;
    for (std::uint64_t g = 0; g < s.numGroups(); ++g) {
        stacked_devs.insert(s.deviceAddr(g, 0));
        for (std::uint32_t k = 1; k < s.slotsPerGroup(); ++k)
            offchip_devs.insert(s.deviceAddr(g, k));
    }
    EXPECT_EQ(stacked_devs.size(), 1_MiB / 2_KiB);
    EXPECT_EQ(offchip_devs.size(), 3_MiB / 2_KiB);
    for (Addr d : stacked_devs)
        EXPECT_LT(d, 1_MiB);
    for (Addr d : offchip_devs)
        EXPECT_LT(d, 3_MiB);
}

TEST(SegmentSpace, InvalidGeometriesAreFatal)
{
    EXPECT_DEATH(SegmentSpace(4_MiB + 1, 20_MiB, 2_KiB),
                 "segment multiples");
    EXPECT_DEATH(SegmentSpace(4_MiB, 21_MiB + 2_KiB, 2_KiB),
                 "multiple of");
    // 1:8 exceeds the supported slot count.
    EXPECT_DEATH(SegmentSpace(1_MiB, 8_MiB, 2_KiB), "exceeds");
    // Group and slot decode shift by log2(segment size).
    EXPECT_DEATH(SegmentSpace(3_MiB, 15_MiB, 1536), "power of two");
    EXPECT_DEATH(SegmentSpace(4_MiB, 20_MiB, 0), "power of two");
}

TEST(SegmentSpace, OffsetIsWithinSegment)
{
    SegmentSpace s(4_MiB, 20_MiB, 2_KiB);
    EXPECT_EQ(s.offsetOf(0), 0u);
    EXPECT_EQ(s.offsetOf(2_KiB - 64), 2_KiB - 64);
    EXPECT_EQ(s.offsetOf(4_MiB + 2_KiB + 128), 128u);
    SegmentSpace fine(4_MiB, 20_MiB, 64);
    EXPECT_EQ(fine.offsetOf(4_MiB + 64 * 7 + 8), 8u);
    EXPECT_EQ(fine.groupOf(4_MiB + 64 * 7), 7u);
    EXPECT_EQ(fine.slotOf(4_MiB + 64 * 7), 1u);
}

/** Randomized roundtrip property over the paper's three ratios. */
class SegmentSpaceRatio : public ::testing::TestWithParam<int>
{
  protected:
    SegmentSpace
    space() const
    {
        switch (GetParam()) {
          case 0:
            return SegmentSpace(4_MiB, 20_MiB, 2_KiB); // 1:5
          case 1:
            return SegmentSpace(6_MiB, 18_MiB, 2_KiB); // 1:3
          default:
            return SegmentSpace(3_MiB, 21_MiB, 2_KiB); // 1:7
        }
    }
};

TEST_P(SegmentSpaceRatio, RandomRoundtrip)
{
    const SegmentSpace s = space();
    Rng rng(41);
    for (int i = 0; i < 20000; ++i) {
        const Addr p = rng.below(s.osVisibleBytes());
        const std::uint64_t g = s.groupOf(p);
        const std::uint32_t slot = s.slotOf(p);
        ASSERT_LT(g, s.numGroups());
        ASSERT_LT(slot, s.slotsPerGroup());
        const Addr seg_base = p / s.segmentBytes() * s.segmentBytes();
        ASSERT_EQ(s.homeAddr(g, slot), seg_base);
    }
}

TEST_P(SegmentSpaceRatio, SlotCountMatchesRatio)
{
    const SegmentSpace s = space();
    const std::uint32_t expected[] = {6, 4, 8};
    EXPECT_EQ(s.slotsPerGroup(), expected[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(PaperRatios, SegmentSpaceRatio,
                         ::testing::Values(0, 1, 2));
