/**
 * @file
 * Tests for the single global page table, including the revocation
 * semantics (unmap blocks demand re-allocation, §4.3).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/page_table.h"

namespace gp::mem {
namespace {

TEST(PageTable, MapAllocatesDistinctFrames)
{
    PageTable pt(4096);
    const uint64_t f0 = pt.map(10);
    const uint64_t f1 = pt.map(11);
    EXPECT_NE(f0, f1);
    EXPECT_EQ(pt.map(10), f0) << "remap keeps the frame";
    EXPECT_EQ(pt.mappedPages(), 2u);
}

TEST(PageTable, TranslateUnmappedIsNull)
{
    PageTable pt(4096);
    EXPECT_FALSE(pt.translate(99).has_value());
}

TEST(PageTable, VpnComputation)
{
    PageTable pt(4096);
    EXPECT_EQ(pt.pageShift(), 12u);
    EXPECT_EQ(pt.vpn(0), 0u);
    EXPECT_EQ(pt.vpn(4095), 0u);
    EXPECT_EQ(pt.vpn(4096), 1u);
    EXPECT_EQ(pt.vpn(0x12345678), 0x12345u);
}

TEST(PageTable, TranslateAddrDemandAllocates)
{
    PageTable pt(4096);
    auto pa = pt.translateAddr(0x5123);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa & 0xfffu, 0x123u) << "page offset preserved";
    EXPECT_EQ(pt.mappedPages(), 1u);
}

TEST(PageTable, TranslateAddrStrictMode)
{
    PageTable pt(4096);
    pt.setAllocateOnTouch(false);
    EXPECT_FALSE(pt.translateAddr(0x5123).has_value());
    pt.map(pt.vpn(0x5123));
    EXPECT_TRUE(pt.translateAddr(0x5123).has_value());
}

TEST(PageTable, UnmapRemovesTranslation)
{
    PageTable pt(4096);
    pt.map(7);
    EXPECT_TRUE(pt.unmap(7));
    EXPECT_FALSE(pt.translate(7).has_value());
    EXPECT_FALSE(pt.unmap(7)) << "double unmap reports not-mapped";
}

TEST(PageTable, UnmapBlocksDemandRemap)
{
    // Revocation must not be undone by a stray touch.
    PageTable pt(4096);
    pt.map(pt.vpn(0x5000));
    pt.unmap(pt.vpn(0x5000));
    EXPECT_FALSE(pt.translateAddr(0x5123).has_value());
    // Explicit re-map lifts the block.
    pt.map(pt.vpn(0x5000));
    EXPECT_TRUE(pt.translateAddr(0x5123).has_value());
}

TEST(PageTable, LargePages)
{
    PageTable pt(1 << 16);
    EXPECT_EQ(pt.pageShift(), 16u);
    EXPECT_EQ(pt.vpn(0xffff), 0u);
    EXPECT_EQ(pt.vpn(0x10000), 1u);
}

TEST(PageTable, StatsTrackMapUnmap)
{
    PageTable pt(4096);
    pt.map(1);
    pt.map(2);
    pt.unmap(1);
    EXPECT_EQ(pt.stats().get("pages_mapped"), 2u);
    EXPECT_EQ(pt.stats().get("pages_unmapped"), 1u);
}

TEST(PageTable, MemoCountsLookupsAndHits)
{
    PageTable pt(4096);
    EXPECT_EQ(pt.memoLookups(), 0u);
    EXPECT_EQ(pt.memoHits(), 0u);

    const auto a = pt.translateAddr(0x1008); // miss: demand-maps vpn 1
    ASSERT_TRUE(a);
    EXPECT_EQ(pt.translateAddr(0x1ff0), *a - 0x8 + 0xff0); // hit
    EXPECT_EQ(pt.memoLookups(), 2u);
    EXPECT_EQ(pt.memoHits(), 1u);

    // vpn 56 hashes to vpn 1's memo slot: each evicts the other.
    ASSERT_TRUE(pt.translateAddr(56 * 4096));
    ASSERT_TRUE(pt.translateAddr(0x1000));
    EXPECT_EQ(pt.memoLookups(), 4u);
    EXPECT_EQ(pt.memoHits(), 1u);

    // unmap evicts the slot; the blocked page misses and fails.
    pt.unmap(1);
    EXPECT_FALSE(pt.translateAddr(0x1000));
    EXPECT_EQ(pt.memoLookups(), 5u);
    EXPECT_EQ(pt.memoHits(), 1u);

    // translate() bypasses the memo and is not counted.
    pt.translate(56);
    EXPECT_EQ(pt.memoLookups(), 5u);
}

TEST(PageTable, MemoHoldsSegmentAlignedPages)
{
    // Sixteen segment-base pages that agree in their low VPN bits,
    // as log2-aligned segments do (one code segment per thread at
    // (t + 1) << 20), translated round-robin: after the first pass
    // the memo answers every lookup.
    PageTable pt(4096);
    for (int pass = 0; pass < 4; ++pass)
        for (uint64_t t = 0; t < 16; ++t)
            ASSERT_TRUE(pt.translateAddr(((t + 1) << 8) * 4096 + 8));
    EXPECT_EQ(pt.memoLookups(), 64u);
    EXPECT_EQ(pt.memoHits(), 48u);
}

TEST(PageTable, MemoCountersStayOutOfStatExports)
{
    PageTable pt(4096);
    pt.translateAddr(0x1000);
    pt.translateAddr(0x1000);
    std::vector<std::string> names;
    for (const auto &[name, counter] : pt.stats().counters())
        names.push_back(name);
    EXPECT_EQ(names,
              (std::vector<std::string>{"pages_mapped", "pages_unmapped"}));
}

} // namespace
} // namespace gp::mem
