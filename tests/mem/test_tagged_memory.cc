/**
 * @file
 * Tests for tagged physical memory: tag preservation on word accesses,
 * the security-critical tag-clearing on sub-word writes, and the
 * chunked store's bookkeeping across dense and sparse chunks.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "gp/pointer.h"
#include "mem/tagged_memory.h"

namespace gp::mem {
namespace {

/** A load of size bytes through the data step, as every port does. */
uint64_t
loadBytes(TaggedMemory &m, uint64_t addr, unsigned size)
{
    return m.access(Access::Load, addr, size, Word{}).word.bits();
}

TEST(TaggedMemory, UnwrittenReadsAsUntaggedZero)
{
    TaggedMemory m;
    Word w = m.readWord(0x1000);
    EXPECT_FALSE(w.isPointer());
    EXPECT_EQ(w.bits(), 0u);
}

TEST(TaggedMemory, WordRoundTripPreservesTag)
{
    TaggedMemory m;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    m.writeWord(0x100, p.value);
    Word back = m.readWord(0x100);
    EXPECT_TRUE(back.isPointer());
    EXPECT_EQ(back.bits(), p.value.bits());
}

TEST(TaggedMemory, IntWordRoundTrip)
{
    TaggedMemory m;
    m.writeWord(0x108, Word::fromInt(0x1122334455667788ull));
    EXPECT_EQ(m.readWord(0x108).bits(), 0x1122334455667788ull);
    EXPECT_FALSE(m.readWord(0x108).isPointer());
}

TEST(TaggedMemory, DistinctWordsAreIndependent)
{
    TaggedMemory m;
    m.writeWord(0x0, Word::fromInt(1));
    m.writeWord(0x8, Word::fromInt(2));
    EXPECT_EQ(m.readWord(0x0).bits(), 1u);
    EXPECT_EQ(m.readWord(0x8).bits(), 2u);
}

TEST(TaggedMemory, SubWordReadExtractsBytes)
{
    TaggedMemory m;
    m.writeWord(0x10, Word::fromInt(0x8877665544332211ull));
    EXPECT_EQ(loadBytes(m, 0x10, 1), 0x11u);
    EXPECT_EQ(loadBytes(m, 0x11, 1), 0x22u);
    EXPECT_EQ(loadBytes(m, 0x17, 1), 0x88u);
    EXPECT_EQ(loadBytes(m, 0x10, 2), 0x2211u);
    EXPECT_EQ(loadBytes(m, 0x12, 2), 0x4433u);
    EXPECT_EQ(loadBytes(m, 0x10, 4), 0x44332211u);
    EXPECT_EQ(loadBytes(m, 0x14, 4), 0x88776655u);
    EXPECT_EQ(loadBytes(m, 0x10, 8), 0x8877665544332211ull);
}

TEST(TaggedMemory, SubWordWriteMergesBytes)
{
    TaggedMemory m;
    m.writeWord(0x20, Word::fromInt(0xffffffffffffffffull));
    m.writeBytes(0x22, 2, 0xabcd);
    EXPECT_EQ(m.readWord(0x20).bits(), 0xffffffffabcdffffull);
    m.writeBytes(0x20, 1, 0x00);
    EXPECT_EQ(m.readWord(0x20).bits(), 0xffffffffabcdff00ull);
    m.writeBytes(0x24, 4, 0x12345678);
    EXPECT_EQ(m.readWord(0x20).bits(), 0x12345678abcdff00ull);
}

TEST(TaggedMemory, SubWordWriteDestroysCapability)
{
    // Partially overwriting a pointer word must clear its tag — the
    // fragment must never remain usable as a capability.
    TaggedMemory m;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    m.writeWord(0x30, p.value);
    ASSERT_TRUE(m.readWord(0x30).isPointer());
    m.writeBytes(0x30, 1, 0xff);
    EXPECT_FALSE(m.readWord(0x30).isPointer());
}

TEST(TaggedMemory, FullWordByteWriteIsUntagged)
{
    TaggedMemory m;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    // Even writing the pointer's exact bit pattern through the
    // integer path yields an untagged word: no forging via stores.
    m.writeBytes(0x40, 8, p.value.bits());
    EXPECT_FALSE(m.readWord(0x40).isPointer());
    EXPECT_EQ(m.readWord(0x40).bits(), p.value.bits());
}

TEST(TaggedMemory, SubWordReadNeverExposesTag)
{
    TaggedMemory m;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    m.writeWord(0x50, p.value);
    // 4-byte read of a tagged word returns plain bits.
    const uint64_t lo = loadBytes(m, 0x50, 4);
    EXPECT_EQ(lo, p.value.bits() & 0xffffffffu);
}

TEST(TaggedMemory, SparseFootprint)
{
    // A low (dense-index) word and words near 2^50 (sparse chunks)
    // coexist without disturbing their neighbours.
    const uint64_t high = uint64_t(1) << 50;
    TaggedMemory m;
    m.writeWord(0x0, Word::fromInt(1));
    m.writeWord(high, Word::fromInt(2));
    m.writeWord(high + 0x1000, Word::fromInt(3));
    EXPECT_EQ(m.wordsAllocated(), 3u);
    EXPECT_EQ(m.readWord(0x0).bits(), 1u);
    EXPECT_EQ(m.readWord(high).bits(), 2u);
    EXPECT_EQ(m.readWord(high + 0x1000).bits(), 3u);
    EXPECT_EQ(m.readWord(high + 8).bits(), 0u);
    EXPECT_EQ(m.readWord(high - 8).bits(), 0u);
}

TEST(TaggedMemory, ClearDropsEverything)
{
    TaggedMemory m;
    m.writeWord(0x8, Word::fromInt(7));
    m.writeWord(0x5000, Word::fromInt(2));
    m.writeWord(uint64_t(1) << 50, Word::fromInt(3));
    m.clear();
    EXPECT_EQ(m.wordsAllocated(), 0u);
    EXPECT_TRUE(m.wordAddrs().empty());
    EXPECT_EQ(m.readWord(0x8).bits(), 0u);
    EXPECT_EQ(m.readWord(uint64_t(1) << 50).bits(), 0u);
    m.writeWord(0x5000, Word::fromInt(4));
    EXPECT_EQ(m.wordsAllocated(), 1u);
}

TEST(TaggedMemory, ChunkBoundaryWordsAreIndependent)
{
    // 0xff8 is the last word of chunk 0, 0x1000 the first of chunk 1.
    TaggedMemory m;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    m.writeWord(0xff8, p.value);
    m.writeWord(0x1000, Word::fromInt(9));
    EXPECT_TRUE(m.readWord(0xff8).isPointer());
    EXPECT_EQ(m.readWord(0xff8).bits(), p.value.bits());
    EXPECT_FALSE(m.readWord(0x1000).isPointer());
    EXPECT_EQ(m.readWord(0x1000).bits(), 9u);
    EXPECT_EQ(m.readWord(0xff0).bits(), 0u);
    EXPECT_EQ(m.readWord(0x1008).bits(), 0u);
    EXPECT_EQ(m.wordsAllocated(), 2u);
    EXPECT_EQ(m.wordAddrs(), (std::vector<uint64_t>{0xff8, 0x1000}));
}

TEST(TaggedMemory, RewriteDoesNotGrowFootprint)
{
    TaggedMemory m;
    m.writeWord(0x40, Word::fromInt(1));
    m.writeWord(0x40, Word::fromInt(2));
    m.writeBytes(0x44, 2, 0xffff);
    m.writeWord(uint64_t(1) << 50, Word::fromInt(3));
    m.writeWord(uint64_t(1) << 50, Word::fromInt(4));
    EXPECT_EQ(m.wordsAllocated(), 2u);
    // Sub-word writes allocate the word they touch, like a full write.
    m.writeBytes(0x81, 1, 0x5a);
    EXPECT_EQ(m.wordsAllocated(), 3u);
}

TEST(TaggedMemory, AddressListsSortedAcrossDenseAndSparse)
{
    const uint64_t high = uint64_t(1) << 50;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    TaggedMemory m;
    // Written out of order, across chunks and both index ranges.
    m.writeWord(high + 0x2000, p.value);
    m.writeWord(0x3008, Word::fromInt(1));
    m.writeWord(high, Word::fromInt(2));
    m.writeWord(0x10, p.value);
    m.writeWord(0x3000, p.value);
    m.writeWord(0x1ff8, Word::fromInt(3));

    const std::vector<uint64_t> all = m.wordAddrs();
    EXPECT_EQ(all, (std::vector<uint64_t>{0x10, 0x1ff8, 0x3000, 0x3008,
                                          high, high + 0x2000}));
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    EXPECT_EQ(m.taggedWordAddrs(),
              (std::vector<uint64_t>{0x10, 0x3000, high + 0x2000}));
}

TEST(TaggedMemory, FlipOnNonResidentWordInAllocatedChunkFails)
{
    TaggedMemory m;
    m.writeWord(0x1000, Word::fromInt(5)); // allocates chunk 1
    EXPECT_FALSE(m.flipStoredBit(0x1008, 0));
    EXPECT_FALSE(m.flipStoredBit(0x1008, 64));
    EXPECT_FALSE(m.flipStoredBit(0x1008, 65));
    EXPECT_EQ(m.readWord(0x1008).bits(), 0u);
    EXPECT_FALSE(m.readWord(0x1008).isPointer());
    EXPECT_EQ(m.wordsAllocated(), 1u);
    EXPECT_TRUE(m.flipStoredBit(0x1000, 0));
    EXPECT_EQ(m.readWord(0x1000).bits(), 4u);
}

TEST(TaggedMemory, EccModeSwitchReencodesDenseAndSparseWords)
{
    const uint64_t high = uint64_t(1) << 50;
    auto p = makePointer(Perm::ReadWrite, 12, 0x5000);
    ASSERT_TRUE(p);
    TaggedMemory m; // written with ECC off...
    m.writeWord(0x2000, p.value);
    m.writeWord(high, Word::fromInt(0xabcd));
    m.setEccMode(EccMode::Secded); // ...then re-encoded

    ASSERT_TRUE(m.flipStoredBit(0x2000, 64)); // strike the tag
    ASSERT_TRUE(m.flipStoredBit(high, 70));   // strike a check bit
    CheckedWord cw = m.readWordChecked(0x2000);
    EXPECT_EQ(cw.status, EccStatus::Corrected);
    EXPECT_TRUE(cw.word.isPointer());
    EXPECT_EQ(cw.word.bits(), p.value.bits());
    cw = m.readWordChecked(high);
    EXPECT_EQ(cw.status, EccStatus::Corrected);
    EXPECT_EQ(cw.word.bits(), 0xabcdu);
    EXPECT_EQ(m.eccCorrected(), 2u);

    // The scrub repaired storage: the plain read path sees the fix.
    EXPECT_TRUE(m.readWord(0x2000).isPointer());
    EXPECT_EQ(m.readWordChecked(0x2000).status, EccStatus::Ok);
    EXPECT_EQ(m.readWordChecked(high).status, EccStatus::Ok);
    // A word never written reads clean through the check path.
    EXPECT_EQ(m.readWordChecked(0x2008).status, EccStatus::Ok);
}

} // namespace
} // namespace gp::mem
