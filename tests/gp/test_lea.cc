/**
 * @file
 * Tests for LEA/LEAB pointer derivation and the masked-comparator
 * bounds check (Fig. 2, §2.2, §4.1), including parameterized sweeps
 * over all segment lengths and the pointer/integer cast sequences.
 */

#include <gtest/gtest.h>

#include <random>

#include "gp/ops.h"

namespace gp {
namespace {

Word
rwPtr(uint64_t len, uint64_t addr)
{
    auto p = makePointer(Perm::ReadWrite, len, addr);
    EXPECT_TRUE(p);
    return p.value;
}

TEST(Lea, InBoundsForwardAndBack)
{
    Word p = rwPtr(12, 0x10800); // segment [0x10000, 0x11000)
    auto fwd = lea(p, 0x7f8);
    ASSERT_TRUE(fwd);
    EXPECT_EQ(PointerView(fwd.value).addr(), 0x10ff8u);
    auto back = lea(p, -0x800);
    ASSERT_TRUE(back);
    EXPECT_EQ(PointerView(back.value).addr(), 0x10000u);
}

TEST(Lea, PreservesPermissionAndLength)
{
    Word p = rwPtr(12, 0x10800);
    auto q = lea(p, 8);
    ASSERT_TRUE(q);
    PointerView v(q.value);
    EXPECT_EQ(v.perm(), Perm::ReadWrite);
    EXPECT_EQ(v.lenLog2(), 12u);
    EXPECT_TRUE(q.value.isPointer());
}

TEST(Lea, OverflowFaults)
{
    Word p = rwPtr(12, 0x10ff8);
    EXPECT_TRUE(lea(p, 7)); // last byte
    EXPECT_EQ(lea(p, 8).fault, Fault::BoundsViolation);
    EXPECT_EQ(lea(p, 0x1000).fault, Fault::BoundsViolation);
}

TEST(Lea, UnderflowFaults)
{
    Word p = rwPtr(12, 0x10008);
    EXPECT_TRUE(lea(p, -8));
    EXPECT_EQ(lea(p, -9).fault, Fault::BoundsViolation);
    EXPECT_EQ(lea(p, -0x10008).fault, Fault::BoundsViolation);
}

TEST(Lea, ZeroOffsetAlwaysOk)
{
    for (uint64_t len = 0; len <= 54; ++len) {
        Word p = rwPtr(len, 0);
        EXPECT_TRUE(lea(p, 0)) << len;
    }
}

TEST(Lea, EnterAndKeyAreImmutable)
{
    auto enter = makePointer(Perm::EnterUser, 12, 0x1000);
    auto key = makePointer(Perm::Key, 12, 0x1000);
    ASSERT_TRUE(enter);
    ASSERT_TRUE(key);
    EXPECT_EQ(lea(enter.value, 8).fault, Fault::Immutable);
    EXPECT_EQ(lea(key.value, 8).fault, Fault::Immutable);
    EXPECT_EQ(lea(key.value, 0).fault, Fault::Immutable);
}

TEST(Lea, UntaggedWordFaults)
{
    EXPECT_EQ(lea(Word::fromInt(0x1000), 8).fault, Fault::NotAPointer);
}

TEST(Lea, ExecutePointersAreMutable)
{
    auto x = makePointer(Perm::ExecuteUser, 12, 0x1000);
    ASSERT_TRUE(x);
    EXPECT_TRUE(lea(x.value, 8));
}

TEST(Lea, WholeSpaceSegmentWraps)
{
    // len=54: there are no fixed bits, so arithmetic wraps mod 2^54
    // without faulting.
    Word p = rwPtr(54, kAddrMask);
    auto q = lea(p, 1);
    ASSERT_TRUE(q);
    EXPECT_EQ(PointerView(q.value).addr(), 0u);
}

TEST(Lea, OneByteSegmentRejectsAnyMove)
{
    Word p = rwPtr(0, 0x4242);
    EXPECT_EQ(lea(p, 1).fault, Fault::BoundsViolation);
    EXPECT_EQ(lea(p, -1).fault, Fault::BoundsViolation);
    EXPECT_TRUE(lea(p, 0));
}

/**
 * Property sweep: for every segment length, stepping to every corner
 * of the segment succeeds and stepping one past either edge faults.
 */
class LeaSweep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(LeaSweep, EdgesExact)
{
    const uint64_t len = GetParam();
    const uint64_t bytes = uint64_t(1) << len;
    const uint64_t base = bytes * 5; // aligned by construction
    if (base + bytes > kAddressSpaceBytes)
        GTEST_SKIP() << "segment does not fit at test base";
    const uint64_t mid = base + bytes / 2;
    Word p = rwPtr(len, mid);

    // To the first byte and the last byte: OK.
    auto lo = lea(p, -int64_t(bytes / 2));
    ASSERT_TRUE(lo);
    EXPECT_EQ(PointerView(lo.value).addr(), base);
    auto hi = lea(p, int64_t(bytes - bytes / 2 - 1));
    ASSERT_TRUE(hi);
    EXPECT_EQ(PointerView(hi.value).addr(), base + bytes - 1);

    // One past either edge: fault.
    EXPECT_EQ(lea(p, -int64_t(bytes / 2) - 1).fault,
              Fault::BoundsViolation);
    EXPECT_EQ(lea(p, int64_t(bytes - bytes / 2)).fault,
              Fault::BoundsViolation);
}

INSTANTIATE_TEST_SUITE_P(AllLengths, LeaSweep,
                         ::testing::Range(uint64_t(1), uint64_t(51)));

TEST(Leab, AddsFromSegmentBase)
{
    Word p = rwPtr(12, 0x10855); // base 0x10000
    auto q = leab(p, 0x20);
    ASSERT_TRUE(q);
    EXPECT_EQ(PointerView(q.value).addr(), 0x10020u);
}

TEST(Leab, ZeroYieldsBase)
{
    Word p = rwPtr(12, 0x10fff);
    auto q = leab(p, 0);
    ASSERT_TRUE(q);
    EXPECT_EQ(PointerView(q.value).addr(), 0x10000u);
}

TEST(Leab, BeyondSegmentFaults)
{
    Word p = rwPtr(12, 0x10800);
    EXPECT_TRUE(leab(p, 0xfff));
    EXPECT_EQ(leab(p, 0x1000).fault, Fault::BoundsViolation);
    EXPECT_EQ(leab(p, -1).fault, Fault::BoundsViolation);
}

TEST(Leab, ImmutableTypesFault)
{
    auto enter = makePointer(Perm::EnterPrivileged, 12, 0x1000);
    ASSERT_TRUE(enter);
    EXPECT_EQ(leab(enter.value, 0).fault, Fault::Immutable);
}

TEST(Casts, PtrToIntExtractsOffset)
{
    Word p = rwPtr(12, 0x10855);
    auto i = ptrToInt(p);
    ASSERT_TRUE(i);
    EXPECT_FALSE(i.value.isPointer());
    EXPECT_EQ(i.value.bits(), 0x855u);
}

TEST(Casts, IntToPtrRebuildsAddress)
{
    Word seg = rwPtr(12, 0x10855);
    auto p = intToPtr(seg, 0x123);
    ASSERT_TRUE(p);
    EXPECT_EQ(PointerView(p.value).addr(), 0x10123u);
    EXPECT_TRUE(p.value.isPointer());
}

TEST(Casts, RoundTripIsIdentityOnAddress)
{
    // §2.2: the two cast sequences compose to the original pointer.
    for (uint64_t off : {0ull, 1ull, 0x7ffull, 0xfffull}) {
        Word p = rwPtr(12, 0x20000 + off);
        auto i = ptrToInt(p);
        ASSERT_TRUE(i);
        auto q = intToPtr(p, i.value.bits());
        ASSERT_TRUE(q);
        EXPECT_EQ(PointerView(q.value).addr(), PointerView(p).addr());
    }
}

TEST(Casts, IntToPtrOutOfSegmentFaults)
{
    Word seg = rwPtr(12, 0x10000);
    EXPECT_EQ(intToPtr(seg, 0x1000).fault, Fault::BoundsViolation);
}

/**
 * Check elision swaps a checked pointer op for its unchecked twin
 * wherever the verifier proves the check passes. Over a seeded corpus
 * of valid pointers and operands, every time the checked op succeeds
 * the twin must return the identical word: bits and tag.
 */
TEST(Unchecked, TwinsMatchCheckedOpsWheneverTheySucceed)
{
    std::mt19937_64 rng(0x6c6561);
    unsigned matched[6] = {};
    unsigned i = 0;
    auto check = [&](unsigned pair, const Result<Word> &checked,
                     Word twin) {
        if (!checked)
            return;
        ++matched[pair];
        EXPECT_EQ(checked.value.bits(), twin.bits())
            << "pair " << pair << ", case " << i;
        EXPECT_EQ(checked.value.isPointer(), twin.isPointer())
            << "pair " << pair << ", case " << i;
    };
    for (; i < 20000; ++i) {
        const uint64_t len = rng() % (kAddrBits + 1);
        const auto made =
            makePointer(Perm(rng() % 8), len, rng() & kAddrMask);
        if (!made)
            continue;
        const Word p = made.value;
        // Operands within about one segment length of the pointer, so
        // both successes and bounds faults are common.
        const uint64_t span = uint64_t(1) << (len + 1);
        const int64_t delta = int64_t(rng() % span - span / 2);
        const uint64_t offset = rng() % span;
        const Perm target = Perm(rng() % 16);
        const uint64_t newLen = rng() % (len + 1);

        check(0, lea(p, delta), leaUnchecked(p, delta));
        check(1, leab(p, delta), leabUnchecked(p, delta));
        check(2, restrictPerm(p, target), restrictUnchecked(p, target));
        check(3, subseg(p, newLen), subsegUnchecked(p, newLen));
        check(4, ptrToInt(p), ptrToIntUnchecked(p));
        check(5, intToPtr(p, offset), intToPtrUnchecked(p, offset));
    }
    // The corpus must reach every pair's success path.
    for (unsigned n : matched)
        EXPECT_GT(n, 100u);
}

TEST(Setptr, MintsArbitraryPointers)
{
    // The privileged escape hatch: any bit pattern becomes a pointer.
    Word p = setptr((uint64_t(Perm::ReadWrite) << kPermShift) |
                    (uint64_t(20) << kLenShift) | 0x1234500000ull);
    EXPECT_TRUE(p.isPointer());
    auto d = decode(p);
    ASSERT_TRUE(d);
    EXPECT_EQ(d.value.perm(), Perm::ReadWrite);
    EXPECT_EQ(d.value.lenLog2(), 20u);
}

TEST(Ispointer, ReportsTagBit)
{
    EXPECT_EQ(ispointer(Word::fromInt(99)), 0u);
    EXPECT_EQ(ispointer(setptr(99)), 1u);
}

} // namespace
} // namespace gp
