/**
 * @file
 * Tests for the multicomputer memory view: one global space, local
 * caches, remote misses over the mesh — and the headline property
 * that a guarded pointer to remote memory is the same unmodified
 * word that works locally.
 */

#include <gtest/gtest.h>

#include <memory>

#include "noc/node_memory.h"

namespace gp::noc {
namespace {

class NodeMemoryTest : public ::testing::Test
{
  protected:
    NodeMemoryTest() : mesh_(MeshConfig{})
    {
        mem::MemConfig cfg;
        cfg.cache.setsPerBank = 64;
        for (unsigned n = 0; n < 4; ++n) {
            nodes_.push_back(std::make_unique<NodeMemory>(
                n, mesh_, global_, cfg));
        }
    }

    NodeMemory &node(unsigned n) { return *nodes_[n]; }

    /** Mint an RW pointer into `node`'s partition at offset. */
    Word
    ptrOn(unsigned node, uint64_t offset, uint64_t len = 12)
    {
        auto p = makePointer(Perm::ReadWrite, len,
                             nodeBase(node) + offset);
        EXPECT_TRUE(p);
        return p.value;
    }

    Mesh mesh_;
    GlobalMemory global_;
    std::vector<std::unique_ptr<NodeMemory>> nodes_;
};

TEST_F(NodeMemoryTest, AddressPartitioning)
{
    EXPECT_EQ(homeNode(nodeBase(0) + 0x1000), 0u);
    EXPECT_EQ(homeNode(nodeBase(3) + 0x1000), 3u);
    EXPECT_EQ(homeNode(nodeBase(63)), 63u);
    EXPECT_LT(nodeBase(63) + (uint64_t(1) << kNodeShift) - 1,
              kAddressSpaceBytes)
        << "partitions tile the 54-bit space exactly";
}

TEST_F(NodeMemoryTest, LocalStoreLoad)
{
    Word p = ptrOn(0, 0x10000);
    EXPECT_EQ(node(0).store(p, Word::fromInt(42), 8).fault,
              Fault::None);
    auto ld = node(0).load(p, 8);
    EXPECT_EQ(ld.fault, Fault::None);
    EXPECT_EQ(ld.data.bits(), 42u);
}

TEST_F(NodeMemoryTest, RemoteAccessSamePointerWorks)
{
    // The paper's global-space property: node 2 dereferences a
    // pointer to node 0's memory with the identical word node 0 uses.
    Word p = ptrOn(0, 0x10000);
    node(0).store(p, Word::fromInt(0x5EED), 8);
    auto ld = node(2).load(p, 8);
    EXPECT_EQ(ld.fault, Fault::None);
    EXPECT_EQ(ld.data.bits(), 0x5EEDu);
    EXPECT_EQ(node(2).stats().get("remote_misses"), 1u);
}

TEST_F(NodeMemoryTest, RemoteMissCostsMeshRoundTrip)
{
    Word local = ptrOn(1, 0x20000);
    Word remote = ptrOn(3, 0x20000);
    const auto l = node(1).load(local, 8, 0);
    const auto r = node(1).load(remote, 8, 0);
    EXPECT_GT(r.latency(), l.latency())
        << "remote miss pays the network";
}

TEST_F(NodeMemoryTest, RemoteHitsAreLocalAfterCaching)
{
    Word remote = ptrOn(3, 0x30000);
    node(0).store(remote, Word::fromInt(7), 8);
    const auto miss = node(0).load(remote, 8, 0);
    const auto hit = node(0).load(remote, 8, miss.completeCycle);
    EXPECT_TRUE(hit.cacheHit);
    EXPECT_EQ(hit.latency(), 1u)
        << "virtually-addressed cache makes remote data local";
}

TEST_F(NodeMemoryTest, LatencyGrowsWithHopDistance)
{
    // Default mesh is 4x2x2: node 0 -> 1 is one hop, 0 -> 3 is three.
    const auto near = node(0).load(ptrOn(1, 0x40000), 8, 0);
    const auto far = node(0).load(ptrOn(3, 0x40000), 8, 0);
    EXPECT_GT(far.latency(), near.latency());
}

TEST_F(NodeMemoryTest, PermissionChecksIdenticalForRemote)
{
    auto ro = restrictPerm(ptrOn(3, 0x50000), Perm::ReadOnly);
    ASSERT_TRUE(ro);
    auto st = node(0).store(ro.value, Word::fromInt(1), 8);
    EXPECT_EQ(st.fault, Fault::PermissionDenied);
    EXPECT_EQ(st.completeCycle, st.startCycle)
        << "faults before any network traffic";
    EXPECT_EQ(mesh_.stats().get("messages"), 0u);
}

TEST_F(NodeMemoryTest, CapabilitiesTravelAcrossNodes)
{
    // Node 0 stores a capability into node 1's memory; node 2 loads
    // it and dereferences it — three nodes, one word, no translation
    // of the capability anywhere.
    Word target = ptrOn(3, 0x60000);
    node(3).store(target, Word::fromInt(0xABCD), 8);

    Word mailbox = ptrOn(1, 0x70000);
    auto grant = restrictPerm(target, Perm::ReadOnly);
    ASSERT_TRUE(grant);
    node(0).store(mailbox, grant.value, 8);

    auto fetched = node(2).load(mailbox, 8);
    ASSERT_EQ(fetched.fault, Fault::None);
    ASSERT_TRUE(fetched.data.isPointer()) << "tag crossed the mesh";
    auto deref = node(2).load(fetched.data, 8);
    EXPECT_EQ(deref.data.bits(), 0xABCDu);
}

TEST_F(NodeMemoryTest, StatsDistinguishLocalAndRemote)
{
    node(0).load(ptrOn(0, 0x1000), 8);
    node(0).load(ptrOn(2, 0x1000), 8);
    EXPECT_EQ(node(0).stats().get("local_misses"), 1u);
    EXPECT_EQ(node(0).stats().get("remote_misses"), 1u);
}

TEST(NodeMemory, SubWordLoadIsEccChecked)
{
    // A one-byte load reads its whole word through SECDED, exactly as
    // on a single node: a flipped payload bit is corrected (and
    // counted), never handed to the program.
    Mesh mesh{MeshConfig{}};
    GlobalMemory global;
    global.setEccMode(mem::EccMode::Secded);
    NodeMemory node(0, mesh, global);
    auto p = makePointer(Perm::ReadWrite, 12, nodeBase(0) + 0x10000);
    ASSERT_TRUE(p);
    ASSERT_EQ(node.store(p.value, Word::fromInt(0x11), 8).fault,
              Fault::None);
    const auto pa =
        global.slice(0).pageTable.translateAddr(p.value.addr());
    ASSERT_TRUE(pa);
    ASSERT_TRUE(global.slice(0).phys.flipStoredBit(*pa, 0));

    const mem::MemAccess acc = node.load(p.value, 1, 100);
    EXPECT_EQ(acc.fault, Fault::None);
    EXPECT_EQ(acc.data.bits(), 0x11u);
    EXPECT_EQ(node.stats().get("ecc_corrected"), 1u);
}

} // namespace
} // namespace gp::noc
