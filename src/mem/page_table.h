/**
 * @file
 * The single global page table of the guarded-pointer memory system.
 *
 * Because protection lives entirely in pointers, translation carries no
 * per-process state: one table maps 54-bit virtual pages to physical
 * frames for every process on the machine (paper §2). Unmapping a page
 * is the revocation/relocation hook of §4.3.
 */

#ifndef GP_MEM_PAGE_TABLE_H
#define GP_MEM_PAGE_TABLE_H

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "sim/stats.h"

namespace gp::mem {

/** Global virtual-to-physical page mapping with a frame allocator. */
class PageTable
{
  public:
    /** @param page_bytes page size; must be a power of two. */
    explicit PageTable(uint64_t page_bytes = 4096);

    /** @return log2(page size). */
    unsigned pageShift() const { return pageShift_; }
    uint64_t pageBytes() const { return uint64_t(1) << pageShift_; }

    /** @return the virtual page number containing vaddr. */
    uint64_t vpn(uint64_t vaddr) const { return vaddr >> pageShift_; }

    /**
     * Map a virtual page to a freshly allocated physical frame.
     * @return the frame number. Remapping an already-mapped page keeps
     * its existing frame.
     */
    uint64_t map(uint64_t vpn);

    /**
     * Remove a translation. Subsequent accesses fault, which is how a
     * segment's pointers are revoked or relocated en masse (§4.3). The
     * page is also blocked from demand allocation until map()ed again,
     * so revocation cannot be undone by a stray touch.
     * @return true if the page was mapped.
     */
    bool unmap(uint64_t vpn);

    /** @return the frame for vpn, or nullopt if unmapped. */
    std::optional<uint64_t> translate(uint64_t vpn) const;

    /**
     * Translate a full virtual byte address to a physical byte address,
     * mapping the page on demand when allocate_on_touch is set. The
     * memo hit is inline: every fast-port fetch and load and every
     * timed cache hit translates.
     */
    std::optional<uint64_t>
    translateAddr(uint64_t vaddr)
    {
        const uint64_t page = vpn(vaddr);
        // A positive translation can only change via unmap(), which
        // evicts the page's slot, so a match is always the same
        // answer the map lookup would give.
        MemoEntry &slot = memoSlot(page);
        memoLookups_++;
        if (slot.vpn == page) {
            memoHits_++;
            return (slot.pfn << pageShift_) | (vaddr & (pageBytes() - 1));
        }
        return translateMiss(vaddr, slot);
    }

    /** Demand-map pages touched through translateAddr(). */
    void setAllocateOnTouch(bool on) { allocateOnTouch_ = on; }

    size_t mappedPages() const { return mapped_; }

    /**
     * translateAddr() calls, and those answered by the memo. Plain
     * members rather than stat counters, so stat exports and the
     * signatures built from them are unchanged.
     */
    uint64_t memoLookups() const { return memoLookups_; }
    uint64_t memoHits() const { return memoHits_; }

    sim::StatGroup &stats() { return stats_; }

  private:
    struct MemoEntry;

    /** translateAddr() past a memo miss: the map, then the memo. */
    std::optional<uint64_t> translateMiss(uint64_t vaddr, MemoEntry &slot);

    /// Sentinel VPN that can never match (addresses are 54-bit).
    static constexpr uint64_t kNoMru = ~uint64_t(0);

    /// Translation-memo size; must be a power of two. Sized so that
    /// one hot page per hardware thread slot (16) plus code pages
    /// fits without conflict in the common case.
    static constexpr unsigned kMemoBits = 6;
    static constexpr size_t kMemoEntries = size_t(1) << kMemoBits;

    /// One slot of the translateAddr() memo. Purely a host-speed
    /// cache: the timed hit path performs a functional translation
    /// per access, and the working set of pages is tiny. A positive
    /// translation can only change via unmap(), which evicts the
    /// affected slot, so a memo hit is always identical to the map
    /// lookup.
    struct MemoEntry
    {
        uint64_t vpn = kNoMru;
        uint64_t pfn = 0;
    };

    /**
     * What the table knows of one page. A mapped page has a frame. An
     * unmapped (revoked) page is blocked from demand allocation and
     * keeps its frame, if it had one, for reinstatement on re-map.
     */
    struct Entry
    {
        static constexpr uint64_t kNoFrame = ~uint64_t(0);
        uint64_t pfn = kNoFrame;
        bool mapped = false;
    };

    /**
     * The memo slot of a VPN: a multiplicative hash, not the low VPN
     * bits. Guarded-pointer segments are log2-aligned, so their base
     * pages share low bits and would all collide in one slot.
     */
    MemoEntry &
    memoSlot(uint64_t vpn)
    {
        return memo_[(vpn * 0x9e3779b97f4a7c15ull) >> (64 - kMemoBits)];
    }

    unsigned pageShift_;
    bool allocateOnTouch_ = true;
    uint64_t nextFrame_ = 0;
    size_t mapped_ = 0;
    MemoEntry memo_[kMemoEntries];
    std::unordered_map<uint64_t, Entry> table_; //!< by VPN
    uint64_t memoLookups_ = 0;
    uint64_t memoHits_ = 0;
    sim::StatGroup stats_{"page_table"};

    // Cached stat handles: map() runs on the demand-allocation path
    // under translateAddr(), so it must not pay a string-keyed
    // lookup per event (docs/OBSERVABILITY.md).
    sim::Counter *pagesMapped_ = nullptr;
    sim::Counter *pagesUnmapped_ = nullptr;
};

} // namespace gp::mem

#endif // GP_MEM_PAGE_TABLE_H
