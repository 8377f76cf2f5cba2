#include "mem/page_table.h"

#include "sim/log.h"

namespace gp::mem {

PageTable::PageTable(uint64_t page_bytes)
{
    if (page_bytes == 0 || (page_bytes & (page_bytes - 1)) != 0)
        sim::fatal("page size must be a power of two");
    pageShift_ = static_cast<unsigned>(__builtin_ctzll(page_bytes));
    pagesMapped_ = &stats_.counter("pages_mapped");
    pagesUnmapped_ = &stats_.counter("pages_unmapped");
}

uint64_t
PageTable::map(uint64_t vpn)
{
    Entry &e = table_[vpn];
    if (e.mapped)
        return e.pfn;
    // Re-mapping a previously unmapped page restores its old frame so
    // reinstated segments keep their contents (§4.3 relocation).
    if (e.pfn == Entry::kNoFrame)
        e.pfn = nextFrame_++;
    e.mapped = true;
    mapped_++;
    (*pagesMapped_)++;
    return e.pfn;
}

bool
PageTable::unmap(uint64_t vpn)
{
    (*pagesUnmapped_)++;
    // Drop the memo slot before the translation goes.
    memoSlot(vpn).vpn = kNoMru;
    Entry &e = table_[vpn]; // an unknown page is still blocked
    if (!e.mapped)
        return false;
    e.mapped = false;
    mapped_--;
    return true;
}

std::optional<uint64_t>
PageTable::translate(uint64_t vpn) const
{
    auto it = table_.find(vpn);
    if (it == table_.end() || !it->second.mapped)
        return std::nullopt;
    return it->second.pfn;
}

std::optional<uint64_t>
PageTable::translateMiss(uint64_t vaddr, MemoEntry &slot)
{
    const uint64_t page = vpn(vaddr);
    uint64_t pfn;
    if (auto it = table_.find(page); it != table_.end()) {
        if (!it->second.mapped)
            return std::nullopt; // revoked: blocked until re-mapped
        pfn = it->second.pfn;
    } else {
        if (!allocateOnTouch_)
            return std::nullopt;
        pfn = map(page);
    }
    slot.vpn = page;
    slot.pfn = pfn;
    return (pfn << pageShift_) | (vaddr & (pageBytes() - 1));
}

} // namespace gp::mem
