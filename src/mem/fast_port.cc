#include "mem/fast_port.h"

namespace gp::mem {

MemAccess
FastPort::access(Word ptr, gp::Access kind, unsigned size, uint64_t now,
                 Word value, bool elide_check)
{
    MemAccess acc;
    acc.startCycle = now;
    acc.completeCycle = now;
    // Same pre-issue pointer check as the timed path's timedAccess(),
    // with the same elision contract (verifier proofs).
    if (!elide_check) {
        acc.fault = gp::checkAccess(ptr, kind, size);
        if (acc.fault != Fault::None)
            return acc;
    }
    // Functional translation with demand allocation — identical
    // mapping behaviour to the timed miss path, including the
    // UnmappedAddress fault for revoked (unmapped + blocked) pages.
    auto pa = mem_.pageTable().translateAddr(ptr.addr());
    if (!pa) {
        acc.fault = Fault::UnmappedAddress;
        return acc;
    }
    // No ECC here (the fast-mode Machine refuses it), so the status
    // is always Ok.
    acc.data = mem_.phys().access(kind, *pa, size, value).word;
    return acc;
}

MemAccess
FastPort::portLoad(Word ptr, unsigned size, uint64_t now,
                   bool elide_check)
{
    return access(ptr, gp::Access::Load, size, now, Word{}, elide_check);
}

MemAccess
FastPort::portStore(Word ptr, Word value, unsigned size, uint64_t now,
                    bool elide_check)
{
    return access(ptr, gp::Access::Store, size, now, value, elide_check);
}

MemAccess
FastPort::portFetch(Word ip, uint64_t now, bool elide_check)
{
    return access(ip, gp::Access::InstFetch, 8, now, Word{}, elide_check);
}

void
FastPort::portPoke(uint64_t vaddr, Word w)
{
    mem_.pokeWord(vaddr, w);
}

Word
FastPort::portPeek(uint64_t vaddr)
{
    return mem_.peekWord(vaddr);
}

} // namespace gp::mem
