#include "mem/tagged_memory.h"

#include <cstring>
#include <mutex>

#include "sim/log.h"

namespace gp::mem {

namespace {

Word
makeWord(uint64_t bits, bool tag)
{
    return tag ? Word::fromRawPointerBits(bits) : Word::fromInt(bits);
}

} // namespace

struct TaggedMemory::ChunkPool
{
    /// About 4.7 MB of free chunks at most.
    static constexpr size_t kMaxFree = 1024;

    std::mutex mu; // stores live on any host thread of the mesh
    std::vector<Chunk *> free;
};

TaggedMemory::ChunkPool &
TaggedMemory::chunkPool()
{
    static ChunkPool *pool = new ChunkPool; // outlives every store
    return *pool;
}

void
TaggedMemory::ChunkRecycler::operator()(Chunk *c) const
{
    ChunkPool &pool = chunkPool();
    {
        std::lock_guard<std::mutex> lock(pool.mu);
        if (pool.free.size() < ChunkPool::kMaxFree) {
            pool.free.push_back(c);
            return;
        }
    }
    delete c;
}

const TaggedMemory::Chunk *
TaggedMemory::findSparse(uint64_t frame) const
{
    auto it = sparse_.find(frame);
    return it == sparse_.end() ? nullptr : it->second.get();
}

TaggedMemory::Chunk &
TaggedMemory::allocChunk(uint64_t frame)
{
    // Every word starts non-resident, zero and untagged.
    Chunk *raw = nullptr;
    {
        ChunkPool &pool = chunkPool();
        std::lock_guard<std::mutex> lock(pool.mu);
        if (!pool.free.empty()) {
            raw = pool.free.back();
            pool.free.pop_back();
        }
    }
    if (raw)
        std::memset(static_cast<void *>(raw), 0, sizeof(Chunk));
    else
        raw = new Chunk();
    ChunkPtr chunk(raw);
    Chunk &c = *chunk;
    if (frame < kDenseChunks) {
        if (frame >= dense_.size())
            dense_.resize(frame + 1);
        dense_[frame] = std::move(chunk);
    } else {
        sparse_.emplace(frame, std::move(chunk));
    }
    return c;
}

template <typename Self, typename F>
void
TaggedMemory::forEachResident(Self &self, F &&f)
{
    auto visit = [&](uint64_t frame, auto &c) {
        for (unsigned w = 0; w < kChunkWords / 64; ++w) {
            for (uint64_t m = c.resident[w]; m != 0; m &= m - 1) {
                const unsigned i = w * 64 + unsigned(__builtin_ctzll(m));
                f((frame << kChunkShift) | (uint64_t(i) << 3), c, i);
            }
        }
    };
    // Every sparse frame lies above every dense one, so dense-then-
    // sparse order is ascending address order.
    for (uint64_t frame = 0; frame < self.dense_.size(); ++frame)
        if (self.dense_[frame])
            visit(frame, *self.dense_[frame]);
    for (auto &[frame, c] : self.sparse_)
        visit(frame, *c);
}

void
TaggedMemory::clear()
{
    dense_.clear();
    sparse_.clear();
    words_ = 0;
}

void
TaggedMemory::setEccMode(EccMode mode)
{
    ecc_ = mode;
    forEachResident(*this, [&](uint64_t, Chunk &c, unsigned i) {
        c.check[i] = eccEncode(ecc_, c.bits[i], testBit(c.tag, i));
    });
}

CheckedWord
TaggedMemory::readWordChecked(uint64_t addr)
{
    Chunk *c = findChunk(addr);
    const unsigned i = slotOf(addr);
    if (!c || !testBit(c->resident, i))
        return CheckedWord{Word{}, EccStatus::Ok};
    if (ecc_ == EccMode::None)
        return CheckedWord{c->word(i), EccStatus::Ok};

    uint64_t bits = c->bits[i];
    bool tag = testBit(c->tag, i);
    uint8_t check = c->check[i];
    const EccStatus status = eccDecode(ecc_, bits, tag, check);
    if (status == EccStatus::Corrected) {
        // Persistent scrub: repair the stored copy so the same upset
        // is not re-corrected (and cannot combine with a later one
        // into an uncorrectable pair).
        c->bits[i] = bits;
        setBit(c->tag, i, tag);
        c->check[i] = check;
        eccCorrected_++;
    } else if (status == EccStatus::Detected) {
        eccDetected_++;
    }
    return CheckedWord{makeWord(bits, tag), status};
}

void
TaggedMemory::writeBytes(uint64_t addr, unsigned size, uint64_t value)
{
    if (size == 8) {
        writeWord(addr, Word::fromInt(value));
        return;
    }

    const Word old = readWord(addr);
    const unsigned shift = (addr & 7) * 8;
    const uint64_t mask = ((uint64_t(1) << (size * 8)) - 1) << shift;
    const uint64_t bits =
        (old.bits() & ~mask) | ((value << shift) & mask);
    // Sub-word writes always clear the tag: a partially overwritten
    // pointer must not remain a valid capability.
    writeWord(addr, Word::fromInt(bits));
}

bool
TaggedMemory::flipStoredBit(uint64_t addr, unsigned bit)
{
    Chunk *c = findChunk(addr);
    const unsigned i = slotOf(addr);
    if (!c || !testBit(c->resident, i))
        return false;
    if (bit < 64) {
        c->bits[i] ^= uint64_t(1) << bit;
    } else if (bit == 64) {
        setBit(c->tag, i, !testBit(c->tag, i));
    } else if (bit < 64 + 1 + kEccCheckBits) {
        c->check[i] ^= uint8_t(1u << (bit - 65));
    } else {
        return false;
    }
    return true;
}

std::vector<uint64_t>
TaggedMemory::wordAddrs() const
{
    std::vector<uint64_t> addrs;
    addrs.reserve(words_);
    forEachResident(*this, [&](uint64_t addr, const Chunk &, unsigned) {
        addrs.push_back(addr);
    });
    return addrs;
}

std::vector<uint64_t>
TaggedMemory::taggedWordAddrs() const
{
    std::vector<uint64_t> addrs;
    forEachResident(*this, [&](uint64_t addr, const Chunk &c,
                               unsigned i) {
        if (testBit(c.tag, i))
            addrs.push_back(addr);
    });
    return addrs;
}

} // namespace gp::mem
