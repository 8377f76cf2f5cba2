/**
 * @file
 * Tagged physical memory.
 *
 * Every 64-bit word of storage carries the pointer-tag bit (the 1.5%
 * storage overhead quantified in §4.1). Storage is chunked: host
 * memory is allocated one 4 KiB chunk (512 words) at a time, the
 * first time any word in it is written. Each chunk packs its payload
 * words, a tag bitmap, a resident bitmap (which words have ever been
 * written) and one check byte per word. Chunks below kDenseChunks are
 * indexed by frame number in a vector — the frame allocator hands
 * frames out densely from 0, so this is the common case and a lookup
 * is one bounds test and one load. Chunks above that range live in an
 * ordered map, so the full 54-bit space can still be exercised on a
 * laptop and a single high address never grows the index vector.
 *
 * Tag semantics at sub-word granularity: only aligned 8-byte accesses
 * can read or write a tagged word intact. Writing any smaller quantity
 * into a word clears its tag — partially overwriting a pointer must
 * destroy the capability, never yield a forged one.
 *
 * Hardening (ISSUE 4): each stored word optionally carries a check
 * byte computed by mem/ecc.h — one parity bit or a full SECDED code
 * over all 65 bits. The raw-bit corruption API below models radiation
 * or disturbance faults by flipping *stored* state (payload, tag, or
 * check bits) without updating the code, exactly what a real upset
 * does; readWordChecked() then detects/corrects on the way out.
 */

#ifndef GP_MEM_TAGGED_MEMORY_H
#define GP_MEM_TAGGED_MEMORY_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "gp/ops.h"
#include "gp/word.h"
#include "mem/ecc.h"

namespace gp::mem {

/** A word read through the ECC check path. */
struct CheckedWord
{
    Word word{};
    EccStatus status = EccStatus::Ok;
};

/** Chunked tagged word-addressable physical memory. */
class TaggedMemory
{
  public:
    TaggedMemory() = default;

    /**
     * Select the hardening code. Re-encodes every resident word so
     * the switch is always consistent; call before loading a program
     * to model a machine built with that code.
     */
    void setEccMode(EccMode mode);

    EccMode eccMode() const { return ecc_; }

    /** Read the full tagged word containing byte address addr. */
    Word
    readWord(uint64_t addr) const
    {
        // A word never written is zero with its tag clear in its
        // chunk, which is exactly Word{}.
        const Chunk *c = findChunk(addr);
        return c ? c->word(slotOf(addr)) : Word{};
    }

    /** Write a full tagged word at 8-byte-aligned byte address addr. */
    void
    writeWord(uint64_t addr, Word w)
    {
        Chunk &c = chunkAt(addr);
        const unsigned i = slotOf(addr);
        c.bits[i] = w.bits();
        setBit(c.tag, i, w.isPointer());
        if (!testBit(c.resident, i)) {
            setBit(c.resident, i, true);
            words_++;
        }
        if (ecc_ != EccMode::None)
            c.check[i] = eccEncode(ecc_, w.bits(), w.isPointer());
    }

    /**
     * Read one word through the ECC decode path. With SECDED a
     * single-bit error (payload, tag, or check) is repaired *in
     * storage* (persistent scrub) and reported as Corrected; an
     * uncorrectable error returns Detected and the word must not be
     * consumed architecturally. With EccMode::None this is exactly
     * readWord().
     */
    CheckedWord readWordChecked(uint64_t addr);

    /**
     * The data step of every load, store and fetch once its address
     * is physical — the same for the timed, mesh and functional
     * ports, wherever the word lives. Loads and fetches read the
     * whole word through the ECC path (checked, and scrubbed when
     * corrected, even for a sub-word load), then a sub-word load
     * takes its bytes zero-extended and untagged. Stores write the
     * word or the bytes (writeBytes' tag rule). A store returns
     * Word{} with status Ok; a Detected word must not be consumed.
     */
    CheckedWord
    access(Access kind, uint64_t paddr, unsigned size, Word value)
    {
        if (kind == Access::Store) {
            if (size == 8)
                writeWord(paddr, value);
            else
                writeBytes(paddr, size, value.bits());
            return CheckedWord{};
        }
        if (ecc_ == EccMode::None)
            return CheckedWord{loaded(readWord(paddr), paddr, size),
                               EccStatus::Ok};
        CheckedWord cw = readWordChecked(paddr);
        cw.word = loaded(cw.word, paddr, size);
        return cw;
    }

    /**
     * Write size bytes (1/2/4/8, naturally aligned). Sub-word writes
     * clear the containing word's tag bit.
     */
    void writeBytes(uint64_t addr, unsigned size, uint64_t value);

    /** @return number of distinct words ever written. */
    size_t wordsAllocated() const { return words_; }

    /** Drop all contents. */
    void clear();

    // ---- fault-injection / corruption API ------------------------

    /**
     * Flip one stored bit of the word containing @p addr without
     * updating the check byte (a genuine storage upset). Bit index:
     * 0..63 = payload bit, 64 = tag bit, 65..72 = check bit 0..7.
     * @return false when no word is resident at addr (nothing flips).
     */
    bool flipStoredBit(uint64_t addr, unsigned bit);

    /** Sorted byte addresses of every resident word. */
    std::vector<uint64_t> wordAddrs() const;

    /** Sorted byte addresses of resident words with the tag set. */
    std::vector<uint64_t> taggedWordAddrs() const;

    /** Words repaired by SECDED since construction/clear. */
    uint64_t eccCorrected() const { return eccCorrected_; }

    /** Uncorrectable errors detected since construction/clear. */
    uint64_t eccDetected() const { return eccDetected_; }

  private:
    /// Words per chunk and log2 of the chunk's byte size (4 KiB).
    static constexpr unsigned kChunkWords = 512;
    static constexpr unsigned kChunkShift = 12;
    /// Chunks indexed by frame in dense_; beyond this they go in
    /// sparse_. Caps the index vector at 512 KiB of pointers.
    static constexpr uint64_t kDenseChunks = uint64_t(1) << 16;

    /**
     * The 512 words of one 4 KiB frame: payloads, tag and resident
     * bitmaps, and one check byte per word. Zeroed whenever it is
     * handed out, so a non-resident word reads as Word{}.
     */
    struct Chunk
    {
        uint64_t bits[kChunkWords];
        uint64_t tag[kChunkWords / 64];
        uint64_t resident[kChunkWords / 64];
        uint8_t check[kChunkWords];

        Word
        word(unsigned i) const
        {
            return testBit(tag, i) ? Word::fromRawPointerBits(bits[i])
                                   : Word::fromInt(bits[i]);
        }
    };

    static bool
    testBit(const uint64_t *map, unsigned i)
    {
        return (map[i >> 6] >> (i & 63)) & 1;
    }

    static void
    setBit(uint64_t *map, unsigned i, bool on)
    {
        const uint64_t m = uint64_t(1) << (i & 63);
        map[i >> 6] = on ? map[i >> 6] | m : map[i >> 6] & ~m;
    }

    /** What a load of size bytes at addr takes from its word w: all
     * of it, or the bytes zero-extended and untagged. */
    static Word
    loaded(Word w, uint64_t addr, unsigned size)
    {
        if (size == 8)
            return w;
        const uint64_t mask = (uint64_t(1) << (size * 8)) - 1;
        return Word::fromInt((w.bits() >> ((addr & 7) * 8)) & mask);
    }

    static unsigned
    slotOf(uint64_t addr)
    {
        return unsigned(addr >> 3) & (kChunkWords - 1);
    }

    /** The chunk holding addr, or nullptr if none is allocated. */
    const Chunk *
    findChunk(uint64_t addr) const
    {
        const uint64_t frame = addr >> kChunkShift;
        if (frame < dense_.size())
            return dense_[frame].get();
        return sparse_.empty() ? nullptr : findSparse(frame);
    }

    Chunk *
    findChunk(uint64_t addr)
    {
        return const_cast<Chunk *>(
            static_cast<const TaggedMemory *>(this)->findChunk(addr));
    }

    /** The chunk holding addr, allocated on first use. */
    Chunk &
    chunkAt(uint64_t addr)
    {
        Chunk *c = findChunk(addr);
        return c ? *c : allocChunk(addr >> kChunkShift);
    }

    /**
     * Chunks freed by one store are kept on a process-wide free list
     * (up to a cap) and reused by the next: handing ~4.7 KB blocks
     * back to malloc lets it coalesce and trim the heap, so every new
     * machine would page-fault its memory in afresh.
     */
    struct ChunkPool;
    static ChunkPool &chunkPool();

    struct ChunkRecycler
    {
        void operator()(Chunk *c) const;
    };
    using ChunkPtr = std::unique_ptr<Chunk, ChunkRecycler>;

    const Chunk *findSparse(uint64_t frame) const;
    Chunk &allocChunk(uint64_t frame);

    /** Call f(byte address, chunk, slot) for every resident word of
     * @p self in ascending address order (const or mutable chunks). */
    template <typename Self, typename F>
    static void forEachResident(Self &self, F &&f);

    EccMode ecc_ = EccMode::None;
    std::vector<ChunkPtr> dense_; //!< by frame
    std::map<uint64_t, ChunkPtr> sparse_; //!< by frame
    size_t words_ = 0; //!< resident words
    uint64_t eccCorrected_ = 0;
    uint64_t eccDetected_ = 0;
};

} // namespace gp::mem

#endif // GP_MEM_TAGGED_MEMORY_H
