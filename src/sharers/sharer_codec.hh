/**
 * @file
 * Sharer sets stored inline in directory entries.
 *
 * The paper composes the Cuckoo *organization* with existing entry
 * formats (§6: "the Cuckoo organization dictates only the organization of
 * the directory itself, not the contents of each entry"): full bit
 * vectors [9], coarse/limited-pointer vectors [17,24], hierarchical
 * two-level vectors [44,45], and a word-packed full vector. In hardware
 * an entry is a tag plus its sharer bits, and so it is here: every entry
 * owns SharerCodec::words() plain 64-bit words in its organization's
 * payload lane, and the slice's SharerCodec — the per-slice format
 * descriptor — reads and writes them. An all-zero entry is empty.
 *
 * Every format keeps the *exact* sharer set (hardware that frees an
 * entry when the last sharer evicts its block needs the exact count,
 * §5.2), so the formats differ only in how invalidation targets follow
 * from that set:
 *
 *  - FullVector, Hierarchical, Compressed: the exact set. The three are
 *    behaviourally identical; they differ in the storage bits the
 *    analytical model charges (storageBits()).
 *  - CoarseVector (the paper's "Sparse Coarse", §3.3): the entry
 *    budgets 2*log2(N) bits, enough for two exact pointers. On the third
 *    sharer the bits become a coarse vector, one bit per group of
 *    ceil(N / 2log2(N)) caches, and invalidations target every cache of
 *    every marked group. Group bits are sticky: another sharer may map
 *    to the same group, so removals never clear them and the entry
 *    returns to pointer mode only when it empties.
 *
 * Encoding of one entry:
 *
 *  - up to 64 caches: word 0 is the presence vector;
 *  - above 64 caches: words [0, kInlineWords) hold the non-zero 64-cache
 *    words of the presence vector, and the next word packs their word
 *    indices, 16 bits each. A set that needs more distinct words spills:
 *    the header becomes kSpilled and word 0 names a chunk of the codec's
 *    spill arena holding the whole presence vector. The chunk goes back
 *    to the arena when the entry is cleared or empties, so steady-state
 *    churn reuses chunks and never allocates;
 *  - CoarseVector appends one word: the sticky group mask, non-zero
 *    exactly while the entry is in coarse mode.
 *
 * Entries change slots through move(), which hands a spilled entry's
 * chunk over with its index.
 */

#ifndef CDIR_SHARERS_SHARER_CODEC_HH
#define CDIR_SHARERS_SHARER_CODEC_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/bitset.hh"
#include "common/types.hh"

namespace cdir {

/** Available sharer-set formats (see file comment). */
enum class SharerFormat
{
    FullVector,    //!< one bit per cache (precise)
    CoarseVector,  //!< 2*log2(N) bits: limited pointers, coarse fallback
    Hierarchical,  //!< two-level bit vector (precise, cheaper storage)
    Compressed,    //!< word-packed full vector (precise)
};

/** Modelled storage bits per entry for @p format over @p num_caches. */
unsigned sharerStorageBits(SharerFormat format, std::size_t num_caches);

/** Per-slice sharer-set format descriptor (see file comment). */
class SharerCodec
{
  public:
    using Word = std::uint64_t;

    /** Distinct 64-cache words a wide entry holds before spilling. */
    static constexpr unsigned kInlineWords = 4;
    /** Largest words() of any format (wide CoarseVector). */
    static constexpr unsigned kMaxWords = kInlineWords + 2;

    SharerCodec(SharerFormat format, std::size_t num_caches);

    /** Payload words per entry. */
    unsigned words() const { return stride; }

    /** Record that @p cache holds the block. */
    void
    add(Word *entry, CacheId cache)
    {
        if (!simple)
            return addSlow(entry, cache);
        assert(cache < caches);
        entry[0] |= Word{1} << cache;
    }

    /**
     * Record that @p cache evicted the block.
     * @return true iff the entry is now empty.
     */
    bool
    remove(Word *entry, CacheId cache)
    {
        if (!simple)
            return removeSlow(entry, cache);
        assert(cache < caches);
        entry[0] &= ~(Word{1} << cache);
        return entry[0] == 0;
    }

    /** Move the entry at @p from to the empty entry @p to. */
    void
    move(Word *from, Word *to) const
    {
        std::copy_n(from, stride, to);
        std::fill_n(from, stride, Word{0});
    }

    /** Drop every sharer, returning any spill chunk. */
    void
    clear(Word *entry)
    {
        if (wide && entry[kInlineWords] == kSpilled)
            freeChunks.push_back(static_cast<std::uint32_t>(entry[0]));
        std::fill_n(entry, stride, Word{0});
    }

    /**
     * Caches that must receive an invalidation (a superset of the
     * sharers once a coarse entry has overflowed).
     * @param out resized to the slice's cache count and overwritten.
     */
    void targets(const Word *entry, DynamicBitset &out) const;

    /** Exact number of sharers. */
    std::size_t count(const Word *entry) const;

    /** May @p cache hold the block? (never a false negative). */
    bool mightContain(const Word *entry, CacheId cache) const;

    /** True iff targets() is exactly the sharer set. */
    bool
    precise(const Word *entry) const
    {
        return !coarse || entry[stride - 1] == 0;
    }

    /** Modelled storage bits the entry occupies. */
    unsigned storageBits(const Word *entry) const;

    /** Host bytes of the spill arena (capacity, high-water). */
    std::size_t
    spillBytes() const
    {
        return arena.capacity() * sizeof(Word) +
               freeChunks.capacity() * sizeof(std::uint32_t);
    }

  private:
    /** Header value of a spilled wide entry. */
    static constexpr Word kSpilled = ~Word{0};
    /** Exact pointers a coarse entry holds before it overflows. */
    static constexpr std::size_t kPointers = 2;

    void addSlow(Word *entry, CacheId cache);
    bool removeSlow(Word *entry, CacheId cache);

    /** Set @p cache's presence bit; true iff it was clear. */
    bool setBit(Word *entry, CacheId cache);
    /** Clear @p cache's presence bit, spill chunk included. */
    void clearBit(Word *entry, CacheId cache);
    /** True iff the presence vector is empty. */
    bool none(const Word *entry) const;
    /** Move a full inline run into a spill chunk. */
    void spill(Word *entry);
    /** The spill chunk of a spilled wide entry. */
    Word *chunk(const Word *entry);
    const Word *chunk(const Word *entry) const;

    /** Invoke @p fn(index, word) for every non-zero presence word. */
    template <typename Fn>
    void forEachWord(const Word *entry, Fn &&fn) const;

    /** Invoke @p fn(cache) for every sharer. */
    template <typename Fn>
    void forEachSharer(const Word *entry, Fn &&fn) const;

    SharerFormat fmt;
    std::size_t caches;
    bool wide;          //!< more than 64 caches: inline run + spill
    bool coarse;        //!< CoarseVector: trailing group-mask word
    bool simple;        //!< one presence word, nothing else
    unsigned stride;    //!< payload words per entry
    std::size_t chunkWords;  //!< words of one spilled presence vector
    std::size_t groupSize;   //!< CoarseVector: caches per group bit
    std::size_t clusterSize; //!< Hierarchical: caches per leaf vector

    std::vector<Word> arena;               //!< spill chunks
    std::vector<std::uint32_t> freeChunks; //!< released chunk indices
};

} // namespace cdir

#endif // CDIR_SHARERS_SHARER_CODEC_HH
