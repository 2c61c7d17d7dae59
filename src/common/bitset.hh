/**
 * @file
 * Run-time-sized bitset used for sharer vectors and Bloom-filter rows.
 *
 * std::bitset is compile-time sized and std::vector<bool> lacks word-level
 * operations; directory sharer vectors need a size chosen at configuration
 * time (the number of private caches) plus fast population count and
 * iteration over set bits.
 *
 * Word storage is 64-byte aligned (one cache line) so the bulk kernels —
 * orWith/andWith, popcountRange, setRange, forEachSetBit — stream whole
 * lines and auto-vectorize cleanly; a 1024-core sharer vector is exactly
 * two lines. forEachSetBit is the invalidation fan-out primitive: it
 * walks words and extracts set bits with countr_zero instead of
 * re-scanning from the start per bit the way findFirst/findNext chains
 * do.
 */

#ifndef CDIR_COMMON_BITSET_HH
#define CDIR_COMMON_BITSET_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <new>
#include <vector>

namespace cdir {

/**
 * Minimal allocator pinning allocations to @p Align bytes; keeps
 * std::vector's value semantics while making every word buffer start on
 * a cache-line boundary.
 */
template <typename T, std::size_t Align>
struct AlignedAllocator
{
    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {}
    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t{Align}));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t{Align});
    }

    bool operator==(const AlignedAllocator &) const { return true; }
    bool operator!=(const AlignedAllocator &) const { return false; }
};

/** Dynamically sized bitset with word-parallel operations. */
class DynamicBitset
{
  public:
    /** Cache-line-aligned word buffer (see file comment). */
    using WordVector =
        std::vector<std::uint64_t, AlignedAllocator<std::uint64_t, 64>>;

    DynamicBitset() = default;

    /** Construct with @p bits bits, all clear. */
    explicit DynamicBitset(std::size_t bits)
        : numBits(bits), words((bits + 63) / 64, 0)
    {}

    /** Number of bits in the set. */
    std::size_t size() const { return numBits; }

    /** Set bit @p pos. */
    void
    set(std::size_t pos)
    {
        assert(pos < numBits);
        words[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }

    /** Clear bit @p pos. */
    void
    reset(std::size_t pos)
    {
        assert(pos < numBits);
        words[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }

    /** Test bit @p pos. */
    bool
    test(std::size_t pos) const
    {
        assert(pos < numBits);
        return (words[pos >> 6] >> (pos & 63)) & 1;
    }

    /**
     * Overwrite bits [64 * @p index, 64 * @p index + 64) with @p bits.
     * Bits at or past size() must be clear in @p bits.
     */
    void
    assignWord(std::size_t index, std::uint64_t bits)
    {
        assert(index < words.size());
        assert(index + 1 < words.size() || (numBits & 63) == 0 ||
               (bits >> (numBits & 63)) == 0);
        words[index] = bits;
    }

    /** Clear every bit. */
    void
    clear()
    {
        for (auto &w : words)
            w = 0;
    }

    /**
     * Resize to @p bits bits, all clear, reusing the existing word
     * storage when possible (no heap traffic once the high-water size
     * has been reached — the property the allocation-free access
     * protocol relies on).
     */
    void
    reinit(std::size_t bits)
    {
        numBits = bits;
        words.assign((bits + 63) / 64, 0);
    }

    /** Number of set bits. */
    std::size_t
    count() const
    {
        std::size_t total = 0;
        for (auto w : words)
            total += static_cast<std::size_t>(std::popcount(w));
        return total;
    }

    /** Number of set bits in [lo, hi). */
    std::size_t
    popcountRange(std::size_t lo, std::size_t hi) const
    {
        assert(lo <= hi && hi <= numBits);
        if (lo >= hi)
            return 0;
        const std::size_t first = lo >> 6;
        const std::size_t last = (hi - 1) >> 6;
        if (first == last) {
            const std::uint64_t m =
                highBitsFrom(lo & 63) & lowBits(((hi - 1) & 63) + 1);
            return static_cast<std::size_t>(std::popcount(words[first] & m));
        }
        std::size_t total = static_cast<std::size_t>(
            std::popcount(words[first] & highBitsFrom(lo & 63)));
        for (std::size_t wi = first + 1; wi < last; ++wi)
            total += static_cast<std::size_t>(std::popcount(words[wi]));
        total += static_cast<std::size_t>(
            std::popcount(words[last] & lowBits(((hi - 1) & 63) + 1)));
        return total;
    }

    /** True iff no bit is set. */
    bool
    none() const
    {
        for (auto w : words)
            if (w != 0)
                return false;
        return true;
    }

    /** True iff at least one bit is set. */
    bool any() const { return !none(); }

    /**
     * Index of the first set bit at or after @p from, or size() if none.
     * Enables cheap iteration: for (i = findFirst(); i < size();
     * i = findNext(i)).
     */
    std::size_t
    findFirstFrom(std::size_t from) const
    {
        if (from >= numBits)
            return numBits;
        std::size_t wi = from >> 6;
        std::uint64_t w = words[wi] & ~lowBits(from & 63);
        while (true) {
            if (w != 0) {
                std::size_t pos =
                    (wi << 6) +
                    static_cast<std::size_t>(std::countr_zero(w));
                return pos < numBits ? pos : numBits;
            }
            if (++wi >= words.size())
                return numBits;
            w = words[wi];
        }
    }

    /** Index of the first set bit, or size() if none. */
    std::size_t findFirst() const { return findFirstFrom(0); }

    /** Index of the next set bit strictly after @p pos, or size(). */
    std::size_t findNext(std::size_t pos) const
    {
        return findFirstFrom(pos + 1);
    }

    /**
     * Invoke @p visitor(pos) for every set bit in ascending order. One
     * linear pass over the words with countr_zero extraction — the fan
     * -out loops (cache invalidations, hierarchical expansion) use this
     * instead of a findFirst/findNext chain, which re-reads words from
     * the start on every step.
     */
    template <typename Visitor>
    void
    forEachSetBit(Visitor &&visitor) const
    {
        const std::size_t n = words.size();
        for (std::size_t wi = 0; wi < n; ++wi) {
            std::uint64_t w = words[wi];
            while (w != 0) {
                const std::size_t pos =
                    (wi << 6) +
                    static_cast<std::size_t>(std::countr_zero(w));
                if (pos >= numBits)
                    return;
                visitor(pos);
                w &= w - 1; // clear the lowest set bit
            }
        }
    }

    /** Set every bit in [lo, hi) with word-masked fills. */
    void
    setRange(std::size_t lo, std::size_t hi)
    {
        assert(lo <= hi && hi <= numBits);
        if (lo >= hi)
            return;
        const std::size_t first = lo >> 6;
        const std::size_t last = (hi - 1) >> 6;
        const std::uint64_t head = highBitsFrom(lo & 63);
        const std::uint64_t tail = lowBits(((hi - 1) & 63) + 1);
        if (first == last) {
            words[first] |= head & tail;
            return;
        }
        words[first] |= head;
        for (std::size_t wi = first + 1; wi < last; ++wi)
            words[wi] = ~std::uint64_t{0};
        words[last] |= tail;
    }

    /** In-place union kernel. Sizes must match. */
    void
    orWith(const DynamicBitset &other)
    {
        assert(numBits == other.numBits);
        const std::size_t n = words.size();
        for (std::size_t i = 0; i < n; ++i)
            words[i] |= other.words[i];
    }

    /** In-place intersection kernel. Sizes must match. */
    void
    andWith(const DynamicBitset &other)
    {
        assert(numBits == other.numBits);
        const std::size_t n = words.size();
        for (std::size_t i = 0; i < n; ++i)
            words[i] &= other.words[i];
    }

    /** In-place union. Sizes must match. */
    DynamicBitset &
    operator|=(const DynamicBitset &other)
    {
        orWith(other);
        return *this;
    }

    /** In-place intersection. Sizes must match. */
    DynamicBitset &
    operator&=(const DynamicBitset &other)
    {
        andWith(other);
        return *this;
    }

    /** Equality (same size and same bits). */
    bool
    operator==(const DynamicBitset &other) const
    {
        return numBits == other.numBits && words == other.words;
    }

    /**
     * Bytes of heap the word buffer holds (capacity, not live size —
     * reinit() keeps high-water storage by design). Feeds the footprint
     * accounting in Directory::memoryBytes().
     */
    std::size_t heapBytes() const
    {
        return words.capacity() * sizeof(std::uint64_t);
    }

  private:
    static std::uint64_t
    lowBits(unsigned n)
    {
        return n == 0 ? 0 : (n >= 64 ? ~std::uint64_t{0}
                                     : ((std::uint64_t{1} << n) - 1));
    }

    /** Mask with bits [n, 64) set. */
    static std::uint64_t
    highBitsFrom(unsigned n)
    {
        return ~lowBits(n);
    }

    std::size_t numBits = 0;
    WordVector words;
};

} // namespace cdir

#endif // CDIR_COMMON_BITSET_HH
