/**
 * @file
 * The Cuckoo directory — the paper's primary contribution (§4).
 *
 * A directory slice organized as a d-ary Cuckoo hash table: d
 * direct-mapped ways indexed through d different hash functions
 * (skewing functions by default, §5.5). Lookup energy and latency match
 * a d-way set-associative structure, but insertion *displaces*
 * conflicting entries to their alternate ways instead of evicting them,
 * which breaks transitive set conflicts and drives forced invalidations
 * to near zero at a fraction of a Sparse directory's capacity
 * (Figs. 9 and 12).
 *
 * Each entry's sharer set lives inline in the table's payload lane as
 * SharerCodec::words() words per slot, so a hit touches the tag lane
 * and the entry's own payload words and nothing else.
 */

#ifndef CDIR_DIRECTORY_CUCKOO_DIRECTORY_HH
#define CDIR_DIRECTORY_CUCKOO_DIRECTORY_HH

#include <memory>
#include <vector>

#include "directory/cuckoo_table.hh"
#include "directory/directory.hh"

namespace cdir {

/** Cuckoo directory slice (see file comment). */
class CuckooDirectory : public Directory
{
  public:
    /**
     * @param num_caches   private caches tracked.
     * @param ways         cuckoo arity d (paper evaluates 3 and 4).
     * @param sets_per_way slots per way.
     * @param format       sharer-set representation per entry.
     * @param hash         indexing family (Skewing is the paper default).
     * @param max_attempts insertion bound (paper: 32).
     * @param hash_seed    seed for the Strong hash family.
     * @param bucket_slots entries per bucket (Panigrahy extension [30]).
     * @param stash_entries overflow-stash capacity (Kirsch extension
     *        [22]); 0 reproduces the paper, which discards overflow.
     */
    CuckooDirectory(std::size_t num_caches, unsigned ways,
                    std::size_t sets_per_way, SharerFormat format,
                    HashKind hash = HashKind::Skewing,
                    unsigned max_attempts = 32, std::uint64_t hash_seed = 1,
                    unsigned bucket_slots = 1, unsigned stash_entries = 0);

    void access(const DirRequest &request, DirAccessContext &ctx) override;
    void removeSharer(Tag tag, CacheId cache) override;
    void prefetchTag(Tag tag) const override { table.prefetch(tag); }
    bool probe(Tag tag, DynamicBitset *sharers = nullptr) const override;
    std::size_t validEntries() const override;
    std::size_t capacity() const override;
    std::string name() const override;

    /** Occupancy of one way (uniformity diagnostics). */
    double wayOccupancy(unsigned way) const
    {
        return table.wayOccupancy(way);
    }

    /** Entries currently parked in the overflow stash. */
    std::size_t stashSize() const { return stashTags.size(); }

    /** Discards absorbed by the stash instead of invalidating blocks. */
    std::uint64_t stashAbsorbed() const { return stashAbsorbs; }

    std::size_t
    memoryBytes() const override
    {
        return sizeof(*this) + table.memoryBytes() +
               stashTags.capacity() * sizeof(Tag) +
               (stashWords.capacity() + carry.capacity()) * sizeof(Word) +
               sharers.spillBytes();
    }

  private:
    using Word = SharerCodec::Word;
    static constexpr std::size_t npos = ~std::size_t{0};

    /** Stash index of @p tag, or npos. */
    std::size_t findStash(Tag tag) const;

    /** Sharer words of stash entry @p i. */
    Word *stashEntry(std::size_t i)
    {
        return &stashWords[i * sharers.words()];
    }

    /** Opportunistically drain one stash entry back into the table. */
    void drainStash();

    HashKind hashKind;
    SharerCodec sharers;
    std::unique_ptr<HashFamily> family;
    CuckooTable<Word> table;
    unsigned stashCapacity;
    std::vector<Tag> stashTags;  //!< live stash entries, in order
    std::vector<Word> stashWords; //!< their sharer words, same order
    /**
     * Sharer words of the entry being inserted. insertCarry() swaps them
     * along the displacement chain; afterwards they hold the vacated
     * slot's (empty) words or the discarded entry.
     */
    std::vector<Word> carry;
    std::uint64_t stashAbsorbs = 0;
};

} // namespace cdir

#endif // CDIR_DIRECTORY_CUCKOO_DIRECTORY_HH
