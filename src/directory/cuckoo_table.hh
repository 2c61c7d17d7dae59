/**
 * @file
 * Generic d-ary Cuckoo hash table — the data structure at the heart of
 * the Cuckoo directory (§4).
 *
 * The table consists of `ways` direct-mapped arrays of `setsPerWay`
 * slots; way w is indexed through hash function w of a HashFamily.
 * Lookup probes all ways in parallel (constant time, like a
 * skewed-associative cache). Insertion follows §4.2 faithfully:
 *
 *  - A lookup always precedes insertion; if it reveals a vacant
 *    candidate slot the insertion succeeds with **1 attempt**.
 *  - Otherwise the new element displaces the occupant of its slot in the
 *    current start way; the displaced element is then re-inserted (its
 *    own candidates are checked for a vacancy first, then it displaces
 *    in the next way), and so on. Every slot write counts as one
 *    attempt.
 *  - A bound (default 32, the paper's choice) terminates pathological
 *    loops: the most recently displaced element is discarded and handed
 *    back to the caller, which must invalidate the private-cache blocks
 *    it tracked.
 *  - To keep the ways uniformly utilized, each insertion starts at the
 *    way at which the previous insertion stopped.
 *
 * Each slot is one contiguous record — its tag followed by its
 * `stride` 64-bit payload words — so a probe reads a slot's tag and its
 * payload in one memory trip, as the hardware reads a directory entry's
 * tag and sharer bits together. The 1-byte valid flags live apart in a
 * dense lane that the relocation vacancy scan reads on its own. A probe
 * computes all way indices with one HashFamily::indexAll call, gathers
 * the candidate tags, and reduces them with the branchless match-mask
 * kernel — the software analogue of the parallel way comparators the
 * paper's hardware fires.
 *
 * A table built with a payload stride > 1 gives every slot that many
 * payload words (the Cuckoo directory stores an entry's sharer words
 * this way) and is filled through insertCarry().
 */

#ifndef CDIR_DIRECTORY_CUCKOO_TABLE_HH
#define CDIR_DIRECTORY_CUCKOO_TABLE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bit_util.hh"
#include "common/types.hh"
#include "hash/hash_family.hh"

namespace cdir {

/** d-ary Cuckoo hash table (see file comment). */
class CuckooTable
{
  public:
    /** Payload word type. */
    using Word = std::uint64_t;

    /** Sentinel position for "not found". */
    static constexpr std::size_t npos = ~std::size_t{0};

    /** Result of an insert() call. */
    struct InsertResult
    {
        /** Slot writes performed (1 = immediate success). */
        unsigned attempts = 0;
        /** Set when the attempt bound was hit and an element dropped. */
        bool discarded = false;
        Tag discardedTag = 0;
        std::optional<Word> discardedPayload;
    };

    /**
     * @param family       per-way hash family; must outlive the table.
     * @param max_attempts insertion bound (paper: 32).
     * @param bucket_slots elements per (way, set) bucket. 1 is the
     *        paper's design; >1 implements Panigrahy's bucketized
     *        variant [30], which §6 notes "may offer additional
     *        improvement ... at high directory occupancy".
     * @param payload_stride payload words per slot.
     */
    CuckooTable(const HashFamily &family, unsigned max_attempts = 32,
                unsigned bucket_slots = 1, unsigned payload_stride = 1)
        : hashes(family),
          ways(family.numWays()),
          sets(family.setsPerWay()),
          maxAttempts(max_attempts),
          bucketSlots(bucket_slots),
          stride(payload_stride),
          valids(std::size_t{ways} * sets * bucket_slots, 0),
          records(valids.size() * (1 + std::size_t{payload_stride}), 0)
    {
        assert(ways >= 2 && "cuckoo displacement needs >= 2 ways");
        assert(ways <= kMaxProbeWays);
        assert(max_attempts >= 1);
        assert(bucket_slots >= 1 && bucket_slots <= kKernelWidth);
        assert(payload_stride >= 1);
    }

    /**
     * Position of @p tag, or npos. One indexAll call, then the
     * match-mask kernel over the gathered candidate tags (probe order
     * way-major, bucket slots in order — identical to the scalar walk).
     */
    std::size_t
    findPos(Tag tag) const
    {
        std::size_t idx[kMaxProbeWays];
        hashes.indexAll(tag, idx);
        if (bucketSlots == 1) {
            // Common case (the paper's design): gather one candidate per
            // way into a dense run and reduce with a single kernel call.
            Tag cand[kMaxProbeWays];
            std::uint8_t cvalid[kMaxProbeWays];
            for (unsigned w = 0; w < ways; ++w) {
                const std::size_t p = std::size_t{w} * sets + idx[w];
                cand[w] = record(p)[0];
                cvalid[w] = valids[p];
            }
            const std::size_t hit = findTag(cand, cvalid, ways, tag);
            if (hit == ways)
                return npos;
            return std::size_t{hit} * sets + idx[hit];
        }
        // Bucketized variant: gather each (way, set) bucket's tags and
        // kernel-probe the buckets in way order.
        Tag cand[kKernelWidth];
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t base =
                (std::size_t{w} * sets + idx[w]) * bucketSlots;
            for (unsigned b = 0; b < bucketSlots; ++b)
                cand[b] = record(base + b)[0];
            const std::size_t b =
                findTag(cand, &valids[base], bucketSlots, tag);
            if (b != bucketSlots)
                return base + b;
        }
        return npos;
    }

    /** Find the payload for @p tag, or nullptr. */
    Word *
    find(Tag tag)
    {
        const std::size_t pos = findPos(tag);
        return pos == npos ? nullptr : record(pos) + 1;
    }

    /** @copydoc find */
    const Word *
    find(Tag tag) const
    {
        return const_cast<CuckooTable *>(this)->find(tag);
    }

    /**
     * Payload stored at a position returned by findPos() (the first of
     * the slot's stride words).
     */
    Word &
    payloadAt(std::size_t pos)
    {
        assert(pos < valids.size() && valids[pos] != 0);
        return record(pos)[1];
    }

    /** Tag stored at a position returned by findPos(). */
    Tag
    tagAt(std::size_t pos) const
    {
        assert(pos < valids.size() && valids[pos] != 0);
        return record(pos)[0];
    }

    /**
     * Insert @p tag with @p payload. The tag must not already be
     * present (callers look up first, as the hardware does).
     */
    InsertResult
    insert(Tag tag, Word payload)
    {
        assert(stride == 1);
        InsertResult result = insertCarry(tag, &payload);
        if (result.discarded)
            result.discardedPayload = payload;
        return result;
    }

    /**
     * Insert @p tag carrying the stride payload words at @p carry.
     * Payloads are swapped along the displacement chain, so on return
     * @p carry holds the former contents of the slot the chain ended
     * in or, when the attempt bound discarded an element, that
     * element's payload (InsertResult::discardedPayload stays empty).
     */
    InsertResult
    insertCarry(Tag tag, Word *carry)
    {
        assert(find(tag) == nullptr && "duplicate insert");
        InsertResult result;

        Tag cur_tag = tag;
        unsigned way = nextWay;
        std::size_t idx[kMaxProbeWays];

        while (true) {
            ++result.attempts;
            hashes.indexAll(cur_tag, idx);

            // The lookup preceding each (re-)insertion reveals vacant
            // candidate slots; placing into one ends the procedure. The
            // scan starts at the round-robin way so that, at low
            // occupancy, placements rotate across the ways and keep
            // them uniformly utilized (§4.2).
            unsigned placed_way = 0;
            const std::size_t vacant = findVacantPos(idx, way, placed_way);
            if (vacant != npos) {
                record(vacant)[0] = cur_tag;
                swapPayload(carry, vacant);
                valids[vacant] = 1;
                ++occupied;
                nextWay = placed_way + 1 == ways ? 0 : placed_way + 1;
                return result;
            }

            if (result.attempts >= maxAttempts) {
                // Bound hit: discard the most recently displaced element
                // (§4.2) and report it so the caller can invalidate the
                // blocks it tracked.
                result.discarded = true;
                result.discardedTag = cur_tag;
                nextWay = way;
                return result;
            }

            // Displace an occupant of the current way's bucket and
            // continue with it in the next way. The rotor spreads
            // victim choice across bucket slots.
            const std::size_t victim =
                (std::size_t{way} * sets + idx[way]) * bucketSlots +
                victimRotor;
            if (++victimRotor == bucketSlots)
                victimRotor = 0;
            assert(valids[victim] != 0);
            std::swap(cur_tag, record(victim)[0]);
            swapPayload(carry, victim);
            if (++way == ways)
                way = 0;
        }
    }

    /**
     * Remove the element at a position returned by findPos().
     * @return the payload that occupied the slot (its first element).
     */
    Word
    eraseAt(std::size_t pos)
    {
        assert(pos < valids.size() && valids[pos] != 0);
        valids[pos] = 0;
        --occupied;
        return record(pos)[1];
    }

    /**
     * Remove @p tag.
     * @return the payload if the tag was present.
     */
    std::optional<Word>
    erase(Tag tag)
    {
        const std::size_t pos = findPos(tag);
        if (pos == npos)
            return std::nullopt;
        return eraseAt(pos);
    }

    /**
     * Hint the candidate records (first of each bucket, tag through
     * last payload word) and valid bytes of @p tag into the cache ahead
     * of an upcoming probe.
     */
    void
    prefetch(Tag tag) const
    {
        std::size_t idx[kMaxProbeWays];
        hashes.indexAll(tag, idx);
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t base =
                (std::size_t{w} * sets + idx[w]) * bucketSlots;
            prefetchRead(record(base));
            prefetchRead(record(base) + stride);
            prefetchRead(&valids[base]);
        }
    }

    /** Valid elements. */
    std::size_t size() const { return occupied; }

    /** Total slots. */
    std::size_t capacity() const { return valids.size(); }

    /** Fraction of slots in use. */
    double
    occupancy() const
    {
        return double(occupied) / double(capacity());
    }

    /** Number of ways (arity d). */
    unsigned numWays() const { return ways; }

    /** Sets per way. */
    std::size_t setsPerWay() const { return sets; }

    /** Elements per (way, set) bucket. */
    unsigned slotsPerBucket() const { return bucketSlots; }

    /**
     * Visit every valid element as (tag, first payload word). @p visitor
     * returns void; iteration order is way-major.
     */
    template <typename Visitor>
    void
    forEach(Visitor &&visitor) const
    {
        const std::size_t n = valids.size();
        for (std::size_t i = 0; i < n; ++i)
            if (valids[i] != 0)
                visitor(record(i)[0], record(i)[1]);
    }

    /** Host bytes of the record and valid lanes (Directory::memoryBytes). */
    std::size_t
    memoryBytes() const
    {
        return records.capacity() * sizeof(Word) +
               valids.capacity() * sizeof(std::uint8_t);
    }

    /** Occupancy of one way (test support for uniform-way utilization). */
    double
    wayOccupancy(unsigned way) const
    {
        assert(way < ways);
        std::size_t used = 0;
        const std::size_t per_way = sets * bucketSlots;
        for (std::size_t i = 0; i < per_way; ++i)
            if (valids[std::size_t{way} * per_way + i] != 0)
                ++used;
        return double(used) / double(per_way);
    }

  private:
    /** Slot @p pos's record: its tag, then its stride payload words. */
    Word *record(std::size_t pos) { return &records[pos * (1 + stride)]; }
    const Word *
    record(std::size_t pos) const
    {
        return &records[pos * (1 + stride)];
    }

    /** Exchange the stride words at @p carry with slot @p pos's. */
    void
    swapPayload(Word *carry, std::size_t pos)
    {
        std::swap_ranges(carry, carry + stride, record(pos) + 1);
    }

    /**
     * Position of the first vacant candidate slot given precomputed way
     * indices @p idx, scanning ways from @p start and wrapping;
     * @p found_way receives the way chosen. Returns npos if every
     * candidate is occupied.
     */
    std::size_t
    findVacantPos(const std::size_t *idx, unsigned start,
                  unsigned &found_way) const
    {
        unsigned w = start;
        for (unsigned i = 0; i < ways; ++i) {
            const std::size_t base =
                (std::size_t{w} * sets + idx[w]) * bucketSlots;
            const std::size_t b =
                cdir::findVacant(&valids[base], bucketSlots);
            if (b != bucketSlots) {
                found_way = w;
                return base + b;
            }
            if (++w == ways)
                w = 0;
        }
        return npos;
    }

    const HashFamily &hashes;
    unsigned ways;
    std::size_t sets;
    unsigned maxAttempts;
    unsigned bucketSlots;
    unsigned stride;                  //!< payload words per slot
    std::vector<std::uint8_t> valids; //!< dense valid lane (1B/slot)
    std::vector<Word> records;        //!< per-slot tag + payload words
    std::size_t occupied = 0;
    unsigned nextWay = 0;     //!< round-robin start way (§4.2)
    unsigned victimRotor = 0; //!< bucket-slot victim, in [0, bucketSlots)
};

} // namespace cdir

#endif // CDIR_DIRECTORY_CUCKOO_TABLE_HH
