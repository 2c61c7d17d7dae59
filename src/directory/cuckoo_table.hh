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
 * Storage is structure-of-arrays: tags, valid bytes, and payloads live
 * in three parallel vectors so a probe touches only the dense 8B/entry
 * tag lane (plus 1B valid lane) instead of dragging payload bytes
 * through the cache. A probe computes all way indices with one
 * HashFamily::indexAll call, gathers the candidate tags, and reduces
 * them with the branchless match-mask kernel — the software analogue of
 * the parallel way comparators the paper's hardware fires.
 *
 * The payload type only needs to be movable. A table built with a
 * payload stride > 1 gives every slot that many consecutive payload
 * elements (the Cuckoo directory stores an entry's sharer words this
 * way) and is filled through insertCarry().
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
template <typename Payload>
class CuckooTable
{
  public:
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
        std::optional<Payload> discardedPayload;
    };

    /**
     * @param family       per-way hash family; must outlive the table.
     * @param max_attempts insertion bound (paper: 32).
     * @param bucket_slots elements per (way, set) bucket. 1 is the
     *        paper's design; >1 implements Panigrahy's bucketized
     *        variant [30], which §6 notes "may offer additional
     *        improvement ... at high directory occupancy".
     * @param payload_stride payload elements per slot.
     */
    CuckooTable(const HashFamily &family, unsigned max_attempts = 32,
                unsigned bucket_slots = 1, unsigned payload_stride = 1)
        : hashes(family),
          ways(family.numWays()),
          sets(family.setsPerWay()),
          maxAttempts(max_attempts),
          bucketSlots(bucket_slots),
          stride(payload_stride),
          tags(std::size_t{ways} * sets * bucket_slots, 0),
          valids(std::size_t{ways} * sets * bucket_slots, 0),
          payloads(std::size_t{ways} * sets * bucket_slots * payload_stride)
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
                cand[w] = tags[p];
                cvalid[w] = valids[p];
            }
            const std::size_t hit = findTag(cand, cvalid, ways, tag);
            if (hit == ways)
                return npos;
            return std::size_t{hit} * sets + idx[hit];
        }
        // Bucketized variant: each (way, set) bucket is already a
        // contiguous run; kernel-probe the runs in way order.
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t base =
                (std::size_t{w} * sets + idx[w]) * bucketSlots;
            const std::size_t b =
                findTag(&tags[base], &valids[base], bucketSlots, tag);
            if (b != bucketSlots)
                return base + b;
        }
        return npos;
    }

    /** Find the payload for @p tag, or nullptr. */
    Payload *
    find(Tag tag)
    {
        const std::size_t pos = findPos(tag);
        return pos == npos ? nullptr : &payloads[pos * stride];
    }

    /** @copydoc find */
    const Payload *
    find(Tag tag) const
    {
        return const_cast<CuckooTable *>(this)->find(tag);
    }

    /**
     * Payload stored at a position returned by findPos() (the first of
     * the slot's stride elements).
     */
    Payload &
    payloadAt(std::size_t pos)
    {
        assert(pos < tags.size() && valids[pos] != 0);
        return payloads[pos * stride];
    }

    /** Tag stored at a position returned by findPos(). */
    Tag
    tagAt(std::size_t pos) const
    {
        assert(pos < tags.size() && valids[pos] != 0);
        return tags[pos];
    }

    /**
     * Insert @p tag with @p payload. The tag must not already be
     * present (callers look up first, as the hardware does).
     */
    InsertResult
    insert(Tag tag, Payload &&payload)
    {
        assert(stride == 1);
        Payload carry = std::move(payload);
        InsertResult result = insertCarry(tag, &carry);
        if (result.discarded)
            result.discardedPayload = std::move(carry);
        return result;
    }

    /**
     * Insert @p tag carrying the stride payload elements at @p carry.
     * Payloads are swapped along the displacement chain, so on return
     * @p carry holds the former contents of the slot the chain ended
     * in or, when the attempt bound discarded an element, that
     * element's payload (InsertResult::discardedPayload stays empty).
     */
    InsertResult
    insertCarry(Tag tag, Payload *carry)
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
                tags[vacant] = cur_tag;
                swapPayload(carry, vacant);
                valids[vacant] = 1;
                ++occupied;
                nextWay = (placed_way + 1) % ways;
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
                victimRotor % bucketSlots;
            ++victimRotor;
            assert(valids[victim] != 0);
            std::swap(cur_tag, tags[victim]);
            swapPayload(carry, victim);
            way = (way + 1) % ways;
        }
    }

    /**
     * Remove the element at a position returned by findPos().
     * @return the payload that occupied the slot (its first element).
     */
    Payload
    eraseAt(std::size_t pos)
    {
        assert(pos < tags.size() && valids[pos] != 0);
        valids[pos] = 0;
        --occupied;
        return std::move(payloads[pos * stride]);
    }

    /**
     * Remove @p tag.
     * @return the payload if the tag was present.
     */
    std::optional<Payload>
    erase(Tag tag)
    {
        const std::size_t pos = findPos(tag);
        if (pos == npos)
            return std::nullopt;
        return eraseAt(pos);
    }

    /**
     * Hint the candidate tag/valid lanes of @p tag into the cache ahead
     * of an upcoming probe (batch-window lookahead).
     */
    void
    prefetch(Tag tag) const
    {
        std::size_t idx[kMaxProbeWays];
        hashes.indexAll(tag, idx);
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t base =
                (std::size_t{w} * sets + idx[w]) * bucketSlots;
            prefetchRead(&tags[base]);
            prefetchRead(&valids[base]);
        }
    }

    /** Valid elements. */
    std::size_t size() const { return occupied; }

    /** Total slots. */
    std::size_t capacity() const { return tags.size(); }

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
     * Visit every valid element as (tag, payload&). @p visitor returns
     * void; iteration order is way-major.
     */
    template <typename Visitor>
    void
    forEach(Visitor &&visitor) const
    {
        const std::size_t n = tags.size();
        for (std::size_t i = 0; i < n; ++i)
            if (valids[i] != 0)
                visitor(tags[i], payloads[i * stride]);
    }

    /** Host bytes of the SoA lanes. Feeds Directory::memoryBytes(). */
    std::size_t
    memoryBytes() const
    {
        return tags.capacity() * sizeof(Tag) +
               valids.capacity() * sizeof(std::uint8_t) +
               payloads.capacity() * sizeof(Payload);
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
    /** Exchange the stride elements at @p carry with slot @p pos's. */
    void
    swapPayload(Payload *carry, std::size_t pos)
    {
        std::swap_ranges(carry, carry + stride, &payloads[pos * stride]);
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
        for (unsigned i = 0; i < ways; ++i) {
            const unsigned w = (start + i) % ways;
            const std::size_t base =
                (std::size_t{w} * sets + idx[w]) * bucketSlots;
            const std::size_t b =
                cdir::findVacant(&valids[base], bucketSlots);
            if (b != bucketSlots) {
                found_way = w;
                return base + b;
            }
        }
        return npos;
    }

    const HashFamily &hashes;
    unsigned ways;
    std::size_t sets;
    unsigned maxAttempts;
    unsigned bucketSlots;
    unsigned stride;                 //!< payload elements per slot
    std::vector<Tag> tags;           //!< SoA tag lane (8B/entry)
    std::vector<std::uint8_t> valids; //!< SoA valid lane (1B/entry)
    std::vector<Payload> payloads;   //!< SoA payload lane
    std::size_t occupied = 0;
    unsigned nextWay = 0;     //!< round-robin start way (§4.2)
    unsigned victimRotor = 0; //!< bucket-slot victim rotation
};

} // namespace cdir

#endif // CDIR_DIRECTORY_CUCKOO_TABLE_HH
