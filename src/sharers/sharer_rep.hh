/**
 * @file
 * Stand-alone sharer set behind a virtual interface.
 *
 * Directory organizations keep their sharer sets inline in their entry
 * lanes and drive them through a SharerCodec directly (see
 * sharer_codec.hh). SharerRep wraps one such entry together with its own
 * codec for code that wants a single self-contained set — unit tests and
 * the sharer kernel benchmark — so that code measures exactly what the
 * directories run.
 */

#ifndef CDIR_SHARERS_SHARER_REP_HH
#define CDIR_SHARERS_SHARER_REP_HH

#include <cstdint>
#include <memory>

#include "common/bitset.hh"
#include "common/types.hh"
#include "sharers/sharer_codec.hh"

namespace cdir {

/** One sharer set (see file comment and SharerCodec for semantics). */
class SharerRep
{
  public:
    virtual ~SharerRep() = default;

    /** Record that cache @p cache holds the block. */
    virtual void add(CacheId cache) = 0;

    /**
     * Record that cache @p cache evicted the block.
     * @return true iff the set is now empty (last sharer left).
     */
    virtual bool remove(CacheId cache) = 0;

    /** May cache @p cache hold the block? (never a false negative). */
    virtual bool mightContain(CacheId cache) const = 0;

    /**
     * Caches that must receive an invalidation: a superset of the true
     * sharers for imprecise representations.
     * @param out resized to the number of caches and overwritten.
     */
    virtual void invalidationTargets(DynamicBitset &out) const = 0;

    /** Exact number of sharers. */
    virtual std::size_t count() const = 0;

    /** True iff invalidationTargets() is currently exact. */
    virtual bool precise() const = 0;

    /** Modelled storage bits this set occupies in one entry. */
    virtual unsigned storageBits() const = 0;

    /** Host-process bytes of this object and the storage it owns. */
    virtual std::size_t memoryBytes() const = 0;

    /** Drop all sharers. */
    virtual void clear() = 0;

    /** True iff no sharers. */
    bool empty() const { return count() == 0; }
};

/**
 * Create a stand-alone sharer set.
 *
 * @param format     which format to build.
 * @param num_caches number of private caches tracked.
 */
std::unique_ptr<SharerRep> makeSharerRep(SharerFormat format,
                                         std::size_t num_caches);

} // namespace cdir

#endif // CDIR_SHARERS_SHARER_REP_HH
