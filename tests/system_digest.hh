/**
 * @file
 * One 64-bit FNV-1a digest over every simulated counter of a CmpSystem:
 * CmpStats (latency histogram included) plus the aggregated
 * DirectoryStats, attempt histogram and resident entry count. Golden
 * suites pin whole-system runs with it (sharer_format_golden_test,
 * batch_access_test).
 */

#ifndef CDIR_TESTS_SYSTEM_DIGEST_HH
#define CDIR_TESTS_SYSTEM_DIGEST_HH

#include <cstdint>
#include <cstring>

#include "sim/cmp_system.hh"

namespace cdir::test {

/** 64-bit FNV-1a over a sequence of words. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int b = 0; b < 8; ++b) {
            state ^= (word >> (8 * b)) & 0xff;
            state *= 0x100000001b3ull;
        }
    }

    void
    add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
};

/** Digest of every counter @p system has accumulated. */
inline std::uint64_t
systemDigest(const CmpSystem &system)
{
    const CmpStats &sys = system.stats();
    const DirectoryStats dir = system.aggregateDirectoryStats();
    Digest d;
    for (const std::uint64_t v :
         {sys.accesses, sys.cacheHits, sys.cacheMisses, sys.writeUpgrades,
          sys.cacheEvictions, sys.sharingInvalidations,
          sys.forcedInvalidations, sys.directoryOccupancy.count()})
        d.add(v);
    d.add(sys.directoryOccupancy.sum());
    d.add(sys.latency.count());
    d.add(sys.latency.totalCycles());
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b)
        d.add(sys.latency.bucketAt(b));
    for (const std::uint64_t v :
         {dir.lookups, dir.hits, dir.insertions, dir.sharerAdds,
          dir.writeUpgrades, dir.sharerRemovals, dir.entryFrees,
          dir.forcedEvictions, dir.forcedBlockInvalidations,
          dir.insertFailures, dir.insertionAttempts.count()})
        d.add(v);
    d.add(dir.insertionAttempts.sum());
    for (std::size_t b = 0; b <= dir.attemptHistogram.maxValue(); ++b)
        d.add(dir.attemptHistogram.at(b));
    std::uint64_t valid = 0;
    for (std::size_t s = 0; s < system.numSlices(); ++s)
        valid += system.slice(s).validEntries();
    d.add(valid);
    return d.value();
}

} // namespace cdir::test

#endif // CDIR_TESTS_SYSTEM_DIGEST_HH
