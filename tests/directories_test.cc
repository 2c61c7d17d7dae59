/**
 * @file
 * Unit, integration and property tests for every directory organization
 * behind the common Directory interface: protocol semantics (sharer
 * tracking, write invalidation vectors, eviction retirement), the
 * conflict behaviours that differentiate the organizations (§3/§4), and
 * a randomized cross-organization equivalence check against a reference
 * model.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.hh"
#include "directory/assoc_directory.hh"
#include "directory/cuckoo_directory.hh"
#include "directory/directory.hh"
#include "directory/duplicate_tag_directory.hh"
#include "directory/in_cache_directory.hh"
#include "directory/tagless_directory.hh"

#include "dir_test_util.hh"

namespace cdir {
namespace {

constexpr std::size_t kCaches = 16;

/** Factory wrapper covering every organization for the shared suite. */
std::unique_ptr<Directory>
makeOrg(DirectoryKind kind)
{
    DirectoryParams p;
    p.kind = kind;
    p.numCaches = kCaches;
    switch (kind) {
      case DirectoryKind::Cuckoo:
        p.ways = 4;
        p.sets = 256;
        break;
      case DirectoryKind::Sparse:
        p.ways = 8;
        p.sets = 128;
        break;
      case DirectoryKind::Skewed:
      case DirectoryKind::Elbow:
        p.ways = 4;
        p.sets = 256;
        break;
      case DirectoryKind::DuplicateTag:
        p.sets = 64;
        p.trackedCacheAssoc = 4;
        break;
      case DirectoryKind::InCache:
        p.ways = 16;
        p.sets = 64;
        break;
      case DirectoryKind::Tagless:
        p.sets = 64;
        p.taglessBucketBits = 128;
        break;
    }
    return makeDirectory(p);
}

std::string
kindName(const testing::TestParamInfo<DirectoryKind> &info)
{
    return directoryKindName(info.param);
}

const DirectoryKind kAllKinds[] = {
    DirectoryKind::Cuckoo,       DirectoryKind::Sparse,
    DirectoryKind::Skewed,       DirectoryKind::DuplicateTag,
    DirectoryKind::InCache,      DirectoryKind::Tagless,
};

class DirectoryProtocol : public testing::TestWithParam<DirectoryKind>
{
  protected:
    void SetUp() override
    {
        dir = makeOrg(GetParam());
        ASSERT_NE(dir, nullptr);
    }
    std::unique_ptr<Directory> dir;
};

TEST_P(DirectoryProtocol, StartsEmpty)
{
    EXPECT_EQ(dir->validEntries(), 0u);
    EXPECT_GT(dir->capacity(), 0u);
    EXPECT_EQ(dir->occupancy(), 0.0);
    EXPECT_FALSE(dir->probe(0x123));
}

TEST_P(DirectoryProtocol, ReadMissAllocatesEntry)
{
    auto res = test::accessDir(*dir, 0x10, 3, false);
    EXPECT_FALSE(res.hit);
    EXPECT_TRUE(res.inserted);
    EXPECT_GE(res.attempts, 1u);
    EXPECT_TRUE(dir->probe(0x10));
    EXPECT_EQ(dir->validEntries(), 1u);
}

TEST_P(DirectoryProtocol, SecondReaderHits)
{
    test::accessDir(*dir, 0x10, 3, false);
    auto res = test::accessDir(*dir, 0x10, 5, false);
    EXPECT_TRUE(res.hit);
    DynamicBitset sharers;
    ASSERT_TRUE(dir->probe(0x10, &sharers));
    EXPECT_TRUE(sharers.test(3));
    EXPECT_TRUE(sharers.test(5));
}

TEST_P(DirectoryProtocol, WriteInvalidatesOtherSharers)
{
    test::accessDir(*dir, 0x20, 1, false);
    test::accessDir(*dir, 0x20, 2, false);
    test::accessDir(*dir, 0x20, 3, false);
    auto res = test::accessDir(*dir, 0x20, 1, true);
    EXPECT_TRUE(res.hit);
    ASSERT_TRUE(res.hadSharerInvalidations);
    EXPECT_FALSE(res.sharerInvalidations.test(1)); // writer excluded
    EXPECT_TRUE(res.sharerInvalidations.test(2));
    EXPECT_TRUE(res.sharerInvalidations.test(3));
}

TEST_P(DirectoryProtocol, WriteBySoleSharerInvalidatesNobody)
{
    test::accessDir(*dir, 0x30, 4, false);
    auto res = test::accessDir(*dir, 0x30, 4, true);
    EXPECT_FALSE(res.hadSharerInvalidations);
}

TEST_P(DirectoryProtocol, WriteMissByNewCacheInvalidatesExistingSharers)
{
    test::accessDir(*dir, 0x40, 0, false);
    test::accessDir(*dir, 0x40, 1, false);
    auto res = test::accessDir(*dir, 0x40, 7, true);
    ASSERT_TRUE(res.hadSharerInvalidations);
    EXPECT_TRUE(res.sharerInvalidations.test(0));
    EXPECT_TRUE(res.sharerInvalidations.test(1));
    EXPECT_FALSE(res.sharerInvalidations.test(7));
    // After the write the writer must be tracked as a holder.
    DynamicBitset sharers;
    ASSERT_TRUE(dir->probe(0x40, &sharers));
    EXPECT_TRUE(sharers.test(7));
}

TEST_P(DirectoryProtocol, LastEvictionFreesEntry)
{
    test::accessDir(*dir, 0x50, 2, false);
    test::accessDir(*dir, 0x50, 6, false);
    dir->removeSharer(0x50, 2);
    EXPECT_TRUE(dir->probe(0x50));
    dir->removeSharer(0x50, 6);
    EXPECT_FALSE(dir->probe(0x50));
    EXPECT_EQ(dir->validEntries(), 0u);
}

TEST_P(DirectoryProtocol, RemoveUnknownSharerIsHarmless)
{
    test::accessDir(*dir, 0x60, 1, false);
    dir->removeSharer(0x60, 9);   // never a sharer
    dir->removeSharer(0x999, 1);  // tag not tracked
    EXPECT_TRUE(dir->probe(0x60));
}

TEST_P(DirectoryProtocol, SharersNeverFalseNegative)
{
    // Randomized protocol property: every true holder must always be
    // covered by probe()'s target set.
    Rng rng(77);
    std::map<Tag, std::set<CacheId>> truth;
    for (int step = 0; step < 4000; ++step) {
        const Tag tag = rng.below(64); // few tags -> lots of sharing
        const auto cache = static_cast<CacheId>(rng.below(kCaches));
        const double roll = rng.uniform();
        if (roll < 0.5) {
            // read
            if (!truth[tag].count(cache)) {
                auto res = test::accessDir(*dir, tag, cache, false);
                truth[tag].insert(cache);
                for (const auto &ev : res.forcedEvictions)
                    truth.erase(ev.tag);
            }
        } else if (roll < 0.75) {
            // write
            if (truth.count(tag) && truth[tag].count(cache) &&
                truth[tag].size() == 1) {
                continue; // sole owner write: no protocol change
            }
            auto res = test::accessDir(*dir, tag, cache, true);
            truth[tag] = {cache};
            for (const auto &ev : res.forcedEvictions)
                truth.erase(ev.tag);
        } else {
            // eviction of a random true sharer
            auto it = truth.find(tag);
            if (it != truth.end() && !it->second.empty()) {
                const CacheId victim = *it->second.begin();
                dir->removeSharer(tag, victim);
                it->second.erase(victim);
                if (it->second.empty())
                    truth.erase(it);
            }
        }
        // Verify coverage of every tracked tag.
        for (const auto &[t, sharers] : truth) {
            if (sharers.empty())
                continue;
            DynamicBitset targets;
            ASSERT_TRUE(dir->probe(t, &targets))
                << "tag " << t << " lost at step " << step;
            for (CacheId c : sharers)
                ASSERT_TRUE(targets.test(c))
                    << "cache " << c << " missing at step " << step;
        }
    }
}

TEST_P(DirectoryProtocol, StatsCountInsertionsAndHits)
{
    test::accessDir(*dir, 1, 0, false);
    test::accessDir(*dir, 1, 1, false);
    test::accessDir(*dir, 2, 0, false);
    const auto &s = dir->stats();
    EXPECT_EQ(s.lookups, 3u);
    EXPECT_EQ(s.insertions, 2u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.sharerAdds, 1u);
}

TEST_P(DirectoryProtocol, ResetStatsKeepsEntries)
{
    test::accessDir(*dir, 1, 0, false);
    dir->resetStats();
    EXPECT_EQ(dir->stats().lookups, 0u);
    EXPECT_TRUE(dir->probe(1));
}

TEST_P(DirectoryProtocol, NameIsNonEmpty)
{
    EXPECT_FALSE(dir->name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllOrganizations, DirectoryProtocol,
                         testing::ValuesIn(kAllKinds), kindName);

// --- conflict behaviour differentiating the organizations -------------------

TEST(SparseDirectory, ConflictForcesEviction)
{
    // 2-way sparse with 4 sets: three tags in the same set conflict
    // (the Fig. 3 example).
    auto dir = makeSparseDirectory(kCaches, 2, 4);
    test::accessDir(*dir, 0x00, 0, false); // set 0
    test::accessDir(*dir, 0x04, 1, false); // set 0
    auto res = test::accessDir(*dir, 0x08, 2, false); // set 0 again -> conflict
    ASSERT_EQ(res.forcedEvictions.size(), 1u);
    EXPECT_EQ(res.forcedEvictions[0].tag, 0x00u); // LRU victim
    EXPECT_TRUE(res.forcedEvictions[0].targets.test(0));
    EXPECT_EQ(dir->stats().forcedEvictions, 1u);
    EXPECT_FALSE(dir->probe(0x00));
}

TEST(SparseDirectory, EvictedEntryTargetsAllSharers)
{
    auto dir = makeSparseDirectory(kCaches, 1, 4);
    test::accessDir(*dir, 0x00, 3, false);
    test::accessDir(*dir, 0x00, 9, false);
    auto res = test::accessDir(*dir, 0x04, 1, false);
    ASSERT_EQ(res.forcedEvictions.size(), 1u);
    EXPECT_TRUE(res.forcedEvictions[0].targets.test(3));
    EXPECT_TRUE(res.forcedEvictions[0].targets.test(9));
    EXPECT_EQ(dir->stats().forcedBlockInvalidations, 2u);
}

TEST(CuckooDirectory, DisplacementAvoidsSparseConflict)
{
    // The same transitive-conflict pattern that forces a Sparse
    // eviction is absorbed by displacement in the Cuckoo organization:
    // insertion into a near-empty 4x256 table never discards.
    CuckooDirectory dir(kCaches, 4, 256, SharerFormat::FullVector);
    Rng rng(5);
    for (int i = 0; i < 256; ++i) { // 25% occupancy
        auto res = test::accessDir(dir, rng.next() >> 8, 0, false);
        ASSERT_TRUE(res.inserted);
        ASSERT_TRUE(res.forcedEvictions.empty());
    }
    EXPECT_EQ(dir.stats().forcedEvictions, 0u);
}

TEST(CuckooDirectory, AttemptsRecordedInHistogram)
{
    CuckooDirectory dir(kCaches, 4, 64, SharerFormat::FullVector);
    Rng rng(6);
    int inserts = 0;
    while (dir.occupancy() < 0.5) {
        const Tag tag = rng.next() >> 8;
        if (dir.probe(tag))
            continue;
        test::accessDir(dir, tag, 0, false);
        ++inserts;
    }
    const auto &h = dir.stats().attemptHistogram;
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(inserts));
    EXPECT_GT(h.at(1), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), dir.stats().insertionAttempts.mean());
}

TEST(CuckooDirectory, GiveUpInvalidatesDiscardedEntry)
{
    // Tiny 2-ary table, low bound: force the give-up path and check the
    // discarded entry's sharers are reported for invalidation.
    CuckooDirectory dir(kCaches, 2, 4, SharerFormat::FullVector,
                        HashKind::Strong, 4);
    Rng rng(7);
    bool saw_discard = false;
    for (int i = 0; i < 300 && !saw_discard; ++i) {
        const Tag tag = rng.next() >> 3;
        if (dir.probe(tag))
            continue;
        auto res = test::accessDir(dir, tag, static_cast<CacheId>(i % kCaches),
                              false);
        if (res.insertDiscarded) {
            saw_discard = true;
            ASSERT_EQ(res.forcedEvictions.size(), 1u);
            EXPECT_GE(res.forcedEvictions[0].targets.count(), 1u);
            EXPECT_FALSE(dir.probe(res.forcedEvictions[0].tag));
        }
    }
    EXPECT_TRUE(saw_discard);
    EXPECT_GT(dir.stats().insertFailures, 0u);
    EXPECT_EQ(dir.stats().insertFailures, dir.stats().forcedEvictions);
}

TEST(SkewedDirectory, BreaksDirectConflictsButStillEvicts)
{
    // Skewing spreads same-set tags, but with enough colliding inserts
    // the skewed directory must evict (no displacement), unlike Cuckoo.
    auto skewed = makeSkewedDirectory(kCaches, 4, 64);
    Rng rng(8);
    // Fill well past capacity.
    for (int i = 0; i < 2000; ++i)
        test::accessDir(*skewed, rng.next() >> 8, 0, false);
    EXPECT_GT(skewed->stats().forcedEvictions, 0u);
}

TEST(SkewedVsSparse, SkewedHasFewerConflictsAtEqualSize)
{
    // The Fig. 12 ordering: Skewed 2x < Sparse 2x in invalidation rate
    // under a skewed (hot-set) insertion pattern.
    auto sparse = makeSparseDirectory(kCaches, 4, 64);
    auto skewed = makeSkewedDirectory(kCaches, 4, 64);
    Rng rng(9);
    for (int i = 0; i < 4000; ++i) {
        // Bias low index bits to create hot sets.
        const Tag tag = (rng.next() >> 8 << 4) | (rng.below(4));
        test::accessDir(*sparse, tag, 0, false);
        test::accessDir(*skewed, tag, 0, false);
    }
    EXPECT_LT(skewed->stats().forcedInvalidationRate(),
              sparse->stats().forcedInvalidationRate());
}

TEST(CuckooVsAll, LowestInvalidationRateAtHalfCapacity)
{
    // Integration slice of Fig. 12: identical reference stream at ~0.5x
    // the sparse capacity; Cuckoo must force (near-)zero invalidations.
    auto cuckoo = std::make_unique<CuckooDirectory>(
        kCaches, 4, 128, SharerFormat::FullVector);
    auto sparse = makeSparseDirectory(kCaches, 8, 128); // 2x capacity
    auto skewed = makeSkewedDirectory(kCaches, 4, 256); // 2x capacity
    Rng rng(10);
    std::vector<Tag> live;
    for (int i = 0; i < 30000; ++i) {
        if (!live.empty() && rng.chance(0.55)) {
            // retire a random live tag (cache eviction)
            const std::size_t k = rng.below(live.size());
            cuckoo->removeSharer(live[k], 0);
            sparse->removeSharer(live[k], 0);
            skewed->removeSharer(live[k], 0);
            live[k] = live.back();
            live.pop_back();
        } else if (live.size() <
                   cuckoo->capacity() / 2) { // cap footprint at 0.5x
            const Tag tag = rng.next() >> 8;
            test::accessDir(*cuckoo, tag, 0, false);
            test::accessDir(*sparse, tag, 0, false);
            test::accessDir(*skewed, tag, 0, false);
            live.push_back(tag);
        }
    }
    EXPECT_EQ(cuckoo->stats().forcedEvictions, 0u);
    EXPECT_LE(cuckoo->stats().forcedInvalidationRate(),
              sparse->stats().forcedInvalidationRate());
    EXPECT_LE(cuckoo->stats().forcedInvalidationRate(),
              skewed->stats().forcedInvalidationRate());
}

// --- Duplicate-Tag specifics -------------------------------------------------

TEST(DuplicateTag, MirrorsCacheFramesWithoutConflicts)
{
    // One frame per (set, cache, way): filling a cache's mirrored ways
    // with distinct sets never forces an eviction when evictions are
    // reported first.
    DuplicateTagDirectory dir(4, 16, 2);
    for (Tag t = 0; t < 32; ++t) { // 16 sets x 2 ways
        auto res = test::accessDir(dir, t, 1, false);
        ASSERT_TRUE(res.forcedEvictions.empty()) << "tag " << t;
    }
    EXPECT_EQ(dir.validEntries(), 32u);
    // A further allocation in a full set without an eviction report
    // falls back to mirroring the cache's LRU eviction.
    auto res = test::accessDir(dir, 32, 1, false);
    EXPECT_EQ(res.forcedEvictions.size(), 1u);
}

TEST(DuplicateTag, LookupWidthIsCachesTimesAssoc)
{
    DuplicateTagDirectory dir(16, 64, 2);
    EXPECT_EQ(dir.lookupWidth(), 32u);
    DuplicateTagDirectory t2(32, 64, 16);
    EXPECT_EQ(t2.lookupWidth(), 512u); // OpenSPARC-T2-like widths
}

TEST(DuplicateTag, WriteClearsOtherMirrors)
{
    DuplicateTagDirectory dir(4, 16, 2);
    test::accessDir(dir, 5, 0, false);
    test::accessDir(dir, 5, 1, false);
    test::accessDir(dir, 5, 2, false);
    auto res = test::accessDir(dir, 5, 0, true);
    ASSERT_TRUE(res.hadSharerInvalidations);
    DynamicBitset sharers;
    ASSERT_TRUE(dir.probe(5, &sharers));
    EXPECT_TRUE(sharers.test(0));
    EXPECT_FALSE(sharers.test(1));
    EXPECT_FALSE(sharers.test(2));
}

// --- Tagless specifics --------------------------------------------------------

TEST(Tagless, SupersetNeverMissesSharer)
{
    TaglessDirectory dir(8, 16, 64, 2, 3);
    Rng rng(11);
    std::map<Tag, std::set<CacheId>> truth;
    for (int i = 0; i < 2000; ++i) {
        const Tag tag = rng.below(256);
        const auto cache = static_cast<CacheId>(rng.below(8));
        if (rng.chance(0.6)) {
            if (!truth[tag].count(cache)) {
                test::accessDir(dir, tag, cache, false);
                truth[tag].insert(cache);
            }
        } else {
            auto it = truth.find(tag);
            if (it != truth.end() && it->second.count(cache)) {
                dir.removeSharer(tag, cache);
                it->second.erase(cache);
            }
        }
        DynamicBitset targets;
        dir.probe(tag, &targets);
        for (CacheId c : truth[tag])
            ASSERT_TRUE(targets.test(c)) << "step " << i;
    }
}

TEST(Tagless, CountsSpuriousInvalidations)
{
    // Tiny filters alias heavily: spurious invalidations must be
    // observed and counted on writes.
    TaglessDirectory dir(8, 4, 8, 1, 5);
    Rng rng(12);
    for (int i = 0; i < 3000; ++i) {
        const Tag tag = rng.below(512);
        const auto cache = static_cast<CacheId>(rng.below(8));
        test::accessDir(dir, tag, cache, rng.chance(0.4));
    }
    EXPECT_GT(dir.spuriousInvalidations(), 0u);
}

TEST(Tagless, NeverForcesEvictions)
{
    TaglessDirectory dir(8, 16, 64, 2, 13);
    Rng rng(13);
    for (int i = 0; i < 5000; ++i)
        test::accessDir(dir, rng.next() >> 8, static_cast<CacheId>(rng.below(8)),
                   rng.chance(0.3));
    EXPECT_EQ(dir.stats().forcedEvictions, 0u);
}

// --- In-Cache specifics --------------------------------------------------------

TEST(InCache, NameAndGeometry)
{
    InCacheDirectory dir(kCaches, 16, 64);
    EXPECT_EQ(dir.capacity(), 16u * 64u);
    EXPECT_EQ(dir.name().substr(0, 7), "InCache");
}

// --- factory -------------------------------------------------------------------

TEST(DirectoryFactory, BuildsEveryKind)
{
    for (DirectoryKind kind : kAllKinds) {
        auto dir = makeOrg(kind);
        ASSERT_NE(dir, nullptr) << directoryKindName(kind);
        test::accessDir(*dir, 1, 0, false);
        EXPECT_TRUE(dir->probe(1)) << directoryKindName(kind);
    }
}

TEST(DirectoryFactory, KindNamesAreDistinct)
{
    std::set<std::string> names;
    for (DirectoryKind kind : kAllKinds)
        names.insert(directoryKindName(kind));
    EXPECT_EQ(names.size(), std::size(kAllKinds));
}

// --- prefetch distance ---------------------------------------------------------

TEST(PrefetchDistance, AcceptsDecimalIntegersInRange)
{
    EXPECT_EQ(Directory::parsePrefetchDistance(nullptr),
              Directory::kDefaultPrefetchDistance);
    EXPECT_EQ(Directory::parsePrefetchDistance("0"), 0u);
    EXPECT_EQ(Directory::parsePrefetchDistance("12"), 12u);
    EXPECT_EQ(Directory::parsePrefetchDistance("1024"),
              Directory::kMaxPrefetchDistance);
}

TEST(PrefetchDistance, RejectsBadValuesWithAWarning)
{
    // strtoul alone turns "abc" into 0 (prefetch off) and "-1" into a
    // huge distance; each must fall back to the default, loudly.
    for (const char *bad :
         {"abc", "-1", "", " 8", "8x", "+8", "1025", "99999999999999999999"}) {
        testing::internal::CaptureStderr();
        EXPECT_EQ(Directory::parsePrefetchDistance(bad),
                  Directory::kDefaultPrefetchDistance)
            << "'" << bad << "'";
        const std::string warning = testing::internal::GetCapturedStderr();
        EXPECT_NE(warning.find("CDIR_PREFETCH_DIST"), std::string::npos)
            << warning;
        EXPECT_NE(warning.find(std::string("'") + bad + "'"),
                  std::string::npos)
            << warning;
    }
}

} // namespace
} // namespace cdir
