/**
 * @file
 * Unit and property tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"

namespace cdir {
namespace {

TEST(Cache, MissThenHit)
{
    SetAssocCache cache(CacheConfig{16, 2});
    auto first = cache.access(100, false);
    EXPECT_FALSE(first.hit);
    EXPECT_FALSE(first.victim.has_value());
    auto second = cache.access(100, false);
    EXPECT_TRUE(second.hit);
    EXPECT_TRUE(cache.contains(100));
}

TEST(Cache, WriteSetsDirty)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(5, true);
    EXPECT_TRUE(cache.isDirty(5));
}

TEST(Cache, ReadAllocatesClean)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(5, false);
    EXPECT_FALSE(cache.isDirty(5));
}

TEST(Cache, WriteHitOnCleanReportsUpgrade)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(5, false);
    auto res = cache.access(5, true);
    EXPECT_TRUE(res.hit);
    EXPECT_TRUE(res.writeHitClean);
    EXPECT_TRUE(cache.isDirty(5));
    // Second write: already dirty, no upgrade.
    auto res2 = cache.access(5, true);
    EXPECT_FALSE(res2.writeHitClean);
}

TEST(Cache, EvictsLruWithinSet)
{
    SetAssocCache cache(CacheConfig{4, 2});
    // Three blocks mapping to set 0 (multiples of numSets).
    cache.access(0, false);
    cache.access(4, false);
    cache.access(0, false); // make block 0 MRU
    auto res = cache.access(8, false);
    EXPECT_FALSE(res.hit);
    ASSERT_TRUE(res.victim.has_value());
    EXPECT_EQ(*res.victim, 4u);
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(4));
}

TEST(Cache, EvictionReportsDirtyVictim)
{
    SetAssocCache cache(CacheConfig{4, 1});
    cache.access(0, true);
    auto res = cache.access(4, false);
    ASSERT_TRUE(res.victim.has_value());
    EXPECT_EQ(*res.victim, 0u);
    EXPECT_TRUE(res.victimDirty);
}

TEST(Cache, InvalidateRemovesBlock)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(7, true);
    EXPECT_TRUE(cache.invalidate(7));
    EXPECT_FALSE(cache.contains(7));
    EXPECT_FALSE(cache.invalidate(7)); // second time: not resident
    EXPECT_EQ(cache.residentBlocks(), 0u);
}

TEST(Cache, CleanseDowngradesDirtyBlock)
{
    SetAssocCache cache(CacheConfig{16, 2});
    cache.access(7, true);
    cache.cleanse(7);
    EXPECT_TRUE(cache.contains(7));
    EXPECT_FALSE(cache.isDirty(7));
}

TEST(Cache, ResidentCountTracksContents)
{
    SetAssocCache cache(CacheConfig{8, 2});
    EXPECT_EQ(cache.residentBlocks(), 0u);
    for (BlockAddr a = 0; a < 8; ++a)
        cache.access(a, false);
    EXPECT_EQ(cache.residentBlocks(), 8u);
    cache.invalidate(3);
    EXPECT_EQ(cache.residentBlocks(), 7u);
}

TEST(Cache, CapacityNeverExceeded)
{
    SetAssocCache cache(CacheConfig{8, 2});
    Rng rng(1);
    for (int i = 0; i < 10000; ++i)
        cache.access(rng.below(1000), rng.chance(0.3));
    EXPECT_LE(cache.residentBlocks(), cache.capacityBlocks());
}

TEST(Cache, ResidentAddressesMatchesContains)
{
    SetAssocCache cache(CacheConfig{8, 4});
    Rng rng(2);
    for (int i = 0; i < 500; ++i)
        cache.access(rng.below(200), false);
    const auto resident = cache.residentAddresses();
    EXPECT_EQ(resident.size(), cache.residentBlocks());
    for (BlockAddr a : resident)
        EXPECT_TRUE(cache.contains(a));
}

TEST(Cache, SetsAreIndependent)
{
    SetAssocCache cache(CacheConfig{4, 1});
    cache.access(0, false); // set 0
    cache.access(1, false); // set 1
    cache.access(2, false); // set 2
    cache.access(3, false); // set 3
    EXPECT_EQ(cache.residentBlocks(), 4u);
    // Filling set 0 does not disturb the others.
    cache.access(4, false);
    EXPECT_FALSE(cache.contains(0));
    EXPECT_TRUE(cache.contains(1));
    EXPECT_TRUE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
}

// Property sweep over geometries: an access pattern of exactly
// `assoc` blocks per set never evicts.
class CacheGeometry
    : public testing::TestWithParam<std::tuple<std::size_t, unsigned>>
{};

TEST_P(CacheGeometry, FullSetResidesWithoutEviction)
{
    const auto [sets, assoc] = GetParam();
    SetAssocCache cache(CacheConfig{sets, assoc});
    for (unsigned w = 0; w < assoc; ++w) {
        for (std::size_t s = 0; s < sets; ++s) {
            auto res = cache.access(s + w * sets, false);
            EXPECT_FALSE(res.victim.has_value());
        }
    }
    EXPECT_EQ(cache.residentBlocks(), sets * assoc);
    // Every block still hits.
    for (unsigned w = 0; w < assoc; ++w)
        for (std::size_t s = 0; s < sets; ++s)
            EXPECT_TRUE(cache.access(s + w * sets, false).hit);
}

TEST_P(CacheGeometry, LruIsExactWithinSet)
{
    const auto [sets, assoc] = GetParam();
    SetAssocCache cache(CacheConfig{sets, assoc});
    // Touch assoc+1 blocks of set 0 in order; the first must be evicted.
    for (unsigned w = 0; w <= assoc; ++w)
        cache.access(BlockAddr{w} * sets, false);
    EXPECT_FALSE(cache.contains(0));
    for (unsigned w = 1; w <= assoc; ++w)
        EXPECT_TRUE(cache.contains(BlockAddr{w} * sets));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    testing::Combine(testing::Values(std::size_t{1}, std::size_t{8},
                                     std::size_t{64}, std::size_t{512}),
                     testing::Values(1u, 2u, 4u, 16u)));

/**
 * Reference true-LRU cache for the differential test below: one 64-bit
 * last-use timestamp per frame, bumped on every access. A miss fills
 * the first vacant way of the set, else the way with the strictly
 * smallest timestamp in way order.
 */
class TimestampLruCache
{
  public:
    explicit TimestampLruCache(const CacheConfig &config)
        : cfg(config), frames(config.capacityBlocks())
    {}

    CacheAccessResult
    access(BlockAddr addr, bool is_write)
    {
        CacheAccessResult result;
        ++clock;
        if (Frame *f = find(addr)) {
            result.hit = true;
            if (is_write && !f->dirty) {
                result.writeHitClean = true;
                f->dirty = true;
            }
            f->lastUse = clock;
            return result;
        }
        Frame *set = &frames[(addr & (cfg.numSets - 1)) * cfg.assoc];
        Frame *victim = nullptr;
        for (unsigned w = 0; w < cfg.assoc && victim == nullptr; ++w)
            if (!set[w].valid)
                victim = &set[w];
        if (victim == nullptr) {
            victim = &set[0];
            for (unsigned w = 1; w < cfg.assoc; ++w)
                if (set[w].lastUse < victim->lastUse)
                    victim = &set[w];
            result.victim = victim->addr;
            result.victimDirty = victim->dirty;
        }
        *victim = Frame{addr, true, is_write, clock};
        return result;
    }

    bool
    invalidate(BlockAddr addr)
    {
        Frame *f = find(addr);
        if (f == nullptr)
            return false;
        f->valid = false;
        f->dirty = false;
        return true;
    }

    void
    cleanse(BlockAddr addr)
    {
        if (Frame *f = find(addr))
            f->dirty = false;
    }

    std::vector<BlockAddr>
    residentAddresses() const
    {
        std::vector<BlockAddr> out;
        for (const Frame &f : frames)
            if (f.valid)
                out.push_back(f.addr);
        return out;
    }

  private:
    struct Frame
    {
        BlockAddr addr = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    Frame *
    find(BlockAddr addr)
    {
        Frame *set = &frames[(addr & (cfg.numSets - 1)) * cfg.assoc];
        for (unsigned w = 0; w < cfg.assoc; ++w)
            if (set[w].valid && set[w].addr == addr)
                return &set[w];
        return nullptr;
    }

    CacheConfig cfg;
    std::vector<Frame> frames;
    std::uint64_t clock = 0;
};

// Differential pin of the replacement policy: mixed access/invalidate/
// cleanse streams must produce, call for call, the outcomes of the
// timestamp reference, at every associativity the simulator uses.
TEST(Cache, MatchesTimestampLruReference)
{
    for (const unsigned assoc : {1u, 2u, 4u, 16u, 64u}) {
        SCOPED_TRACE(testing::Message() << "assoc " << assoc);
        const CacheConfig config{8, assoc};
        SetAssocCache cache(config);
        TimestampLruCache ref(config);
        Rng rng(assoc);
        // Twice the capacity in distinct blocks keeps sets contended
        // while leaving plenty of hits.
        const std::uint64_t blocks = 2 * config.capacityBlocks();
        for (int i = 0; i < 40000; ++i) {
            const BlockAddr addr = rng.below(blocks);
            const std::uint64_t op = rng.below(10);
            if (op < 7) {
                const bool write = rng.chance(0.3);
                const CacheAccessResult got = cache.access(addr, write);
                const CacheAccessResult want = ref.access(addr, write);
                ASSERT_EQ(got.hit, want.hit) << "op " << i;
                ASSERT_EQ(got.writeHitClean, want.writeHitClean)
                    << "op " << i;
                ASSERT_EQ(got.victim, want.victim) << "op " << i;
                ASSERT_EQ(got.victimDirty, want.victimDirty) << "op " << i;
            } else if (op < 9) {
                ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr))
                    << "op " << i;
            } else {
                cache.cleanse(addr);
                ref.cleanse(addr);
            }
        }
        EXPECT_EQ(cache.residentAddresses(), ref.residentAddresses());
    }
}

TEST(CacheConfigStruct, CapacityIsSetsTimesWays)
{
    EXPECT_EQ((CacheConfig{512, 2}).capacityBlocks(), 1024u);
    EXPECT_EQ((CacheConfig{1024, 16}).capacityBlocks(), 16384u);
}

} // namespace
} // namespace cdir
