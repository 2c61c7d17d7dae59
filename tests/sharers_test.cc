/**
 * @file
 * Unit and property tests for the sharer sets: precise behaviour of the
 * full vector, pointer/coarse transitions, hierarchical storage
 * accounting, the wide inline run and its spill arena, and the
 * universal never-false-negative invariant.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/bit_util.hh"
#include "common/rng.hh"
#include "sharers/sharer_codec.hh"
#include "sharers/sharer_rep.hh"

namespace cdir {
namespace {

// --- shared property suite ---------------------------------------------------

struct RepCase
{
    SharerFormat format;
    std::size_t caches;
};

std::string
repName(const testing::TestParamInfo<RepCase> &info)
{
    const char *fmt =
        info.param.format == SharerFormat::FullVector     ? "Full"
        : info.param.format == SharerFormat::CoarseVector ? "Coarse"
        : info.param.format == SharerFormat::Compressed   ? "Compressed"
                                                          : "Hier";
    return std::string(fmt) + "_" + std::to_string(info.param.caches);
}

class SharerRepProperty : public testing::TestWithParam<RepCase>
{
  protected:
    void SetUp() override
    {
        rep = makeSharerRep(GetParam().format, GetParam().caches);
        ASSERT_NE(rep, nullptr);
    }
    std::unique_ptr<SharerRep> rep;
};

TEST_P(SharerRepProperty, StartsEmpty)
{
    EXPECT_TRUE(rep->empty());
    EXPECT_EQ(rep->count(), 0u);
    DynamicBitset targets;
    rep->invalidationTargets(targets);
    EXPECT_TRUE(targets.none());
}

TEST_P(SharerRepProperty, AddThenContains)
{
    rep->add(0);
    EXPECT_TRUE(rep->mightContain(0));
    EXPECT_EQ(rep->count(), 1u);
    EXPECT_FALSE(rep->empty());
}

TEST_P(SharerRepProperty, RemoveLastSharerEmpties)
{
    rep->add(1);
    EXPECT_TRUE(rep->remove(1));
    EXPECT_TRUE(rep->empty());
}

TEST_P(SharerRepProperty, RemoveReturnsFalseWhileOthersRemain)
{
    rep->add(0);
    rep->add(1);
    EXPECT_FALSE(rep->remove(0));
    EXPECT_TRUE(rep->remove(1));
}

TEST_P(SharerRepProperty, NeverFalseNegative)
{
    // Whatever the representation does internally, a true sharer must
    // always be covered by mightContain and invalidationTargets.
    const std::size_t n = GetParam().caches;
    Rng rng(42);
    std::set<CacheId> truth;
    for (int step = 0; step < 500; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(n));
        if (rng.chance(0.6)) {
            if (!truth.count(cache)) {
                rep->add(cache);
                truth.insert(cache);
            }
        } else if (!truth.empty()) {
            // remove a random true sharer
            auto it = truth.begin();
            std::advance(it, rng.below(truth.size()));
            rep->remove(*it);
            truth.erase(it);
        }
        DynamicBitset targets;
        rep->invalidationTargets(targets);
        for (CacheId c : truth) {
            ASSERT_TRUE(rep->mightContain(c)) << "step " << step;
            ASSERT_TRUE(targets.test(c)) << "step " << step;
        }
        ASSERT_EQ(rep->count(), truth.size());
    }
}

TEST_P(SharerRepProperty, ClearEmpties)
{
    for (CacheId c = 0; c < 4; ++c)
        rep->add(c);
    rep->clear();
    EXPECT_TRUE(rep->empty());
    DynamicBitset targets;
    rep->invalidationTargets(targets);
    EXPECT_TRUE(targets.none());
}

TEST_P(SharerRepProperty, DuplicateAddIsIdempotent)
{
    // Every format, coarse mode included: add() tracks membership, so
    // re-adding an existing sharer must not inflate the count (the
    // directory's read-hit path calls add() for the requester whether
    // or not it is already recorded).
    rep->add(2);
    rep->add(2);
    EXPECT_EQ(rep->count(), 1u);
    EXPECT_TRUE(rep->remove(2));
    EXPECT_TRUE(rep->empty());
}

TEST_P(SharerRepProperty, StorageBitsPositive)
{
    EXPECT_GT(rep->storageBits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllReps, SharerRepProperty,
    testing::Values(RepCase{SharerFormat::FullVector, 16},
                    RepCase{SharerFormat::FullVector, 64},
                    RepCase{SharerFormat::FullVector, 1024},
                    RepCase{SharerFormat::CoarseVector, 16},
                    RepCase{SharerFormat::CoarseVector, 64},
                    RepCase{SharerFormat::CoarseVector, 1024},
                    RepCase{SharerFormat::Hierarchical, 16},
                    RepCase{SharerFormat::Hierarchical, 64},
                    RepCase{SharerFormat::Hierarchical, 1024},
                    RepCase{SharerFormat::Compressed, 16},
                    RepCase{SharerFormat::Compressed, 64},
                    RepCase{SharerFormat::Compressed, 1024}),
    repName);

// --- FullVector specifics -----------------------------------------------------

TEST(FullVector, PreciseTargets)
{
    auto rep = makeSharerRep(SharerFormat::FullVector, 16);
    rep->add(3);
    rep->add(9);
    DynamicBitset targets;
    rep->invalidationTargets(targets);
    EXPECT_EQ(targets.count(), 2u);
    EXPECT_TRUE(targets.test(3));
    EXPECT_TRUE(targets.test(9));
    EXPECT_TRUE(rep->precise());
}

TEST(FullVector, StorageIsOneBitPerCache)
{
    EXPECT_EQ(makeSharerRep(SharerFormat::FullVector, 16)->storageBits(),
              16u);
    EXPECT_EQ(makeSharerRep(SharerFormat::FullVector, 1024)->storageBits(),
              1024u);
}

// --- CoarseVector specifics ----------------------------------------------------

TEST(CoarseVector, StaysPreciseWithinPointerBudget)
{
    // budget = 2*6 = 12 bits, 2 pointers
    auto rep = makeSharerRep(SharerFormat::CoarseVector, 64);
    rep->add(10);
    rep->add(50);
    EXPECT_TRUE(rep->precise());
    DynamicBitset targets;
    rep->invalidationTargets(targets);
    EXPECT_EQ(targets.count(), 2u);
}

TEST(CoarseVector, OverflowSwitchesToCoarse)
{
    auto rep = makeSharerRep(SharerFormat::CoarseVector, 64);
    rep->add(1);
    rep->add(2);
    rep->add(3); // third sharer overflows two pointers
    EXPECT_FALSE(rep->precise());
    EXPECT_EQ(rep->count(), 3u);
}

TEST(CoarseVector, CoarseTargetsAreSuperset)
{
    auto rep = makeSharerRep(SharerFormat::CoarseVector, 64);
    rep->add(0);
    rep->add(20);
    rep->add(40);
    DynamicBitset targets;
    rep->invalidationTargets(targets);
    EXPECT_TRUE(targets.test(0));
    EXPECT_TRUE(targets.test(20));
    EXPECT_TRUE(targets.test(40));
    // Coarse bits cover whole groups, so the target count is at least
    // the sharer count and bounded by groups * groupSize.
    EXPECT_GE(targets.count(), 3u);
}

TEST(CoarseVector, StorageBitsMatchBudget)
{
    EXPECT_EQ(makeSharerRep(SharerFormat::CoarseVector, 16)->storageBits(),
              8u); // 2*log2(16)
    EXPECT_EQ(makeSharerRep(SharerFormat::CoarseVector, 64)->storageBits(),
              12u); // 2*log2(64)
    EXPECT_EQ(
        makeSharerRep(SharerFormat::CoarseVector, 1024)->storageBits(),
        20u);
    EXPECT_EQ(sharerStorageBits(SharerFormat::CoarseVector, 1024), 20u);
}

TEST(CoarseVector, EmptiesFromCoarseMode)
{
    auto rep = makeSharerRep(SharerFormat::CoarseVector, 32);
    rep->add(0);
    rep->add(1);
    rep->add(2);
    ASSERT_FALSE(rep->precise());
    EXPECT_FALSE(rep->remove(0));
    EXPECT_FALSE(rep->remove(1));
    EXPECT_TRUE(rep->remove(2));
    EXPECT_TRUE(rep->empty());
    EXPECT_TRUE(rep->precise()); // reset to precise pointer mode
}

TEST(CoarseVector, CoarseModeRetainsGroupBitsUntilEmpty)
{
    auto rep = makeSharerRep(SharerFormat::CoarseVector, 64);
    rep->add(0);
    rep->add(1);
    rep->add(2);
    ASSERT_FALSE(rep->precise());
    rep->remove(2);
    // Group bit for {0,1,...} region must still cover remaining sharers.
    DynamicBitset targets;
    rep->invalidationTargets(targets);
    EXPECT_TRUE(targets.test(0));
    EXPECT_TRUE(targets.test(1));
}

TEST(CoarseVector, CoarseReAddDoesNotDoubleCount)
{
    // Regression pin: add() used to bump the sharer count
    // unconditionally in coarse mode, so re-adding a tracked sharer
    // inflated count() and the removal sequence could never drain the
    // entry back to empty (leaking the directory entry).
    auto rep = makeSharerRep(SharerFormat::CoarseVector, 64);
    rep->add(1);
    rep->add(2);
    rep->add(3);
    ASSERT_FALSE(rep->precise());
    ASSERT_EQ(rep->count(), 3u);
    rep->add(2); // re-add while coarse
    EXPECT_EQ(rep->count(), 3u);
    EXPECT_FALSE(rep->remove(1));
    EXPECT_FALSE(rep->remove(2));
    EXPECT_TRUE(rep->remove(3));
    EXPECT_TRUE(rep->empty());
}

TEST(CoarseVector, CoarseRemoveOfUntrackedCacheIsANoOp)
{
    auto rep = makeSharerRep(SharerFormat::CoarseVector, 64);
    rep->add(0);
    rep->add(1);
    rep->add(2);
    ASSERT_FALSE(rep->precise());
    // 3 shares group 0's coarse bit but was never added; removing it
    // must not disturb the count.
    EXPECT_FALSE(rep->remove(3));
    EXPECT_EQ(rep->count(), 3u);
}

TEST(CoarseVector, SmallSystemsDegenerate)
{
    // 2 caches: budget = 2 bits, groups of 1 — effectively full vector.
    auto rep = makeSharerRep(SharerFormat::CoarseVector, 2);
    rep->add(0);
    rep->add(1);
    DynamicBitset targets;
    rep->invalidationTargets(targets);
    EXPECT_EQ(targets.count(), 2u);
}

// --- Hierarchical specifics -----------------------------------------------------

TEST(Hierarchical, ChargesLeavesOnDemand)
{
    // 64 caches: 8 clusters of 8, so the root is 8 bits and every
    // cluster holding a sharer adds an 8-bit leaf vector.
    auto rep = makeSharerRep(SharerFormat::Hierarchical, 64);
    EXPECT_EQ(rep->storageBits(), 8u);
    rep->add(0);
    EXPECT_EQ(rep->storageBits(), 16u);
    rep->add(7); // same cluster
    EXPECT_EQ(rep->storageBits(), 16u);
    rep->add(8); // next cluster
    EXPECT_EQ(rep->storageBits(), 24u);
}

TEST(Hierarchical, StopsChargingEmptyLeaves)
{
    auto rep = makeSharerRep(SharerFormat::Hierarchical, 64);
    rep->add(0);
    rep->add(8);
    rep->remove(0);
    EXPECT_EQ(rep->storageBits(), 16u);
    rep->remove(8);
    EXPECT_EQ(rep->storageBits(), 8u);
    EXPECT_TRUE(rep->empty());
}

TEST(Hierarchical, PreciseTargets)
{
    auto rep = makeSharerRep(SharerFormat::Hierarchical, 100);
    rep->add(0);
    rep->add(55);
    rep->add(99);
    DynamicBitset targets;
    rep->invalidationTargets(targets);
    EXPECT_EQ(targets.count(), 3u);
    EXPECT_TRUE(targets.test(0));
    EXPECT_TRUE(targets.test(55));
    EXPECT_TRUE(targets.test(99));
    EXPECT_TRUE(rep->precise());
}

TEST(Hierarchical, RootStorageBitsFormula)
{
    // sqrt split: 1024 caches -> 32 clusters of 32.
    EXPECT_EQ(sharerStorageBits(SharerFormat::Hierarchical, 1024), 32u);
    EXPECT_EQ(sharerStorageBits(SharerFormat::Hierarchical, 16), 4u);
}

TEST(Hierarchical, NonSquareClusterGeometryIsExact)
{
    // 128 caches: clusters of isqrtCeil(128) = 12, which pack into 11
    // clusters — one less than ceil(sqrt(128)) = 12. The float-based
    // derivation used to charge the extra cluster.
    EXPECT_EQ(sharerStorageBits(SharerFormat::Hierarchical, 128), 11u);
    auto rep = makeSharerRep(SharerFormat::Hierarchical, 128);
    rep->add(127); // last, partially filled cluster
    EXPECT_TRUE(rep->mightContain(127));
    // Root of 11 bits plus one 12-cache leaf.
    EXPECT_EQ(rep->storageBits(), 11u + 12u);

    // 8192 caches (the 4096-core Shared-L2 grid point): 91 clusters of
    // 91 exactly covers 8281 >= 8192.
    EXPECT_EQ(sharerStorageBits(SharerFormat::Hierarchical, 8192), 91u);
}

TEST(Hierarchical, IsqrtExactAtLargeNonSquares)
{
    // Around a large perfect square, where a double sqrt can land on
    // the wrong side: 94906265^2 just exceeds 2^53.
    constexpr std::uint64_t r = 94906265;
    static_assert(isqrtFloor(r * r) == r);
    static_assert(isqrtFloor(r * r - 1) == r - 1);
    static_assert(isqrtCeil(r * r) == r);
    static_assert(isqrtCeil(r * r + 1) == r + 1);
    static_assert(isqrtCeil(0) == 0);
    static_assert(isqrtCeil(1) == 1);
    static_assert(isqrtCeil(2) == 2);
    EXPECT_EQ(isqrtFloor(~std::uint64_t{0}), 4294967295u);
}

// --- Compressed specifics ----------------------------------------------------

TEST(Compressed, StorageChargeMatchesFullVector)
{
    // The compressed format is a host-RAM optimization, not a protocol
    // change: the modeled storage bits stay one per cache, so every
    // behavioural statistic is bit-identical to a FullVector run.
    EXPECT_EQ(sharerStorageBits(SharerFormat::Compressed, 1024), 1024u);
    auto rep = makeSharerRep(SharerFormat::Compressed, 4096);
    EXPECT_EQ(rep->storageBits(), 4096u);
    EXPECT_TRUE(rep->precise());
}

TEST(Compressed, LeanerThanAFullVectorWhenSparse)
{
    // One sharer among 4096 caches: the entry holds a short inline run
    // of (index, word) pairs, not 4096 bits of backing words.
    for (SharerFormat f :
         {SharerFormat::FullVector, SharerFormat::Compressed}) {
        auto rep = makeSharerRep(f, 4096);
        rep->add(7);
        EXPECT_LT(rep->memoryBytes(), 4096u / 8);
    }
}

TEST(Compressed, MatchesFullVectorUnderChurnAt1024Caches)
{
    // Lean-vs-full equivalence at CMP scale: identical add/remove
    // streams must produce identical counts, membership answers, and
    // invalidation target sets at every step. The sets grow far past
    // the inline run, so this also drives the spill path.
    constexpr std::size_t kCaches = 1024;
    auto full = makeSharerRep(SharerFormat::FullVector, kCaches);
    auto lean = makeSharerRep(SharerFormat::Compressed, kCaches);
    Rng rng(2026);
    std::set<CacheId> truth;
    for (int step = 0; step < 4000; ++step) {
        const auto cache = static_cast<CacheId>(rng.below(kCaches));
        if (rng.chance(0.55)) {
            full->add(cache);
            lean->add(cache);
            truth.insert(cache);
        } else {
            EXPECT_EQ(full->remove(cache), lean->remove(cache))
                << "step " << step;
            truth.erase(cache);
        }
        ASSERT_EQ(lean->count(), full->count()) << "step " << step;
        ASSERT_EQ(lean->count(), truth.size()) << "step " << step;
        ASSERT_EQ(lean->mightContain(cache), full->mightContain(cache));
        if (step % 97 == 0) {
            DynamicBitset a, b;
            full->invalidationTargets(a);
            lean->invalidationTargets(b);
            ASSERT_TRUE(a == b) << "step " << step;
            ASSERT_EQ(a.count(), truth.size());
        }
    }
    full->clear();
    lean->clear();
    EXPECT_TRUE(lean->empty());
    EXPECT_EQ(lean->count(), full->count());
}

// --- Inline entry encoding ---------------------------------------------------

TEST(SharerCodec, NarrowEntriesAreOneWord)
{
    // Up to 64 caches the exact set is one word; CoarseVector adds its
    // group mask.
    EXPECT_EQ(SharerCodec(SharerFormat::FullVector, 16).words(), 1u);
    EXPECT_EQ(SharerCodec(SharerFormat::Compressed, 64).words(), 1u);
    EXPECT_EQ(SharerCodec(SharerFormat::Hierarchical, 64).words(), 1u);
    EXPECT_EQ(SharerCodec(SharerFormat::CoarseVector, 64).words(), 2u);
    EXPECT_GT(SharerCodec(SharerFormat::FullVector, 65).words(), 1u);
}

TEST(SharerCodec, WideSetSpillsAndReturnsItsChunk)
{
    constexpr std::size_t kCaches = 1024;
    SharerCodec codec(SharerFormat::FullVector, kCaches);
    std::vector<SharerCodec::Word> entry(codec.words(), 0);
    // More distinct 64-cache words than the inline run holds.
    const unsigned words = SharerCodec::kInlineWords + 2;
    std::size_t arena = 0;
    for (int round = 0; round < 3; ++round) {
        for (unsigned w = 0; w < words; ++w)
            codec.add(entry.data(), static_cast<CacheId>(w * 64 + w));
        EXPECT_EQ(codec.count(entry.data()), words);
        DynamicBitset targets;
        codec.targets(entry.data(), targets);
        EXPECT_EQ(targets.count(), words);
        for (unsigned w = 0; w < words; ++w)
            EXPECT_TRUE(targets.test(w * 64 + w));
        for (unsigned w = 0; w + 1 < words; ++w)
            EXPECT_FALSE(
                codec.remove(entry.data(), static_cast<CacheId>(w * 65)));
        EXPECT_TRUE(codec.remove(entry.data(),
                                 static_cast<CacheId>((words - 1) * 65)));
        // Empty entries are all-zero words, and the chunk is reused.
        for (const SharerCodec::Word word : entry)
            EXPECT_EQ(word, 0u);
        if (round == 0)
            arena = codec.spillBytes();
        EXPECT_EQ(codec.spillBytes(), arena);
    }
    EXPECT_GT(arena, 0u);
}

TEST(SharerCodec, SpilledEntryMovesWithItsWords)
{
    constexpr std::size_t kCaches = 512;
    SharerCodec codec(SharerFormat::Compressed, kCaches);
    std::vector<SharerCodec::Word> a(codec.words(), 0);
    std::vector<SharerCodec::Word> b(codec.words(), 0);
    for (CacheId c = 0; c < kCaches; c += 50)
        codec.add(a.data(), c);
    codec.move(a.data(), b.data());
    EXPECT_EQ(codec.count(b.data()), 11u);
    EXPECT_EQ(codec.count(a.data()), 0u);
    for (CacheId c = 0; c < kCaches; c += 50)
        EXPECT_TRUE(codec.mightContain(b.data(), c));
    codec.clear(b.data());
    EXPECT_EQ(codec.count(b.data()), 0u);
}

TEST(SharerCodec, WideCoarseTargetsCoverWholeGroups)
{
    // 1024 caches: 20 budget bits -> 20 groups of ceil(1024/20) = 52.
    auto rep = makeSharerRep(SharerFormat::CoarseVector, 1024);
    rep->add(0);
    rep->add(500);
    EXPECT_TRUE(rep->precise());
    rep->add(1000);
    EXPECT_FALSE(rep->precise());
    DynamicBitset targets;
    rep->invalidationTargets(targets);
    // Groups 0 [0,52), 9 [468,520) and 19 [988,1024).
    EXPECT_EQ(targets.count(), 52u + 52u + 36u);
    EXPECT_TRUE(targets.test(467 + 1));
    EXPECT_FALSE(targets.test(467));
    EXPECT_EQ(rep->count(), 3u);
}

TEST(SharerFactory, BuildsEveryFormat)
{
    for (SharerFormat f :
         {SharerFormat::FullVector, SharerFormat::CoarseVector,
          SharerFormat::Hierarchical, SharerFormat::Compressed}) {
        auto rep = makeSharerRep(f, 32);
        ASSERT_NE(rep, nullptr);
        rep->add(5);
        EXPECT_TRUE(rep->mightContain(5));
        EXPECT_GT(rep->memoryBytes(), 0u);
    }
}

} // namespace
} // namespace cdir
