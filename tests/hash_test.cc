/**
 * @file
 * Unit and property tests for the hash families: range, determinism,
 * bijectivity of the skewing permutation chunks, inter-way dispersion,
 * and distribution uniformity.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "hash/hash_family.hh"
#include "hash/skewing_hash.hh"
#include "hash/strong_hash.hh"

namespace cdir {
namespace {

struct FamilyCase
{
    HashKind kind;
    unsigned ways;
    std::size_t sets;
};

std::string
caseName(const testing::TestParamInfo<FamilyCase> &info)
{
    const auto &c = info.param;
    std::string kind = c.kind == HashKind::Skewing  ? "Skewing"
                       : c.kind == HashKind::Strong ? "Strong"
                                                    : "Modulo";
    return kind + "_" + std::to_string(c.ways) + "w" +
           std::to_string(c.sets) + "s";
}

class HashFamilyProperty : public testing::TestWithParam<FamilyCase>
{
  protected:
    void SetUp() override
    {
        const auto &c = GetParam();
        family = makeHashFamily(c.kind, c.ways, c.sets, 99);
        ASSERT_NE(family, nullptr);
    }
    std::unique_ptr<HashFamily> family;
};

TEST_P(HashFamilyProperty, ReportsConfiguredShape)
{
    EXPECT_EQ(family->numWays(), GetParam().ways);
    EXPECT_EQ(family->setsPerWay(), GetParam().sets);
}

TEST_P(HashFamilyProperty, IndexInRange)
{
    Rng rng(1);
    for (int i = 0; i < 20000; ++i) {
        const Tag tag = rng.next();
        for (unsigned w = 0; w < family->numWays(); ++w)
            ASSERT_LT(family->index(w, tag), family->setsPerWay());
    }
}

TEST_P(HashFamilyProperty, Deterministic)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const Tag tag = rng.next();
        for (unsigned w = 0; w < family->numWays(); ++w)
            ASSERT_EQ(family->index(w, tag), family->index(w, tag));
    }
}

TEST_P(HashFamilyProperty, RoughlyUniformOverSets)
{
    // Chi-squared-style sanity bound: with n >> sets random tags, each
    // bucket should be within 40% of the expected load.
    const std::size_t sets = family->setsPerWay();
    const int n = static_cast<int>(sets) * 200;
    for (unsigned w = 0; w < family->numWays(); ++w) {
        std::vector<int> load(sets, 0);
        Rng rng(3 + w);
        for (int i = 0; i < n; ++i)
            ++load[family->index(w, rng.next())];
        const double expected = double(n) / double(sets);
        for (std::size_t s = 0; s < sets; ++s) {
            EXPECT_GT(load[s], expected * 0.6)
                << "way " << w << " set " << s;
            EXPECT_LT(load[s], expected * 1.4)
                << "way " << w << " set " << s;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, HashFamilyProperty,
    testing::Values(FamilyCase{HashKind::Skewing, 2, 64},
                    FamilyCase{HashKind::Skewing, 3, 256},
                    FamilyCase{HashKind::Skewing, 4, 512},
                    FamilyCase{HashKind::Skewing, 8, 128},
                    FamilyCase{HashKind::Strong, 2, 64},
                    FamilyCase{HashKind::Strong, 3, 256},
                    FamilyCase{HashKind::Strong, 4, 512},
                    FamilyCase{HashKind::Strong, 8, 1024},
                    FamilyCase{HashKind::Modulo, 4, 256}),
    caseName);

// --- Skewing specifics ----------------------------------------------------

TEST(SkewingHash, WaysDisagreeOnConflictingTags)
{
    // Two tags that collide in way 0 should usually not collide in the
    // other ways — the inter-bank dispersion property (§4.1).
    SkewingHashFamily family(4, 256);
    Rng rng(7);
    int conflicts_everywhere = 0;
    int pairs = 0;
    std::map<std::size_t, Tag> first_by_index;
    for (int i = 0; i < 50000 && pairs < 500; ++i) {
        const Tag tag = rng.next();
        const std::size_t idx0 = family.index(0, tag);
        auto it = first_by_index.find(idx0);
        if (it == first_by_index.end()) {
            first_by_index.emplace(idx0, tag);
            continue;
        }
        if (it->second == tag)
            continue;
        ++pairs;
        bool all_same = true;
        for (unsigned w = 1; w < 4; ++w)
            if (family.index(w, tag) != family.index(w, it->second))
                all_same = false;
        if (all_same)
            ++conflicts_everywhere;
    }
    ASSERT_GT(pairs, 100);
    // Transitive full conflicts must be very rare.
    EXPECT_LT(conflicts_everywhere, pairs / 50);
}

TEST(SkewingHash, Way0IsPlainXorFold)
{
    // Way 0 applies no sigma powers: index = a1 ^ a2 ^ a3.
    SkewingHashFamily family(2, 16);
    const Tag tag = 0x3 | (0x5 << 4) | (0x9 << 8);
    EXPECT_EQ(family.index(0, tag),
              static_cast<std::size_t>(0x3 ^ 0x5 ^ 0x9));
}

TEST(SkewingHash, DifferentWaysDifferentFunctions)
{
    SkewingHashFamily family(4, 512);
    Rng rng(11);
    // For random tags, ways must not all compute the same index.
    int identical = 0;
    for (int i = 0; i < 1000; ++i) {
        const Tag tag = rng.next();
        const std::size_t i0 = family.index(0, tag);
        bool all_equal = true;
        for (unsigned w = 1; w < 4; ++w)
            if (family.index(w, tag) != i0)
                all_equal = false;
        if (all_equal)
            ++identical;
    }
    EXPECT_LT(identical, 10);
}

TEST(SkewingHash, ChunkPermutationIsBijective)
{
    // The sigma underlying each way permutes the index-chunk space:
    // restricting tags to a single chunk must enumerate every index.
    for (unsigned way = 0; way < 4; ++way) {
        SkewingHashFamily family(4, 64);
        std::set<std::size_t> images;
        for (Tag a1 = 0; a1 < 64; ++a1)
            images.insert(family.index(way, a1));
        EXPECT_EQ(images.size(), 64u) << "way " << way;
    }
}

TEST(SkewingHash, RejectsInvalidGeometry)
{
    // Two sets per way would give sigma a zero feedback mask (not a
    // bijection); every geometry outside 1+ ways x 4..2^24 sets throws.
    EXPECT_THROW(SkewingHashFamily(0, 64), std::invalid_argument);
    for (std::size_t sets : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                             std::size_t{48}, std::size_t{1} << 25})
        EXPECT_THROW(SkewingHashFamily(4, sets), std::invalid_argument)
            << sets << " sets";
    EXPECT_THROW(makeHashFamily(HashKind::Skewing, 4, 2, 0),
                 std::invalid_argument);
    EXPECT_NO_THROW(SkewingHashFamily(1, 4));
    EXPECT_NO_THROW(SkewingHashFamily(8, std::size_t{1} << 24));
}

// --- Skewing against a branchy reference -----------------------------------

/** The family's primitive feedback masks, indexed by index width. */
constexpr std::uint64_t kReferenceFeedback[] = {
    0x0,      0x0,      0x3,      0x6,      0xc,       0x14,     0x30,
    0x60,     0xb8,     0x110,    0x240,    0x500,     0xe08,    0x1c80,
    0x3802,   0x6000,   0xd008,   0x12000,  0x20400,   0x72000,  0x90000,
    0x140000, 0x300000, 0x420000, 0xe10000,
};

/** One Galois-LFSR step on a @p bits-wide value, written with branches. */
std::uint64_t
referenceSigma(std::uint64_t v, unsigned bits)
{
    const bool lsb = v & 1;
    v >>= 1;
    if (lsb)
        v ^= kReferenceFeedback[bits];
    return v;
}

/** Inverse of referenceSigma, written with branches. */
std::uint64_t
referenceSigmaInv(std::uint64_t v, unsigned bits)
{
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    if (v & (std::uint64_t{1} << (bits - 1)))
        return (((v ^ kReferenceFeedback[bits]) << 1) | 1) & mask;
    return (v << 1) & mask;
}

/**
 * Reference f_w(tag) for ways [0, ways) into @p out:
 * sigma^w(a1) ^ sigmaInv^w(a2) ^ a3 over the tag's low three chunks.
 */
void
referenceIndices(Tag tag, unsigned bits, unsigned ways, std::size_t *out)
{
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::uint64_t a1 = tag & mask;
    std::uint64_t a2 = (tag >> bits) & mask;
    const std::uint64_t a3 = (tag >> (2 * bits)) & mask;
    for (unsigned w = 0; w < ways; ++w) {
        out[w] = static_cast<std::size_t>(a1 ^ a2 ^ a3);
        a1 = referenceSigma(a1, bits);
        a2 = referenceSigmaInv(a2, bits);
    }
}

/**
 * Number of ways on which @p family's index() or indexAll() differs
 * from the reference for @p tag.
 */
int
referenceMismatches(const SkewingHashFamily &family, unsigned bits, Tag tag)
{
    const unsigned ways = family.numWays();
    std::size_t expected[8], all[8];
    referenceIndices(tag, bits, ways, expected);
    family.indexAll(tag, all);
    int mismatches = 0;
    for (unsigned w = 0; w < ways; ++w) {
        if (all[w] != expected[w])
            ++mismatches;
        if (family.index(w, tag) != expected[w])
            ++mismatches;
    }
    return mismatches;
}

TEST(SkewingHash, MatchesBranchyReferenceAtEveryWidth)
{
    Rng rng(17);
    for (unsigned bits = 2; bits <= 24; ++bits) {
        for (unsigned ways = 1; ways <= 8; ++ways) {
            const SkewingHashFamily family(ways, std::size_t{1} << bits);
            int mismatches = 0;
            for (int i = 0; i < 512; ++i)
                mismatches += referenceMismatches(family, bits, rng.next());
            EXPECT_EQ(mismatches, 0) << bits << " bits, " << ways << " ways";
        }
    }
}

TEST(SkewingHash, MatchesBranchyReferenceOnEveryChunkPair)
{
    // Every (a1, a2) chunk pair at widths up to 10, with random third
    // chunk and high bits, through all eight ways.
    Rng rng(19);
    for (unsigned bits = 2; bits <= 10; ++bits) {
        const SkewingHashFamily family(8, std::size_t{1} << bits);
        const Tag chunks = Tag{1} << bits;
        int mismatches = 0;
        for (Tag a1 = 0; a1 < chunks; ++a1) {
            for (Tag a2 = 0; a2 < chunks; ++a2) {
                const Tag high = rng.next() << (2 * bits);
                mismatches += referenceMismatches(family, bits,
                                                  a1 | (a2 << bits) | high);
            }
        }
        EXPECT_EQ(mismatches, 0) << bits << " bits";
    }
}

// --- Strong hash specifics --------------------------------------------------

TEST(StrongHash, MixAvalanches)
{
    // Flipping one input bit should flip ~half the output bits.
    Rng rng(13);
    double total_flips = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
        const std::uint64_t x = rng.next();
        const unsigned bit = static_cast<unsigned>(rng.below(64));
        const std::uint64_t d =
            StrongHashFamily::mix(x) ^
            StrongHashFamily::mix(x ^ (1ull << bit));
        total_flips += std::popcount(d);
    }
    EXPECT_NEAR(total_flips / trials, 32.0, 2.0);
}

TEST(StrongHash, SeedsChangeFunctions)
{
    StrongHashFamily a(4, 256, 1), b(4, 256, 2);
    int same = 0;
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        const Tag tag = rng.next();
        if (a.index(0, tag) == b.index(0, tag))
            ++same;
    }
    // Two random functions over 256 buckets agree ~1/256 of the time.
    EXPECT_LT(same, 30);
}

TEST(ModuloHash, UsesLowBitsForEveryWay)
{
    ModuloHashFamily family(4, 128);
    for (Tag tag : {Tag{0}, Tag{1}, Tag{127}, Tag{128}, Tag{0xabcdef}}) {
        for (unsigned w = 0; w < 4; ++w)
            EXPECT_EQ(family.index(w, tag),
                      static_cast<std::size_t>(tag & 127));
    }
}

TEST(HashFactory, BuildsEveryKind)
{
    for (HashKind kind :
         {HashKind::Skewing, HashKind::Strong, HashKind::Modulo}) {
        auto family = makeHashFamily(kind, 3, 64, 5);
        ASSERT_NE(family, nullptr);
        EXPECT_EQ(family->numWays(), 3u);
        EXPECT_EQ(family->setsPerWay(), 64u);
    }
}

} // namespace
} // namespace cdir
