/**
 * @file
 * Tests for the synthetic workload generators: determinism, region
 * structure, parameter effects, and the Table 2 presets' qualitative
 * sharing profiles (§5.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "workload/workload.hh"

namespace cdir {
namespace {

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.numCores = 4;
    p.codeBlocks = 64;
    p.sharedBlocks = 256;
    p.privateBlocksPerCore = 128;
    p.seed = 1;
    return p;
}

TEST(Zipf, UniformWhenThetaZero)
{
    ZipfSampler z(100, 0.0);
    Rng rng(1);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[z.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 1000, 300);
}

TEST(Zipf, SkewFavoursLowRanks)
{
    ZipfSampler z(1000, 0.9);
    Rng rng(2);
    std::map<std::size_t, int> counts;
    for (int i = 0; i < 100000; ++i)
        ++counts[z.sample(rng)];
    EXPECT_GT(counts[0], counts[100] * 5);
    EXPECT_GT(counts[0], 1000);
}

TEST(Zipf, SamplesInRange)
{
    ZipfSampler z(17, 0.7);
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(rng), 17u);
}

TEST(Zipf, SingleItemAlwaysZero)
{
    ZipfSampler z(1, 0.9);
    Rng rng(4);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(z.sample(rng), 0u);
}

/**
 * The coarse-index binary-search sampler that ZipfSampler replaced,
 * kept verbatim as the reference its draws must equal.
 */
class ReferenceZipfSampler
{
  public:
    ReferenceZipfSampler(std::size_t n, double theta) : items(n), skew(theta)
    {
        assert(n >= 1);
        if (skew <= 0.0)
            return; // uniform fast path
        cdf.reserve(n);
        double total = 0.0;
        for (std::size_t k = 1; k <= n; ++k) {
            total += 1.0 / std::pow(static_cast<double>(k), skew);
            cdf.push_back(total);
        }
        for (auto &v : cdf)
            v /= total;
        indexBuckets = std::min<std::size_t>(4096, std::max<std::size_t>(64, n));
        bucketStart.resize(indexBuckets + 1);
        std::size_t rank = 0;
        for (std::size_t b = 0; b < indexBuckets; ++b) {
            const double threshold =
                static_cast<double>(b) / static_cast<double>(indexBuckets);
            while (rank < n - 1 && cdf[rank] < threshold)
                ++rank;
            bucketStart[b] = rank;
        }
        bucketStart[indexBuckets] = n - 1;
    }

    std::size_t
    sample(Rng &rng) const
    {
        if (skew <= 0.0)
            return static_cast<std::size_t>(rng.below(items));
        const double u = rng.uniform();
        const std::size_t b = std::min(
            indexBuckets - 1,
            static_cast<std::size_t>(u * static_cast<double>(indexBuckets)));
        std::size_t lo = bucketStart[b], hi = bucketStart[b + 1];
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (cdf[mid] < u)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

  private:
    std::size_t items;
    double skew;
    std::vector<double> cdf;
    std::size_t indexBuckets = 0;
    std::vector<std::size_t> bucketStart;
};

TEST(Zipf, DrawsMatchReferenceSampler)
{
    // Same ranks and the same generator state after every sweep, over
    // sizes on both sides of every bucket-count boundary and skews
    // from near-uniform to beyond classic Zipf.
    static_assert(std::is_trivially_copyable_v<Rng>);
    const std::size_t sizes[] = {1,    2,    17,   1000,  1024,  1280,
                                 4096, 4097, 6144, 24576, 100000};
    const double thetas[] = {0.0, 0.05, 0.3, 0.7, 0.9, 1.0, 1.2};
    const int draws = 100000;
    for (std::size_t n : sizes) {
        for (double theta : thetas) {
            const ZipfSampler z(n, theta);
            const ReferenceZipfSampler ref(n, theta);
            Rng a(n * 1000 + static_cast<std::uint64_t>(theta * 100));
            Rng b = a;
            int mismatches = 0;
            for (int i = 0; i < draws; ++i)
                if (z.sample(a) != ref.sample(b))
                    ++mismatches;
            EXPECT_EQ(mismatches, 0) << "n=" << n << " theta=" << theta;
            EXPECT_EQ(std::memcmp(&a, &b, sizeof(Rng)), 0)
                << "n=" << n << " theta=" << theta;
        }
    }
}

TEST(Zipf, RejectsRanksBeyondThe32BitGuide)
{
    // Thrown before the CDF is allocated; the uniform path has no guide.
    const std::size_t too_many = (std::size_t{1} << 32) + 1;
    EXPECT_THROW(ZipfSampler(too_many, 0.9), std::invalid_argument);
    EXPECT_NO_THROW(ZipfSampler(too_many, 0.0));
}

TEST(Workload, DeterministicForSeed)
{
    SyntheticWorkload a(tinyParams()), b(tinyParams());
    for (int i = 0; i < 1000; ++i) {
        const MemAccess x = a.next(), y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.core, y.core);
        EXPECT_EQ(x.write, y.write);
        EXPECT_EQ(x.instruction, y.instruction);
    }
}

TEST(Workload, CoresRoundRobin)
{
    SyntheticWorkload w(tinyParams());
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(w.next().core, static_cast<CoreId>(i % 4));
}

TEST(Workload, InstructionsAreReadOnly)
{
    SyntheticWorkload w(tinyParams());
    for (int i = 0; i < 20000; ++i) {
        const MemAccess a = w.next();
        if (a.instruction) {
            EXPECT_FALSE(a.write);
        }
    }
}

TEST(Workload, InstructionFractionRespected)
{
    auto p = tinyParams();
    p.instructionFraction = 0.3;
    SyntheticWorkload w(p);
    int instr = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (w.next().instruction)
            ++instr;
    EXPECT_NEAR(instr / double(n), 0.3, 0.02);
}

TEST(Workload, WriteFractionRespected)
{
    auto p = tinyParams();
    p.instructionFraction = 0.0;
    p.writeFraction = 0.25;
    SyntheticWorkload w(p);
    int writes = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        if (w.next().write)
            ++writes;
    EXPECT_NEAR(writes / double(n), 0.25, 0.02);
}

TEST(Workload, PrivateRegionsAreDisjointPerCore)
{
    auto p = tinyParams();
    p.instructionFraction = 0.0;
    p.sharedDataFraction = 0.0;
    SyntheticWorkload w(p);
    std::map<CoreId, std::set<BlockAddr>> touched;
    for (int i = 0; i < 40000; ++i) {
        const MemAccess a = w.next();
        touched[a.core].insert(a.addr);
    }
    for (const auto &[c1, s1] : touched) {
        for (const auto &[c2, s2] : touched) {
            if (c1 == c2)
                continue;
            for (BlockAddr addr : s1) {
                ASSERT_FALSE(s2.count(addr))
                    << "cores " << c1 << "/" << c2 << " share " << addr;
            }
        }
    }
}

TEST(Workload, SharedRegionIsSharedAcrossCores)
{
    auto p = tinyParams();
    p.instructionFraction = 0.0;
    p.sharedDataFraction = 1.0;
    p.sharedBlocks = 32;
    SyntheticWorkload w(p);
    std::map<CoreId, std::set<BlockAddr>> touched;
    for (int i = 0; i < 20000; ++i) {
        const MemAccess a = w.next();
        touched[a.core].insert(a.addr);
    }
    // With a tiny hot shared region every core touches the same blocks.
    const auto &ref = touched.begin()->second;
    for (const auto &[core, s] : touched)
        EXPECT_EQ(s, ref) << "core " << core;
}

TEST(Workload, FootprintBoundHolds)
{
    auto p = tinyParams();
    SyntheticWorkload w(p);
    std::set<BlockAddr> distinct;
    for (int i = 0; i < 200000; ++i)
        distinct.insert(w.next().addr);
    EXPECT_LE(distinct.size(), w.distinctBlocks());
}

// --- presets -----------------------------------------------------------------

class PaperPreset : public testing::TestWithParam<PaperWorkload>
{};

TEST_P(PaperPreset, ValidForBothConfigs)
{
    for (bool private_l2 : {false, true}) {
        const auto p = paperWorkloadParams(GetParam(), private_l2);
        EXPECT_FALSE(p.name.empty());
        EXPECT_EQ(p.numCores, 16u);
        EXPECT_GE(p.codeBlocks, 1u);
        EXPECT_GE(p.sharedBlocks, 1u);
        EXPECT_GE(p.privateBlocksPerCore, 1u);
        EXPECT_GE(p.instructionFraction, 0.0);
        EXPECT_LE(p.instructionFraction, 1.0);
        EXPECT_GE(p.writeFraction, 0.0);
        EXPECT_LE(p.writeFraction, 1.0);
        // Generator must construct and run.
        SyntheticWorkload w(p);
        for (int i = 0; i < 1000; ++i)
            w.next();
    }
}

TEST_P(PaperPreset, PrivateL2FootprintsScaleUp)
{
    const auto shared = paperWorkloadParams(GetParam(), false);
    const auto priv = paperWorkloadParams(GetParam(), true);
    EXPECT_GT(priv.privateBlocksPerCore, shared.privateBlocksPerCore);
    EXPECT_GT(priv.sharedBlocks, shared.sharedBlocks);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PaperPreset, testing::ValuesIn(allPaperWorkloads()),
    [](const auto &info) { return paperWorkloadName(info.param); });

TEST(PaperPresets, NinePresetsWithDistinctNames)
{
    std::set<std::string> names;
    for (PaperWorkload w : allPaperWorkloads())
        names.insert(paperWorkloadName(w));
    EXPECT_EQ(names.size(), 9u);
}

TEST(PaperPresets, OceanIsOverwhelminglyPrivate)
{
    // §5.2: ocean has nearly 100% unique private blocks.
    const auto p = paperWorkloadParams(PaperWorkload::SciOcean, true);
    EXPECT_LT(p.instructionFraction + p.sharedDataFraction, 0.10);
    EXPECT_GT(p.privateBlocksPerCore, 16384u); // exceeds the 1MB L2
}

TEST(PaperPresets, WebIsDominatedBySharing)
{
    const auto p = paperWorkloadParams(PaperWorkload::WebApache, false);
    EXPECT_GT(p.instructionFraction, 0.3);
    EXPECT_GT(p.sharedDataFraction, 0.5);
}

} // namespace
} // namespace cdir
