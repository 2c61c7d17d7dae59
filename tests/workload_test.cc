/**
 * @file
 * Tests for the synthetic workload generators: determinism, region
 * structure, parameter effects, and the Table 2 presets' qualitative
 * sharing profiles (§5.2).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

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
