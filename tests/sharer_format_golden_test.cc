/**
 * @file
 * Golden digests of every sharer format.
 *
 * golden_trace_test pins the default full-vector format only. This
 * suite pins all four formats (FullVector, CoarseVector, Hierarchical,
 * Compressed) on the three organizations that store sharer sets
 * (Cuckoo, Sparse, Elbow), at 16 caches and at 1024 caches. Each cell
 * runs a short synthetic DB2 stream on an under-provisioned directory,
 * so forced evictions (and with them the coarse format's imprecise
 * targets) are frequent, under the mesh cost model, and folds every
 * simulated counter — CmpStats plus the aggregated DirectoryStats,
 * latency and attempt histograms included — into one FNV-1a digest.
 *
 * The precise formats must agree with each other cell for cell: they
 * differ only in how the simulator stores the set, never in what it
 * invalidates.
 *
 * Updating the table after an *intentional* behaviour change:
 *
 *     CDIR_GOLDEN_REGEN=1 ./sharer_format_golden_test
 *
 * prints the new table (and fails, so a stale environment variable can
 * never pass silently).
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "model/cost_model.hh"
#include "sim/cmp_system.hh"
#include "system_digest.hh"
#include "workload/workload.hh"

namespace cdir {
namespace {

struct FormatCell
{
    SharerFormat format;
    const char *organization;
    std::size_t caches;
    std::uint64_t digest;
};

const char *
formatName(SharerFormat format)
{
    switch (format) {
      case SharerFormat::FullVector:
        return "FullVector";
      case SharerFormat::CoarseVector:
        return "CoarseVector";
      case SharerFormat::Hierarchical:
        return "Hierarchical";
      case SharerFormat::Compressed:
        return "Compressed";
    }
    return "?";
}

/**
 * A Private-L2 CMP with @p caches cores whose directory holds about
 * half the aggregate cache frames (a quarter at 16 caches), so the
 * conflict paths run constantly.
 */
CmpConfig
cellConfig(const FormatCell &cell)
{
    CmpConfig cfg;
    cfg.kind = CmpConfigKind::PrivateL2;
    cfg.numCores = cell.caches;
    const bool wide = cell.caches > 64;
    cfg.numSlices = wide ? 64 : 4;
    cfg.privateCache = wide ? CacheConfig{16, 2} : CacheConfig{64, 4};
    cfg.batchWindow = wide ? 64 : 1;
    const std::string org = cell.organization;
    cfg.directory.organization = org;
    cfg.directory.format = cell.format;
    cfg.directory.ways = org == "Sparse" ? 8 : 4;
    // 256 entries per slice: 1024 entries for 4096 frames at 16 cores,
    // 16384 for 32768 frames at 1024 cores.
    cfg.directory.sets = 256 / cfg.directory.ways;
    return cfg;
}

std::uint64_t
measureDigest(const FormatCell &cell)
{
    const CmpConfig cfg = cellConfig(cell);
    CmpSystem system(cfg);
    const std::unique_ptr<CostModel> costs = makeCostModel("mesh", cfg);
    system.setCostModel(costs.get());
    WorkloadParams params =
        paperWorkloadParams(PaperWorkload::OltpDb2, true, cell.caches);
    params.seed = 2026;
    SyntheticSource workload(params);
    const std::uint64_t accesses = cell.caches > 64 ? 120000 : 60000;
    system.run(workload, accesses, 5000);
    return test::systemDigest(system);
}

// clang-format off
constexpr FormatCell kCells[] = {
    {SharerFormat::FullVector,   "Cuckoo", 16,   0x077c4947266469d9ull},
    {SharerFormat::CoarseVector, "Cuckoo", 16,   0xaefee2fa1b5544d0ull},
    {SharerFormat::Hierarchical, "Cuckoo", 16,   0x077c4947266469d9ull},
    {SharerFormat::Compressed,   "Cuckoo", 16,   0x077c4947266469d9ull},
    {SharerFormat::FullVector,   "Sparse", 16,   0x5cb3b744f4b0dbe2ull},
    {SharerFormat::CoarseVector, "Sparse", 16,   0x07cdb0589fb98baaull},
    {SharerFormat::Hierarchical, "Sparse", 16,   0x5cb3b744f4b0dbe2ull},
    {SharerFormat::Compressed,   "Sparse", 16,   0x5cb3b744f4b0dbe2ull},
    {SharerFormat::FullVector,   "Elbow",  16,   0x3bdc95e4f6d6f35eull},
    {SharerFormat::CoarseVector, "Elbow",  16,   0x8067f1260d124017ull},
    {SharerFormat::Hierarchical, "Elbow",  16,   0x3bdc95e4f6d6f35eull},
    {SharerFormat::Compressed,   "Elbow",  16,   0x3bdc95e4f6d6f35eull},
    {SharerFormat::FullVector,   "Cuckoo", 1024, 0xd053fd574ebb71b8ull},
    {SharerFormat::CoarseVector, "Cuckoo", 1024, 0x85b4b976fc7fc4eeull},
    {SharerFormat::Hierarchical, "Cuckoo", 1024, 0xd053fd574ebb71b8ull},
    {SharerFormat::Compressed,   "Cuckoo", 1024, 0xd053fd574ebb71b8ull},
    {SharerFormat::FullVector,   "Sparse", 1024, 0x5d61898c1fa503d2ull},
    {SharerFormat::CoarseVector, "Sparse", 1024, 0x1d9fa1f8bdcb23feull},
    {SharerFormat::Hierarchical, "Sparse", 1024, 0x5d61898c1fa503d2ull},
    {SharerFormat::Compressed,   "Sparse", 1024, 0x5d61898c1fa503d2ull},
    {SharerFormat::FullVector,   "Elbow",  1024, 0xbf559e58f3e9acd4ull},
    {SharerFormat::CoarseVector, "Elbow",  1024, 0xb23a878743d6969bull},
    {SharerFormat::Hierarchical, "Elbow",  1024, 0xbf559e58f3e9acd4ull},
    {SharerFormat::Compressed,   "Elbow",  1024, 0xbf559e58f3e9acd4ull},
};
// clang-format on

bool
regenRequested()
{
    const char *regen = std::getenv("CDIR_GOLDEN_REGEN");
    return regen != nullptr && *regen != '\0';
}

TEST(SharerFormatGolden, RegenerateTable)
{
    if (!regenRequested())
        GTEST_SKIP() << "set CDIR_GOLDEN_REGEN=1 to print a new table";
    for (const FormatCell &cell : kCells) {
        std::printf("    {SharerFormat::%s, \"%s\", %zu, 0x%016" PRIx64
                    "ull},\n",
                    formatName(cell.format), cell.organization, cell.caches,
                    measureDigest(cell));
    }
    FAIL() << "regeneration run — paste the table into kCells and unset "
              "CDIR_GOLDEN_REGEN";
}

class SharerFormatDigest : public testing::TestWithParam<FormatCell>
{
};

TEST_P(SharerFormatDigest, CountersAreExactlyPinned)
{
    if (regenRequested())
        GTEST_SKIP() << "regenerating";
    const FormatCell &cell = GetParam();
    EXPECT_EQ(measureDigest(cell), cell.digest);
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, SharerFormatDigest, testing::ValuesIn(kCells),
    [](const testing::TestParamInfo<FormatCell> &info) {
        return std::string(formatName(info.param.format)) + "_" +
               info.param.organization + "_" +
               std::to_string(info.param.caches);
    });

TEST(SharerFormatGolden, PreciseFormatsAgree)
{
    // FullVector, Hierarchical and Compressed are all exact: their
    // pinned digests must be equal for every organization and size.
    for (std::size_t i = 0; i < std::size(kCells); i += 4) {
        EXPECT_EQ(kCells[i].digest, kCells[i + 2].digest)
            << kCells[i].organization << " " << kCells[i].caches;
        EXPECT_EQ(kCells[i].digest, kCells[i + 3].digest)
            << kCells[i].organization << " " << kCells[i].caches;
        EXPECT_NE(kCells[i].digest, kCells[i + 1].digest)
            << "coarse cell does not exercise imprecise targets: "
            << kCells[i].organization << " " << kCells[i].caches;
    }
}

} // namespace
} // namespace cdir
