/**
 * @file
 * Batched access-protocol coverage:
 *
 *  - scalar access(request, ctx) (one request per context reset) and
 *    accessBatch() must produce bit-identical DirectoryStats for every
 *    registered organization over identical operation streams;
 *  - DirAccessResult snapshots must agree with the live context
 *    outcomes field by field;
 *  - CmpSystem with batchWindow > 1 must keep the directory-covers-
 *    caches inclusion invariant for every organization, and
 *    batchWindow == 1 must reproduce the per-reference access() path
 *    exactly;
 *  - steady-state directory churn through the context protocol must be
 *    allocation-free for every organization (the redesign's headline
 *    guarantee).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/alloc_counter.hh"
#include "common/rng.hh"
#include "dir_test_util.hh"
#include "directory/registry.hh"
#include "sim/cmp_system.hh"

namespace cdir {
namespace {

constexpr std::size_t kCaches = 8;

/** Workable small parameters for any registered organization. */
DirectoryParams
paramsFor(const std::string &organization)
{
    DirectoryParams p;
    p.organization = organization;
    p.numCaches = kCaches;
    p.ways = 4;
    p.sets = 64;
    p.trackedCacheAssoc = 2;
    p.taglessBucketBits = 64;
    return p;
}

void
expectStatsEqual(const DirectoryStats &a, const DirectoryStats &b,
                 const std::string &label)
{
    EXPECT_EQ(a.lookups, b.lookups) << label;
    EXPECT_EQ(a.hits, b.hits) << label;
    EXPECT_EQ(a.insertions, b.insertions) << label;
    EXPECT_EQ(a.sharerAdds, b.sharerAdds) << label;
    EXPECT_EQ(a.writeUpgrades, b.writeUpgrades) << label;
    EXPECT_EQ(a.sharerRemovals, b.sharerRemovals) << label;
    EXPECT_EQ(a.entryFrees, b.entryFrees) << label;
    EXPECT_EQ(a.forcedEvictions, b.forcedEvictions) << label;
    EXPECT_EQ(a.forcedBlockInvalidations, b.forcedBlockInvalidations)
        << label;
    EXPECT_EQ(a.insertFailures, b.insertFailures) << label;
    EXPECT_EQ(a.insertionAttempts.count(), b.insertionAttempts.count())
        << label;
    EXPECT_DOUBLE_EQ(a.insertionAttempts.sum(), b.insertionAttempts.sum())
        << label;
    ASSERT_EQ(a.attemptHistogram.maxValue(), b.attemptHistogram.maxValue())
        << label;
    for (std::size_t v = 0; v <= a.attemptHistogram.maxValue(); ++v)
        EXPECT_EQ(a.attemptHistogram.at(v), b.attemptHistogram.at(v))
            << label << " bucket " << v;
}

/** Deterministic mixed read/write stream over a small tag space. */
std::vector<DirRequest>
makeStream(std::uint64_t seed, std::size_t count, std::size_t tag_space)
{
    Rng rng(seed);
    std::vector<DirRequest> stream;
    stream.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        stream.push_back(DirRequest{
            rng.below(tag_space), static_cast<CacheId>(rng.below(kCaches)),
            rng.chance(0.3)});
    }
    return stream;
}

TEST(BatchAccess, ScalarAndBatchProduceBitIdenticalStats)
{
    for (const std::string &name : DirectoryRegistry::instance().names()) {
        const DirectoryParams p = paramsFor(name);
        auto scalar_dir = DirectoryRegistry::instance().build(name, p);
        auto batch_dir = DirectoryRegistry::instance().build(name, p);
        ASSERT_NE(scalar_dir, nullptr) << name;
        ASSERT_NE(batch_dir, nullptr) << name;

        const auto stream = makeStream(7, 4096, 512);
        DirAccessContext scalar_ctx = scalar_dir->makeContext();
        DirAccessContext ctx = batch_dir->makeContext();

        constexpr std::size_t kChunk = 16;
        for (std::size_t base = 0; base < stream.size(); base += kChunk) {
            const std::size_t n =
                std::min(kChunk, stream.size() - base);
            // Scalar side: one request per context reset.
            for (std::size_t i = 0; i < n; ++i) {
                scalar_ctx.reset();
                scalar_dir->access(stream[base + i], scalar_ctx);
            }
            // Batch side: the whole chunk through one context.
            ctx.reset();
            batch_dir->accessBatch(
                std::span<const DirRequest>(&stream[base], n), ctx);
            ASSERT_EQ(ctx.size(), n) << name;
            // Interleave removals at chunk boundaries on both sides so
            // the free/recycle paths are exercised identically.
            const DirRequest &r = stream[base];
            scalar_dir->removeSharer(r.tag, r.cache);
            batch_dir->removeSharer(r.tag, r.cache);
        }

        expectStatsEqual(scalar_dir->stats(), batch_dir->stats(), name);
        EXPECT_EQ(scalar_dir->validEntries(), batch_dir->validEntries())
            << name;
    }
}

TEST(BatchAccess, SnapshotsMatchContextOutcomes)
{
    // DirAccessResult snapshots (the value-semantics convenience used
    // by tests/examples) must reproduce the live context outcome field
    // by field, including the pooled invalidation/eviction storage.
    for (const std::string &name : DirectoryRegistry::instance().names()) {
        const DirectoryParams p = paramsFor(name);
        auto snap_dir = DirectoryRegistry::instance().build(name, p);
        auto ctx_dir = DirectoryRegistry::instance().build(name, p);

        const auto stream = makeStream(23, 2048, 256);
        DirAccessContext ctx = ctx_dir->makeContext();
        for (const DirRequest &r : stream) {
            const DirAccessResult snap =
                test::accessDir(*snap_dir, r.tag, r.cache, r.isWrite);
            ctx.reset();
            ctx_dir->access(r, ctx);
            ASSERT_EQ(ctx.size(), 1u) << name;
            const DirAccessOutcome &out = ctx.back();
            ASSERT_EQ(out.hit, snap.hit) << name;
            ASSERT_EQ(out.inserted, snap.inserted) << name;
            ASSERT_EQ(out.insertDiscarded, snap.insertDiscarded) << name;
            ASSERT_EQ(out.attempts, snap.attempts) << name;
            ASSERT_EQ(out.hadSharerInvalidations,
                      snap.hadSharerInvalidations)
                << name;
            if (out.hadSharerInvalidations) {
                ASSERT_TRUE(ctx.sharerInvalidations(out) ==
                            snap.sharerInvalidations)
                    << name;
            }
            ASSERT_EQ(out.evictionCount, snap.forcedEvictions.size())
                << name;
            for (std::size_t e = 0; e < out.evictionCount; ++e) {
                const EvictedEntry &got = ctx.forcedEviction(out, e);
                ASSERT_EQ(got.tag, snap.forcedEvictions[e].tag) << name;
                ASSERT_TRUE(got.targets ==
                            snap.forcedEvictions[e].targets)
                    << name;
            }
        }
        expectStatsEqual(snap_dir->stats(), ctx_dir->stats(), name);
    }
}

WorkloadParams
tinyWorkload(std::uint64_t seed)
{
    WorkloadParams p;
    p.numCores = 4;
    p.codeBlocks = 64;
    p.sharedBlocks = 128;
    p.privateBlocksPerCore = 64;
    p.instructionFraction = 0.2;
    p.sharedDataFraction = 0.4;
    p.writeFraction = 0.25;
    p.seed = seed;
    return p;
}

CmpConfig
tinyConfig(const std::string &organization, std::size_t batch_window)
{
    CmpConfig cfg;
    cfg.kind = CmpConfigKind::SharedL2;
    cfg.numCores = 4;
    cfg.numSlices = 4;
    cfg.privateCache = CacheConfig{32, 2};
    cfg.batchWindow = batch_window;
    cfg.directory = paramsFor(organization);
    cfg.directory.ways =
        (organization == "Sparse" || organization == "InCache") ? 8 : 4;
    cfg.directory.sets = 32;
    return cfg;
}

TEST(BatchAccess, WindowedRunsKeepCoverageForEveryOrganization)
{
    for (const std::string &name : DirectoryRegistry::instance().names()) {
        for (const std::size_t window : {std::size_t{4}, std::size_t{64}}) {
            CmpSystem sys(tinyConfig(name, window));
            SyntheticWorkload gen(tinyWorkload(11));
            sys.run(gen, 20000);
            EXPECT_TRUE(sys.directoryCoversCaches())
                << name << " window " << window;
            EXPECT_EQ(sys.stats().accesses, 20000u);
        }
    }
}

TEST(BatchAccess, WindowOfOneMatchesPerReferenceDriver)
{
    // run() with the default window must be bit-identical to calling
    // access() per reference (the historical serial driver).
    for (const std::string &name :
         {std::string("Cuckoo"), std::string("Sparse"),
          std::string("DuplicateTag"), std::string("Tagless")}) {
        CmpSystem batched(tinyConfig(name, 1));
        CmpSystem serial(tinyConfig(name, 1));
        SyntheticWorkload gen_a(tinyWorkload(5));
        SyntheticWorkload gen_b(tinyWorkload(5));

        batched.run(gen_a, 30000);
        for (int i = 0; i < 30000; ++i)
            serial.access(gen_b.next());

        expectStatsEqual(batched.aggregateDirectoryStats(),
                         serial.aggregateDirectoryStats(), name);
        EXPECT_EQ(batched.stats().cacheHits, serial.stats().cacheHits)
            << name;
        EXPECT_EQ(batched.stats().sharingInvalidations,
                  serial.stats().sharingInvalidations)
            << name;
        EXPECT_EQ(batched.stats().forcedInvalidations,
                  serial.stats().forcedInvalidations)
            << name;
    }
}

/** Fixed access list as an AccessSource. */
class VectorSource : public AccessSource
{
  public:
    explicit VectorSource(std::vector<MemAccess> list)
        : accesses(std::move(list))
    {}
    MemAccess next() override { return accesses[index++]; }
    bool exhausted() const override { return index >= accesses.size(); }

  private:
    std::vector<MemAccess> accesses;
    std::size_t index = 0;
};

TEST(BatchAccess, SameWindowEvictionAfterInsertRetiresSharer)
{
    // A cache eviction staged *after* its tag's directory insertion in
    // the same batch window must still retire the sharer: the flush
    // replays each slice's removals and requests in staging order.
    CmpConfig cfg;
    cfg.kind = CmpConfigKind::SharedL2;
    cfg.numCores = 1;
    cfg.numSlices = 1;
    cfg.privateCache = CacheConfig{1, 2}; // one set, two ways
    cfg.batchWindow = 8;
    cfg.directory = paramsFor("Cuckoo");
    cfg.directory.sets = 16;

    CmpSystem sys(cfg);
    // Three data reads from core 0 land in the single D-cache set: the
    // third evicts the first (LRU) after all three directory requests
    // began staging in the same window.
    VectorSource source({MemAccess{0, 0xA0, false, false},
                         MemAccess{0, 0xB0, false, false},
                         MemAccess{0, 0xC0, false, false}});
    sys.run(source, 3, 0);

    EXPECT_FALSE(sys.slice(0).probe(0xA0))
        << "stale sharer: same-window eviction was lost";
    EXPECT_TRUE(sys.slice(0).probe(0xB0));
    EXPECT_TRUE(sys.slice(0).probe(0xC0));
    EXPECT_TRUE(sys.directoryCoversCaches());
    EXPECT_EQ(sys.aggregateDirectoryStats().sharerRemovals, 1u);
    EXPECT_EQ(sys.aggregateDirectoryStats().entryFrees, 1u);
}

TEST(BatchAccess, SteadyStateChurnIsAllocationFree)
{
    // Every sharer format, at kCaches (one inline word per entry) and at
    // 1024 caches, where each fresh entry's readers span more 64-cache
    // words than the inline run holds, so it spills and then collapses
    // back to its writer on the upgrade.
    constexpr std::size_t kWideCaches = 1024;
    for (const std::size_t caches : {kCaches, kWideCaches}) {
        std::vector<CacheId> readers{1};
        if (caches > 64) {
            readers.clear();
            for (CacheId w = 0; w < SharerCodec::kInlineWords + 2; ++w)
                readers.push_back(w * 64 + 1);
        }
        for (const SharerFormat format :
             {SharerFormat::FullVector, SharerFormat::CoarseVector,
              SharerFormat::Hierarchical, SharerFormat::Compressed}) {
            for (const std::string &name :
                 DirectoryRegistry::instance().names()) {
                DirectoryParams params = paramsFor(name);
                params.numCaches = caches;
                params.format = format;
                auto dir = DirectoryRegistry::instance().build(name, params);
                DirAccessContext ctx = dir->makeContext();

                // Steady-state churn: retire one tracked tag, insert a
                // fresh one, share it, then write-upgrade it to exercise
                // the invalidation bitset pool. Two passes: the first
                // grows every pool to its high-water mark, the second
                // must not allocate at all.
                std::vector<Tag> live;
                Rng rng(17);
                while (live.size() < 128) {
                    const Tag tag = rng.next() >> 8;
                    if (dir->probe(tag))
                        continue;
                    ctx.reset();
                    dir->access(DirRequest{tag, 0, false}, ctx);
                    live.push_back(tag);
                }

                auto churn = [&](std::size_t rounds) {
                    std::size_t k = 0;
                    for (std::size_t i = 0; i < rounds; ++i) {
                        k = (k + 1) % live.size();
                        dir->removeSharer(live[k], 0);
                        const Tag fresh = rng.next() >> 8;
                        ctx.reset();
                        dir->access(DirRequest{fresh, 0, false}, ctx);
                        for (const CacheId reader : readers)
                            dir->access(DirRequest{fresh, reader, false},
                                        ctx);
                        dir->access(DirRequest{fresh, 0, true}, ctx);
                        live[k] = fresh;
                    }
                };

                churn(4096); // warmup: grow pools, spill arenas, shadow maps
                const std::size_t before = allocationCount();
                churn(4096); // steady state
                const std::size_t allocated = allocationCount() - before;
                EXPECT_EQ(allocated, 0u)
                    << name << " (" << caches << " caches, format "
                    << static_cast<int>(format) << ") allocated "
                    << allocated << " times in steady-state churn";
            }
        }
    }
}

TEST(BatchAccess, SteadyStateSystemRunIsAllocationFree)
{
    // The whole-system acceptance criterion: after warmup,
    // CmpSystem::run() performs zero heap allocations per access.
    CmpConfig cfg = tinyConfig("Cuckoo", 16);
    CmpSystem sys(cfg);
    SyntheticWorkload gen(tinyWorkload(29));
    sys.run(gen, 50000); // warmup: caches fill, pools grow
    const std::size_t before = allocationCount();
    sys.run(gen, 50000); // steady state
    const std::size_t allocated = allocationCount() - before;
    EXPECT_EQ(allocated, 0u)
        << "steady-state run() allocated " << allocated << " times";
}

} // namespace
} // namespace cdir
