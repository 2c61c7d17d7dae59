#include "kernels.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "model/cost_model.hh"
#include "tracing.hh"
#include "workload/workload.hh"

namespace perfbench {

namespace {

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

/** Keeps kernel results observable so no work is optimized away. */
volatile std::uint64_t sink = 0;

} // namespace

double
cacheKernelNsPerAccess(const cdir::CmpConfig &config,
                       const cdir::WorkloadParams &params,
                       std::uint64_t warmup, std::uint64_t measure)
{
    std::vector<cdir::SetAssocCache> caches(config.numCaches(),
                                            cdir::SetAssocCache(
                                                config.privateCache));
    const bool split = config.kind == cdir::CmpConfigKind::SharedL2;
    cdir::SyntheticWorkload generator(params);

    constexpr std::size_t kChunk = 1 << 16;
    std::vector<cdir::MemAccess> chunk(kChunk);
    std::uint64_t done = 0, hits = 0;
    double seconds = 0.0;
    const std::uint64_t total = warmup + measure;
    while (done < total) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                kChunk, done < warmup ? warmup - done : total - done));
        for (std::size_t i = 0; i < n; ++i)
            chunk[i] = generator.next();
        const auto start = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            const cdir::MemAccess &a = chunk[i];
            // Same cache naming as CmpSystem: I/D pairs for Shared-L2.
            const std::size_t id =
                split ? a.core * 2 + (a.instruction ? 0 : 1) : a.core;
            hits += caches[id].access(a.addr, a.write).hit ? 1 : 0;
        }
        if (done >= warmup)
            seconds += secondsSince(start);
        done += n;
    }
    sink = sink + hits;
    return measure == 0 ? 0.0 : seconds * 1e9 / double(measure);
}

double
sharerKernelNsPerOp(cdir::SharerFormat format, std::size_t num_caches,
                    std::uint64_t seed)
{
    enum class Kind : std::uint8_t { Add, Remove, Upgrade };
    struct Op
    {
        std::uint32_t rep;
        std::uint32_t cache;
        Kind kind;
    };
    constexpr std::size_t kReps = 1024;
    constexpr std::size_t kSegments = 5; // the first one warms up
    constexpr std::size_t kSegmentOps = 1 << 18;
    const std::size_t max_live = std::min<std::size_t>(num_caches, 64);

    // Generate a valid operation stream against a shadow membership
    // model, so every remove names a present sharer.
    cdir::Rng rng(seed ^ 0x5ba7e5ull);
    std::vector<std::vector<std::uint32_t>> live(kReps);
    std::vector<std::uint8_t> member(kReps * num_caches, 0);
    std::vector<Op> ops(kSegments * kSegmentOps);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto r = static_cast<std::uint32_t>(rng.below(kReps));
        std::vector<std::uint32_t> &set = live[r];
        std::uint8_t *bits = &member[r * num_caches];
        Op op{r, 0, Kind::Add};
        if (i % 8 == 7 && !set.empty()) {
            op.kind = Kind::Upgrade;
            op.cache = set[rng.below(set.size())];
            for (const std::uint32_t c : set)
                bits[c] = 0;
            set.assign(1, op.cache);
            bits[op.cache] = 1;
        } else if (set.size() < 2 ||
                   (set.size() < max_live && rng.below(2) == 0)) {
            do {
                op.cache = static_cast<std::uint32_t>(rng.below(num_caches));
            } while (bits[op.cache] != 0);
            set.push_back(op.cache);
            bits[op.cache] = 1;
        } else {
            op.kind = Kind::Remove;
            const std::size_t k = rng.below(set.size());
            op.cache = set[k];
            set[k] = set.back();
            set.pop_back();
            bits[op.cache] = 0;
        }
        ops[i] = op;
    }

    std::vector<std::unique_ptr<cdir::SharerRep>> reps;
    reps.reserve(kReps);
    for (std::size_t r = 0; r < kReps; ++r)
        reps.push_back(cdir::makeSharerRep(format, num_caches));
    cdir::DynamicBitset targets(num_caches);
    std::uint64_t emptied = 0;
    std::vector<double> ns_per_op;
    for (std::size_t s = 0; s < kSegments; ++s) {
        const auto start = Clock::now();
        for (std::size_t i = s * kSegmentOps; i < (s + 1) * kSegmentOps;
             ++i) {
            const Op &op = ops[i];
            cdir::SharerRep &rep = *reps[op.rep];
            switch (op.kind) {
              case Kind::Add:
                rep.add(op.cache);
                break;
              case Kind::Remove:
                emptied += rep.remove(op.cache) ? 1 : 0;
                break;
              case Kind::Upgrade:
                rep.invalidationTargets(targets);
                rep.clear();
                rep.add(op.cache);
                break;
            }
        }
        if (s > 0)
            ns_per_op.push_back(secondsSince(start) * 1e9 /
                                double(kSegmentOps));
    }
    sink = sink + emptied + targets.count();
    return median(std::move(ns_per_op));
}

double
modelKernelNsPerCall(const cdir::CmpConfig &config, const std::string &model,
                     std::uint64_t seed)
{
    constexpr std::size_t kOutcomes = 1 << 15;
    constexpr std::size_t kPasses = 9;
    const std::unique_ptr<cdir::CostModel> costs =
        cdir::makeCostModel(model, config);
    const std::size_t n_caches = config.numCaches();

    cdir::Rng rng(seed ^ 0xc057ull);
    cdir::DirAccessContext ctx(n_caches);
    ctx.reserve(kOutcomes);
    std::vector<cdir::DirRequest> requests(kOutcomes);
    std::vector<std::uint32_t> slices(kOutcomes);
    for (std::size_t i = 0; i < kOutcomes; ++i) {
        cdir::DirRequest &req = requests[i];
        req.tag = rng.next() >> 16;
        req.cache = static_cast<cdir::CacheId>(rng.below(n_caches));
        req.isWrite = rng.below(4) == 0;
        slices[i] = static_cast<std::uint32_t>(rng.below(config.numSlices));
        cdir::DirAccessOutcome &out = ctx.beginOutcome();
        out.hit = rng.below(2) == 0;
        if (!out.hit) {
            out.inserted = true;
            out.attempts = 1 + static_cast<unsigned>(rng.below(3));
        } else if (req.isWrite) {
            out.hadSharerInvalidations = true;
            cdir::DynamicBitset &bits = ctx.sharerTargets(out);
            const std::size_t fan = 1 + rng.below(std::min<std::size_t>(
                                            n_caches, 8));
            for (std::size_t k = 0; k < fan; ++k)
                bits.set(rng.below(n_caches));
        }
    }

    std::uint64_t cycles = 0;
    std::vector<double> ns_per_call;
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        const auto start = Clock::now();
        for (std::size_t i = 0; i < kOutcomes; ++i)
            cycles += costs->accessLatency(requests[i], ctx.outcome(i), ctx,
                                           slices[i]);
        ns_per_call.push_back(secondsSince(start) * 1e9 /
                              double(kOutcomes));
    }
    sink = sink + cycles;
    return median(std::move(ns_per_call));
}

} // namespace perfbench
