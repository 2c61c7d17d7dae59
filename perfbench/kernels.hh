/**
 * @file
 * Single-layer kernels of the traced run.
 *
 * The private caches and the sharer representations are called inline
 * from CmpSystem and the directory, so their time cannot be split out
 * of a running simulation without editing it. Each kernel instead
 * drives one layer's public interface alone, at the workload's
 * geometry, and reports host ns per operation. The cost-model kernel
 * prices a synthetic outcome mix, so the model layer has a time on
 * every workload, including those that simulate untimed.
 */

#ifndef PERFBENCH_KERNELS_HH
#define PERFBENCH_KERNELS_HH

#include <cstdint>
#include <string>

#include "sharers/sharer_rep.hh"
#include "sim/cmp_system.hh"

namespace perfbench {

/**
 * Replay @p warmup + @p measure accesses of the workload's generated
 * stream through standalone SetAssocCache::access calls, one cache per
 * private cache of @p config. No coherence invalidations reach the
 * caches. Generation is untimed.
 * @return host ns per access over the @p measure part.
 */
double cacheKernelNsPerAccess(const cdir::CmpConfig &config,
                              const cdir::WorkloadParams &params,
                              std::uint64_t warmup, std::uint64_t measure);

/**
 * Add/remove/invalidation churn over reps from
 * makeSharerRep(@p format, @p num_caches): sets of up to 64 sharers,
 * and every eighth operation a write upgrade (invalidationTargets, then
 * the writer as sole sharer). Operations are generated untimed.
 * @return host ns per operation.
 */
double sharerKernelNsPerOp(cdir::SharerFormat format,
                           std::size_t num_caches, std::uint64_t seed);

/**
 * Price a synthetic outcome mix (hits, cuckoo insertions with 1-3
 * attempts, write upgrades invalidating 1-8 sharers) with the cost
 * model @p model built for @p config.
 * @return host ns per accessLatency() call.
 */
double modelKernelNsPerCall(const cdir::CmpConfig &config,
                            const std::string &model, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_KERNELS_HH
