/**
 * @file
 * Layer tracing from outside the simulator.
 *
 * The traced run attributes host time to the simulator's modules
 * without touching src/: it wraps each layer's public interface in a
 * decorator that times calls into it.
 *
 *  - workload:  TimedSource wraps the AccessSource (next()).
 *  - directory: TracedDirectory is a registered organization
 *               ("Traced.<inner>") that builds the real organization
 *               and times accessBatch()/access()/removeSharer(). Its
 *               time includes the hash and sharer layers beneath it.
 *  - model:     TimedCostModel wraps the CostModel attached with
 *               CmpSystem::setCostModel (accessLatency()).
 *
 * What remains of CmpSystem::run's host time after these three is the
 * simulation loop's own time (private-cache lookup, staging, flush, apply
 * fan-out).
 *
 * A steady_clock read costs tens of nanoseconds, a sizable fraction of
 * one directory call, so timing every call distorts the shares. Each
 * timer therefore times a pseudo-random 1-in-2^kSampleShift subset of
 * calls (random, so round-robin core order cannot alias with the
 * sample points), subtracts the calibrated cost of an empty timed
 * region from every sample, and scales the sampled time by the work
 * counted on every call.
 */

#ifndef PERFBENCH_TRACING_HH
#define PERFBENCH_TRACING_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "directory/directory.hh"
#include "model/cost_model.hh"
#include "workload/trace.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median host ns of an empty timed region (two back-to-back reads). */
double calibrateClockNs();

/** Sampled call timer of one layer (see file comment). */
class SampledTimer
{
  public:
    static constexpr unsigned kSampleShift = 5;

    /** Count @p work units of one call; true if this call is sampled. */
    bool
    due(std::uint64_t work)
    {
        ++calls;
        totalWork += work;
        // xorshift64: cheap, and independent of the call sequence.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return (rng & ((std::uint64_t{1} << kSampleShift) - 1)) == 0;
    }

    /** Close a sampled call opened at @p start that did @p work units. */
    void
    record(Clock::time_point start, std::uint64_t work)
    {
        sampledNs += std::chrono::duration<double, std::nano>(
                         Clock::now() - start)
                         .count();
        ++samples;
        sampledWork += work;
    }

    /** Estimated host ns over all counted work. */
    double
    estimatedNs(double clock_ns) const
    {
        if (sampledWork == 0)
            return 0.0;
        const double net = sampledNs - double(samples) * clock_ns;
        return net > 0.0 ? net * double(totalWork) / double(sampledWork)
                         : 0.0;
    }

    std::uint64_t callCount() const { return calls; }
    std::uint64_t workCount() const { return totalWork; }

    void
    reset()
    {
        calls = totalWork = samples = sampledWork = 0;
        sampledNs = 0.0;
    }

  private:
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    std::uint64_t calls = 0;
    std::uint64_t totalWork = 0;
    std::uint64_t samples = 0;
    std::uint64_t sampledWork = 0;
    double sampledNs = 0.0;
};

/** The timers of one traced system. */
struct LayerTrace
{
    SampledTimer workload;  //!< work = accesses generated
    SampledTimer requests;  //!< work = directory requests
    SampledTimer removals;  //!< work = removeSharer calls
    SampledTimer model;     //!< work = accessLatency calls

    void
    reset()
    {
        workload.reset();
        requests.reset();
        removals.reset();
        model.reset();
    }
};

/** Times next() of the wrapped source. */
class TimedSource final : public cdir::AccessSource
{
  public:
    TimedSource(cdir::AccessSource &inner, SampledTimer &timer)
        : inner(inner), timer(timer)
    {}

    cdir::MemAccess
    next() override
    {
        if (!timer.due(1))
            return inner.next();
        const auto start = Clock::now();
        const cdir::MemAccess access = inner.next();
        timer.record(start, 1);
        return access;
    }

    bool exhausted() const override { return inner.exhausted(); }

  private:
    cdir::AccessSource &inner;
    SampledTimer &timer;
};

/**
 * Times accessLatency() of the wrapped model. The model contract asks
 * for a pure function; the outputs stay pure, only the timer (touched
 * from the serial apply phase) changes.
 */
class TimedCostModel final : public cdir::CostModel
{
  public:
    TimedCostModel(const cdir::CostModel &inner, SampledTimer &timer)
        : inner(inner), timer(timer)
    {}

    const std::string &name() const override { return inner.name(); }

    std::uint64_t
    accessLatency(const cdir::DirRequest &request,
                  const cdir::DirAccessOutcome &outcome,
                  const cdir::DirAccessContext &ctx,
                  std::size_t slice) const override
    {
        if (!timer.due(1))
            return inner.accessLatency(request, outcome, ctx, slice);
        const auto start = Clock::now();
        const std::uint64_t cycles =
            inner.accessLatency(request, outcome, ctx, slice);
        timer.record(start, 1);
        return cycles;
    }

  private:
    const cdir::CostModel &inner;
    SampledTimer &timer;
};

/**
 * Directory decorator: builds the real organization and times the
 * calls into it. Directory::stats()/resetStats() are not virtual, so
 * the decorator's own statistics stay empty; read and reset counters
 * through wrapped().
 */
class TracedDirectory final : public cdir::Directory
{
  public:
    TracedDirectory(const cdir::DirectoryParams &params, LayerTrace &trace);

    void access(const cdir::DirRequest &request,
                cdir::DirAccessContext &ctx) override;
    void accessBatch(std::span<const cdir::DirRequest> requests,
                     cdir::DirAccessContext &ctx) override;
    void removeSharer(cdir::Tag tag, cdir::CacheId cache) override;

    void prefetchTag(cdir::Tag tag) const override
    {
        inner->prefetchTag(tag);
    }
    bool
    probe(cdir::Tag tag, cdir::DynamicBitset *sharers) const override
    {
        return inner->probe(tag, sharers);
    }
    std::size_t validEntries() const override
    {
        return inner->validEntries();
    }
    std::size_t capacity() const override { return inner->capacity(); }
    std::string name() const override { return inner->name(); }
    std::size_t memoryBytes() const override
    {
        return inner->memoryBytes();
    }

    cdir::Directory &wrapped() { return *inner; }
    const cdir::Directory &wrapped() const { return *inner; }

  private:
    std::unique_ptr<cdir::Directory> inner;
    LayerTrace &trace;
};

/**
 * Register "Traced.<inner>" with the DirectoryRegistry, forwarding the
 * inner organization's DirectoryTraits. Registration happens from
 * main(), not from a static initializer, because the traits lookup
 * needs the inner organization registered first and static
 * initialization order across translation units is unspecified. Every
 * slice built under the returned name times into @p trace, which must
 * outlive those slices. Idempotent per inner name.
 * @return the registered name.
 */
std::string registerTracedOrganization(const std::string &inner,
                                       LayerTrace &trace);

} // namespace perfbench

#endif // PERFBENCH_TRACING_HH
