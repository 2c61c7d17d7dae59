/**
 * @file
 * Directory-simulation benchmark: one workload per process.
 *
 *   cdir_perfbench --workload db2-16c --seed 1 --seconds 10 --trace 0
 *                  [--expect-digest HEX] [--commit ID]
 *
 * A *cell* is one experiment as a sweep runs it: construct the system,
 * the access source and the cost model (setup), run the warm-up with
 * statistics discarded, then run the measure phase, timed in chunks.
 * The benchmark runs whole cells back to back for --seconds.
 *
 *  - --trace 0: plain cells; prints the end-to-end metrics. Host times
 *    are taken at the fast end (kFastQuantile) of their samples:
 *    macc_per_s from the run's measure chunks, cell_s as the median
 *    set-up plus the fast end of the measure chunks and of each group
 *    of warm-up chunk positions (kWarmupGroups) across cells.
 *    setup_s is the median of kSetupSamples set-ups plus the cells';
 *    peak_rss_mb and state_mb are memory. Plain cells move over the
 *    allowed CPUs in slices of CpuRotation::kSliceS.
 *  - --trace 1: alternating traced and plain cells, plus the
 *    single-layer kernels; prints the per-layer metrics and
 *    trace.overhead (median over pairs of traced / plain measure-phase
 *    time).
 *
 * Every cell is checked: counter identities, directoryCoversCaches(),
 * and a digest over every simulated counter, which must equal
 * --expect-digest when given (the recorded reference) and must be the
 * same for every cell of the run, traced or not. A trace-0 run without
 * a reference adds one traced cell, so the traced/plain identity is
 * checked at every seed. Any exception fails its cell.
 *
 * Output: a "provenance {...}" line, a "detail {...}" line, and as the
 * last line the result object {correct, attempted, failed, metrics}.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <sched.h>

#include "kernels.hh"
#include "model/cost_model.hh"
#include "sim/experiment.hh"
#include "tracing.hh"

using namespace cdir;
using perfbench::Clock;
using perfbench::secondsSince;

namespace {

/** One benchmark workload: a fixed configuration plus its cell length. */
struct Workload
{
    std::string name;
    CmpConfig config;
    WorkloadParams params;
    std::string costModel; //!< "" = untimed
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
};

/** Occupancy sampling interval of the measure phase (runExperiment's). */
constexpr std::uint64_t kSampleEvery = 10'000;

/**
 * Warm-up and measure phases run, and are timed, in chunks of about
 * this many accesses. Measure chunks are a multiple of kSampleEvery and
 * warm-up chunks a multiple of the batch window: run() flushes at those
 * boundaries anyway, so a chunked phase is bit-identical to a single
 * run() call. Short chunks give the fast-end quantile many samples.
 */
constexpr std::uint64_t kChunk = kSampleEvery;

/**
 * cell_s pools the warm-up chunks of every cell in this many groups of
 * neighbouring positions: the caches fill slowly, so neighbours cost
 * about the same, and a group holds enough samples for its fast end
 * even when the run fits only a few cells.
 */
constexpr std::size_t kWarmupGroups = 10;

/** Accesses of each warm-up chunk of @p w, in order. */
std::vector<std::uint64_t>
warmupChunks(const Workload &w)
{
    const std::uint64_t window = w.config.batchWindow;
    const std::uint64_t chunk = (kChunk + window - 1) / window * window;
    std::vector<std::uint64_t> sizes;
    for (std::uint64_t done = 0; done < w.warmup; done += chunk)
        sizes.push_back(std::min(chunk, w.warmup - done));
    return sizes;
}

/**
 * The workload named @p name, with its access stream seeded from
 * @p seed (seed 0 keeps the paper preset's own seed).
 * @throws std::invalid_argument for an unknown name.
 */
Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "db2-16c") {
        w.config = CmpConfig::paperConfig(CmpConfigKind::SharedL2);
        w.config.directory = cuckooSliceParams(4, 512);
        w.params = paperWorkloadParams(PaperWorkload::OltpDb2, false, 16);
        w.warmup = 500'000;
        w.measure = 1'500'000;
    } else if (name == "ocean-pl2") {
        w.config = CmpConfig::paperConfig(CmpConfigKind::PrivateL2);
        w.config.directory = cuckooSliceParams(3, 8192);
        w.params = paperWorkloadParams(PaperWorkload::SciOcean, true, 16);
        w.warmup = 1'000'000;
        w.measure = 1'000'000;
    } else if (name == "db2-1024c-mesh") {
        // The 1024-core tier of bench/ext_scalability_sim.cc.
        w.config.kind = CmpConfigKind::PrivateL2;
        w.config.numCores = 1024;
        w.config.numSlices = 1024;
        w.config.privateCache = CacheConfig{512, 2};
        w.config.directory =
            cuckooSliceParams(4, 256, SharerFormat::Compressed);
        w.config.batchWindow = 64;
        w.params = paperWorkloadParams(PaperWorkload::OltpDb2, false, 1024);
        w.costModel = "mesh";
        w.warmup = 1'000'000;
        w.measure = 1'000'000;
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (known: db2-16c, ocean-pl2, "
                                    "db2-1024c-mesh)");
    }
    w.params.seed ^= seed * 0x9e3779b97f4a7c15ull;
    return w;
}

/** The @p q quantile of @p values, interpolating between order
 *  statistics (0 if empty). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Quantile at which host times are reported: the fast end. Other
 * tenants of a shared host only ever add time, in regimes of seconds to
 * minutes, so the fast end of a run's samples is far steadier than
 * their median (see README.md, "Noise").
 */
constexpr double kFastQuantile = 0.02;

/** Set-up-only cells a trace-0 run times besides its cells' set-ups. */
constexpr std::size_t kSetupSamples = 31;

/**
 * Moves the process from CPU to CPU over the set it was allowed at
 * construction. On a shared host the neighbours' load differs from CPU
 * to CPU and moves within seconds, so a run that spends short slices on
 * every allowed CPU gives the fast end samples from a quiet one.
 */
class CpuRotation
{
  public:
    /** Seconds spent on one CPU before tick() moves on. */
    static constexpr double kSliceS = 0.1;

    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &set))
                    cpus.push_back(cpu);
    }

    /** Logical CPUs this process may run on. */
    int count() const { return int(cpus.size()); }

    /** Pin the process to the next allowed CPU. */
    void
    next()
    {
        moved = Clock::now();
        if (cpus.empty())
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpus[step++ % cpus.size()], &set);
        sched_setaffinity(0, sizeof set, &set); // best effort
    }

    /** next() once the current slice is over. */
    void
    tick()
    {
        if (secondsSince(moved) >= kSliceS)
            next();
    }

  private:
    std::vector<int> cpus;
    std::size_t step = 0;
    Clock::time_point moved = Clock::now();
};

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** 64-bit FNV-1a over a sequence of words. */
class Digest
{
  public:
    void
    add(std::uint64_t word)
    {
        for (int b = 0; b < 8; ++b) {
            state ^= (word >> (8 * b)) & 0xff;
            state *= 0x100000001b3ull;
        }
    }

    void
    add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }

    std::uint64_t value() const { return state; }

  private:
    std::uint64_t state = 0xcbf29ce484222325ull;
};

/** Statistics of the slice, or of the slice a decorator wraps. */
const Directory &
realSlice(const Directory &slice)
{
    if (const auto *traced =
            dynamic_cast<const perfbench::TracedDirectory *>(&slice))
        return traced->wrapped();
    return slice;
}

DirectoryStats
directoryStats(const CmpSystem &system)
{
    DirectoryStats agg;
    for (std::size_t s = 0; s < system.numSlices(); ++s)
        agg.merge(realSlice(system.slice(s)).stats());
    return agg;
}

/** Digest over every simulated counter of the measure phase. */
std::uint64_t
counterDigest(const CmpStats &sys, const DirectoryStats &dir)
{
    Digest d;
    for (const std::uint64_t v :
         {sys.accesses, sys.cacheHits, sys.cacheMisses, sys.writeUpgrades,
          sys.cacheEvictions, sys.sharingInvalidations,
          sys.forcedInvalidations, sys.directoryOccupancy.count()})
        d.add(v);
    d.add(sys.directoryOccupancy.sum());
    d.add(sys.latency.count());
    d.add(sys.latency.totalCycles());
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b)
        d.add(sys.latency.bucketAt(b));
    for (const std::uint64_t v :
         {dir.lookups, dir.hits, dir.insertions, dir.sharerAdds,
          dir.writeUpgrades, dir.sharerRemovals, dir.entryFrees,
          dir.forcedEvictions, dir.forcedBlockInvalidations,
          dir.insertFailures, dir.insertionAttempts.count()})
        d.add(v);
    d.add(dir.insertionAttempts.sum());
    for (std::size_t b = 0; b <= dir.attemptHistogram.maxValue(); ++b)
        d.add(dir.attemptHistogram.at(b));
    return d.value();
}

std::string
hex(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return buf;
}

using Metrics = std::map<std::string, double>;

/** What one cell measured. */
struct CellResult
{
    double setupS = 0.0;
    double warmupS = 0.0;
    double measureS = 0.0;
    std::vector<double> warmupChunkS;
    std::vector<double> measureChunkS;
    std::uint64_t digest = 0;
    std::size_t stateBytes = 0;
    std::vector<std::string> failures; //!< failed checks
    Metrics layers;                    //!< traced cells only
};

/** Per-layer metrics of a traced cell (see README.md for each one). */
Metrics
layerMetrics(const CmpSystem &system, const DirectoryStats &dir,
             const perfbench::LayerTrace &trace, double measure_s,
             double clock_ns)
{
    const CmpStats &sys = system.stats();
    const double acc = double(sys.accesses);
    const double total_ns = measure_s * 1e9;
    const double workload_ns = trace.workload.estimatedNs(clock_ns);
    const double request_ns = trace.requests.estimatedNs(clock_ns);
    const double removal_ns = trace.removals.estimatedNs(clock_ns);
    const double model_ns = trace.model.estimatedNs(clock_ns);
    const double self_ns =
        total_ns - workload_ns - request_ns - removal_ns - model_ns;
    std::size_t bytes = 0, entries = 0;
    for (std::size_t s = 0; s < system.numSlices(); ++s) {
        bytes += system.slice(s).memoryBytes();
        entries += system.slice(s).capacity();
    }
    return {
        {"workload.ns_per_acc", ratio(workload_ns, acc)},
        {"workload.share", ratio(workload_ns, total_ns)},
        {"directory.request_ns",
         ratio(request_ns, double(trace.requests.workCount()))},
        {"directory.removal_ns",
         ratio(removal_ns, double(trace.removals.workCount()))},
        {"directory.share", ratio(request_ns + removal_ns, total_ns)},
        {"directory.requests_per_acc", ratio(double(dir.lookups), acc)},
        {"directory.removals_per_acc",
         ratio(double(trace.removals.callCount()), acc)},
        {"directory.hit_frac", ratio(double(dir.hits), double(dir.lookups))},
        {"directory.insert_attempts_avg", dir.insertionAttempts.mean()},
        {"directory.insert_failures", double(dir.insertFailures)},
        {"directory.bytes_per_entry", ratio(double(bytes), double(entries))},
        {"sharers.adds_per_acc", ratio(double(dir.sharerAdds), acc)},
        {"sharers.inv_targets_per_upgrade",
         ratio(double(sys.sharingInvalidations), double(dir.writeUpgrades))},
        {"cache.miss_frac", ratio(double(sys.cacheMisses), acc)},
        {"cache.evictions_per_acc", ratio(double(sys.cacheEvictions), acc)},
        {"model.share", ratio(model_ns, total_ns)},
        {"model.calls_per_acc", ratio(double(trace.model.callCount()), acc)},
        {"sim.self_ns_per_acc", ratio(self_ns, acc)},
        {"sim.share", ratio(self_ns, total_ns)},
        {"sim.inv_per_acc",
         ratio(double(sys.sharingInvalidations + sys.forcedInvalidations),
               acc)},
        {"sim.upgrades_per_acc", ratio(double(sys.writeUpgrades), acc)},
    };
}

/**
 * Run one cell of @p w. With @p trace non-null the directory slices,
 * the access source and the cost model are wrapped in the timing
 * decorators (organization @p traced_org). With @p setup_only the cell
 * stops after setup. With @p rotation non-null the cell moves between
 * CPUs (CpuRotation::tick) after each timed chunk.
 */
CellResult
runCell(const Workload &w, perfbench::LayerTrace *trace,
        const std::string &traced_org, double clock_ns,
        bool setup_only = false, CpuRotation *rotation = nullptr)
{
    CellResult cell;
    const auto setup_start = Clock::now();
    CmpConfig cfg = w.config;
    if (trace != nullptr)
        cfg.directory.organization = traced_org;
    CmpSystem system(cfg);
    const std::unique_ptr<AccessSource> source =
        makeWorkloadSource(cfg, w.params);
    std::unique_ptr<CostModel> costs;
    std::unique_ptr<perfbench::TimedCostModel> timed_costs;
    if (!w.costModel.empty()) {
        costs = makeCostModel(w.costModel, cfg);
        if (trace != nullptr) {
            timed_costs = std::make_unique<perfbench::TimedCostModel>(
                *costs, trace->model);
            system.setCostModel(timed_costs.get());
        } else {
            system.setCostModel(costs.get());
        }
    }
    cell.setupS = secondsSince(setup_start);
    if (setup_only)
        return cell;

    std::unique_ptr<perfbench::TimedSource> timed_source;
    AccessSource *feed = source.get();
    if (trace != nullptr) {
        timed_source =
            std::make_unique<perfbench::TimedSource>(*source, trace->workload);
        feed = timed_source.get();
    }

    for (const std::uint64_t accesses : warmupChunks(w)) {
        const auto chunk_start = Clock::now();
        system.run(*feed, accesses);
        cell.warmupChunkS.push_back(secondsSince(chunk_start));
        cell.warmupS += cell.warmupChunkS.back();
        if (rotation != nullptr)
            rotation->tick();
    }
    system.resetStats();
    if (trace != nullptr) {
        // resetStats() is not virtual: reset the wrapped slices too.
        for (std::size_t s = 0; s < system.numSlices(); ++s)
            if (auto *traced = dynamic_cast<perfbench::TracedDirectory *>(
                    &system.slice(s)))
                traced->wrapped().resetStats();
        trace->reset();
    }

    std::uint64_t executed = 0;
    while (executed < w.measure) {
        const auto chunk_start = Clock::now();
        const std::uint64_t ran = system.run(
            *feed, std::min(kChunk, w.measure - executed), kSampleEvery);
        cell.measureChunkS.push_back(secondsSince(chunk_start));
        cell.measureS += cell.measureChunkS.back();
        if (rotation != nullptr)
            rotation->tick();
        executed += ran;
        if (ran == 0)
            break;
    }

    const CmpStats &sys = system.stats();
    const DirectoryStats dir = directoryStats(system);
    cell.digest = counterDigest(sys, dir);
    cell.stateBytes = system.estimatedMemoryBytes();
    const auto check = [&cell](bool ok, const char *what) {
        if (!ok)
            cell.failures.push_back(what);
    };
    check(executed == w.measure && sys.accesses == w.measure,
          "measure phase ran the requested accesses");
    check(sys.cacheHits + sys.cacheMisses == sys.accesses,
          "hits + misses == accesses");
    check(dir.lookups == sys.cacheMisses + sys.writeUpgrades,
          "directory lookups == misses + write upgrades");
    check(w.costModel.empty() ? sys.latency.count() == 0
                              : sys.latency.count() == dir.lookups,
          "one modelled latency per directory lookup");
    check(system.directoryCoversCaches(), "directoryCoversCaches()");
    if (trace != nullptr)
        cell.layers = layerMetrics(system, dir, *trace, cell.measureS,
                                   clock_ns);
    return cell;
}

/**
 * Peak RSS of this process image in bytes (VmHWM). getrusage's
 * ru_maxrss also carries the high-water mark of the image the process
 * exec'd from, so under a large launcher (the Python script) it reports
 * the launcher's footprint instead of the benchmark's.
 */
double
peakRssBytes()
{
    std::FILE *status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return double(processPeakRssBytes());
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, status) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1)
            break;
    std::fclose(status);
    return kib > 0.0 ? kib * 1024.0 : double(processPeakRssBytes());
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
envValue(const char *name)
{
    const char *value = std::getenv(name);
    return value == nullptr ? "null" : jsonString(value);
}

const char *
formatName(SharerFormat format)
{
    switch (format) {
      case SharerFormat::FullVector:
        return "full-vector";
      case SharerFormat::CoarseVector:
        return "coarse-vector";
      case SharerFormat::Hierarchical:
        return "hierarchical";
      case SharerFormat::Compressed:
        return "compressed";
    }
    return "?";
}

/** Unit of each metric this program prints. */
const char *
unitOf(const std::string &name)
{
    static const std::map<std::string, const char *> units = {
        {"macc_per_s", "Macc/s"},
        {"cell_s", "s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
        {"state_mb", "MiB"},
        {"workload.ns_per_acc", "ns/acc"},
        {"workload.share", "ratio"},
        {"directory.request_ns", "ns"},
        {"directory.removal_ns", "ns"},
        {"directory.share", "ratio"},
        {"directory.requests_per_acc", "1/acc"},
        {"directory.removals_per_acc", "1/acc"},
        {"directory.hit_frac", "ratio"},
        {"directory.insert_attempts_avg", "attempts"},
        {"directory.insert_failures", "count"},
        {"directory.bytes_per_entry", "B/entry"},
        {"sharers.adds_per_acc", "1/acc"},
        {"sharers.inv_targets_per_upgrade", "1/upgrade"},
        {"sharers.kernel_ns_per_op", "ns"},
        {"cache.kernel_ns_per_acc", "ns/acc"},
        {"cache.miss_frac", "ratio"},
        {"cache.evictions_per_acc", "1/acc"},
        {"model.ns_per_call", "ns"},
        {"model.share", "ratio"},
        {"model.calls_per_acc", "1/acc"},
        {"sim.self_ns_per_acc", "ns/acc"},
        {"sim.share", "ratio"},
        {"sim.inv_per_acc", "1/acc"},
        {"sim.upgrades_per_acc", "1/acc"},
        {"trace.overhead", "ratio"},
    };
    const auto it = units.find(name);
    return it == units.end() ? "?" : it->second;
}

std::string
metricsJson(const Metrics &metrics)
{
    std::string out = "{";
    for (const auto &[name, value] : metrics) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (out.size() > 1)
            out += ", ";
        out += jsonString(name) + ": {\"value\": " + buf +
               ", \"unit\": " + jsonString(unitOf(name)) + "}";
    }
    return out + "}";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string expectDigest;
    std::string commit = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("flag " + flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = std::stoi(value);
        else if (flag == "--expect-digest")
            args.expectDigest = value;
        else if (flag == "--commit")
            args.commit = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (args.workload.empty())
        throw std::invalid_argument("--workload is required");
    if (args.trace != 0 && args.trace != 1)
        throw std::invalid_argument("--trace takes 0 or 1");
    if (!(args.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return args;
}

/** Runs cells and tallies their checks against one digest. */
class CellRunner
{
  public:
    CellRunner(const Workload &w, std::string expect, double clock_ns)
        : w(w), expected(std::move(expect)), clockNs(clock_ns)
    {
        tracedOrg = perfbench::registerTracedOrganization(
            w.config.directory.resolvedOrganization(), trace);
    }

    /**
     * Run one cell into @p cell and check it. Set-up-only cells have no
     * output to check; they count as attempted only when they throw.
     * @p rotation as for runCell.
     * @return true iff the cell ran and passed every check.
     */
    bool
    run(bool traced, CellResult &cell, bool setup_only = false,
        CpuRotation *rotation = nullptr)
    {
        try {
            cell = runCell(w, traced ? &trace : nullptr, tracedOrg,
                           clockNs, setup_only, rotation);
        } catch (const std::exception &e) {
            ++attempted;
            fail(std::string("exception: ") + e.what());
            return false;
        }
        if (setup_only)
            return true;
        ++attempted;
        const std::string digest = hex(cell.digest);
        if (reference.empty())
            reference = expected.empty() ? digest : expected;
        if (digest != reference)
            cell.failures.push_back(
                std::string(traced ? "traced" : "plain") + " digest " +
                digest + " != " + reference);
        for (const std::string &what : cell.failures)
            fail(what);
        return cell.failures.empty();
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::string reference; //!< digest every cell must match

  private:
    void
    fail(const std::string &what)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(what);
    }

    const Workload &w;
    std::string expected;
    double clockNs;
    perfbench::LayerTrace trace;
    std::string tracedOrg;
};

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Workload w;
    try {
        args = parseArgs(argc, argv);
        w = makeWorkload(args.workload, args.seed);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cdir_perfbench: %s\n", e.what());
        return 2;
    }

    CpuRotation rotation;
    const double clock_ns = perfbench::calibrateClockNs();
    CellRunner runner(w, args.expectDigest, clock_ns);
    const auto start = Clock::now();
    // What a run does after its last cell, in cells: a trace-0 run
    // without a reference runs one traced cell, which takes up to about
    // twice a plain cell; a trace-1 run runs the single-layer kernels,
    // which take about as long as a cell.
    const double tail_cells =
        args.trace == 1 ? 1.0 : args.expectDigest.empty() ? 2.0 : 0.0;
    // Start another cell while at most half of it (and the tail) would
    // run past the time budget, so a run takes about --seconds.
    const auto time_left = [&](double cell_s) {
        return secondsSince(start) + (0.5 + tail_cells) * cell_s <
               args.seconds;
    };

    Metrics metrics;
    std::vector<std::string> notes;
    std::size_t cells = 0;
    if (args.trace == 0) {
        // Host seconds per access of every measure chunk, and of every
        // warm-up chunk by group (kWarmupGroups) with each group's
        // accesses per cell.
        std::vector<double> setup, measure_per_acc, state;
        const std::vector<std::uint64_t> warmup_sizes = warmupChunks(w);
        std::vector<std::vector<double>> warmup_per_acc(kWarmupGroups);
        std::vector<double> group_accesses(kWarmupGroups, 0.0);
        const auto group_of = [&](std::size_t i) {
            return i * kWarmupGroups / warmup_sizes.size();
        };
        for (std::size_t i = 0; i < warmup_sizes.size(); ++i)
            group_accesses[group_of(i)] += double(warmup_sizes[i]);
        double last = 0.0;
        // Peak RSS after the first cell: one system's footprint, however
        // many cells the run goes on to fit in its time.
        double peak_rss = 0.0;
        do {
            CellResult cell;
            const bool ok = runner.run(false, cell, false, &rotation);
            if (peak_rss == 0.0) {
                peak_rss = double(peakRssBytes());
                // Set-up is short next to a cell: time set-ups of their
                // own, so that its median rests on enough samples. They
                // follow the peak RSS reading, which the heap the
                // allocator keeps from them would raise.
                for (std::size_t i = 0; i < kSetupSamples; ++i) {
                    rotation.next();
                    CellResult only;
                    if (runner.run(false, only, true))
                        setup.push_back(only.setupS);
                }
            }
            if (ok) {
                setup.push_back(cell.setupS);
                for (std::size_t i = 0; i < cell.measureChunkS.size(); ++i)
                    measure_per_acc.push_back(
                        cell.measureChunkS[i] /
                        double(std::min(kChunk, w.measure - i * kChunk)));
                for (std::size_t i = 0; i < cell.warmupChunkS.size(); ++i)
                    warmup_per_acc[group_of(i)].push_back(
                        cell.warmupChunkS[i] / double(warmup_sizes[i]));
                state.push_back(double(cell.stateBytes));
                last = cell.setupS + cell.warmupS + cell.measureS;
            }
            ++cells;
        } while (time_left(last) && runner.failed == 0);
        if (args.expectDigest.empty() && runner.failed == 0) {
            CellResult cell;
            runner.run(true, cell);
            notes.push_back("no reference digest for this seed: checked "
                            "one traced cell against the plain cells");
        }
        // Measure chunks are alike, so they pool; warm-up chunks are not
        // (the caches fill), so the cell time adds the fast end of each
        // warm-up group across cells.
        const double measure_s_per_acc =
            quantile(measure_per_acc, kFastQuantile);
        metrics["macc_per_s"] = ratio(1e-6, measure_s_per_acc);
        double cell_s = median(setup) + double(w.measure) * measure_s_per_acc;
        for (std::size_t g = 0; g < kWarmupGroups; ++g)
            cell_s += group_accesses[g] *
                      quantile(warmup_per_acc[g], kFastQuantile);
        metrics["cell_s"] = cell_s;
        metrics["setup_s"] = median(setup);
        metrics["peak_rss_mb"] = peak_rss / (1024.0 * 1024.0);
        metrics["state_mb"] = median(state) / (1024.0 * 1024.0);
    } else {
        std::map<std::string, std::vector<double>> layers;
        std::vector<double> overhead; // traced / plain, per pair
        double last = 0.0;
        do {
            rotation.next(); // both cells of a pair on one CPU
            CellResult traced, plain;
            if (runner.run(true, traced) && runner.run(false, plain)) {
                for (const auto &[name, value] : traced.layers)
                    layers[name].push_back(value);
                overhead.push_back(ratio(traced.measureS, plain.measureS));
                last = traced.setupS + traced.warmupS + traced.measureS +
                       plain.setupS + plain.warmupS + plain.measureS;
            }
            cells += 2;
        } while (time_left(last) && runner.failed == 0);
        for (const auto &[name, values] : layers)
            metrics[name] = median(values);
        metrics["trace.overhead"] = median(overhead);
        metrics["cache.kernel_ns_per_acc"] = perfbench::cacheKernelNsPerAccess(
            w.config, w.params, w.warmup, w.measure);
        metrics["sharers.kernel_ns_per_op"] = perfbench::sharerKernelNsPerOp(
            w.config.directory.format, w.config.numCaches(), args.seed);
        metrics["model.ns_per_call"] = perfbench::modelKernelNsPerCall(
            w.config, w.costModel.empty() ? "mesh" : w.costModel, args.seed);
        notes.push_back("cache.kernel_ns_per_acc replays the generated "
                        "stream through standalone private caches: no "
                        "coherence invalidations reach them");
        notes.push_back("model.ns_per_call is the model kernel (synthetic "
                        "outcome mix, mesh model at this geometry); "
                        "model.share and model.calls_per_acc are 0 where "
                        "the workload simulates untimed");
        notes.push_back("shares are of the traced measure phase; "
                        "sim.share is the remainder after workload, "
                        "directory and model");
    }

    const bool knobs = std::getenv("CDIR_FORCE_SCALAR") != nullptr ||
                       std::getenv("CDIR_PREFETCH_DIST") != nullptr;
    if (knobs)
        std::fprintf(stderr, "cdir_perfbench: WARNING: CDIR_FORCE_SCALAR or "
                             "CDIR_PREFETCH_DIST is set; speed is not "
                             "comparable to a run without it\n");
    std::printf(
        "provenance {\"commit\": %s, \"build_type\": %s, \"compiler\": %s, "
        "\"cxx_flags\": %s, \"cpus\": %d, \"workload\": %s, \"seed\": "
        "%" PRIu64 ", \"seconds\": %g, \"trace\": %d, \"shards\": 1, "
        "\"batch_window\": %zu, \"cores\": %zu, \"organization\": %s, "
        "\"sharer_format\": \"%s\", \"cost_model\": %s, \"warmup\": "
        "%" PRIu64 ", \"measure\": %" PRIu64 ", \"CDIR_FORCE_SCALAR\": %s, "
        "\"CDIR_PREFETCH_DIST\": %s, \"env_knobs_flagged\": %s, "
        "\"clock_ns\": %.3f}\n",
        jsonString(args.commit).c_str(), jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(PERFBENCH_COMPILER).c_str(),
        jsonString(PERFBENCH_CXX_FLAGS).c_str(), rotation.count(),
        jsonString(w.name).c_str(), args.seed, args.seconds, args.trace,
        w.config.batchWindow, w.config.numCores,
        jsonString(w.config.directory.resolvedOrganization()).c_str(),
        formatName(w.config.directory.format),
        w.costModel.empty() ? "null" : jsonString(w.costModel).c_str(),
        w.warmup, w.measure, envValue("CDIR_FORCE_SCALAR").c_str(),
        envValue("CDIR_PREFETCH_DIST").c_str(), knobs ? "true" : "false",
        clock_ns);

    std::string failures = "[";
    for (const std::string &what : runner.failures)
        failures += (failures.size() > 1 ? ", " : "") + jsonString(what);
    std::string note_list = "[";
    for (const std::string &note : notes)
        note_list += (note_list.size() > 1 ? ", " : "") + jsonString(note);
    std::printf("detail {\"digest\": %s, \"cells\": %zu, \"failures\": %s], "
                "\"notes\": %s]}\n",
                jsonString(runner.reference).c_str(), cells,
                failures.c_str(), note_list.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                runner.failed == 0 ? "true" : "false", runner.attempted,
                runner.failed, metricsJson(metrics).c_str());
    return 0;
}
