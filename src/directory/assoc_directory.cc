#include "directory/assoc_directory.hh"

#include <cassert>
#include <sstream>

#include "common/bit_util.hh"
#include "directory/registry.hh"

namespace cdir {

CDIR_REGISTER_DIRECTORY(sparse, "Sparse", DirectoryTraits{},
                        [](const DirectoryParams &p) {
                            return std::make_unique<AssocDirectory>(
                                p.numCaches, p.ways, p.sets, p.format,
                                HashKind::Modulo);
                        });

CDIR_REGISTER_DIRECTORY(skewed, "Skewed", DirectoryTraits{},
                        [](const DirectoryParams &p) {
                            return std::make_unique<AssocDirectory>(
                                p.numCaches, p.ways, p.sets, p.format,
                                p.hash == HashKind::Modulo
                                    ? HashKind::Skewing
                                    : p.hash,
                                p.hashSeed);
                        });

AssocDirectory::AssocDirectory(std::size_t num_caches, unsigned num_ways,
                               std::size_t num_sets, SharerFormat fmt,
                               HashKind hash, std::uint64_t hash_seed)
    : Directory(num_caches),
      hashKind(hash),
      sharers(fmt, num_caches),
      family(makeHashFamily(hash, num_ways, num_sets, hash_seed)),
      ways(num_ways),
      sets(num_sets),
      setMajor(hash == HashKind::Modulo),
      tags(std::size_t{num_ways} * num_sets, 0),
      valids(std::size_t{num_ways} * num_sets, 0),
      lastUses(std::size_t{num_ways} * num_sets, 0),
      sharerWords(std::size_t{num_ways} * num_sets * sharers.words(), 0)
{
    assert(num_ways >= 1 && num_ways <= kMaxProbeWays);
}

std::size_t
AssocDirectory::findPosOf(Tag tag) const
{
    std::size_t idx[kMaxProbeWays];
    family->indexAll(tag, idx);
    return findPosWithIdx(tag, idx);
}

std::size_t
AssocDirectory::findPosWithIdx(Tag tag, const std::size_t *idx) const
{
    if (setMajor) {
        // All ways share the set: the candidates are one contiguous run,
        // reduced by a single kernel call with no gather.
        const std::size_t base = idx[0] * ways;
        const std::size_t hit =
            findTag(&tags[base], &valids[base], ways, tag);
        return hit == ways ? npos : base + hit;
    }
    // Skewed ways: gather the scattered candidates, then reduce.
    Tag cand[kMaxProbeWays];
    std::uint8_t cvalid[kMaxProbeWays];
    for (unsigned w = 0; w < ways; ++w) {
        const std::size_t p = pos(w, idx[w]);
        cand[w] = tags[p];
        cvalid[w] = valids[p];
    }
    const std::size_t hit = findTag(cand, cvalid, ways, tag);
    return hit == ways ? npos : pos(static_cast<unsigned>(hit), idx[hit]);
}

void
AssocDirectory::prefetchTag(Tag tag) const
{
    std::size_t idx[kMaxProbeWays];
    family->indexAll(tag, idx);
    if (setMajor) {
        const std::size_t base = idx[0] * ways;
        prefetchRead(&tags[base]);
        prefetchRead(&valids[base]);
        return;
    }
    for (unsigned w = 0; w < ways; ++w)
        prefetchRead(&tags[pos(w, idx[w])]);
}

void
AssocDirectory::access(const DirRequest &request, DirAccessContext &ctx)
{
    DirAccessOutcome &out = ctx.beginOutcome();
    ++statistics.lookups;
    ++useClock;

    std::size_t idx[kMaxProbeWays];
    family->indexAll(request.tag, idx);

    const std::size_t found = findPosWithIdx(request.tag, idx);
    if (found != npos) {
        out.hit = true;
        ++statistics.hits;
        lastUses[found] = useClock;
        updateEntryOnHit(sharers, entry(found), request, ctx, out);
        return;
    }

    // Miss: pick a vacant candidate or evict the LRU candidate. This is
    // the set conflict the Cuckoo organization eliminates: the victim's
    // cached copies must be invalidated to keep the directory precise.
    // The first vacant way wins; otherwise the strictly-smallest lastUse
    // in way order — identical victim choice to the AoS walk.
    std::size_t victim = npos;
    if (setMajor) {
        const std::size_t base = idx[0] * ways;
        const std::size_t vacant = cdir::findVacant(&valids[base], ways);
        if (vacant != ways) {
            victim = base + vacant;
        } else {
            victim = base;
            for (unsigned w = 1; w < ways; ++w)
                if (lastUses[base + w] < lastUses[victim])
                    victim = base + w;
        }
    } else {
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t p = pos(w, idx[w]);
            if (valids[p] == 0) {
                victim = p;
                break;
            }
            if (victim == npos || lastUses[p] < lastUses[victim])
                victim = p;
        }
    }
    assert(victim != npos);

    if (valids[victim] != 0) {
        EvictedEntry &evicted = ctx.appendEviction(out);
        evicted.tag = tags[victim];
        sharers.targets(entry(victim), evicted.targets);
        ++statistics.forcedEvictions;
        statistics.forcedBlockInvalidations += evicted.targets.count();
        sharers.clear(entry(victim));
    } else {
        ++occupied;
    }

    tags[victim] = request.tag;
    sharers.add(entry(victim), request.cache);
    valids[victim] = 1;
    lastUses[victim] = useClock;

    out.inserted = true;
    out.attempts = 1;
    ++statistics.insertions;
    statistics.insertionAttempts.add(1);
    statistics.attemptHistogram.add(1);
}

void
AssocDirectory::removeSharer(Tag tag, CacheId cache)
{
    const std::size_t p = findPosOf(tag);
    if (p == npos)
        return;
    ++statistics.sharerRemovals;
    if (sharers.remove(entry(p), cache)) {
        valids[p] = 0;
        --occupied;
        ++statistics.entryFrees;
    }
}

bool
AssocDirectory::probe(Tag tag, DynamicBitset *targets) const
{
    const std::size_t p = findPosOf(tag);
    if (p == npos)
        return false;
    if (targets)
        sharers.targets(&sharerWords[p * sharers.words()], *targets);
    return true;
}

std::string
AssocDirectory::name() const
{
    std::ostringstream os;
    os << (hashKind == HashKind::Modulo ? "Sparse-" : "Skewed-") << ways
       << "x" << sets;
    return os.str();
}

std::unique_ptr<AssocDirectory>
makeSparseDirectory(std::size_t num_caches, unsigned ways, std::size_t sets,
                    SharerFormat format)
{
    return std::make_unique<AssocDirectory>(num_caches, ways, sets, format,
                                            HashKind::Modulo);
}

std::unique_ptr<AssocDirectory>
makeSkewedDirectory(std::size_t num_caches, unsigned ways, std::size_t sets,
                    SharerFormat format, std::uint64_t hash_seed)
{
    return std::make_unique<AssocDirectory>(num_caches, ways, sets, format,
                                            HashKind::Skewing, hash_seed);
}

} // namespace cdir
