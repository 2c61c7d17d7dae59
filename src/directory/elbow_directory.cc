#include "directory/elbow_directory.hh"

#include <cassert>
#include <sstream>

#include "common/bit_util.hh"
#include "directory/registry.hh"

namespace cdir {

CDIR_REGISTER_DIRECTORY(elbow, "Elbow", DirectoryTraits{},
                        [](const DirectoryParams &p) {
                            return std::make_unique<ElbowDirectory>(
                                p.numCaches, p.ways, p.sets, p.format,
                                p.hashSeed);
                        });

ElbowDirectory::ElbowDirectory(std::size_t num_caches, unsigned num_ways,
                               std::size_t num_sets, SharerFormat fmt,
                               std::uint64_t hash_seed)
    : Directory(num_caches),
      sharers(fmt, num_caches),
      family(makeHashFamily(HashKind::Skewing, num_ways, num_sets,
                            hash_seed)),
      ways(num_ways),
      sets(num_sets),
      tags(std::size_t{num_ways} * num_sets, 0),
      valids(std::size_t{num_ways} * num_sets, 0),
      lastUses(std::size_t{num_ways} * num_sets, 0),
      sharerWords(std::size_t{num_ways} * num_sets * sharers.words(), 0)
{
    assert(num_ways >= 1 && num_ways <= kMaxProbeWays);
}

std::size_t
ElbowDirectory::findPosOf(Tag tag) const
{
    std::size_t idx[kMaxProbeWays];
    family->indexAll(tag, idx);
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
ElbowDirectory::prefetchTag(Tag tag) const
{
    std::size_t idx[kMaxProbeWays];
    family->indexAll(tag, idx);
    for (unsigned w = 0; w < ways; ++w)
        prefetchRead(&tags[pos(w, idx[w])]);
}

void
ElbowDirectory::access(const DirRequest &request, DirAccessContext &ctx)
{
    DirAccessOutcome &out = ctx.beginOutcome();
    ++statistics.lookups;
    ++useClock;

    std::size_t idx[kMaxProbeWays];
    family->indexAll(request.tag, idx);

    {
        Tag cand[kMaxProbeWays];
        std::uint8_t cvalid[kMaxProbeWays];
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t p = pos(w, idx[w]);
            cand[w] = tags[p];
            cvalid[w] = valids[p];
        }
        const std::size_t hit = findTag(cand, cvalid, ways, request.tag);
        if (hit != ways) {
            const std::size_t p =
                pos(static_cast<unsigned>(hit), idx[hit]);
            out.hit = true;
            ++statistics.hits;
            lastUses[p] = useClock;
            updateEntryOnHit(sharers, entry(p), request, ctx, out);
            return;
        }
    }

    // Miss: take a vacant candidate if one exists.
    std::size_t dest = npos;
    unsigned attempts = 1;
    for (unsigned w = 0; w < ways; ++w) {
        const std::size_t p = pos(w, idx[w]);
        if (valids[p] == 0) {
            dest = p;
            break;
        }
    }

    if (dest == npos) {
        // One elbow move: relocate the first candidate occupant whose
        // alternate slot in another way is vacant (requires the extra
        // candidate lookups the paper charges this design for).
        std::size_t altIdx[kMaxProbeWays];
        for (unsigned w = 0; w < ways && dest == npos; ++w) {
            const std::size_t occ = pos(w, idx[w]);
            family->indexAll(tags[occ], altIdx);
            for (unsigned alt = 0; alt < ways; ++alt) {
                if (alt == w)
                    continue;
                const std::size_t target = pos(alt, altIdx[alt]);
                if (valids[target] == 0) {
                    tags[target] = tags[occ];
                    sharers.move(entry(occ), entry(target));
                    lastUses[target] = lastUses[occ];
                    valids[target] = 1;
                    valids[occ] = 0;
                    dest = occ;
                    ++relocated;
                    attempts = 2; // the relocation write
                    break;
                }
            }
        }
    }

    if (dest == npos) {
        // No single-hop relocation possible: evict the LRU candidate.
        std::size_t victim = npos;
        for (unsigned w = 0; w < ways; ++w) {
            const std::size_t p = pos(w, idx[w]);
            if (victim == npos || lastUses[p] < lastUses[victim])
                victim = p;
        }
        assert(victim != npos && valids[victim] != 0);
        EvictedEntry &evicted = ctx.appendEviction(out);
        evicted.tag = tags[victim];
        sharers.targets(entry(victim), evicted.targets);
        ++statistics.forcedEvictions;
        statistics.forcedBlockInvalidations += evicted.targets.count();
        valids[victim] = 0;
        sharers.clear(entry(victim));
        --occupied;
        dest = victim;
    }

    tags[dest] = request.tag;
    sharers.add(entry(dest), request.cache);
    valids[dest] = 1;
    lastUses[dest] = useClock;
    ++occupied;

    out.inserted = true;
    out.attempts = attempts;
    ++statistics.insertions;
    statistics.insertionAttempts.add(attempts);
    statistics.attemptHistogram.add(attempts);
}

void
ElbowDirectory::removeSharer(Tag tag, CacheId cache)
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
ElbowDirectory::probe(Tag tag, DynamicBitset *targets) const
{
    const std::size_t p = findPosOf(tag);
    if (p == npos)
        return false;
    if (targets)
        sharers.targets(&sharerWords[p * sharers.words()], *targets);
    return true;
}

std::string
ElbowDirectory::name() const
{
    std::ostringstream os;
    os << "Elbow-" << ways << "x" << sets;
    return os.str();
}

} // namespace cdir
