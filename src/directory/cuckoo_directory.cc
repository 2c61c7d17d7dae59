#include "directory/cuckoo_directory.hh"

#include <sstream>

#include "directory/registry.hh"

namespace cdir {

CDIR_REGISTER_DIRECTORY(cuckoo, "Cuckoo",
                        DirectoryTraits{.usesBucketSlots = true},
                        [](const DirectoryParams &p) {
                            return std::make_unique<CuckooDirectory>(
                                p.numCaches, p.ways, p.sets, p.format,
                                p.hash, p.maxAttempts, p.hashSeed,
                                p.bucketSlots, p.stashEntries);
                        });

CuckooDirectory::CuckooDirectory(std::size_t num_caches, unsigned ways,
                                 std::size_t sets_per_way,
                                 SharerFormat fmt, HashKind hash,
                                 unsigned max_attempts,
                                 std::uint64_t hash_seed,
                                 unsigned bucket_slots,
                                 unsigned stash_entries)
    : Directory(num_caches),
      hashKind(hash),
      sharers(fmt, num_caches),
      family(makeHashFamily(hash, ways, sets_per_way, hash_seed)),
      table(*family, max_attempts, bucket_slots, sharers.words()),
      stashCapacity(stash_entries),
      stashWords(std::size_t{stash_entries} * sharers.words(), 0),
      carry(sharers.words(), 0)
{
    stashTags.reserve(stash_entries);
}

std::size_t
CuckooDirectory::findStash(Tag tag) const
{
    for (std::size_t i = 0; i < stashTags.size(); ++i)
        if (stashTags[i] == tag)
            return i;
    return npos;
}

void
CuckooDirectory::drainStash()
{
    if (stashTags.empty())
        return;
    // The last stash entry's own words serve as the carry: a discarded
    // (possibly different) entry lands right back in its place.
    const std::size_t last = stashTags.size() - 1;
    auto ins = table.insertCarry(stashTags[last], stashEntry(last));
    if (ins.discarded)
        stashTags[last] = ins.discardedTag;
    else
        stashTags.pop_back();
}

void
CuckooDirectory::access(const DirRequest &request, DirAccessContext &ctx)
{
    DirAccessOutcome &out = ctx.beginOutcome();
    ++statistics.lookups;

    if (Word *entry = table.find(request.tag)) {
        out.hit = true;
        ++statistics.hits;
        updateEntryOnHit(sharers, entry, request, ctx, out);
        return;
    }
    if (const std::size_t i = findStash(request.tag); i != npos) {
        out.hit = true;
        ++statistics.hits;
        updateEntryOnHit(sharers, stashEntry(i), request, ctx, out);
        return;
    }

    // Miss: allocate an entry tracking the requester. The carry words
    // are empty here, because vacated slots hold empty words.
    sharers.add(carry.data(), request.cache);
    auto ins = table.insertCarry(request.tag, carry.data());

    out.inserted = true;
    out.attempts = ins.attempts;
    ++statistics.insertions;
    statistics.insertionAttempts.add(ins.attempts);
    statistics.attemptHistogram.add(ins.attempts);

    if (ins.discarded) {
        if (stashTags.size() < stashCapacity) {
            // Kirsch-style stash extension: park the overflow entry
            // instead of invalidating its blocks.
            sharers.move(carry.data(), stashEntry(stashTags.size()));
            stashTags.push_back(ins.discardedTag);
            ++stashAbsorbs;
        } else {
            out.insertDiscarded = true;
            ++statistics.insertFailures;
            ++statistics.forcedEvictions;
            EvictedEntry &evicted = ctx.appendEviction(out);
            evicted.tag = ins.discardedTag;
            sharers.targets(carry.data(), evicted.targets);
            statistics.forcedBlockInvalidations += evicted.targets.count();
            sharers.clear(carry.data());
        }
    }
}

void
CuckooDirectory::removeSharer(Tag tag, CacheId cache)
{
    const std::size_t pos = table.findPos(tag);
    if (pos != CuckooTable<Word>::npos) {
        ++statistics.sharerRemovals;
        if (sharers.remove(&table.payloadAt(pos), cache)) {
            // One probe serves both the removal and the free: erase at
            // the position the lookup already found instead of
            // re-probing all ways. The emptied words stay in the slot.
            table.eraseAt(pos);
            ++statistics.entryFrees;
            // A freed slot is the opportunity to re-home a parked
            // overflow entry.
            drainStash();
        }
        return;
    }
    if (const std::size_t i = findStash(tag); i != npos) {
        ++statistics.sharerRemovals;
        if (sharers.remove(stashEntry(i), cache)) {
            // Move the last stash entry into the emptied place.
            const std::size_t last = stashTags.size() - 1;
            sharers.move(stashEntry(last), stashEntry(i));
            stashTags[i] = stashTags[last];
            stashTags.pop_back();
            ++statistics.entryFrees;
        }
    }
}

bool
CuckooDirectory::probe(Tag tag, DynamicBitset *targets) const
{
    const Word *entry = table.find(tag);
    if (entry == nullptr) {
        const std::size_t i = findStash(tag);
        if (i == npos)
            return false;
        entry = &stashWords[i * sharers.words()];
    }
    if (targets)
        sharers.targets(entry, *targets);
    return true;
}

std::size_t
CuckooDirectory::validEntries() const
{
    return table.size() + stashTags.size();
}

std::size_t
CuckooDirectory::capacity() const
{
    return table.capacity() + stashCapacity;
}

std::string
CuckooDirectory::name() const
{
    std::ostringstream os;
    os << "Cuckoo-" << table.numWays() << "x" << table.setsPerWay();
    if (table.slotsPerBucket() > 1)
        os << "b" << table.slotsPerBucket();
    if (stashCapacity > 0)
        os << "+stash" << stashCapacity;
    return os.str();
}

} // namespace cdir
