#include "directory/directory.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "directory/registry.hh"

namespace cdir {

unsigned
Directory::parsePrefetchDistance(const char *value)
{
    if (value == nullptr)
        return kDefaultPrefetchDistance;
    // strtoul alone would read "abc" as 0 and "-1" as a huge distance.
    char *end = nullptr;
    errno = 0;
    const unsigned long parsed = std::strtoul(value, &end, 10);
    if (std::isdigit(static_cast<unsigned char>(value[0])) && *end == '\0' &&
        errno == 0 && parsed <= kMaxPrefetchDistance)
        return static_cast<unsigned>(parsed);
    std::fprintf(stderr,
                 "warning: ignoring CDIR_PREFETCH_DIST='%s' (want an "
                 "integer in [0, %u]); using %u\n",
                 value, kMaxPrefetchDistance, kDefaultPrefetchDistance);
    return kDefaultPrefetchDistance;
}

unsigned
Directory::prefetchDistance()
{
    static const unsigned distance =
        parsePrefetchDistance(std::getenv("CDIR_PREFETCH_DIST"));
    return distance;
}

void
Directory::accessBatch(std::span<const DirRequest> requests,
                       DirAccessContext &ctx)
{
    // Walk the span in order, hinting the tag lanes of the request
    // `dist` slots ahead so the probe's candidate lines are (likely)
    // resident by the time access() reaches them. prefetchTag() is
    // side-effect free, so outcomes are identical to the plain loop.
    const std::size_t dist = prefetchDistance();
    const std::size_t n = requests.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (dist != 0 && i + dist < n)
            prefetchTag(requests[i + dist].tag);
        access(requests[i], ctx);
    }
}

void
Directory::updateEntryOnHit(SharerCodec &sharers, SharerCodec::Word *entry,
                            const DirRequest &request, DirAccessContext &ctx,
                            DirAccessOutcome &out)
{
    if (request.isWrite) {
        DynamicBitset &targets = ctx.sharerTargets(out);
        sharers.targets(entry, targets);
        if (request.cache < targets.size() && targets.test(request.cache))
            targets.reset(request.cache);
        if (targets.any()) {
            out.hadSharerInvalidations = true;
            ++statistics.writeUpgrades;
        }
        sharers.clear(entry);
        sharers.add(entry, request.cache);
    } else {
        sharers.add(entry, request.cache);
        ++statistics.sharerAdds;
    }
}

std::string
DirectoryParams::resolvedOrganization() const
{
    return organization.empty() ? directoryKindName(kind) : organization;
}

std::size_t
DirectoryParams::totalEntries() const
{
    // traits() throws for an unknown organization, failing fast like
    // every other registry consumer (makeDirectory, CmpSystem).
    const bool bucketized = DirectoryRegistry::instance()
                                .traits(resolvedOrganization())
                                .usesBucketSlots;
    return std::size_t{ways} * sets * (bucketized ? bucketSlots : 1);
}

std::unique_ptr<Directory>
makeDirectory(const DirectoryParams &p)
{
    return DirectoryRegistry::instance().build(p.resolvedOrganization(), p);
}

std::string
directoryKindName(DirectoryKind kind)
{
    switch (kind) {
      case DirectoryKind::Cuckoo:
        return "Cuckoo";
      case DirectoryKind::Sparse:
        return "Sparse";
      case DirectoryKind::Skewed:
        return "Skewed";
      case DirectoryKind::DuplicateTag:
        return "DuplicateTag";
      case DirectoryKind::InCache:
        return "InCache";
      case DirectoryKind::Tagless:
        return "Tagless";
      case DirectoryKind::Elbow:
        return "Elbow";
    }
    return "?";
}

} // namespace cdir
