#include "directory/directory.hh"

#include "directory/registry.hh"

namespace cdir {

void
Directory::accessBatch(std::span<const DirRequest> requests,
                       DirAccessContext &ctx)
{
    for (const DirRequest &request : requests)
        access(request, ctx);
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
