#include "tracing.hh"

#include <algorithm>
#include <vector>

#include "directory/registry.hh"

namespace perfbench {

double
calibrateClockNs()
{
    std::vector<double> gaps(4096);
    for (double &gap : gaps) {
        const auto start = Clock::now();
        gap = std::chrono::duration<double, std::nano>(Clock::now() - start)
                  .count();
    }
    std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                     gaps.end());
    return gaps[gaps.size() / 2];
}

TracedDirectory::TracedDirectory(const cdir::DirectoryParams &params,
                                 LayerTrace &trace)
    : Directory(params.numCaches), inner(cdir::makeDirectory(params)),
      trace(trace)
{}

void
TracedDirectory::access(const cdir::DirRequest &request,
                        cdir::DirAccessContext &ctx)
{
    accessBatch(std::span<const cdir::DirRequest>(&request, 1), ctx);
}

void
TracedDirectory::accessBatch(std::span<const cdir::DirRequest> requests,
                             cdir::DirAccessContext &ctx)
{
    if (!trace.requests.due(requests.size())) {
        inner->accessBatch(requests, ctx);
        return;
    }
    const auto start = Clock::now();
    inner->accessBatch(requests, ctx);
    trace.requests.record(start, requests.size());
}

void
TracedDirectory::removeSharer(cdir::Tag tag, cdir::CacheId cache)
{
    if (!trace.removals.due(1)) {
        inner->removeSharer(tag, cache);
        return;
    }
    const auto start = Clock::now();
    inner->removeSharer(tag, cache);
    trace.removals.record(start, 1);
}

std::string
registerTracedOrganization(const std::string &inner, LayerTrace &trace)
{
    cdir::DirectoryRegistry &registry = cdir::DirectoryRegistry::instance();
    std::string name = "Traced." + inner;
    if (!registry.contains(name)) {
        registry.registerOrganization(
            name, registry.traits(inner),
            [inner, &trace](const cdir::DirectoryParams &params) {
                cdir::DirectoryParams wrapped = params;
                wrapped.organization = inner;
                return std::make_unique<TracedDirectory>(wrapped, trace);
            });
    }
    return name;
}

} // namespace perfbench
