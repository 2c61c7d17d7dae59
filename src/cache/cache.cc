#include "cache/cache.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

#include "common/bit_util.hh"

namespace cdir {

SetAssocCache::SetAssocCache(const CacheConfig &config) : cfg(config)
{
    assert(isPowerOfTwo(cfg.numSets));
    assert(cfg.assoc >= 1 && cfg.assoc <= kKernelWidth);
    indexMask = cfg.numSets - 1;
    const std::size_t total = cfg.numSets * cfg.assoc;
    addrs.assign(total, 0);
    valids.assign(total, 0);
    dirtys.assign(total, 0);
    // Every set starts ranked in way order: write set 0, then double
    // the filled prefix until it covers all sets.
    ranks.resize(total);
    std::iota(ranks.begin(), ranks.begin() + cfg.assoc, std::uint8_t{0});
    for (std::size_t filled = cfg.assoc; filled < total; filled *= 2)
        std::memcpy(&ranks[filled], ranks.data(),
                    std::min(filled, total - filled));
}

std::size_t
SetAssocCache::setIndex(BlockAddr addr) const
{
    return static_cast<std::size_t>(addr) & indexMask;
}

std::size_t
SetAssocCache::findFrame(BlockAddr addr) const
{
    const std::size_t base = setIndex(addr) * cfg.assoc;
    const std::size_t w =
        findTag(&addrs[base], &valids[base], cfg.assoc, addr);
    return w == cfg.assoc ? nframe : base + w;
}

void
SetAssocCache::touch(std::size_t base, std::size_t f)
{
    // Every frame more recent than f ages by one; f becomes rank 0.
    // Branch-free over the set, so the compiler vectorizes it.
    std::uint8_t *set = &ranks[base];
    const std::uint8_t old = ranks[f];
    for (unsigned w = 0; w < cfg.assoc; ++w)
        set[w] += set[w] < old;
    ranks[f] = 0;
}

CacheAccessResult
SetAssocCache::access(BlockAddr addr, bool is_write)
{
    CacheAccessResult result;
    const std::size_t base = setIndex(addr) * cfg.assoc;

    const std::size_t w =
        findTag(&addrs[base], &valids[base], cfg.assoc, addr);
    if (w != cfg.assoc) {
        const std::size_t f = base + w;
        result.hit = true;
        if (is_write && dirtys[f] == 0) {
            result.writeHitClean = true;
            dirtys[f] = 1;
        }
        touch(base, f);
        return result;
    }

    // Miss: the first vacant way wins, else the LRU frame. Every valid
    // frame was touched when it was filled, so once the set is full the
    // ranks order all its frames by last use.
    std::size_t victim = base + cdir::findVacant(&valids[base], cfg.assoc);
    if (victim == base + cfg.assoc)
        victim = static_cast<const std::uint8_t *>(std::memchr(
                     &ranks[base], cfg.assoc - 1, cfg.assoc)) -
                 ranks.data();

    if (valids[victim] != 0) {
        result.victim = addrs[victim];
        result.victimDirty = dirtys[victim] != 0;
    } else {
        ++resident;
    }

    addrs[victim] = addr;
    valids[victim] = 1;
    dirtys[victim] = is_write ? 1 : 0;
    touch(base, victim);
    return result;
}

bool
SetAssocCache::contains(BlockAddr addr) const
{
    return findFrame(addr) != nframe;
}

bool
SetAssocCache::isDirty(BlockAddr addr) const
{
    const std::size_t f = findFrame(addr);
    return f != nframe && dirtys[f] != 0;
}

bool
SetAssocCache::invalidate(BlockAddr addr)
{
    const std::size_t f = findFrame(addr);
    if (f != nframe) {
        valids[f] = 0;
        dirtys[f] = 0;
        assert(resident > 0);
        --resident;
        return true;
    }
    return false;
}

void
SetAssocCache::cleanse(BlockAddr addr)
{
    const std::size_t f = findFrame(addr);
    if (f != nframe)
        dirtys[f] = 0;
}

std::vector<BlockAddr>
SetAssocCache::residentAddresses() const
{
    std::vector<BlockAddr> out;
    out.reserve(resident);
    for (std::size_t i = 0; i < addrs.size(); ++i)
        if (valids[i] != 0)
            out.push_back(addrs[i]);
    return out;
}

} // namespace cdir
