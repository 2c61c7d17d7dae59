#include "hash/skewing_hash.hh"

#include <cassert>
#include <stdexcept>
#include <string>

#include "common/bit_util.hh"

namespace cdir {

namespace {

/**
 * Primitive-polynomial feedback masks for Galois LFSRs of width 2..24.
 * Using a primitive polynomial makes sigma a full-period bijection, the
 * property Seznec's dispersion analysis assumes. Widths beyond 24 are not
 * needed: 2^24 sets per way at 64B blocks would be a gigabyte-scale
 * directory slice.
 */
constexpr std::uint64_t feedbackTable[] = {
    0x0,      0x0,      0x3,      0x6,      0xc,       0x14,     0x30,
    0x60,     0xb8,     0x110,    0x240,    0x500,     0xe08,    0x1c80,
    0x3802,   0x6000,   0xd008,   0x12000,  0x20400,   0x72000,  0x90000,
    0x140000, 0x300000, 0x420000, 0xe10000,
};

} // namespace

SkewingHashFamily::SkewingHashFamily(unsigned num_ways,
                                     std::size_t sets_per_way)
    : ways(num_ways), sets(sets_per_way)
{
    if (num_ways == 0)
        throw std::invalid_argument("skewing hash family needs >= 1 way");
    if (!isPowerOfTwo(sets_per_way) || sets_per_way < 4 ||
        sets_per_way > (std::size_t{1} << 24))
        throw std::invalid_argument(
            "skewing hash family needs a power-of-two 4..16M sets per way, "
            "got " + std::to_string(sets_per_way));
    indexBits = floorLog2(sets_per_way);
    feedback = feedbackTable[indexBits];
}

std::uint64_t
SkewingHashFamily::sigma(std::uint64_t v) const
{
    // The shifted-out bit selects the feedback through an all-ones or
    // all-zero mask: no data-dependent branch.
    return (v >> 1) ^ (feedback & -(v & 1));
}

std::uint64_t
SkewingHashFamily::sigmaInv(std::uint64_t v) const
{
    // Forward step: v' = (v >> 1) ^ (v&1 ? F : 0). The feedback mask has
    // its top bit set, so the shifted-out bit is the top bit of v': set
    // means the feedback was applied (lsb was 1).
    const std::uint64_t top = (v >> (indexBits - 1)) & 1;
    return (((v ^ (feedback & -top)) << 1) | top) & lowMask(indexBits);
}

std::size_t
SkewingHashFamily::index(unsigned way, Tag tag) const
{
    assert(way < ways);
    std::uint64_t a1 = extractBits(tag, 0, indexBits);
    std::uint64_t a2 = extractBits(tag, indexBits, indexBits);
    std::uint64_t a3 = extractBits(tag, 2 * indexBits, indexBits);
    // Apply way-distinct powers of the bijection to each chunk and fold.
    for (unsigned i = 0; i < way; ++i)
        a1 = sigma(a1);
    for (unsigned i = 0; i < way; ++i)
        a2 = sigmaInv(a2);
    return static_cast<std::size_t>((a1 ^ a2 ^ a3) & lowMask(indexBits));
}

void
SkewingHashFamily::indexAll(Tag tag, std::size_t *out) const
{
    // f_w = sigma^w(a1) ^ sigmaInv^w(a2) ^ a3: step the bijections once
    // per way instead of recomputing each power from scratch, so the
    // whole probe pays O(ways) LFSR steps and one virtual call.
    std::uint64_t a1 = extractBits(tag, 0, indexBits);
    std::uint64_t a2 = extractBits(tag, indexBits, indexBits);
    const std::uint64_t a3 = extractBits(tag, 2 * indexBits, indexBits);
    const std::uint64_t mask = lowMask(indexBits);
    out[0] = static_cast<std::size_t>((a1 ^ a2 ^ a3) & mask);
    for (unsigned w = 1; w < ways; ++w) {
        a1 = sigma(a1);
        a2 = sigmaInv(a2);
        out[w] = static_cast<std::size_t>((a1 ^ a2 ^ a3) & mask);
    }
}

} // namespace cdir
