#include "sharers/sharer_codec.hh"

#include <bit>

#include "common/bit_util.hh"

namespace cdir {

namespace {

/** Word index of inline pair @p i, from a wide entry's header word. */
std::size_t
pairIndex(std::uint64_t header, unsigned i)
{
    return (header >> (16 * i)) & 0xffff;
}

} // namespace

unsigned
sharerStorageBits(SharerFormat format, std::size_t num_caches)
{
    switch (format) {
      case SharerFormat::FullVector:
      case SharerFormat::Compressed: // word-packed full vector
        return static_cast<unsigned>(num_caches);
      case SharerFormat::CoarseVector:
        return 2 * bitsToName(num_caches);
      case SharerFormat::Hierarchical: {
        // Primary-entry cost: root vector sized one bit per cluster of
        // isqrtCeil(N) caches (second-level entries live at secondary
        // locations and are charged separately by the model). Exact
        // integer math, so the geometry is identical on every platform.
        const auto cluster =
            static_cast<std::size_t>(isqrtCeil(num_caches));
        return static_cast<unsigned>((num_caches + cluster - 1) / cluster);
      }
    }
    return 0;
}

SharerCodec::SharerCodec(SharerFormat format, std::size_t num_caches)
    : fmt(format),
      caches(num_caches),
      wide(num_caches > 64),
      coarse(format == SharerFormat::CoarseVector),
      simple(!wide && !coarse),
      stride((wide ? kInlineWords + 1 : 1) + (coarse ? 1 : 0)),
      chunkWords((num_caches + 63) / 64),
      groupSize(1),
      clusterSize(static_cast<std::size_t>(isqrtCeil(num_caches)))
{
    assert(num_caches >= 1);
    // Inline word indices are 16 bits wide.
    assert(chunkWords <= 0xffff);
    if (coarse) {
        assert(num_caches >= 2);
        const std::size_t groups =
            std::min<std::size_t>(sharerStorageBits(format, num_caches),
                                  num_caches);
        groupSize = (num_caches + groups - 1) / groups;
    }
}

SharerCodec::Word *
SharerCodec::chunk(const Word *entry)
{
    return &arena[entry[0] * chunkWords];
}

const SharerCodec::Word *
SharerCodec::chunk(const Word *entry) const
{
    return &arena[entry[0] * chunkWords];
}

template <typename Fn>
void
SharerCodec::forEachWord(const Word *entry, Fn &&fn) const
{
    if (!wide) {
        if (entry[0] != 0)
            fn(std::size_t{0}, entry[0]);
    } else if (entry[kInlineWords] == kSpilled) {
        const Word *words = chunk(entry);
        for (std::size_t i = 0; i < chunkWords; ++i)
            if (words[i] != 0)
                fn(i, words[i]);
    } else {
        for (unsigned i = 0; i < kInlineWords; ++i)
            if (entry[i] != 0)
                fn(pairIndex(entry[kInlineWords], i), entry[i]);
    }
}

template <typename Fn>
void
SharerCodec::forEachSharer(const Word *entry, Fn &&fn) const
{
    forEachWord(entry, [&](std::size_t index, Word word) {
        for (; word != 0; word &= word - 1)
            fn(index * 64 +
               static_cast<std::size_t>(std::countr_zero(word)));
    });
}

bool
SharerCodec::setBit(Word *entry, CacheId cache)
{
    assert(cache < caches);
    const std::size_t index = cache >> 6;
    const Word bit = Word{1} << (cache & 63);
    Word *word = nullptr;
    if (!wide) {
        word = &entry[0];
    } else if (entry[kInlineWords] == kSpilled) {
        word = &chunk(entry)[index];
    } else {
        Word &header = entry[kInlineWords];
        unsigned vacant = kInlineWords;
        for (unsigned i = 0; i < kInlineWords && word == nullptr; ++i) {
            if (entry[i] == 0)
                vacant = std::min(vacant, i);
            else if (pairIndex(header, i) == index)
                word = &entry[i];
        }
        if (word == nullptr && vacant < kInlineWords) {
            header |= Word{index} << (16 * vacant);
            entry[vacant] = bit;
            return true;
        }
        if (word == nullptr) {
            spill(entry);
            word = &chunk(entry)[index];
        }
    }
    const bool added = (*word & bit) == 0;
    *word |= bit;
    return added;
}

void
SharerCodec::clearBit(Word *entry, CacheId cache)
{
    assert(cache < caches);
    const std::size_t index = cache >> 6;
    const Word bit = Word{1} << (cache & 63);
    if (!wide) {
        entry[0] &= ~bit;
    } else if (entry[kInlineWords] == kSpilled) {
        Word *words = chunk(entry);
        words[index] &= ~bit;
        if (std::all_of(words, words + chunkWords,
                        [](Word w) { return w == 0; }))
            clear(entry);
    } else {
        Word &header = entry[kInlineWords];
        for (unsigned i = 0; i < kInlineWords; ++i) {
            if (entry[i] != 0 && pairIndex(header, i) == index) {
                entry[i] &= ~bit;
                if (entry[i] == 0)
                    header &= ~(Word{0xffff} << (16 * i));
                return;
            }
        }
    }
}

bool
SharerCodec::none(const Word *entry) const
{
    if (!wide)
        return entry[0] == 0;
    // A spilled entry is never empty: its chunk goes back when the last
    // sharer leaves.
    return std::all_of(entry, entry + kInlineWords + 1,
                       [](Word w) { return w == 0; });
}

void
SharerCodec::spill(Word *entry)
{
    std::size_t c;
    if (!freeChunks.empty()) {
        c = freeChunks.back();
        freeChunks.pop_back();
    } else {
        c = arena.size() / chunkWords;
        arena.resize(arena.size() + chunkWords);
    }
    Word *words = &arena[c * chunkWords];
    std::fill_n(words, chunkWords, Word{0});
    forEachWord(entry, [&](std::size_t index, Word word) {
        words[index] = word;
    });
    std::fill_n(entry, kInlineWords, Word{0});
    entry[0] = c;
    entry[kInlineWords] = kSpilled;
}

void
SharerCodec::addSlow(Word *entry, CacheId cache)
{
    if (!setBit(entry, cache) || !coarse)
        return;
    Word &groups = entry[stride - 1];
    if (groups != 0) {
        groups |= Word{1} << (cache / groupSize);
    } else if (count(entry) > kPointers) {
        // Overflow: the pointer bits become a coarse group vector.
        forEachSharer(entry, [&](std::size_t sharer) {
            groups |= Word{1} << (sharer / groupSize);
        });
    }
}

bool
SharerCodec::removeSlow(Word *entry, CacheId cache)
{
    clearBit(entry, cache);
    if (!none(entry))
        return false;
    // Empty: a coarse entry resets to precise pointer mode.
    std::fill_n(entry, stride, Word{0});
    return true;
}

void
SharerCodec::targets(const Word *entry, DynamicBitset &out) const
{
    out.reinit(caches);
    if (!precise(entry)) {
        Word groups = entry[stride - 1];
        for (; groups != 0; groups &= groups - 1) {
            const std::size_t lo =
                static_cast<std::size_t>(std::countr_zero(groups)) *
                groupSize;
            out.setRange(lo, std::min(lo + groupSize, caches));
        }
        return;
    }
    forEachWord(entry, [&](std::size_t index, Word word) {
        out.assignWord(index, word);
    });
}

std::size_t
SharerCodec::count(const Word *entry) const
{
    std::size_t total = 0;
    forEachWord(entry, [&](std::size_t, Word word) {
        total += static_cast<std::size_t>(std::popcount(word));
    });
    return total;
}

bool
SharerCodec::mightContain(const Word *entry, CacheId cache) const
{
    if (cache >= caches)
        return false;
    if (!precise(entry))
        return (entry[stride - 1] >> (cache / groupSize)) & 1;
    bool found = false;
    forEachWord(entry, [&](std::size_t index, Word word) {
        found |= index == (cache >> 6) && ((word >> (cache & 63)) & 1);
    });
    return found;
}

unsigned
SharerCodec::storageBits(const Word *entry) const
{
    const unsigned base = sharerStorageBits(fmt, caches);
    if (fmt != SharerFormat::Hierarchical)
        return base;
    // Root vector plus one leaf vector per cluster holding a sharer.
    DynamicBitset leaves(base);
    forEachSharer(entry, [&](std::size_t sharer) {
        leaves.set(sharer / clusterSize);
    });
    return static_cast<unsigned>(base + leaves.count() * clusterSize);
}

} // namespace cdir
