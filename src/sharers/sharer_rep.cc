#include "sharers/sharer_rep.hh"

#include <array>

namespace cdir {

namespace {

/** One entry's words plus the codec that reads them. */
class CodecRep final : public SharerRep
{
  public:
    CodecRep(SharerFormat format, std::size_t num_caches)
        : codec(format, num_caches)
    {}

    void add(CacheId cache) override { codec.add(entry.data(), cache); }
    bool
    remove(CacheId cache) override
    {
        return codec.remove(entry.data(), cache);
    }
    bool
    mightContain(CacheId cache) const override
    {
        return codec.mightContain(entry.data(), cache);
    }
    void
    invalidationTargets(DynamicBitset &out) const override
    {
        codec.targets(entry.data(), out);
    }
    std::size_t count() const override { return codec.count(entry.data()); }
    bool precise() const override { return codec.precise(entry.data()); }
    unsigned
    storageBits() const override
    {
        return codec.storageBits(entry.data());
    }
    std::size_t
    memoryBytes() const override
    {
        return sizeof(*this) + codec.spillBytes();
    }
    void clear() override { codec.clear(entry.data()); }

  private:
    SharerCodec codec;
    std::array<SharerCodec::Word, SharerCodec::kMaxWords> entry{};
};

} // namespace

std::unique_ptr<SharerRep>
makeSharerRep(SharerFormat format, std::size_t num_caches)
{
    return std::make_unique<CodecRep>(format, num_caches);
}

} // namespace cdir
