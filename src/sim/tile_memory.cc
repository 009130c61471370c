#include "tile_memory.hh"

#include <algorithm>

#include "common/logging.hh"

namespace manna::sim
{

TileMemory::TileMemory(std::size_t matBufWords, std::size_t matSpadWords,
                       std::size_t vecBufWords, std::size_t vecSpadWords)
    : matBuf_(matBufWords, 0.0f), matSpad_(matSpadWords, 0.0f),
      vecBuf_(vecBufWords, 0.0f), vecSpad_(vecSpadWords, 0.0f)
{
}

std::vector<float> &
TileMemory::storage(isa::Space space)
{
    switch (space) {
      case isa::Space::MatBuf:
        return matBuf_;
      case isa::Space::MatSpad:
        return matSpad_;
      case isa::Space::VecBuf:
        return vecBuf_;
      case isa::Space::VecSpad:
        return vecSpad_;
      case isa::Space::None:
        break;
    }
    panic("invalid memory space");
}

const std::vector<float> &
TileMemory::storage(isa::Space space) const
{
    return const_cast<TileMemory *>(this)->storage(space);
}

float
TileMemory::read(isa::Space space, std::uint32_t addr) const
{
    const auto &s = storage(space);
    MANNA_ASSERT(addr < s.size(), "%s read at %u out of %zu",
                 toString(space), addr, s.size());
    return s[addr];
}

void
TileMemory::write(isa::Space space, std::uint32_t addr, float value)
{
    auto &s = storage(space);
    MANNA_ASSERT(addr < s.size(), "%s write at %u out of %zu",
                 toString(space), addr, s.size());
    s[addr] = value;
}

std::vector<float>
TileMemory::readRange(isa::Space space, std::uint32_t addr,
                      std::uint32_t len) const
{
    const float *p = span(space, addr, len);
    return std::vector<float>(p, p + len);
}

void
TileMemory::writeRange(isa::Space space, std::uint32_t addr,
                       const std::vector<float> &values)
{
    float *p = span(space, addr,
                    static_cast<std::uint32_t>(values.size()));
    std::copy(values.begin(), values.end(), p);
}

const float *
TileMemory::span(isa::Space space, std::uint32_t addr,
                 std::uint32_t len) const
{
    const auto &s = storage(space);
    MANNA_ASSERT(static_cast<std::size_t>(addr) + len <= s.size(),
                 "%s span [%u, %u) out of %zu", toString(space), addr,
                 addr + len, s.size());
    return s.data() + addr;
}

float *
TileMemory::span(isa::Space space, std::uint32_t addr, std::uint32_t len)
{
    const float *p =
        const_cast<const TileMemory *>(this)->span(space, addr, len);
    return const_cast<float *>(p);
}

std::size_t
TileMemory::words(isa::Space space) const
{
    return storage(space).size();
}

void
TileMemory::clear()
{
    for (auto *s : {&matBuf_, &matSpad_, &vecBuf_, &vecSpad_})
        std::fill(s->begin(), s->end(), 0.0f);
}

} // namespace manna::sim
