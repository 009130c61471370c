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
