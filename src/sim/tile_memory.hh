/**
 * @file
 * Functional storage for one DiffMem tile's memory spaces.
 *
 * The simulator separates *functional* state (the FP32 contents of
 * each buffer, held here) from *timing* state (resource timelines,
 * held in the tile). Sizes are set by the compiled layout; capacity
 * violations against the hardware configuration are reported by the
 * compiler, not here.
 */

#ifndef MANNA_SIM_TILE_MEMORY_HH
#define MANNA_SIM_TILE_MEMORY_HH

#include <vector>

#include "common/logging.hh"
#include "isa/isa.hh"

namespace manna::sim
{

/**
 * Word-addressed FP32 storage for the four tile memory spaces.
 */
class TileMemory
{
  public:
    /** Construct with per-space word counts. */
    TileMemory(std::size_t matBufWords, std::size_t matSpadWords,
               std::size_t vecBufWords, std::size_t vecSpadWords);

    /** Read one word (bounds-checked). */
    float read(isa::Space space, std::uint32_t addr) const;

    /** Write one word (bounds-checked). */
    void write(isa::Space space, std::uint32_t addr, float value);

    /** Bulk copy out of a space. */
    std::vector<float> readRange(isa::Space space, std::uint32_t addr,
                                 std::uint32_t len) const;

    /** Bulk copy into a space. */
    void writeRange(isa::Space space, std::uint32_t addr,
                    const std::vector<float> &values);

    /** Direct span access (bounds-checked) for the interpreter's inner
     * loops: inline, since every instruction resolves two or three. */
    const float *span(isa::Space space, std::uint32_t addr,
                      std::uint32_t len) const
    {
        const auto &s = storage(space);
        MANNA_ASSERT(static_cast<std::size_t>(addr) + len <= s.size(),
                     "%s span [%u, %u) out of %zu", toString(space),
                     addr, addr + len, s.size());
        return s.data() + addr;
    }
    float *span(isa::Space space, std::uint32_t addr, std::uint32_t len)
    {
        return const_cast<float *>(
            const_cast<const TileMemory *>(this)->span(space, addr, len));
    }

    std::size_t words(isa::Space space) const;

    /** Zero every space, keeping its size (and storage). */
    void clear();

  private:
    const std::vector<float> &storage(isa::Space space) const
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
    std::vector<float> &storage(isa::Space space)
    {
        return const_cast<std::vector<float> &>(
            const_cast<const TileMemory *>(this)->storage(space));
    }

    std::vector<float> matBuf_;
    std::vector<float> matSpad_;
    std::vector<float> vecBuf_;
    std::vector<float> vecSpad_;
};

} // namespace manna::sim

#endif // MANNA_SIM_TILE_MEMORY_HH
