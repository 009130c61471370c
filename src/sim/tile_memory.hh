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

    /** Direct span access for the interpreter's inner loops. */
    const float *span(isa::Space space, std::uint32_t addr,
                      std::uint32_t len) const;
    float *span(isa::Space space, std::uint32_t addr, std::uint32_t len);

    std::size_t words(isa::Space space) const;

    /** Zero every space, keeping its size (and storage). */
    void clear();

  private:
    std::vector<float> &storage(isa::Space space);
    const std::vector<float> &storage(isa::Space space) const;

    std::vector<float> matBuf_;
    std::vector<float> matSpad_;
    std::vector<float> vecBuf_;
    std::vector<float> vecSpad_;
};

} // namespace manna::sim

#endif // MANNA_SIM_TILE_MEMORY_HH
