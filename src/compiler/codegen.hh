/**
 * @file
 * The compiler's code-generation phase (Section 5.2.2): lowers one
 * NTM time step to per-tile Manna programs, using the blocking and
 * ordering decisions from the mapping phase and the parameterized
 * kernel routines of codegen_util.hh (KernelRoutines), which the DNC
 * generator (dnc_codegen.hh) shares.
 *
 * The generated step is a sequence of bulk-synchronous segments, one
 * per paper kernel group:
 *
 *  1. heads          - broadcast hidden state; per head: blocked
 *                      row-dot VMM of the tile's W_h row slice,
 *                      assemble the full raw parameter vector with a
 *                      reduce+broadcast, and decode (squash) it;
 *  2. key-similarity - one blocked DMAT sweep over the local memory
 *                      slice computing per-row dots for every head
 *                      (scratchpad blocks reused across heads) plus
 *                      row norms, then the cosine normalization;
 *  3. addressing     - per head: content weighting (max/sum reduces
 *                      for a numerically stable softmax),
 *                      interpolation, shift (boundary halo exchange
 *                      via reduce+broadcast, then circular
 *                      convolution), sharpening;
 *  4. soft-read      - blocked column-accumulate sweep shared across
 *                      read heads; per-head reduce produces the final
 *                      read vectors at the tree root;
 *  5. soft-write     - per write head: blocked read-modify-write
 *                      sweep applying the erase/add update.
 */

#ifndef MANNA_COMPILER_CODEGEN_HH
#define MANNA_COMPILER_CODEGEN_HH

#include "compiler/compiled_model.hh"

namespace manna::compiler
{

/**
 * Generate the compiled model for one MANN on one Manna
 * configuration. @p mapping must come from computeMapping() on the
 * same pair.
 */
CompiledModel generateCode(const mann::MannConfig &mann,
                           const arch::MannaConfig &arch,
                           const Mapping &mapping);

/** Scalar-slot offsets within each head's VecBuf scalar block. */
enum ScalarSlot : std::uint32_t
{
    kSlotBeta = 0,
    kSlotGate = 1,
    kSlotOneMinusGate = 2,
    kSlotGamma = 3,
    kSlotKeyNorm = 4,
    kSlotMax = 5,
    kSlotSum = 6,
    kSlotRecip = 7,
    kSlotTmp = 8,
    kScalarSlots = 16,
};

} // namespace manna::compiler

#endif // MANNA_COMPILER_CODEGEN_HH
