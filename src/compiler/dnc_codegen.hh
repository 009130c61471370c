/**
 * @file
 * DNC-on-Manna compiler. The paper argues Manna's programmability
 * covers "a broad class of MANNs (e.g., NTMs and DNCs)"; this module
 * demonstrates it by lowering the Differentiable Neural Computer's
 * step — interface projection, usage/allocation, content weighting,
 * soft write, temporal-link update, forward/backward link products,
 * read-mode mixing, and soft reads — onto the same ISA, tiles, and
 * NoC used for the NTM, with the NTM generator's kernel routines
 * (KernelRoutines, codegen_util.hh): projection, key similarity,
 * content softmax, soft write and soft read are one definition each.
 *
 * Distribution follows the NTM mapping (MDistrib = 1): each tile owns
 * a row slice of the external memory *and* the matching row slice of
 * the N x N temporal link matrix. The only operation that does not
 * distribute is the allocation free-list scan, which runs at the
 * Controller tile: tiles reduce their usage slices to the root, the
 * root applies the scan, and the result broadcasts back (the
 * UsageToAllocation communication tag).
 */

#ifndef MANNA_COMPILER_DNC_CODEGEN_HH
#define MANNA_COMPILER_DNC_CODEGEN_HH

#include "compiler/compiled_model.hh"
#include "mann/dnc.hh"

namespace manna::compiler
{

/** Addresses the DNC chip needs to load/inspect model state. */
struct DncLayout : BufferWords
{
    RowPartition memory;     ///< memN x memM slice in MatBuf
    RowPartition link;       ///< memN x memN slice in MatBuf
    RowPartition interfaceW; ///< interfaceDim x (hidden+1) in MatBuf

    /** VecBuf address of the local usage slice (persistent). */
    std::uint32_t usageBase = 0;
    /** VecBuf address of the local write-weight slice (persistent). */
    std::uint32_t writeWBase = 0;
    /** VecBuf address of the full precedence vector (persistent,
     * replicated). */
    std::uint32_t precedenceBase = 0;
    /** Per read head: local current read-weight slice and the full
     * previous read weights (persistent). */
    std::vector<std::uint32_t> wReadLocalBase;
    std::vector<std::uint32_t> wPrevReadFullBase;
};

/** Compiled DNC artifact. */
struct CompiledDnc : CompiledProgram
{
    mann::DncConfig dncCfg;
    DncLayout layout;
};

/** Compile a DNC for a Manna configuration. */
CompiledDnc compileDnc(const mann::DncConfig &dnc,
                       const arch::MannaConfig &arch);

} // namespace manna::compiler

#endif // MANNA_COMPILER_DNC_CODEGEN_HH
