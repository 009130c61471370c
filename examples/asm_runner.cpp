/**
 * @file
 * Assembly playground: write Manna assembly, run it on a single
 * DiffMem tile, and inspect the timing, energy, and memory effects —
 * the fastest way to understand the ISA and the tile's pipeline
 * model (double-buffered DMA, banked VMM, serial SFU).
 *
 *   ./build/examples/asm_runner            # run the built-in demo
 *   ./build/examples/asm_runner file=prog.masm
 *   ./build/examples/asm_runner file=prog.mpb     # binary container
 *   ./build/examples/asm_runner file=prog.masm emit=prog.mpb
 *
 * file= accepts either `.masm` assembly text or a binary program
 * container (docs/ISA.md "Binary encoding"), sniffed by magic;
 * emit=PATH writes the assembled program as a binary container
 * (inspect it with manna-objdump).
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "arch/energy_model.hh"
#include "common/config.hh"
#include "common/fileio.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stat_registry.hh"
#include "isa/assembler.hh"
#include "isa/binary.hh"
#include "sim/tile.hh"
#include "sim/trace.hh"

using namespace manna;

namespace
{

// A demo program: stream two blocks of a matrix from the
// Matrix-Buffer through the scratchpad, computing a column-
// accumulated vector-matrix product (the soft-read pattern), then
// apply a softmax over the result with the serial SFU.
const char *kDemo = R"(
# out[0:32] = softmax( w[0:4] x M[4x32 x 2 blocks] )
fill d=vbuf[0:32]
loop 2
    dma.load.m rows=4 pitch=32 d=mspad[0:128] a=mbuf[0:128,128]
    dma.load.v d=vspad[0:4] a=vbuf[64:4,4]
    vmm.acc d=vbuf[0:32] a=vspad[0:4] b=mspad[0:128]
endloop
sfu.accmax d=vbuf[40:1] a=vbuf[0:32]
ew.sub d=vbuf[0:32] a=vbuf[0:32] b=vbuf[40:1]
sfu.exp d=vbuf[0:32] a=vbuf[0:32]
sfu.accsum d=vbuf[41:1] a=vbuf[0:32]
sfu.recip d=vbuf[42:1] a=vbuf[41:1]
ew.mul d=vbuf[0:32] a=vbuf[0:32] b=vbuf[42:1]
halt
)";

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    std::string text = kDemo;
    const std::string path = cfg.getString("file");
    if (!path.empty()) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            fatal("cannot open '%s'", path.c_str());
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }

    isa::Program program;
    if (isa::looksLikeProgram(text)) {
        std::string error;
        if (!isa::decodeProgram(text, program, &error))
            fatal("invalid binary program '%s': %s", path.c_str(),
                  error.c_str());
    } else {
        const isa::AssembleResult result = isa::assemble(text);
        if (!result.ok())
            fatal("assembly error at line %zu: %s", result.errorLine,
                  result.error.c_str());
        program = result.program;
    }
    std::printf("assembled %zu instructions (%llu dynamic):\n\n%s\n",
                program.size(),
                static_cast<unsigned long long>(
                    program.dynamicLength()),
                program.disassemble().c_str());

    const std::string emit = cfg.getString("emit");
    if (!emit.empty()) {
        if (!writeFileAtomic(emit, isa::encodeProgram(program)))
            fatal("cannot write '%s'", emit.c_str());
        std::printf("emitted binary container: %s\n", emit.c_str());
    }

    // One tile with generous functional storage.
    const arch::MannaConfig hw;
    const arch::EnergyModel energy(hw);
    sim::DiffMemTile tile(
        hw, energy, 0,
        sim::TileLayoutSizes{1 << 16, hw.matrixScratchpadBytes / 4,
                             1 << 14, hw.vectorScratchpadBytes / 4});

    // Seed input data for the demo: an 8x32 matrix (two 4-row
    // blocks) and an 8-entry weight vector.
    Rng rng(7);
    std::vector<float> mat(8 * 32);
    for (auto &v : mat)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    tile.memory().writeRange(isa::Space::MatBuf, 0, mat);
    std::vector<float> w(8);
    for (auto &v : w)
        v = static_cast<float>(rng.uniform(0.0, 1.0));
    tile.memory().writeRange(isa::Space::VecBuf, 64, w);

    sim::TraceLogger trace;
    tile.setTraceLogger(&trace);
    tile.setProgram(&program);
    const sim::RunStatus status = sim::runAndCompute(tile);
    if (status == sim::RunStatus::AtComm)
        fatal("program blocked on a communication instruction; "
              "asm_runner drives a single tile only");

    std::printf("=== timing/energy ===\n");
    std::printf("cycles: %llu   energy: %.1f pJ\n",
                static_cast<unsigned long long>(tile.quiesceTime()),
                tile.energyPj());
    StatRegistry counters;
    tile.counters().exportStats(counters, "tile0");
    std::printf("%s\n", counters.render().c_str());

    std::printf("=== trace ===\n%s\n", trace.render(40).c_str());

    const auto out =
        tile.memory().readRange(isa::Space::VecBuf, 0, 32);
    float sum = 0.0f;
    std::printf("=== result vbuf[0:32] ===\n");
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::printf("%7.4f%s", out[i], (i + 1) % 8 ? " " : "\n");
        sum += out[i];
    }
    std::printf("sum = %.6f (softmax => 1.0)\n", sum);
    return 0;
}
