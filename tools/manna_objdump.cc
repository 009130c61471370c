/**
 * @file
 * manna-objdump: inspect (and produce) Manna binary program
 * containers (docs/FORMATS.md, docs/ISA.md "Binary encoding").
 *
 * The input is sniffed by magic:
 *  - "MNPR" — a single binary program container (isa/binary.hh):
 *    prints the header, a disassembly listing, a per-opcode
 *    histogram, and (with hex=1) a hexdump;
 *  - anything else — treated as `.masm` assembly text, assembled
 *    with isa::assemble(), then shown like a program container; with
 *    out=PATH the encoded container is also written, which makes the
 *    tool the textual->binary encoder.
 *
 * Knobs: file=PATH (required), list=/hist= (default 1), hex=
 * (default 0), out=PATH (write the binary program container).
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/config.hh"
#include "common/fileio.hh"
#include "common/logging.hh"
#include "isa/assembler.hh"
#include "isa/binary.hh"

using namespace manna;

namespace
{

void
printHistogram(const isa::Program &program)
{
    const auto hist = isa::opcodeHistogram(program);
    std::printf("opcode histogram (%zu static, %llu dynamic):\n",
                program.size(),
                static_cast<unsigned long long>(
                    program.dynamicLength()));
    for (std::size_t i = 0; i < hist.size(); ++i) {
        if (hist[i] == 0)
            continue;
        std::printf("  %-12s %llu\n",
                    isa::toString(static_cast<isa::Opcode>(i)),
                    static_cast<unsigned long long>(hist[i]));
    }
}

void
printProgram(const isa::Program &program, bool list, bool hist,
             bool hex)
{
    if (list)
        std::printf("%s", program.disassemble().c_str());
    if (hist)
        printHistogram(program);
    if (hex) {
        const std::string bytes = isa::encodeProgram(program);
        std::printf("hexdump (%zu bytes):\n%s", bytes.size(),
                    isa::hexdump(bytes).c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    const std::string path = cfg.getString("file");
    if (path.empty())
        fatal("usage: manna-objdump file=PROG[.mpb|.masm] "
              "[list=1] [hist=1] [hex=0] [out=PROG.mpb]");
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '%s'", path.c_str());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string data = buf.str();

    const bool list = cfg.getBool("list", true);
    const bool hist = cfg.getBool("hist", true);
    const bool hex = cfg.getBool("hex", false);
    const std::string out = cfg.getString("out");

    isa::Program program;
    if (isa::looksLikeProgram(data)) {
        std::string error;
        if (!isa::decodeProgram(data, program, &error))
            fatal("'%s': invalid program container: %s", path.c_str(),
                  error.c_str());
        std::printf("%s: Manna program container v%u "
                    "(%zu bytes, %zu instructions)\n",
                    path.c_str(), isa::kProgramVersion, data.size(),
                    program.size());
    } else {
        const isa::AssembleResult result = isa::assemble(data);
        if (!result.ok())
            fatal("'%s': assembly error at line %zu: %s",
                  path.c_str(), result.errorLine,
                  result.error.c_str());
        program = result.program;
        std::printf("%s: assembled %zu instructions\n", path.c_str(),
                    program.size());
    }
    printProgram(program, list, hist, hex);
    if (!out.empty()) {
        if (!writeFileAtomic(out, isa::encodeProgram(program)))
            fatal("cannot write '%s'", out.c_str());
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}
