#include "binary.hh"

#include <cctype>
#include <cstring>

#include "common/hash.hh"
#include "common/strutil.hh"

namespace manna::isa
{

namespace
{

void
put32le(std::string &out, std::uint32_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void
put64le(std::string &out, std::uint64_t v)
{
    put32le(out, static_cast<std::uint32_t>(v & 0xffffffffu));
    put32le(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t
get32le(const std::string &data, std::size_t off)
{
    const auto b = [&](std::size_t i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(data[off + i]));
    };
    return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

std::uint64_t
get64le(const std::string &data, std::size_t off)
{
    return static_cast<std::uint64_t>(get32le(data, off)) |
           (static_cast<std::uint64_t>(get32le(data, off + 4)) << 32);
}

bool
fail(std::string *error, const char *what)
{
    if (error)
        *error = what;
    return false;
}

} // namespace

std::string
encodeProgram(const Program &program)
{
    // Payload first: the checksum rides in the header.
    std::string payload;
    payload.reserve(program.size() * kEncodedBytes);
    for (const Instruction &inst : program.instructions())
        encode(inst, payload);

    std::string out;
    out.reserve(kProgramHeaderBytes + payload.size());
    out.append(kProgramMagic, sizeof(kProgramMagic));
    put32le(out, kProgramVersion);
    put32le(out, static_cast<std::uint32_t>(kProgramHeaderBytes));
    put32le(out, static_cast<std::uint32_t>(kEncodedBytes));
    put32le(out, static_cast<std::uint32_t>(kMaxLoopDepth));
    put32le(out, static_cast<std::uint32_t>(program.size()));
    put64le(out, 0); // reserved, must be zero
    put64le(out, Fnv1a().bytes(payload.data(), payload.size()).value());
    out += payload;
    return out;
}

bool
decodeProgram(const std::string &data, Program &out, std::string *error)
{
    if (data.size() < kProgramHeaderBytes)
        return fail(error, "truncated header");
    if (std::memcmp(data.data(), kProgramMagic,
                    sizeof(kProgramMagic)) != 0)
        return fail(error, "bad magic (not a Manna program)");
    if (get32le(data, 4) != kProgramVersion)
        return fail(error, "unsupported container version");
    if (get32le(data, 8) != kProgramHeaderBytes)
        return fail(error, "bad header size");
    if (get32le(data, 12) != kEncodedBytes)
        return fail(error, "bad instruction record size");
    if (get32le(data, 16) != kMaxLoopDepth)
        return fail(error, "bad loop-depth limit");
    const std::uint32_t count = get32le(data, 20);
    if (get64le(data, 24) != 0)
        return fail(error, "nonzero reserved field");
    if (data.size() != kProgramHeaderBytes +
                           static_cast<std::size_t>(count) *
                               kEncodedBytes)
        return fail(error, "payload size does not match count");

    const std::uint64_t want = get64le(data, 32);
    const std::uint64_t got =
        Fnv1a()
            .bytes(data.data() + kProgramHeaderBytes,
                   data.size() - kProgramHeaderBytes)
            .value();
    if (want != got)
        return fail(error, "payload checksum mismatch");

    Program prog;
    for (std::uint32_t i = 0; i < count; ++i) {
        Instruction inst;
        if (!decode(data, kProgramHeaderBytes +
                              static_cast<std::size_t>(i) *
                                  kEncodedBytes,
                    inst)) {
            if (error)
                *error = strformat(
                    "malformed instruction record %u", i);
            return false;
        }
        prog.append(inst);
    }
    const std::string structural = prog.validate();
    if (!structural.empty()) {
        if (error)
            *error = "structurally invalid: " + structural;
        return false;
    }
    out = std::move(prog);
    return true;
}

bool
looksLikeProgram(const std::string &data)
{
    return data.size() >= sizeof(kProgramMagic) &&
           std::memcmp(data.data(), kProgramMagic,
                       sizeof(kProgramMagic)) == 0;
}

std::array<std::uint64_t, kNumOpcodes>
opcodeHistogram(const Program &program)
{
    std::array<std::uint64_t, kNumOpcodes> hist{};
    for (const Instruction &inst : program.instructions())
        ++hist[static_cast<std::size_t>(inst.op)];
    return hist;
}

std::string
hexdump(const std::string &data, std::size_t offset,
        std::size_t length)
{
    std::string out;
    const std::size_t end =
        length == std::string::npos
            ? data.size()
            : std::min(data.size(), offset + length);
    for (std::size_t line = offset; line < end; line += 16) {
        out += strformat("%08zx ", line);
        std::string ascii;
        for (std::size_t i = line; i < line + 16; ++i) {
            if (i % 8 == 0)
                out += ' ';
            if (i < end) {
                const unsigned char c =
                    static_cast<unsigned char>(data[i]);
                out += strformat("%02x ", c);
                ascii += std::isprint(c) ? static_cast<char>(c) : '.';
            } else {
                out += "   ";
            }
        }
        out += " |" + ascii + "|\n";
    }
    return out;
}

} // namespace manna::isa
