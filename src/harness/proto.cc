#include "proto.hh"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/fault.hh"
#include "common/hash.hh"
#include "common/net.hh"
#include "common/strutil.hh"

namespace manna::harness::proto
{

namespace
{

void
putU16(std::string &out, std::uint16_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
}

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint16_t
getU16(const unsigned char *p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
getU32(const unsigned char *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t
getU64(const unsigned char *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/** Checksum over the first 12 header bytes plus the payload (the
 * checksum field itself is excluded by construction). */
std::uint64_t
frameChecksum(const std::string &head12, const std::string &payload)
{
    Fnv1a h;
    h.bytes(head12.data(), head12.size());
    h.bytes(payload.data(), payload.size());
    return h.value();
}

bool
validType(bool request, std::uint16_t t)
{
    if (request)
        return t >= 1 && t <= 6;
    return t >= 32 && t <= 39;
}

std::string
hexDouble(double v)
{
    return strformat("%a", v);
}

void
encodeMann(std::string &out, const mann::MannConfig &c)
{
    out += strformat(
        "mann v1 %zu %zu %zu %zu %u %zu %zu %zu %zu %zu %s",
        c.memN, c.memM, c.controllerLayers, c.controllerWidth,
        static_cast<unsigned>(c.controllerKind), c.inputDim,
        c.outputDim, c.numReadHeads, c.numWriteHeads, c.shiftRadius,
        hexDouble(static_cast<double>(c.similarityEpsilon)).c_str());
}

void
decodeMann(FieldReader &in, mann::MannConfig &c)
{
    in.expect("mann");
    in.expect("v1");
    c.memN = static_cast<std::size_t>(in.u64());
    c.memM = static_cast<std::size_t>(in.u64());
    c.controllerLayers = static_cast<std::size_t>(in.u64());
    c.controllerWidth = static_cast<std::size_t>(in.u64());
    const std::uint64_t kind = in.u64();
    if (in.ok() && kind > 1)
        in.fail(strformat("bad controller kind %llu",
                          static_cast<unsigned long long>(kind)));
    c.controllerKind = static_cast<mann::ControllerKind>(kind);
    c.inputDim = static_cast<std::size_t>(in.u64());
    c.outputDim = static_cast<std::size_t>(in.u64());
    c.numReadHeads = static_cast<std::size_t>(in.u64());
    c.numWriteHeads = static_cast<std::size_t>(in.u64());
    c.shiftRadius = static_cast<std::size_t>(in.u64());
    c.similarityEpsilon = static_cast<float>(in.f64());
}

void
encodeArch(std::string &out, const arch::MannaConfig &c)
{
    out += strformat(
        "arch v1 %zu %s %zu %zu %zu %zu %zu %zu %zu %zu %zu %zu %zu "
        "%zu %zu %zu %zu %zu %zu %zu %zu %zu %d %zu %s %s %s %d %d "
        "%zu %zu %d",
        c.numTiles, hexDouble(c.clockMhz).c_str(), c.emacsPerTile,
        c.rfWordsPerEmac, static_cast<std::size_t>(c.matrixBufferBytes),
        c.matrixBufferWidthWords,
        static_cast<std::size_t>(c.matrixScratchpadBytes),
        static_cast<std::size_t>(c.vectorBufferBytes),
        static_cast<std::size_t>(c.vectorScratchpadBytes),
        c.vectorDmaWidthWords, c.instMemEntries, c.sfusPerTile,
        c.sfuExpCycles, c.sfuPowCycles, c.sfuDivCycles,
        c.sfuSqrtCycles, c.sfuAccCycles, c.nocLinkWordsPerCycle,
        c.nocHopCycles, c.systolicRows, c.systolicCols,
        static_cast<std::size_t>(c.controllerBufferBytes),
        c.hasHbm ? 1 : 0, c.hbmModules,
        hexDouble(c.hbmBandwidthGBsPerModule).c_str(),
        hexDouble(c.hbmWattsPerModule).c_str(),
        hexDouble(c.hbmAreaMm2PerController).c_str(),
        c.hasDmat ? 1 : 0, c.hasEmac ? 1 : 0, c.elwisePenaltyNoEmac,
        c.noDmatConflictFactor, c.strictCapacity ? 1 : 0);
}

void
decodeArch(FieldReader &in, arch::MannaConfig &c)
{
    in.expect("arch");
    in.expect("v1");
    c.numTiles = static_cast<std::size_t>(in.u64());
    c.clockMhz = in.f64();
    c.emacsPerTile = static_cast<std::size_t>(in.u64());
    c.rfWordsPerEmac = static_cast<std::size_t>(in.u64());
    c.matrixBufferBytes = static_cast<std::size_t>(in.u64());
    c.matrixBufferWidthWords = static_cast<std::size_t>(in.u64());
    c.matrixScratchpadBytes = static_cast<std::size_t>(in.u64());
    c.vectorBufferBytes = static_cast<std::size_t>(in.u64());
    c.vectorScratchpadBytes = static_cast<std::size_t>(in.u64());
    c.vectorDmaWidthWords = static_cast<std::size_t>(in.u64());
    c.instMemEntries = static_cast<std::size_t>(in.u64());
    c.sfusPerTile = static_cast<std::size_t>(in.u64());
    c.sfuExpCycles = static_cast<std::size_t>(in.u64());
    c.sfuPowCycles = static_cast<std::size_t>(in.u64());
    c.sfuDivCycles = static_cast<std::size_t>(in.u64());
    c.sfuSqrtCycles = static_cast<std::size_t>(in.u64());
    c.sfuAccCycles = static_cast<std::size_t>(in.u64());
    c.nocLinkWordsPerCycle = static_cast<std::size_t>(in.u64());
    c.nocHopCycles = static_cast<std::size_t>(in.u64());
    c.systolicRows = static_cast<std::size_t>(in.u64());
    c.systolicCols = static_cast<std::size_t>(in.u64());
    c.controllerBufferBytes = static_cast<std::size_t>(in.u64());
    c.hasHbm = in.boolean();
    c.hbmModules = static_cast<std::size_t>(in.u64());
    c.hbmBandwidthGBsPerModule = in.f64();
    c.hbmWattsPerModule = in.f64();
    c.hbmAreaMm2PerController = in.f64();
    c.hasDmat = in.boolean();
    c.hasEmac = in.boolean();
    c.elwisePenaltyNoEmac = static_cast<std::size_t>(in.u64());
    c.noDmatConflictFactor = static_cast<std::size_t>(in.u64());
    c.strictCapacity = in.boolean();
}

} // namespace

// ---------------------------------------------------------------------
// FieldReader
// ---------------------------------------------------------------------

void
FieldReader::fail(const std::string &why)
{
    if (!failed_) {
        failed_ = true;
        err_ = why;
    }
}

std::string_view
FieldReader::token()
{
    if (failed_)
        return {};
    while (pos_ < s_.size() && s_[pos_] == ' ')
        ++pos_;
    if (pos_ >= s_.size()) {
        fail("unexpected end of payload");
        return {};
    }
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != ' ')
        ++pos_;
    return s_.substr(start, pos_ - start);
}

void
FieldReader::expect(const char *kw)
{
    const auto t = token();
    if (!failed_ && t != kw)
        fail(strformat("expected '%s', got '%.*s'", kw,
                       static_cast<int>(t.size()), t.data()));
}

std::uint64_t
FieldReader::u64()
{
    const auto t = token();
    if (failed_)
        return 0;
    errno = 0;
    char *end = nullptr;
    const std::string text(t);
    const std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
    if (errno != 0 || end == text.c_str() || *end != '\0') {
        fail(strformat("bad integer '%s'", text.c_str()));
        return 0;
    }
    return v;
}

std::int64_t
FieldReader::i64()
{
    const auto t = token();
    if (failed_)
        return 0;
    errno = 0;
    char *end = nullptr;
    const std::string text(t);
    const std::int64_t v = std::strtoll(text.c_str(), &end, 0);
    if (errno != 0 || end == text.c_str() || *end != '\0') {
        fail(strformat("bad integer '%s'", text.c_str()));
        return 0;
    }
    return v;
}

double
FieldReader::f64()
{
    const auto t = token();
    if (failed_)
        return 0.0;
    char *end = nullptr;
    const std::string text(t);
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') {
        fail(strformat("bad number '%s'", text.c_str()));
        return 0.0;
    }
    return v;
}

std::string
FieldReader::sized()
{
    if (failed_)
        return {};
    while (pos_ < s_.size() && s_[pos_] == ' ')
        ++pos_;
    const auto colon = s_.find(':', pos_);
    if (colon == std::string_view::npos) {
        fail("sized field lacks ':'");
        return {};
    }
    const auto lenText = std::string(s_.substr(pos_, colon - pos_));
    char *end = nullptr;
    const unsigned long len = std::strtoul(lenText.c_str(), &end, 10);
    if (end == lenText.c_str() || *end != '\0' ||
        colon + 1 + len > s_.size()) {
        fail(strformat("bad sized field length '%s'",
                       lenText.c_str()));
        return {};
    }
    std::string out(s_.substr(colon + 1, len));
    pos_ = colon + 1 + len;
    return out;
}

void
appendSized(std::string &out, std::string_view bytes)
{
    out += strformat("%zu:", bytes.size());
    out += bytes;
}

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

std::string
encodeFrame(const Frame &frame)
{
    std::string head;
    head.reserve(kHeaderBytes);
    putU32(head, frame.request ? kRequestMagic : kResponseMagic);
    putU16(head, kVersion);
    putU16(head, static_cast<std::uint16_t>(frame.type));
    putU32(head, static_cast<std::uint32_t>(frame.payload.size()));
    const std::uint64_t sum = frameChecksum(head, frame.payload);
    putU64(head, sum);
    return head + frame.payload;
}

ReadStatus
decodeFrame(std::string_view bytes, bool expectRequest, Frame *out,
            std::string *err)
{
    if (bytes.size() < kHeaderBytes)
        return ReadStatus::Torn;
    const auto *p =
        reinterpret_cast<const unsigned char *>(bytes.data());
    const std::uint32_t magic = getU32(p);
    const std::uint32_t want =
        expectRequest ? kRequestMagic : kResponseMagic;
    if (magic != want) {
        if (err)
            *err = strformat("bad frame magic 0x%08x", magic);
        return ReadStatus::Bad;
    }
    const std::uint16_t version = getU16(p + 4);
    if (version != kVersion) {
        if (err)
            *err = strformat("unsupported protocol version %u",
                             static_cast<unsigned>(version));
        return ReadStatus::Bad;
    }
    const std::uint16_t type = getU16(p + 6);
    const std::uint32_t len = getU32(p + 8);
    if (len > kMaxPayloadBytes || !validType(expectRequest, type)) {
        if (err)
            *err = strformat("bad frame (type=%u len=%u)",
                             static_cast<unsigned>(type), len);
        return ReadStatus::Bad;
    }
    if (bytes.size() < kHeaderBytes + len)
        return ReadStatus::Torn;
    const std::uint64_t stored = getU64(p + 12);
    const std::string head12(bytes.substr(0, 12));
    const std::string payload(bytes.substr(kHeaderBytes, len));
    if (frameChecksum(head12, payload) != stored) {
        if (err)
            *err = "frame checksum mismatch";
        return ReadStatus::Bad;
    }
    if (out) {
        out->request = expectRequest;
        out->type = static_cast<MsgType>(type);
        out->payload = payload;
    }
    return ReadStatus::Ok;
}

ReadStatus
readFrame(int fd, bool expectRequest, Frame *out, std::string *err)
{
    unsigned char head[kHeaderBytes];
    const std::size_t got = net::recvAll(fd, head, sizeof(head));
    if (got == 0)
        return ReadStatus::Eof;
    if (got < sizeof(head))
        return ReadStatus::Torn;
    const std::uint32_t magic = getU32(head);
    const std::uint32_t want =
        expectRequest ? kRequestMagic : kResponseMagic;
    if (magic != want) {
        if (err)
            *err = strformat("bad frame magic 0x%08x", magic);
        return ReadStatus::Bad;
    }
    const std::uint16_t version = getU16(head + 4);
    const std::uint16_t type = getU16(head + 6);
    const std::uint32_t len = getU32(head + 8);
    if (version != kVersion || len > kMaxPayloadBytes ||
        !validType(expectRequest, type)) {
        if (err)
            *err = strformat(
                "bad frame header (version=%u type=%u len=%u)",
                static_cast<unsigned>(version),
                static_cast<unsigned>(type), len);
        return ReadStatus::Bad;
    }
    std::string payload(len, '\0');
    if (len > 0 && net::recvAll(fd, payload.data(), len) < len)
        return ReadStatus::Torn;
    const std::uint64_t stored = getU64(head + 12);
    const std::string head12(reinterpret_cast<char *>(head), 12);
    if (frameChecksum(head12, payload) != stored) {
        if (err)
            *err = "frame checksum mismatch";
        return ReadStatus::Bad;
    }
    if (out) {
        out->request = expectRequest;
        out->type = static_cast<MsgType>(type);
        out->payload = std::move(payload);
    }
    return ReadStatus::Ok;
}

bool
writeFrame(int fd, const Frame &frame, bool allowTear)
{
    const std::string bytes = encodeFrame(frame);
    if (allowTear && fault::anyArmed() &&
        fault::shouldFire(fault::Site::ServerFrameTorn)) {
        // Torn-write chaos: half the frame goes out, then the
        // connection drops — the client must detect and resubmit.
        net::sendAll(fd, bytes.data(), bytes.size() / 2);
        return false;
    }
    return net::sendAll(fd, bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------
// Job codec
// ---------------------------------------------------------------------

std::string
encodeJob(const SweepJob &job)
{
    std::string out = "job v1 name ";
    appendSized(out, job.benchmark.name);
    out += strformat(" task %u steps %zu seed %llu fidelity %s ",
                     static_cast<unsigned>(job.benchmark.task),
                     job.steps,
                     static_cast<unsigned long long>(job.seed),
                     job.fidelity == sim::Fidelity::Fast ? "fast"
                                                         : "cycle");
    encodeMann(out, job.benchmark.config);
    out += ' ';
    encodeArch(out, job.config);
    out += strformat(" fp %016llx",
                     static_cast<unsigned long long>(
                         job.fingerprint()));
    return out;
}

std::optional<SweepJob>
decodeJob(std::string_view text, std::string *err)
{
    FieldReader in(text);
    SweepJob job;
    in.expect("job");
    in.expect("v1");
    in.expect("name");
    job.benchmark.name = in.sized();
    in.expect("task");
    const std::uint64_t task = in.u64();
    if (in.ok() && task > static_cast<std::uint64_t>(
                       workloads::TaskKind::MiniShrdlu))
        in.fail(strformat("bad task kind %llu",
                          static_cast<unsigned long long>(task)));
    job.benchmark.task = static_cast<workloads::TaskKind>(task);
    in.expect("steps");
    const std::uint64_t steps = in.u64();
    // Zero steps would report NaN rates; a count past INT64_MAX is a
    // negative steps= that wrapped on its way in.
    if (in.ok() && (steps == 0 || steps > INT64_MAX))
        in.fail(strformat("bad step count %llu",
                          static_cast<unsigned long long>(steps)));
    job.steps = static_cast<std::size_t>(steps);
    in.expect("seed");
    job.seed = in.u64();
    in.expect("fidelity");
    const auto fid = in.token();
    if (in.ok()) {
        if (fid == "fast")
            job.fidelity = sim::Fidelity::Fast;
        else if (fid == "cycle")
            job.fidelity = sim::Fidelity::Cycle;
        else
            in.fail(strformat("bad fidelity '%.*s'",
                              static_cast<int>(fid.size()),
                              fid.data()));
    }
    decodeMann(in, job.benchmark.config);
    decodeArch(in, job.config);
    in.expect("fp");
    const auto fpText = in.token();
    std::uint64_t fp = 0;
    if (in.ok()) {
        errno = 0;
        char *end = nullptr;
        const std::string t(fpText);
        fp = std::strtoull(t.c_str(), &end, 16);
        if (errno != 0 || end == t.c_str() || *end != '\0')
            in.fail(strformat("bad fingerprint '%s'", t.c_str()));
    }
    if (!in.ok()) {
        if (err)
            *err = in.error();
        return std::nullopt;
    }
    // Drift guard: a config field added without a codec update (or a
    // corrupted payload that survived the frame checksum) changes the
    // recomputed fingerprint — refuse to simulate the wrong point.
    if (job.fingerprint() != fp) {
        if (err)
            *err = strformat(
                "job fingerprint mismatch (got %016llx, payload "
                "says %016llx) — client/daemon codec drift?",
                static_cast<unsigned long long>(job.fingerprint()),
                static_cast<unsigned long long>(fp));
        return std::nullopt;
    }
    return job;
}

} // namespace manna::harness::proto
