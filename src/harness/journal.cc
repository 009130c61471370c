#include "journal.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <vector>

#include <unistd.h>

#include "common/error.hh"
#include "common/fault.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna::harness
{

namespace
{

/** Exact double serialization: C hexfloat round-trips bit patterns. */
std::string
hexDouble(double v)
{
    return strformat("%a", v);
}

/**
 * Sequential token consumer over one journal line. Every accessor
 * reports failure through ok_ instead of throwing, so a torn line is
 * just "not a record".
 */
class TokenReader
{
  public:
    explicit TokenReader(std::string_view line)
        : tokens_(splitWhitespace(line))
    {}

    bool ok() const { return ok_; }
    bool done() const { return next_ >= tokens_.size(); }

    std::string token()
    {
        if (done()) {
            ok_ = false;
            return "";
        }
        return tokens_[next_++];
    }

    bool literal(const char *expected)
    {
        if (token() != expected)
            ok_ = false;
        return ok_;
    }

    std::uint64_t u64(int base = 10)
    {
        const std::string t = token();
        if (!ok_)
            return 0;
        errno = 0;
        char *end = nullptr;
        const std::uint64_t v = std::strtoull(t.c_str(), &end, base);
        if (errno != 0 || end == t.c_str() || *end != '\0')
            ok_ = false;
        return v;
    }

    double f64()
    {
        const std::string t = token();
        if (!ok_)
            return 0.0;
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(t.c_str(), &end);
        if (errno != 0 || end == t.c_str() || *end != '\0')
            ok_ = false;
        return v;
    }

  private:
    std::vector<std::string> tokens_;
    std::size_t next_ = 0;
    bool ok_ = true;
};

/** The v3 per-line checksum: FNV-1a over the line bytes before the
 * " k <hex>" suffix (fingerprint and payload both covered). */
std::uint64_t
lineChecksum(std::string_view body)
{
    Fnv1a h;
    h.bytes(body.data(), body.size());
    return h.value();
}

bool
isHex16(std::string_view s)
{
    if (s.size() != 16)
        return false;
    for (char c : s)
        if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
              (c >= 'A' && c <= 'F')))
            return false;
    return true;
}

/**
 * Parse one full journal line: "<fp-hex> <payload> k <checksum>".
 * The checksum suffix is mandatory and must verify. nullopt =
 * torn/corrupt/foreign/unchecksummed.
 */
std::optional<std::pair<std::uint64_t, MannaResult>>
parseJournalLine(std::string_view line)
{
    const auto kpos = line.rfind(" k ");
    if (kpos == std::string_view::npos ||
        !isHex16(line.substr(kpos + 3)))
        return std::nullopt;
    const std::string ck(line.substr(kpos + 3));
    if (std::strtoull(ck.c_str(), nullptr, 16) !=
        lineChecksum(line.substr(0, kpos)))
        return std::nullopt; // bit rot: never trust the record
    const std::string_view body = line.substr(0, kpos);

    const auto space = body.find(' ');
    if (space == std::string_view::npos)
        return std::nullopt;
    const std::string fpText(body.substr(0, space));
    errno = 0;
    char *end = nullptr;
    const std::uint64_t fp = std::strtoull(fpText.c_str(), &end, 16);
    if (errno != 0 || end == fpText.c_str() || *end != '\0')
        return std::nullopt;
    auto result = decodeResult(body.substr(space + 1));
    if (!result)
        return std::nullopt;
    return std::make_pair(fp, std::move(*result));
}

} // namespace

std::string
encodeResult(const MannaResult &result)
{
    const sim::RunReport &rep = result.report;
    std::string out = strformat(
        "v2 s %llu c %llu t %s e %s %s %s d %s %s",
        static_cast<unsigned long long>(rep.steps),
        static_cast<unsigned long long>(rep.totalCycles),
        hexDouble(rep.totalSeconds).c_str(),
        hexDouble(rep.dynamicEnergyPj).c_str(),
        hexDouble(rep.leakageEnergyPj).c_str(),
        hexDouble(rep.infrastructureEnergyPj).c_str(),
        hexDouble(result.secondsPerStep).c_str(),
        hexDouble(result.joulesPerStep).c_str());

    out += strformat(" g %zu", rep.groups.size());
    for (const auto &[group, gs] : rep.groups)
        out += strformat(" %d %llu %s", static_cast<int>(group),
                         static_cast<unsigned long long>(gs.cycles),
                         hexDouble(gs.energyPj).c_str());

    out += strformat(" u %zu", rep.resourceUtilization.size());
    for (const auto &[name, util] : rep.resourceUtilization)
        out += strformat(" %s %s", name.c_str(),
                         hexDouble(util).c_str());

    out += strformat(" x %zu", result.groupSeconds.size());
    for (const auto &[group, sec] : result.groupSeconds)
        out += strformat(" %d %s", static_cast<int>(group),
                         hexDouble(sec).c_str());

    // The component stat registry. Keys are dotted identifiers
    // (never contain whitespace), so they tokenize.
    out += strformat(" r %zu", rep.stats.size());
    for (const auto &[key, value] : rep.stats.entries())
        out += strformat(" %s %s", key.c_str(),
                         hexDouble(value).c_str());
    return out;
}

std::optional<MannaResult>
decodeResult(std::string_view line)
{
    TokenReader r(line);
    if (!r.literal("v2"))
        return std::nullopt;

    MannaResult result;
    sim::RunReport &rep = result.report;
    r.literal("s");
    rep.steps = static_cast<std::size_t>(r.u64());
    r.literal("c");
    rep.totalCycles = r.u64();
    r.literal("t");
    rep.totalSeconds = r.f64();
    r.literal("e");
    rep.dynamicEnergyPj = r.f64();
    rep.leakageEnergyPj = r.f64();
    rep.infrastructureEnergyPj = r.f64();
    r.literal("d");
    result.secondsPerStep = r.f64();
    result.joulesPerStep = r.f64();

    r.literal("g");
    const std::uint64_t nGroups = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < nGroups; ++i) {
        const int group = static_cast<int>(r.u64());
        sim::GroupStats gs;
        gs.cycles = r.u64();
        gs.energyPj = r.f64();
        if (group < 0 ||
            group >= static_cast<int>(mann::kNumKernelGroups))
            return std::nullopt;
        rep.groups[static_cast<mann::KernelGroup>(group)] = gs;
    }

    r.literal("u");
    const std::uint64_t nUtil = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < nUtil; ++i) {
        const std::string name = r.token();
        rep.resourceUtilization[name] = r.f64();
    }

    r.literal("x");
    const std::uint64_t nGroupSec = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < nGroupSec; ++i) {
        const int group = static_cast<int>(r.u64());
        const double sec = r.f64();
        if (group < 0 ||
            group >= static_cast<int>(mann::kNumKernelGroups))
            return std::nullopt;
        result.groupSeconds[static_cast<mann::KernelGroup>(group)] =
            sec;
    }

    r.literal("r");
    const std::uint64_t nStats = r.u64();
    for (std::uint64_t i = 0; r.ok() && i < nStats; ++i) {
        const std::string key = r.token();
        rep.stats.set(key, r.f64());
    }

    if (!r.ok() || !r.done())
        return std::nullopt;
    return result;
}

std::string
encodeJournalLine(std::uint64_t fingerprint,
                  const MannaResult &result)
{
    std::string line =
        strformat("%016llx ",
                  static_cast<unsigned long long>(fingerprint)) +
        encodeResult(result);
    line += strformat(" k %016llx",
                      static_cast<unsigned long long>(
                          lineChecksum(line)));
    return line;
}

SweepJournal::SweepJournal(const std::string &path,
                           std::size_t fsyncBatch)
    : path_(path), fsyncBatch_(fsyncBatch == 0 ? 1 : fsyncBatch)
{
    file_ = std::fopen(path.c_str(), "a");
    if (!file_)
        warn("cannot open sweep journal '%s' (%s); continuing "
             "without checkpointing",
             path.c_str(), std::strerror(errno));
}

SweepJournal::~SweepJournal()
{
    if (!file_)
        return;
    // Destructors must not throw; a failed final flush degrades to a
    // warning (the resume path tolerates the missing tail records).
    try {
        sync();
    } catch (const Error &e) {
        warn("sweep journal close: %s", e.what());
    }
    if (!file_)
        return; // sync() already closed it on failure
    if (fault::anyArmed() &&
        fault::shouldFire(fault::Site::JournalClose)) {
        warn("sweep journal close failed on '%s' (injected %s)",
             path_.c_str(),
             fault::siteName(fault::Site::JournalClose));
    }
    std::fclose(file_);
    file_ = nullptr;
}

void
SweepJournal::failLocked(const char *op, int err)
{
    // One failure permanently disables the journal: the sweep keeps
    // running un-checkpointed (callers warn once) instead of
    // re-raising on every record of a full or broken disk.
    std::fclose(file_);
    file_ = nullptr;
    throw IoError(strformat(
        "sweep journal %s failed on '%s': %s; checkpointing disabled "
        "for the rest of this run",
        op, path_.c_str(), std::strerror(err)));
}

void
SweepJournal::flushLocked()
{
    errno = 0;
    if (std::fflush(file_) != 0)
        failLocked("flush", errno != 0 ? errno : EIO);
    if (fault::anyArmed() &&
        fault::shouldFire(fault::Site::JournalFsync))
        failLocked("fsync (injected)", EIO);
    errno = 0;
    if (::fsync(::fileno(file_)) != 0)
        failLocked("fsync", errno != 0 ? errno : EIO);
    pending_ = 0;
}

void
SweepJournal::append(std::uint64_t fingerprint,
                     const MannaResult &result)
{
    const std::string line =
        encodeJournalLine(fingerprint, result) + "\n";
    std::lock_guard<std::mutex> lock(mu_);
    if (!file_)
        return;
    if (fault::anyArmed()) {
        if (fault::shouldFire(fault::Site::JournalAppendTorn)) {
            // Silent torn write: half the record, newline-terminated
            // so the journal stays line-parseable. The loader counts
            // it corrupt and the job re-runs — exactly the artifact
            // a kill -9 between fwrite and fsync leaves behind.
            const std::string torn =
                line.substr(0, line.size() / 2) + "\n";
            std::fwrite(torn.data(), 1, torn.size(), file_);
            bytesWritten_ += torn.size();
            if (++pending_ >= fsyncBatch_)
                flushLocked();
            return;
        }
        if (fault::shouldFire(fault::Site::JournalAppendShort)) {
            std::fwrite(line.data(), 1, line.size() / 2, file_);
            std::fflush(file_);
            failLocked("append (injected short write)", EIO);
        }
        if (fault::shouldFire(fault::Site::JournalAppendEio))
            failLocked("append (injected)", EIO);
        if (fault::shouldFire(fault::Site::JournalAppendEnospc))
            failLocked("append (injected)", ENOSPC);
    }
    errno = 0;
    if (std::fwrite(line.data(), 1, line.size(), file_) !=
        line.size())
        failLocked("append", errno != 0 ? errno : EIO);
    bytesWritten_ += line.size();
    if (++pending_ >= fsyncBatch_)
        flushLocked();
}

std::uint64_t
SweepJournal::bytesWritten() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return bytesWritten_;
}

void
SweepJournal::sync()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!file_)
        return;
    flushLocked();
}

std::map<std::uint64_t, MannaResult>
loadJournal(const std::string &path, JournalLoadStats *stats)
{
    std::map<std::uint64_t, MannaResult> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::string line;
    while (std::getline(in, line)) {
        std::string trimmed = trim(line);
        if (trimmed.empty() || trimmed[0] == '#')
            continue;
        if (fault::anyArmed() &&
            fault::shouldFire(fault::Site::JournalReadCorrupt) &&
            !trimmed.empty()) {
            // Deterministic bit rot: flip the low bit of the middle
            // byte of the record, as a bad disk/network would.
            trimmed[trimmed.size() / 2] ^= 0x1;
        }
        auto parsed = parseJournalLine(trimmed);
        if (!parsed) {
            // Skip-and-rescan: count it, re-sync at the next line,
            // never trust or propagate the bytes. The job re-runs.
            if (stats)
                ++stats->corruptRecords;
            continue;
        }
        if (stats)
            ++stats->records;
        out.insert_or_assign(parsed->first,
                             std::move(parsed->second));
    }
    return out;
}

std::map<std::uint64_t, MannaResult>
loadJournals(const std::vector<std::string> &paths,
             JournalLoadStats *stats)
{
    std::map<std::uint64_t, MannaResult> out;
    for (const std::string &path : paths)
        for (auto &[fp, result] : loadJournal(path, stats))
            out.insert_or_assign(fp, std::move(result));
    return out;
}

std::vector<std::string>
splitJournalList(const std::string &list)
{
    std::vector<std::string> out;
    for (const std::string &part : split(list, ',')) {
        const std::string p = trim(part);
        if (!p.empty())
            out.push_back(p);
    }
    return out;
}

} // namespace manna::harness
