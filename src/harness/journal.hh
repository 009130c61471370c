/**
 * @file
 * Crash-safe sweep journal: an append-only, fingerprint-keyed record
 * of completed sweep-job outcomes.
 *
 * Each successfully completed job appends one text line
 * ("<job-fingerprint> v2 <serialized MannaResult> k <checksum>") to
 * the journal; writes are flushed and fsync'd in small batches so a
 * `kill -9` loses at most the last batch. On resume, the journal is
 * loaded into a fingerprint -> result map and already-completed
 * points are skipped. Doubles are serialized as C hexfloats ("%a"),
 * so a restored result is bit-identical to the one originally
 * computed — the resumed sweep's final report matches an
 * uninterrupted run byte-for-byte.
 *
 * Format: the payload is tagged "v2" (the daemon's wire protocol
 * reuses it) and ends with the component stat registry as
 * " r <count> <key> <hexdouble>...". The v3 *line* format wraps it
 * with a mandatory trailing " k <16-hex>" FNV-1a checksum over
 * everything before it (fingerprint included), so a flipped bit is
 * detected instead of silently resuming a wrong result. Any other
 * payload tag, or a line without the checksum, counts as corrupt.
 *
 * Recovery is skip-and-rescan: a torn, corrupt, or foreign line is
 * counted (JournalLoadStats::corruptRecords, reported in stats.json
 * as "journal.corrupt_records"), the loader re-synchronizes at the
 * next newline, and the affected job simply re-runs — corruption is
 * never trusted and never fatal.
 */

#ifndef MANNA_HARNESS_JOURNAL_HH
#define MANNA_HARNESS_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hh"

namespace manna::harness
{

/** Serialize a result as the payload of a journal line (no
 * fingerprint, no checksum, no trailing \n). Exact: every double is
 * emitted as a hexfloat. */
std::string encodeResult(const MannaResult &result);

/** Parse a payload produced by encodeResult(); nullopt when
 * malformed (e.g. a torn write from a killed process). */
std::optional<MannaResult> decodeResult(std::string_view line);

/** Render one complete checksummed v3 journal line (no trailing \n):
 * "<fp-hex> <payload> k <fnv1a-hex>", the checksum covering
 * everything before " k". */
std::string encodeJournalLine(std::uint64_t fingerprint,
                              const MannaResult &result);

/** Load tallies: total records restored and corrupt/torn lines
 * skipped (and therefore due to re-run). */
struct JournalLoadStats
{
    std::size_t records = 0;
    std::size_t corruptRecords = 0;
};

/**
 * Thread-safe append-only journal writer. append() may be called
 * concurrently from sweep workers; records are flushed+fsync'd every
 * @p fsyncBatch appends and once more on close.
 */
class SweepJournal
{
  public:
    /** Opens @p path in append mode. ok() reports failure instead of
     * throwing so a bad journal path degrades to an un-checkpointed
     * sweep (with a warning) rather than killing the run. */
    explicit SweepJournal(const std::string &path,
                          std::size_t fsyncBatch = 8);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    bool ok() const { return file_ != nullptr; }

    /** Record one completed job. No-op when !ok(). Throws IoError
     * (with errno context) when the write or a batch fsync fails —
     * the journal closes itself first, so later appends degrade to
     * no-ops instead of repeating the failure. */
    void append(std::uint64_t fingerprint, const MannaResult &result);

    /** Flush buffered records and fsync the file. Throws IoError on
     * failure (journal disabled, as with append). */
    void sync();

    /** Total bytes appended so far (torn/short injected writes
     * included); feeds the metrics sampler. */
    std::uint64_t bytesWritten() const;

  private:
    /** Close the stream and throw IoError for a failed @p op. */
    [[noreturn]] void failLocked(const char *op, int err);
    void flushLocked();

    mutable std::mutex mu_;
    std::FILE *file_ = nullptr;
    std::string path_;
    std::size_t pending_ = 0;
    std::size_t fsyncBatch_;
    std::uint64_t bytesWritten_ = 0;
};

/**
 * Load a journal written by SweepJournal. Returns the
 * fingerprint -> result map; malformed or checksum-mismatching lines
 * are counted into @p stats (if given) and skipped, and for
 * duplicate fingerprints (e.g. a job re-journaled after a resume)
 * the last record wins. A missing file loads as an empty map.
 */
std::map<std::uint64_t, MannaResult>
loadJournal(const std::string &path,
            JournalLoadStats *stats = nullptr);

/**
 * Load and merge several journals (later files win on duplicate
 * fingerprints; @p stats accumulates across files). resume= and the
 * daemon's resume= accept such a list, so a sweep can restart from
 * any mix of partial journals — see docs/ROBUSTNESS.md. A corrupt
 * record never shadows a valid record of an earlier file: it is
 * skipped, not merged.
 */
std::map<std::uint64_t, MannaResult>
loadJournals(const std::vector<std::string> &paths,
             JournalLoadStats *stats = nullptr);

/** Split a comma-separated journal-path list (the `resume=` knob
 * accepts one); empty segments are dropped. */
std::vector<std::string> splitJournalList(const std::string &list);

} // namespace manna::harness

#endif // MANNA_HARNESS_JOURNAL_HH
