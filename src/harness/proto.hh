/**
 * @file
 * Wire protocol of the simulation service (docs/SERVICE.md): length-
 * prefixed, checksummed binary frames plus the text codecs for job
 * specifications and results that ride inside them.
 *
 * Frame layout (documented alongside MNPR in docs/FORMATS.md):
 *
 *   offset  size  field
 *   0       4     magic: "MNRQ" (client->daemon) / "MNRS" (reply)
 *   4       2     protocol version (little-endian, currently 1)
 *   6       2     message type (MsgType, little-endian)
 *   8       4     payload length in bytes (little-endian)
 *   12      8     FNV-1a-64 checksum over bytes [0,12) + payload
 *   20      N     payload
 *
 * The same validation discipline as the binary program/cache
 * containers applies: a truncated header or payload is *torn* (the
 * peer died or the write was interrupted) and a checksum or magic
 * mismatch is *bad* (corruption, a foreign protocol) — both close the
 * connection, neither is ever trusted.
 *
 * Job payloads carry every field the daemon needs to reconstruct a
 * SweepJob (benchmark shape, task, Manna config, steps, seed,
 * fidelity) in a fixed field order, with floating-point values as C
 * hexfloats, plus the client-computed job fingerprint. The daemon
 * recomputes the fingerprint after decoding and rejects a mismatch,
 * so a config field added without a codec update fails loudly instead
 * of silently simulating the wrong point. Results reuse the resume
 * journal's hexfloat-exact encodeResult()/decodeResult() payloads
 * (harness/journal.hh), which is what makes a daemon-computed sweep
 * byte-identical to an in-process one.
 */

#ifndef MANNA_HARNESS_PROTO_HH
#define MANNA_HARNESS_PROTO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "harness/sweep.hh"

namespace manna::harness::proto
{

/** "MNRQ" / "MNRS" as little-endian u32s. */
inline constexpr std::uint32_t kRequestMagic = 0x51524e4du;
inline constexpr std::uint32_t kResponseMagic = 0x53524e4du;

inline constexpr std::uint16_t kVersion = 1;
inline constexpr std::size_t kHeaderBytes = 20;

/** Upper bound on a payload; larger lengths are rejected as garbage
 * before any allocation happens. */
inline constexpr std::size_t kMaxPayloadBytes = 16u << 20;

/** Message types. Requests ride in MNRQ frames, responses in MNRS
 * frames; the numeric ranges do not overlap so a misdirected frame
 * cannot alias a valid one. */
enum class MsgType : std::uint16_t
{
    // client -> daemon
    Hello = 1,    ///< handshake: protocol + client name
    Submit = 2,   ///< one job spec (id, priority, encodeJob payload)
    Cancel = 3,   ///< abandon a submitted job by client-side id
    Ping = 4,     ///< liveness probe
    Stats = 5,    ///< request the daemon's counter snapshot
    Shutdown = 6, ///< ask the daemon to exit gracefully

    // daemon -> client
    HelloOk = 32,    ///< handshake accepted: pool/limits/events path
    Accepted = 33,   ///< job admitted to the queue
    RetryAfter = 34, ///< admission control: queue full, retry later
    Result = 35,     ///< completed job (encodeResult payload)
    JobFailed = 36,  ///< job resolved to a structured error
    Pong = 37,       ///< ping/shutdown acknowledgement
    StatsReport = 38,///< manna-daemon-stats-v1 JSON
    Reject = 39,     ///< protocol-level refusal; connection closes
};

/** One decoded frame. */
struct Frame
{
    bool request = true; ///< MNRQ (true) or MNRS (false)
    MsgType type = MsgType::Ping;
    std::string payload;
};

/** How reading a frame off a connection resolved. */
enum class ReadStatus
{
    Ok,   ///< frame decoded and verified
    Eof,  ///< clean close before any header byte
    Torn, ///< peer vanished mid-frame (short header/payload)
    Bad,  ///< magic/version/length/checksum violation
};

/** Serialize a frame (header + checksum + payload). */
std::string encodeFrame(const Frame &frame);

/**
 * Decode and verify one frame from an in-memory buffer (unit-test /
 * replay path). @p expectRequest selects the magic the receiver
 * requires. Returns Ok/Torn/Bad; @p err (optional) gets a diagnostic
 * for Bad frames.
 */
ReadStatus decodeFrame(std::string_view bytes, bool expectRequest,
                       Frame *out, std::string *err = nullptr);

/** Read one frame off @p fd (blocking). Same contract as
 * decodeFrame, plus Eof for a cleanly closed connection. */
ReadStatus readFrame(int fd, bool expectRequest, Frame *out,
                     std::string *err = nullptr);

/**
 * Encode and send one frame. When @p allowTear is true the armed
 * `server.frame.torn` fault site may fire, truncating the write mid-
 * frame (the daemon passes true on its streaming path so chaos runs
 * can prove clients survive a torn result). Returns false when the
 * peer is gone or the tear fired.
 */
bool writeFrame(int fd, const Frame &frame, bool allowTear = false);

/** Append a length-prefixed field ("<len>:<bytes>") to @p out — the
 * only payload field shape that may contain spaces. */
void appendSized(std::string &out, std::string_view bytes);

/**
 * Sequential reader over a space-separated frame payload. All
 * accessors are no-ops once a parse error is recorded; check ok()
 * after the last field. Numeric parses reject trailing garbage.
 */
class FieldReader
{
  public:
    explicit FieldReader(std::string_view s) : s_(s) {}

    bool ok() const { return !failed_; }
    const std::string &error() const { return err_; }
    void fail(const std::string &why);

    /** Next space-delimited token; fails at end of payload. */
    std::string_view token();

    /** Consume a token and fail unless it equals @p kw. */
    void expect(const char *kw);

    std::uint64_t u64();
    std::int64_t i64();
    double f64();
    bool boolean() { return u64() != 0; }

    /** Consume a "<len>:<bytes>" field written by appendSized(). */
    std::string sized();

  private:
    std::string_view s_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string err_;
};

/**
 * Serialize everything a daemon needs to execute @p job: benchmark
 * name/task, MANN + Manna configs field by field (hexfloats for
 * floating-point), steps, seed, fidelity, and the job fingerprint.
 * Single line, no trailing newline.
 */
std::string encodeJob(const SweepJob &job);

/**
 * Parse an encodeJob() payload, recompute the fingerprint of the
 * decoded job, and verify it matches the transmitted one. Returns
 * nullopt (with a diagnostic in @p err if non-null) on malformed
 * input, unknown field-format versions, or a fingerprint mismatch.
 */
std::optional<SweepJob> decodeJob(std::string_view text,
                                  std::string *err = nullptr);

} // namespace manna::harness::proto

#endif // MANNA_HARNESS_PROTO_HH
