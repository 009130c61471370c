/**
 * @file
 * On-disk compiled-program artifacts (docs/FORMATS.md): a versioned
 * binary codec for compiler::CompiledModel and a fingerprint-keyed
 * artifact cache layered under compileCached(). Compilation is
 * deterministic, so a (MannConfig, MannaConfig) pair compiles to the
 * same model in every process — the cache lets daemons and repeated
 * sweeps across processes skip recompilation entirely.
 *
 * The artifact container wraps the payload in a magic + version
 * header carrying both input fingerprints and an FNV-1a payload
 * checksum (the same integrity idiom as journal v3 lines,
 * docs/ROBUSTNESS.md). A corrupt, truncated, or stale entry is never
 * trusted: it fails validation, is counted, and the model is
 * recompiled (and the entry rewritten).
 *
 * Cache state is process-wide, like the in-memory compile cache:
 *  - artifact_cache=DIR (MANNA_ARTIFACT_CACHE) selects the directory
 *    ("" disables, the default); it is created on first store;
 *  - artifact_cache_entries=N bounds the directory to N entries
 *    (oldest-mtime entries are evicted after a store; 0 = unbounded);
 *  - hits/misses/evictions/corrupt counters are reported in the
 *    stats.json "process" section as artifact_cache.* keys.
 */

#ifndef MANNA_COMPILER_ARTIFACT_HH
#define MANNA_COMPILER_ARTIFACT_HH

#include <cstdint>
#include <memory>
#include <string>

#include "compiler/compiled_model.hh"

namespace manna::compiler
{

/** Artifact container magic: first four bytes of every entry. */
constexpr char kArtifactMagic[4] = {'M', 'N', 'C', 'A'};

/** Current artifact container version. */
constexpr std::uint32_t kArtifactVersion = 1;

/** Encode a compiled model into a self-contained artifact. */
std::string encodeModel(const CompiledModel &model);

/**
 * Decode an artifact produced by encodeModel(). The input configs
 * are not stored in the artifact (the cache key *is* their
 * fingerprint pair); the caller supplies them, they are validated
 * against the header fingerprints, and they fill the decoded model's
 * mannCfg/archCfg. Returns false (with a diagnostic in @p error when
 * non-null) on any mismatch, truncation, or corruption.
 */
bool decodeModel(const std::string &data, const mann::MannConfig &mann,
                 const arch::MannaConfig &arch, CompiledModel &out,
                 std::string *error = nullptr);

/**
 * Header-only peek for tooling (manna-objdump): parse an artifact's
 * fingerprints and segment structure without the input configs. The
 * returned model has default-constructed mannCfg/archCfg. @p mannFp /
 * @p archFp receive the header fingerprints when non-null.
 */
bool decodeModelStructure(const std::string &data, CompiledModel &out,
                          std::uint64_t *mannFp = nullptr,
                          std::uint64_t *archFp = nullptr,
                          std::string *error = nullptr);

/** True when @p data begins with the artifact magic. */
bool looksLikeArtifact(const std::string &data);

// ---------------------------------------------------------------------
// Fingerprint-keyed on-disk cache (process-wide state).
// ---------------------------------------------------------------------

/** Select the cache directory ("" disables — the default). */
void setArtifactCacheDir(const std::string &dir);

/** Currently configured cache directory ("" = disabled). */
std::string artifactCacheDir();

/** The artifact_cache=DIR default: the MANNA_ARTIFACT_CACHE
 * environment variable if set, else "" (disabled). */
std::string defaultArtifactCacheDir();

/** Bound the cache directory to @p entries artifacts (0 = unbounded,
 * the default): after each store, oldest-mtime entries past the cap
 * are removed. */
void setArtifactCacheCapacity(std::size_t entries);
std::size_t artifactCacheCapacity();

/** Cache entry path for a fingerprint pair (inside the configured
 * directory; "" when the cache is disabled). */
std::string artifactCachePath(std::uint64_t mannFp,
                              std::uint64_t archFp);

/**
 * Try to load the artifact for (mann, arch) from the cache. Returns
 * null on a miss — absent entry, unreadable file, or a corrupt/
 * stale entry (additionally counted in artifactCacheCorrupt()).
 * No-op returning null when the cache is disabled.
 */
std::shared_ptr<const CompiledModel>
loadCachedArtifact(const mann::MannConfig &mann,
                   const arch::MannaConfig &arch);

/** Store a freshly compiled model in the cache (atomic write +
 * capacity eviction). No-op when the cache is disabled; a failed
 * write warns and is otherwise ignored. */
void storeCachedArtifact(const CompiledModel &model);

/** Counters since process start (or the last reset): successful
 * loads, failed loads (absent or invalid), capacity evictions, and
 * entries rejected as corrupt (a subset of misses). */
std::size_t artifactCacheHits();
std::size_t artifactCacheMisses();
std::size_t artifactCacheEvictions();
std::size_t artifactCacheCorrupt();

/** Zero the counters (directory and capacity are kept). */
void resetArtifactCacheCounters();

} // namespace manna::compiler

#endif // MANNA_COMPILER_ARTIFACT_HH
