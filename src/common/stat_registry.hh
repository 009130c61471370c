/**
 * @file
 * Hierarchical statistics registry for the observability layer.
 *
 * A StatRegistry is a flat, deterministic map from dotted component
 * paths ("tile.0.emac.busy_cycles", "noc.reduce_ops", "chip.cycles")
 * to double-valued counters — the gem5-style "one registry per run"
 * pattern. Components keep counting into enum-indexed arrays during
 * simulation (an array add, no strings on the hot path); at report
 * time the chip writes every array into one registry under its
 * component prefix. The registry then travels inside
 * sim::RunReport / harness::MannaResult, is serialized exactly in the
 * sweep journal, aggregated across jobs into stats.json, and exported
 * as JSON for dashboards.
 *
 * Determinism contract: iteration order is key order (std::map), all
 * values are doubles, and JSON export uses 17-significant-digit
 * formatting, so two registries with equal contents render
 * byte-identically — the foundation of the jobs=1 == jobs=N
 * stats.json guarantee (see docs/OBSERVABILITY.md).
 */

#ifndef MANNA_COMMON_STAT_REGISTRY_HH
#define MANNA_COMMON_STAT_REGISTRY_HH

#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace manna
{

/**
 * Flat registry of dotted-path counters with deterministic iteration
 * and exact JSON round-tripping.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;

    /** Overwrite a counter. */
    void set(const std::string &key, double value);

    /** Add to a counter (creating it at zero if absent). */
    void inc(const std::string &key, double amount = 1.0);

    /** Read a counter; 0 if absent. */
    double get(const std::string &key) const;

    /** True if the counter exists. */
    bool has(const std::string &key) const;

    /** Add every counter of @p other into this registry (used by the
     * sweep harness to aggregate per-job registries). */
    void merge(const StatRegistry &other);

    /** Sum of every counter matching "<prefix>." plus @p suffix, e.g.
     * sumOver("tile", "emac.busy_cycles") sums that counter across
     * all tiles. */
    double sumOver(const std::string &prefix,
                   const std::string &suffix) const;

    bool empty() const { return values_.empty(); }
    std::size_t size() const { return values_.size(); }
    void clear() { values_.clear(); }

    /** All (path, value) pairs in path order. */
    const std::map<std::string, double> &entries() const
    {
        return values_;
    }

    bool operator==(const StatRegistry &other) const
    {
        return values_ == other.values_;
    }

    /**
     * Render as one JSON object, keys in path order, values with 17
     * significant digits (exact double round-trip). @p indent > 0
     * pretty-prints with that many spaces per level.
     */
    std::string toJson(int indent = 0) const;

    /** Inverse of toJson(); nullopt on malformed input. */
    static std::optional<StatRegistry> fromJson(std::string_view text);

    /** Render as "path = value" lines, one per counter. */
    std::string render() const;

    /**
     * Attach a human-readable description to @p key. Descriptions are
     * display metadata only: they do not participate in operator==,
     * merge accumulation, or toJson()/fromJson() round-trips, so they
     * never perturb the deterministic stats contract. @p key may be a
     * dotted-suffix pattern: renderDescribed() uses the longest
     * registered suffix that matches a counter (so one
     * describe("emac.busy_cycles", ...) covers every tile).
     */
    void describe(const std::string &key, const std::string &text);

    /** The description attached to @p key: an exact match first, then
     * the longest dotted-suffix pattern; "" when none matches. */
    std::string description(const std::string &key) const;

    /**
     * Pretty-print all counters, path-sorted and aligned, with the
     * matching description appended ("path  value  # description").
     * The --dump-stats view shared by the bench binaries.
     */
    std::string renderDescribed() const;

  private:
    std::map<std::string, double> values_;
    /** Suffix-pattern -> description; display-only (see describe()). */
    std::map<std::string, std::string> descriptions_;
};

} // namespace manna

#endif // MANNA_COMMON_STAT_REGISTRY_HH
