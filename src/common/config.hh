/**
 * @file
 * A tiny typed key/value configuration store. Experiment binaries use
 * it to parse "key=value" command-line overrides so sweeps can be
 * scripted without recompiling.
 */

#ifndef MANNA_COMMON_CONFIG_HH
#define MANNA_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace manna
{

/**
 * String-backed configuration with typed accessors.
 *
 * Lookups that fail to parse the stored text as the requested type
 * call fatal(), since a malformed value is a user error.
 */
class Config
{
  public:
    Config() = default;

    /** Parse "key=value" tokens (e.g. from argv). Unknown-format
     * tokens trigger fatal(). */
    static Config fromArgs(int argc, const char *const *argv,
                           int firstArg = 1);

    /** fromArgs() over a binary's command line, which also fails
     * (fatal()) on a key that no binary reads, so a mistyped knob is
     * not silently ignored. A knob this binary ignores is accepted:
     * scripts pass the common knobs to every binary. */
    static Config fromCommandLine(int argc, const char *const *argv);

    /** Set or overwrite a key. */
    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    /** Typed getters with defaults. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** All keys in sorted order (for help/diagnostics). */
    std::vector<std::string> keys() const;

  private:
    std::map<std::string, std::string> values_;
};

} // namespace manna

#endif // MANNA_COMMON_CONFIG_HH
