#include "stat_registry.hh"

#include <algorithm>

#include "json.hh"
#include "strutil.hh"

namespace manna
{

void
StatRegistry::set(const std::string &key, double value)
{
    values_[key] = value;
}

void
StatRegistry::inc(const std::string &key, double amount)
{
    values_[key] += amount;
}

double
StatRegistry::get(const std::string &key) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? 0.0 : it->second;
}

bool
StatRegistry::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

void
StatRegistry::merge(const StatRegistry &other)
{
    for (const auto &[k, v] : other.values_)
        values_[k] += v;
    for (const auto &[k, text] : other.descriptions_)
        descriptions_.emplace(k, text);
}

void
StatRegistry::describe(const std::string &key, const std::string &text)
{
    descriptions_[key] = text;
}

std::string
StatRegistry::description(const std::string &key) const
{
    const auto exact = descriptions_.find(key);
    if (exact != descriptions_.end())
        return exact->second;
    // Longest dotted-suffix pattern wins: "emac.busy_cycles" matches
    // "tile.3.emac.busy_cycles" but not "emac.busy_cycles_total".
    const std::string *best = nullptr;
    std::size_t bestLen = 0;
    for (const auto &[pattern, text] : descriptions_) {
        if (pattern.size() >= key.size() || pattern.size() <= bestLen)
            continue;
        if (key.compare(key.size() - pattern.size(), pattern.size(),
                        pattern) == 0 &&
            key[key.size() - pattern.size() - 1] == '.') {
            best = &text;
            bestLen = pattern.size();
        }
    }
    return best ? *best : std::string();
}

std::string
StatRegistry::renderDescribed() const
{
    std::size_t width = 0;
    for (const auto &[k, v] : values_)
        width = std::max(width, k.size());
    std::string out;
    for (const auto &[k, v] : values_) {
        out += strformat("%-*s %14.6g", static_cast<int>(width),
                         k.c_str(), v);
        const std::string text = description(k);
        if (!text.empty())
            out += "  # " + text;
        out += "\n";
    }
    return out;
}

double
StatRegistry::sumOver(const std::string &prefix,
                      const std::string &suffix) const
{
    const std::string open = prefix + ".";
    double sum = 0.0;
    for (auto it = values_.lower_bound(open); it != values_.end();
         ++it) {
        if (!startsWith(it->first, open))
            break;
        if (it->first.size() > suffix.size() &&
            it->first.compare(it->first.size() - suffix.size(),
                              suffix.size(), suffix) == 0 &&
            it->first[it->first.size() - suffix.size() - 1] == '.')
            sum += it->second;
    }
    return sum;
}

std::string
StatRegistry::toJson(int indent) const
{
    const std::string nl = indent > 0 ? "\n" : "";
    const std::string pad =
        indent > 0 ? std::string(static_cast<std::size_t>(indent), ' ')
                   : "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : values_) {
        if (!first)
            out += ",";
        first = false;
        out += nl + pad + "\"" + jsonEscape(k) +
               "\":" + (indent > 0 ? " " : "") + jsonNumber(v);
    }
    out += nl + "}";
    return out;
}

std::optional<StatRegistry>
StatRegistry::fromJson(std::string_view text)
{
    auto parsed = jsonParseFlatNumberObject(text);
    if (!parsed)
        return std::nullopt;
    StatRegistry reg;
    reg.values_ = std::move(*parsed);
    return reg;
}

std::string
StatRegistry::render() const
{
    std::string out;
    for (const auto &[k, v] : values_)
        out += strformat("%-48s %.6g\n", k.c_str(), v);
    return out;
}

} // namespace manna
