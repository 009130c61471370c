#include "stats.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace manna
{

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logsum = 0.0;
    for (double v : values) {
        MANNA_ASSERT(v > 0.0, "geomean needs positive values, got %g", v);
        logsum += std::log(v);
    }
    return std::exp(logsum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double s = 0.0;
    for (double v : values)
        s += v;
    return s / static_cast<double>(values.size());
}

double
minOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return *std::min_element(values.begin(), values.end());
}

double
maxOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return *std::max_element(values.begin(), values.end());
}

} // namespace manna
