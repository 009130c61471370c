/**
 * @file
 * Summary-statistics helpers used by the experiment harness:
 * geometric and arithmetic means and extrema over a sample.
 */

#ifndef MANNA_COMMON_STATS_HH
#define MANNA_COMMON_STATS_HH

#include <vector>

namespace manna
{

/** Geometric mean of positive values; 0 on empty input. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 on empty input. */
double mean(const std::vector<double> &values);

/** Minimum / maximum (0 on empty input). */
double minOf(const std::vector<double> &values);
double maxOf(const std::vector<double> &values);

} // namespace manna

#endif // MANNA_COMMON_STATS_HH
