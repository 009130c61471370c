/**
 * @file
 * Floor probes: the SIMD kernel table timed directly at n = 4096 on the
 * dispatched and scalar paths, and the host's copy bandwidth. These
 * bound what the replay layer can reach.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <map>
#include <string>

namespace perfbench
{

struct FloorProbe
{
    /** Dispatched-path ns per call, by kernel name. */
    std::map<std::string, double> kernelNs;
    double dotScalarNs = 0.0;
    double sumScalarNs = 0.0;
    /** Bytes read plus bytes written per second by memcpy over a
     * buffer larger than the host caches, in GB/s. */
    double streamGbs = 0.0;
};

FloorProbe probeFloor();

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
