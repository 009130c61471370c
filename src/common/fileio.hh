/**
 * @file
 * A small POSIX file helper for the crash-safety machinery: atomic
 * whole-file publication (write temp + fsync + rename) so a killed
 * process never leaves a half-written stats/bench-JSON/report
 * artifact.
 */

#ifndef MANNA_COMMON_FILEIO_HH
#define MANNA_COMMON_FILEIO_HH

#include <string>
#include <string_view>

namespace manna
{

/**
 * Publish @p content at @p path atomically: write a sibling temp
 * file, fsync it, then rename() over the target. Readers either see
 * the previous file or the complete new one, never a torn write.
 * Returns false (with a warning) on any failure; the target is left
 * untouched in that case.
 */
bool writeFileAtomic(const std::string &path,
                     std::string_view content);

} // namespace manna

#endif // MANNA_COMMON_FILEIO_HH
