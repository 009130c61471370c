#include "fileio.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna
{

bool
writeFileAtomic(const std::string &path, std::string_view content)
{
    // The temp file must live on the same filesystem as the target
    // for rename() to be atomic, so it is a sibling, made unique per
    // process (concurrent writers of *different* targets never
    // collide; same-target writers last-write-win, which rename()
    // keeps atomic anyway).
    const std::string tmp =
        path + strformat(".tmp.%d", static_cast<int>(::getpid()));
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        warn("cannot create '%s' (%s)", tmp.c_str(),
             std::strerror(errno));
        return false;
    }
    std::size_t written = 0;
    while (written < content.size()) {
        const ssize_t n = ::write(fd, content.data() + written,
                                  content.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("write to '%s' failed (%s)", tmp.c_str(),
                 std::strerror(errno));
            ::close(fd);
            ::unlink(tmp.c_str());
            return false;
        }
        written += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        warn("fsync of '%s' failed (%s)", tmp.c_str(),
             std::strerror(errno));
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("rename '%s' -> '%s' failed (%s)", tmp.c_str(),
             path.c_str(), std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace manna
