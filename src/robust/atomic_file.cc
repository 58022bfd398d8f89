#include "robust/atomic_file.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <unistd.h>

namespace ibp {

Result<void>
writeFileAtomic(const std::string &path, std::string_view contents)
{
    return std::move(writeFilesAtomic({{path, contents}}).front());
}

std::vector<Result<void>>
writeFilesAtomic(const std::vector<AtomicFileWrite> &files)
{
    std::vector<Result<void>> results(files.size());
    const auto tempOf = [&files](std::size_t i) {
        return files[i].path + ".tmp";
    };
    // Windows of at most kAtomicWriteWindow files, so a batch never
    // holds more descriptors open than that, however large it is.
    for (std::size_t begin = 0; begin < files.size();
         begin += kAtomicWriteWindow) {
        const std::size_t end =
            std::min(files.size(), begin + kAtomicWriteWindow);
        // Descriptors of the window's temporaries, open from the
        // write pass to the fsync pass; -1 once closed or failed.
        std::vector<int> temps(end - begin, -1);
        const auto fail = [&](std::size_t i, const std::string &what) {
            results[i] =
                RunError::permanent(what + ": " + std::strerror(errno));
            if (temps[i - begin] >= 0) {
                ::close(temps[i - begin]);
                temps[i - begin] = -1;
            }
            std::remove(tempOf(i).c_str());
        };

        // Write every temporary; nothing is durable yet.
        for (std::size_t i = begin; i < end; ++i) {
            const std::filesystem::path target(files[i].path);
            if (target.has_parent_path()) {
                std::error_code ec;
                std::filesystem::create_directories(
                    target.parent_path(), ec);
                if (ec) {
                    results[i] = RunError::permanent(
                        "cannot create directory '" +
                        target.parent_path().string() +
                        "': " + ec.message());
                    continue;
                }
            }
            const std::string temp = tempOf(i);
            int &fd = temps[i - begin];
            fd = ::open(temp.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
            if (fd < 0) {
                fail(i, "cannot open '" + temp + "' for writing");
                continue;
            }
            std::string_view rest = files[i].contents;
            while (!rest.empty()) {
                const ssize_t wrote = ::write(fd, rest.data(), rest.size());
                if (wrote < 0 && errno == EINTR)
                    continue;
                if (wrote <= 0)
                    break;
                rest.remove_prefix(static_cast<std::size_t>(wrote));
            }
            if (!rest.empty())
                fail(i, "failed writing '" + temp + "'");
        }
        // Make them durable, then publish each one.
        for (std::size_t i = begin; i < end; ++i) {
            int &fd = temps[i - begin];
            if (fd < 0)
                continue;
            if (::fsync(fd) != 0) {
                fail(i, "failed writing '" + tempOf(i) + "'");
                continue;
            }
            const int closed = ::close(fd);
            fd = -1;
            if (closed != 0) {
                fail(i, "failed writing '" + tempOf(i) + "'");
                continue;
            }
            if (std::rename(tempOf(i).c_str(), files[i].path.c_str()) !=
                0) {
                fail(i, "cannot rename '" + tempOf(i) + "' to '" +
                            files[i].path + "'");
            }
        }
    }
    return results;
}

} // namespace ibp
