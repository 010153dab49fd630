/**
 * @file
 * ArchiveWriter: the fsync-before-footer commit path (writer.hpp
 * documents the discipline and the crash states it leaves).
 */

#include "archive/writer.hpp"

#include "archive/durable.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include "codec/fcc/index.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"

namespace fcc::archive {

namespace {

/** `<prefix>-NNNNNN.fcc` for sequence @p seq. */
std::string
archiveName(const std::string &prefix, uint64_t seq)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "-%06llu.fcc",
                  static_cast<unsigned long long>(seq));
    return prefix + buf;
}

/**
 * The sequence number of @p name when it matches
 * `<prefix>-NNNNNN.fcc`, else nullopt.
 */
std::optional<uint64_t>
parseSequence(const std::string &prefix, const std::string &name)
{
    const std::string suffix = ".fcc";
    if (name.size() <= prefix.size() + 1 + suffix.size())
        return std::nullopt;
    if (name.compare(0, prefix.size(), prefix) != 0 ||
        name[prefix.size()] != '-' ||
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        return std::nullopt;
    uint64_t seq = 0;
    for (size_t i = prefix.size() + 1;
         i < name.size() - suffix.size(); ++i) {
        char ch = name[i];
        if (ch < '0' || ch > '9')
            return std::nullopt;
        seq = seq * 10 + static_cast<uint64_t>(ch - '0');
    }
    return seq;
}

/** Largest committed sequence number in @p directory, or nullopt. */
std::optional<uint64_t>
maxSequence(const std::string &directory, const std::string &prefix)
{
    DIR *dir = ::opendir(directory.c_str());
    util::require(dir != nullptr, "opendir " + directory + ": " +
                                      std::strerror(errno));
    std::optional<uint64_t> best;
    while (dirent *ent = ::readdir(dir)) {
        if (auto seq = parseSequence(prefix, ent->d_name))
            best = best ? std::max(*best, *seq) : *seq;
    }
    ::closedir(dir);
    return best;
}

} // namespace

ArchiveWriter::ArchiveWriter(const std::string &directory,
                             const std::string &prefix)
    : directory_(directory), prefix_(prefix), catalog_(directory)
{
    if (auto last = maxSequence(directory_, prefix_))
        seq_ = *last + 1;
}

std::string
ArchiveWriter::nextName() const
{
    return archiveName(prefix_, seq_);
}

CatalogEntry
ArchiveWriter::commit(std::span<const uint8_t> bytes,
                      const codec::fcc::SealInfo &info)
{
    std::string name = nextName();
    std::string partial = directory_ + "/" + name + ".partial";
    std::string final_ = directory_ + "/" + name;

    int fd = ::open(partial.c_str(),
                    O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    util::require(fd >= 0, "open " + partial + ": " +
                               std::strerror(errno));
    try {
        // Body first, then the self-validating tail (the FCC3 index
        // footer when present) only after the body is durable.
        size_t tail = std::min<size_t>(
            codec::fcc::indexFooterBytes, bytes.size());
        detail::writeAll(fd, bytes.first(bytes.size() - tail),
                         partial);
        detail::fsyncFd(fd, partial);
        detail::writeAll(fd, bytes.subspan(bytes.size() - tail),
                         partial);
        detail::fsyncFd(fd, partial);
    } catch (...) {
        // A failed write (a full disk, a file-size limit) leaves no
        // partial archive behind.
        ::close(fd);
        ::unlink(partial.c_str());
        throw;
    }
    ::close(fd);

    util::require(::rename(partial.c_str(), final_.c_str()) == 0,
                  "rename " + partial + ": " +
                      std::strerror(errno));
    detail::fsyncDirectory(directory_);

    CatalogEntry entry;
    entry.name = name;
    entry.bytes = bytes.size();
    entry.crc32 = util::Crc32::of(bytes);
    entry.minFirstUs = info.minFirstUs;
    entry.maxLastUs = info.maxLastUs;
    entry.records = info.records;
    entry.packets = info.packets;
    catalog_.append(entry);

    ++seq_;
    return entry;
}

} // namespace fcc::archive
