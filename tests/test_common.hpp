/**
 * @file
 * Shared test scaffolding. The one thing every suite needs and each
 * used to hand-roll: scratch paths that cannot collide across test
 * binaries. ctest runs the suites concurrently and gtest's
 * TempDir() is one directory per machine, so two binaries writing
 * "out.fcc" there race — historically dodged by choosing unique
 * file names by hand (and commented as such in test_stream).
 * tempPath()/tempDir() give each *binary* its own subdirectory, so
 * suites are free to use natural names again.
 */
#pragma once

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/packet.hpp"

namespace fcc::test {

/**
 * This binary's private scratch directory under gtest's TempDir(),
 * wiped and re-created on first use. Named after the executable
 * (unique per suite: test_io, test_query, ...) so concurrent test
 * binaries never share paths; the pid fallback covers platforms
 * without program_invocation_short_name.
 */
inline const std::string &
scratchDir()
{
    static const std::string dir = [] {
#ifdef __GLIBC__
        std::string tag = program_invocation_short_name;
#else
        std::string tag = "pid" + std::to_string(::getpid());
#endif
        std::string d = ::testing::TempDir() + "/" + tag;
        std::filesystem::remove_all(d);
        std::filesystem::create_directories(d);
        return d;
    }();
    return dir;
}

/**
 * True when FCC_TEST_SMOKE is set to a non-zero value: suites shrink
 * their workloads (the TSan job sets it).
 */
inline bool
smokeTests()
{
    const char *env = std::getenv("FCC_TEST_SMOKE");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** A file path inside scratchDir(); nothing is created. */
inline std::string
tempPath(const std::string &name)
{
    return scratchDir() + "/" + name;
}

/** A fresh empty directory inside scratchDir(). */
inline std::string
tempDir(const std::string &name)
{
    std::string path = tempPath(name);
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
    return path;
}

/**
 * Make a FIFO at @p path and a thread that writes @p bytes into it
 * and closes it. The writer waits up to 10 s for a reader to open
 * the FIFO, so a reader that never comes cannot hang the test, and
 * the returned thread joins when destroyed, on failure paths too.
 */
inline std::jthread
feedFifo(const std::string &path, std::vector<uint8_t> bytes)
{
    std::filesystem::remove(path);
    EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0) << path;
    return std::jthread([path, bytes = std::move(bytes)] {
        int fd = -1;
        // A non-blocking open fails (ENXIO) until a reader opens.
        for (int ms = 0; fd < 0 && ms < 10000; ++ms) {
            fd = ::open(path.c_str(), O_WRONLY | O_NONBLOCK);
            if (fd < 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
        }
        if (fd < 0)
            return;
        ::fcntl(fd, F_SETFL, 0);  // blocking writes from here on
        for (size_t done = 0; done < bytes.size();) {
            ssize_t n = ::write(fd, bytes.data() + done,
                                bytes.size() - done);
            if (n <= 0)
                break;
            done += static_cast<size_t>(n);
        }
        ::close(fd);
    });
}

/**
 * Field-wise equality of two packet sequences (so byte identity of
 * what any sink writes), reporting the first difference. The
 * canonical order keys on every field: neither-less means equal.
 */
inline ::testing::AssertionResult
samePackets(const std::vector<trace::PacketRecord> &a,
            const std::vector<trace::PacketRecord> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
            << "sizes differ: " << a.size() << " vs " << b.size();
    for (size_t i = 0; i < a.size(); ++i)
        if (trace::packetCanonicalLess(a[i], b[i]) ||
            trace::packetCanonicalLess(b[i], a[i]))
            return ::testing::AssertionFailure()
                << "packet " << i << " differs: " << a[i].str()
                << " vs " << b[i].str();
    return ::testing::AssertionSuccess();
}

} // namespace fcc::test
