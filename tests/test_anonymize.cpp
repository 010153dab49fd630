/**
 * @file
 * Prefix-preserving anonymization tests: bijectivity, exact
 * common-prefix preservation, key sensitivity, and the headline
 * property — longest-prefix-match routing behaviour survives
 * anonymization (unlike naive random sanitization, the §1 concern).
 * Also covers the FCC hybrid deflate-datasets mode.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "analysis/anonymize.hpp"
#include "analysis/semantic.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "memsim/profile_report.hpp"
#include "netbench/apps.hpp"
#include "trace/transforms.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/rng.hpp"

using namespace fcc;
using analysis::PrefixPreservingAnonymizer;

namespace {

uint32_t
commonPrefixLen(uint32_t a, uint32_t b)
{
    return a == b ? 32 : static_cast<uint32_t>(
                             std::countl_zero(a ^ b));
}

trace::Trace
webTrace(uint64_t seed = 71, double seconds = 5.0)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = 80.0;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

} // namespace

TEST(Anonymize, DeterministicAndKeyed)
{
    PrefixPreservingAnonymizer a(1), b(1), c(2);
    EXPECT_EQ(a.anonymize(0x0a000001), b.anonymize(0x0a000001));
    EXPECT_NE(a.anonymize(0x0a000001), c.anonymize(0x0a000001));
}

TEST(Anonymize, BijectiveOnSample)
{
    PrefixPreservingAnonymizer anon(42);
    util::Rng rng(1);
    std::set<uint32_t> outputs;
    for (int i = 0; i < 20000; ++i) {
        uint32_t addr = static_cast<uint32_t>(rng.next());
        outputs.insert(anon.anonymize(addr));
    }
    // Distinct inputs (with overwhelming probability) give distinct
    // outputs; collisions would show as a smaller output set.
    EXPECT_GE(outputs.size(), 19990u);
}

TEST(Anonymize, PreservesCommonPrefixesExactly)
{
    PrefixPreservingAnonymizer anon(7);
    util::Rng rng(2);
    for (int i = 0; i < 5000; ++i) {
        uint32_t a = static_cast<uint32_t>(rng.next());
        // Perturb a at a random bit to control the shared prefix.
        uint32_t bitPos = static_cast<uint32_t>(
            rng.uniformInt(0, 31));
        uint32_t b = a ^ (1u << (31 - bitPos)) ^
                     (static_cast<uint32_t>(rng.next()) &
                      ((bitPos >= 31)
                           ? 0u
                           : ((1u << (31 - bitPos)) - 1)));
        uint32_t before = commonPrefixLen(a, b);
        uint32_t after =
            commonPrefixLen(anon.anonymize(a), anon.anonymize(b));
        EXPECT_EQ(after, before)
            << trace::formatIp(a) << " vs " << trace::formatIp(b);
    }
}

TEST(Anonymize, ActuallyChangesAddresses)
{
    PrefixPreservingAnonymizer anon(9);
    util::Rng rng(3);
    size_t changed = 0;
    for (int i = 0; i < 1000; ++i) {
        uint32_t addr = static_cast<uint32_t>(rng.next());
        changed += anon.anonymize(addr) != addr;
    }
    EXPECT_GT(changed, 990u);
}

TEST(Anonymize, TracePreservesEverythingButAddresses)
{
    trace::Trace original = webTrace();
    PrefixPreservingAnonymizer anon(11);
    trace::Trace masked = anon.anonymizeTrace(original);
    ASSERT_EQ(masked.size(), original.size());
    for (size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(masked[i].timestampNs, original[i].timestampNs);
        EXPECT_EQ(masked[i].srcPort, original[i].srcPort);
        EXPECT_EQ(masked[i].payloadBytes, original[i].payloadBytes);
        EXPECT_EQ(masked[i].tcpFlags, original[i].tcpFlags);
    }
}

TEST(Anonymize, ReuseDistancesAreInvariant)
{
    // A bijection cannot change temporal locality.
    trace::Trace original = webTrace(72);
    PrefixPreservingAnonymizer anon(13);
    trace::Trace masked = anon.anonymizeTrace(original);
    auto a = analysis::reuseDistances(original);
    auto b = analysis::reuseDistances(masked);
    EXPECT_EQ(a.coldAccesses, b.coldAccesses);
    EXPECT_DOUBLE_EQ(a.distances.ksDistance(b.distances), 0.0);
}

TEST(Anonymize, PrefixCountsAreInvariant)
{
    trace::Trace original = webTrace(73);
    PrefixPreservingAnonymizer anon(17);
    trace::Trace masked = anon.anonymizeTrace(original);
    auto a = analysis::addressStructure(original);
    auto b = analysis::addressStructure(masked);
    EXPECT_EQ(a.distinctAddresses, b.distinctAddresses);
    EXPECT_EQ(a.distinctSlash8, b.distinctSlash8);
    EXPECT_EQ(a.distinctSlash16, b.distinctSlash16);
    EXPECT_EQ(a.distinctSlash24, b.distinctSlash24);
}

TEST(Anonymize, RoutingBehaviourSurvives)
{
    // Anonymize trace AND table under one key: the radix tree walk
    // profile must be identical packet for packet — exactly why
    // prefix-preserving sanitization beats the naive kind the paper
    // complains about.
    trace::Trace original = webTrace(74, 4.0);
    PrefixPreservingAnonymizer anon(19);
    trace::Trace masked = anon.anonymizeTrace(original);

    std::vector<uint32_t> dsts;
    for (const auto &pkt : original)
        dsts.push_back(pkt.dstIp);
    auto table = netbench::generateRoutingTable(5000, 3, dsts);
    auto maskedTable = table;
    for (auto &entry : maskedTable) {
        // Anonymize the prefix by anonymizing a representative
        // address and re-truncating (prefix-preservation makes the
        // choice of host bits irrelevant).
        uint32_t mask = entry.prefixLen >= 32
            ? 0xffffffffu
            : (entry.prefixLen == 0
                   ? 0u
                   : ~((1u << (32 - entry.prefixLen)) - 1));
        entry.prefix = anon.anonymize(entry.prefix) & mask;
    }

    memsim::MemoryRecorder recOrig, recMasked;
    netbench::RouteApp origApp(table, &recOrig);
    netbench::RouteApp maskedApp(maskedTable, &recMasked);
    auto s1 = netbench::profileTrace(origApp, original, recOrig);
    auto s2 = netbench::profileTrace(maskedApp, masked, recMasked);
    ASSERT_EQ(s1.size(), s2.size());
    for (size_t i = 0; i < s1.size(); ++i)
        EXPECT_EQ(s1[i].accesses, s2[i].accesses) << i;
}

TEST(Anonymize, RandomSanitizationDoesNot)
{
    // Contrast: the naive sanitization destroys the walk profile.
    trace::Trace original = webTrace(75, 3.0);
    trace::Trace random = trace::randomizeAddresses(original, 5);
    std::vector<uint32_t> dsts;
    for (const auto &pkt : original)
        dsts.push_back(pkt.dstIp);
    auto table = netbench::generateRoutingTable(5000, 3, dsts);

    memsim::MemoryRecorder recOrig, recRandom;
    netbench::RouteApp appA(table, &recOrig);
    netbench::RouteApp appB(table, &recRandom);
    auto s1 = netbench::profileTrace(appA, original, recOrig);
    auto s2 = netbench::profileTrace(appB, random, recRandom);
    EXPECT_LT(memsim::meanAccesses(s2),
              memsim::meanAccesses(s1) * 0.7);
}

// ---- deflate on top of the datasets ------------------------------------
//
// The whole-blob zlib hybrid of the row containers is no longer
// written; FCC3 with the deflate backend is its successor, and
// Golden.ArchivesDecodeByteExact pins the hybrid reader.

TEST(FccHybrid, CompressesFurtherAndRoundTrips)
{
    trace::Trace original = webTrace(76, 8.0);

    codec::fcc::FccTraceCompressor plain;
    codec::fcc::FccConfig deflateCfg;
    deflateCfg.container = codec::fcc::ContainerFormat::Fcc3;
    deflateCfg.backend = codec::backend::EntropyBackend::Deflate;
    codec::fcc::FccTraceCompressor deflated(deflateCfg);

    auto plainBytes = plain.compress(original);
    auto deflatedBytes = deflated.compress(original);
    EXPECT_LT(deflatedBytes.size(), plainBytes.size());

    // Either codec instance decodes either container.
    trace::Trace a = plain.decompress(deflatedBytes);
    trace::Trace b = deflated.decompress(plainBytes);
    EXPECT_EQ(a.size(), original.size());
    EXPECT_EQ(b.size(), original.size());
    // Same datasets and chunk layout underneath: identical
    // reconstructions.
    EXPECT_EQ(trace::writeTsh(a), trace::writeTsh(b));
}

TEST(FccHybrid, RatioBelowThreePercent)
{
    trace::Trace original = webTrace(77, 12.0);
    codec::fcc::FccConfig cfg;
    cfg.container = codec::fcc::ContainerFormat::Fcc3;
    cfg.backend = codec::backend::EntropyBackend::Deflate;
    codec::fcc::FccTraceCompressor fcc3(cfg);
    double ratio =
        static_cast<double>(fcc3.compress(original).size()) /
        static_cast<double>(original.size() *
                            trace::tshRecordBytes);
    EXPECT_LT(ratio, 0.03);
}
