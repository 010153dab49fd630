/**
 * @file
 * Streaming (file-to-file) FCC interface tests: one output contract
 * (every compression entry point writes the same bytes), the
 * session's ordering rules, the §4 incremental flush (the sorted-run drain,
 * byte-identical to expand() and the golden references at any
 * thread count), and error paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>

#include "codec/deflate/deflate.hpp"
#include "codec/fcc/datasets.hpp"
#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/session.hpp"
#include "codec/fcc/stream.hpp"
#include "flow/flow_stats.hpp"
#include "flow/flow_table.hpp"
#include "trace/pcapng.hpp"
#include "trace/scenario_gen.hpp"
#include "trace/source.hpp"
#include "trace/tsh.hpp"
#include "trace/web_gen.hpp"
#include "util/checksum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#include "test_common.hpp"

using namespace fcc;
namespace fccc = fcc::codec::fcc;

namespace {

trace::Trace
webTrace(uint64_t seed, double seconds)
{
    trace::WebGenConfig cfg;
    cfg.seed = seed;
    cfg.durationSec = seconds;
    cfg.flowsPerSec = 80.0;
    trace::WebTrafficGenerator gen(cfg);
    return gen.generate();
}

using fcc::test::smokeTests;
using fcc::test::tempPath;

/** Explicit TSH spec: these fixtures move raw 44-byte records. */
const trace::TraceFormatSpec kTsh =
    trace::parseTraceFormatSpec("tsh");

void
writeBytes(const std::string &path, const std::vector<uint8_t> &data)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(data.data()),
              static_cast<std::streamsize>(data.size()));
}

/** Field-wise total order so traces compare as multisets. */
bool
packetLess(const trace::PacketRecord &a, const trace::PacketRecord &b)
{
    auto key = [](const trace::PacketRecord &p) {
        return std::tuple(p.timestampNs, p.srcIp, p.dstIp, p.srcPort,
                          p.dstPort, p.tcpFlags, p.payloadBytes,
                          p.seq, p.ack, p.window, p.ipId);
    };
    return key(a) < key(b);
}

} // namespace

TEST(Stream, CompressedFileDecodesLikeInMemory)
{
    trace::Trace original = webTrace(31, 6.0);
    std::string tshIn = tempPath("stream_in.tsh");
    std::string fccOut = tempPath("stream_out.fcc");
    trace::writeTshFile(original, tshIn);

    auto stats = fccc::compressTraceFile(tshIn, fccOut, {}, kTsh);
    EXPECT_EQ(stats.packets, original.size());
    EXPECT_EQ(stats.inputBytes,
              original.size() * trace::tshRecordBytes);
    EXPECT_GT(stats.flows, 100u);
    EXPECT_LT(stats.ratio(), 0.06);
    EXPECT_GT(stats.ratio(), 0.01);

    // The file decodes with the normal codec and preserves flow
    // structure exactly.
    std::ifstream in(fccOut, std::ios::binary);
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    fccc::FccTraceCompressor codec;
    trace::Trace restored = codec.decompress(bytes);
    EXPECT_EQ(restored.size(), original.size());

    flow::FlowTable table;
    auto origStats =
        flow::computeFlowStats(table.assemble(original), original);
    auto backStats =
        flow::computeFlowStats(table.assemble(restored), restored);
    EXPECT_EQ(backStats.flows, origStats.flows);
    EXPECT_EQ(backStats.lengthCounts, origStats.lengthCounts);

    std::remove(tshIn.c_str());
    std::remove(fccOut.c_str());
}

namespace {

/** Read a whole file as bytes. */
std::vector<uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
}

/** Seal a fresh session fed @p tr in batches of @p batch packets. */
std::vector<uint8_t>
sessionBytes(const trace::Trace &tr, const fccc::FccConfig &cfg,
             size_t batch)
{
    fccc::CompressSession session(cfg);
    std::span<const trace::PacketRecord> all(tr.packets());
    for (size_t i = 0; i < all.size(); i += batch)
        session.feed(all.subspan(i, std::min(batch, all.size() - i)));
    return session.seal();
}

/** The web mix and every adversarial scenario, test-sized. */
std::vector<std::pair<std::string, trace::Trace>>
contractTraces()
{
    std::vector<std::pair<std::string, trace::Trace>> out;
    out.emplace_back("web", webTrace(34, smokeTests() ? 2.0 : 5.0));
    for (trace::ScenarioKind kind : trace::allScenarios()) {
        trace::ScenarioConfig cfg = trace::scenarioDefaults(kind, 2005);
        cfg.flows = smokeTests() ? 40 : 240;
        cfg.durationSec = 4.0;
        trace::ScenarioGenerator gen(cfg);
        out.emplace_back(trace::scenarioName(kind), gen.generate());
    }
    return out;
}

trace::PacketRecord
tcpPacket(uint64_t ns, uint32_t src, uint16_t sport, uint32_t dst,
          uint16_t dport, uint8_t flags)
{
    trace::PacketRecord pkt;
    pkt.timestampNs = ns;
    pkt.protocol = trace::ip_proto::Tcp;
    pkt.srcIp = src;
    pkt.srcPort = sport;
    pkt.dstIp = dst;
    pkt.dstPort = dport;
    pkt.tcpFlags = flags;
    return pkt;
}

} // namespace

TEST(Stream, EveryEntryPointWritesTheSameBytes)
{
    // One output contract: compress(Trace), compressTraceFile and a
    // session fed one packet at a time or in 4096-packet batches
    // write identical archives, at any thread count. pcapng keeps
    // full nanosecond timestamps, so the file path sees exactly the
    // packets the in-memory paths see.
    const fccc::ContainerFormat containers[] = {
        fccc::ContainerFormat::Fcc2, fccc::ContainerFormat::Fcc3};
    for (const auto &[name, tr] : contractTraces()) {
        SCOPED_TRACE(name);
        ASSERT_FALSE(tr.empty());
        std::string capture = tempPath("contract_in.pcapng");
        std::string fccOut = tempPath("contract_out.fcc");
        trace::writePcapngFile(tr, capture);
        ASSERT_TRUE(fcc::test::samePackets(
            trace::readPcapngFile(capture).packets(), tr.packets()));
        size_t flows = flow::FlowTable().assemble(tr).size();

        for (fccc::ContainerFormat container : containers) {
            SCOPED_TRACE(fccc::containerFormatName(container));
            fccc::FccConfig cfg;
            cfg.container = container;
            if (container == fccc::ContainerFormat::Fcc3) {
                cfg.chunkRecords = 64;
                cfg.index = true;
            }
            cfg.threads = 1;
            std::vector<uint8_t> reference =
                fccc::FccTraceCompressor(cfg).compress(tr);
            EXPECT_EQ(fccc::deserializeAuto(reference, 1).timeSeq.size(),
                      flows);

            for (uint32_t threads : {1u, 2u, 4u, 8u}) {
                SCOPED_TRACE(threads);
                cfg.threads = threads;
                EXPECT_EQ(fccc::FccTraceCompressor(cfg).compress(tr),
                          reference);
                fccc::compressTraceFile(capture, fccOut, cfg);
                EXPECT_EQ(readBytes(fccOut), reference);
                EXPECT_EQ(sessionBytes(tr, cfg, 1), reference);
                EXPECT_EQ(sessionBytes(tr, cfg, 4096), reference);
            }
        }
        std::remove(capture.c_str());
        std::remove(fccOut.c_str());
    }
}

TEST(Stream, IdleTimeoutComparesWholeNanoseconds)
{
    // The second packet arrives exactly one timeout after a first
    // packet at a non-whole microsecond: the gap does not exceed the
    // timeout, so it is one flow. One nanosecond later it would not
    // be.
    fccc::FccConfig cfg;
    const uint32_t client = 0x0a000001, server = 0x0a000002;
    using namespace trace::tcp_flags;
    for (uint64_t extraNs : {0ull, 1ull}) {
        SCOPED_TRACE(extraNs);
        trace::Trace tr;
        tr.add(tcpPacket(1000500, client, 40000, server, 80, Syn));
        tr.add(tcpPacket(1000500 + flow::flowIdleTimeoutNs + extraNs,
                         client, 40000, server, 80, Ack));
        size_t expected = extraNs == 0 ? 1 : 2;
        EXPECT_EQ(flow::FlowTable().assemble(tr).size(), expected);
        fccc::CompressSession session(cfg);
        session.feed(tr.packets());
        EXPECT_EQ(fccc::deserializeAuto(session.seal(), 1).timeSeq.size(),
                  expected);
        EXPECT_EQ(fccc::deserializeAuto(
                      fccc::FccTraceCompressor(cfg).compress(tr), 1)
                      .timeSeq.size(),
                  expected);
    }
}

TEST(Stream, OpenFlowsSealInCanonicalOrder)
{
    // Many flows start within one microsecond and are all still open
    // at seal(). Their records come out in (first ns, 5-tuple) order,
    // and since they close in that order too, the address dictionary
    // follows it. Each flow has its own server, so the address of a
    // record names its flow.
    std::vector<trace::PacketRecord> starts;
    for (uint32_t i = 0; i < 96; ++i) {
        // Nanosecond offsets repeat (ties broken by the 5-tuple) and
        // do not follow the address order.
        uint64_t ns = 7000000 + (i * 37) % 5;
        starts.push_back(tcpPacket(ns, 0x0b000000 + i * 7919 % 1000,
                                   static_cast<uint16_t>(20000 + i),
                                   0x0c000000 + i, 80,
                                   trace::tcp_flags::Syn));
    }
    std::vector<trace::PacketRecord> fed = starts;
    std::stable_sort(fed.begin(), fed.end(),
                     [](const trace::PacketRecord &a,
                        const trace::PacketRecord &b) {
                         return a.timestampNs < b.timestampNs;
                     });
    std::vector<trace::PacketRecord> expected = starts;
    std::sort(expected.begin(), expected.end(),
              [](const trace::PacketRecord &a,
                 const trace::PacketRecord &b) {
                  return flow::canonicalFlowOrderKey(
                             a.timestampNs, flow::FlowKey::fromPacket(a)) <
                         flow::canonicalFlowOrderKey(
                             b.timestampNs, flow::FlowKey::fromPacket(b));
              });

    fccc::CompressSession session(fccc::FccConfig{});
    session.feed(fed);
    fccc::Datasets d = fccc::deserializeAuto(session.seal(), 1);
    ASSERT_EQ(d.timeSeq.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(d.addresses[d.timeSeq[i].addressIndex],
                  expected[i].dstIp)
            << "record " << i;
        EXPECT_EQ(d.addresses[i], expected[i].dstIp) << "address " << i;
    }
}

TEST(Stream, WriterKnownAnswerBytes)
{
    // The golden corpus (tests/golden) pins the readers; this pins
    // the writers. Size and CRC-32 of compress(Trace) over one seeded
    // web trace in every writable cell, recorded from the writer
    // before the open-addressing flow table and the table-driven
    // deflate encoder. A failure is an output change: record it in
    // FORMAT.md, or mend the writer.
    using Backend = codec::backend::EntropyBackend;
    struct Answer
    {
        const char *name;
        fccc::ContainerFormat container;
        Backend backend;
        bool index;
        fccc::Fidelity fidelity;
        size_t bytes;
        uint32_t crc;
    };
    const auto fcc2 = fccc::ContainerFormat::Fcc2;
    const auto fcc3 = fccc::ContainerFormat::Fcc3;
    const auto exact = fccc::Fidelity::Exact;
    const Answer answers[] = {
        {"fcc2", fcc2, Backend::Deflate, false, exact,
         17894, 0xD54ED082u},
        {"store", fcc3, Backend::Store, false, exact,
         17428, 0x6E7C14CCu},
        {"store indexed", fcc3, Backend::Store, true, exact,
         18959, 0x7AA91940u},
        {"deflate", fcc3, Backend::Deflate, false, exact,
         12598, 0x568C21C7u},
        {"deflate indexed", fcc3, Backend::Deflate, true, exact,
         14900, 0xA2F1AD95u},
        {"range", fcc3, Backend::Range, false, exact,
         12658, 0x0E0654DFu},
        {"range indexed", fcc3, Backend::Range, true, exact,
         14599, 0xEAA7CDC5u},
        {"range-lanes", fcc3, Backend::RangeLanes, false, exact,
         12697, 0xDD049C2Du},
        {"range-lanes indexed", fcc3, Backend::RangeLanes, true, exact,
         14688, 0xD964DEA5u},
        {"quantized", fcc3, Backend::Deflate, false,
         fccc::Fidelity::Quantized, 11724, 0x99F38B66u},
        {"header", fcc3, Backend::Deflate, false,
         fccc::Fidelity::Header, 12587, 0x0D7F0238u},
        {"flow", fcc3, Backend::Deflate, false,
         fccc::Fidelity::Flow, 7553, 0x515330D9u},
    };
    trace::Trace tr = webTrace(41, 10.0);
    for (const Answer &a : answers) {
        for (uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(std::string(a.name) + " at " +
                         std::to_string(threads) + " threads");
            fccc::FccConfig cfg;
            cfg.container = a.container;
            cfg.backend = a.backend;
            cfg.index = a.index;
            cfg.fidelity = a.fidelity;
            cfg.chunkRecords = 64;  // span several chunks
            cfg.threads = threads;
            std::vector<uint8_t> bytes =
                fccc::FccTraceCompressor(cfg).compress(tr);
            EXPECT_EQ(bytes.size(), a.bytes);
            EXPECT_EQ(util::Crc32::of(bytes), a.crc);
        }
    }
}

namespace {

/**
 * A trace that churns the session's flow table. It opens 120,000
 * flows before any closes, so the table grows several times; every
 * fifth flow starts with the server's SYN+ACK. The flows then close
 * in a stride order (RST or the graceful FIN, FIN, ACK), so deletes
 * land inside probe runs; every 997th flow turns long first, and
 * every tenth stays open for the end-of-epoch sweep. Last, one
 * 5-tuple left open comes back after the idle timeout with an RST:
 * that one packet closes the idle flow and the flow it starts.
 * @p variant shifts the payload sizes, and so the flows' clusters.
 */
trace::Trace
churnTrace(uint32_t variant)
{
    constexpr uint32_t flows = 120000;
    constexpr uint32_t reopened = 4242;
    using namespace trace::tcp_flags;
    trace::Trace tr;
    uint64_t ns = 1000;
    auto add = [&](uint32_t i, bool fromClient, uint8_t flags,
                   uint16_t payload) {
        uint32_t client = 0x0a000000 + i;
        uint32_t server = 0xc0a80000 + i % 251;
        auto port = static_cast<uint16_t>(1024 + i % 60000);
        trace::PacketRecord pkt =
            fromClient ? tcpPacket(ns, client, port, server, 80, flags)
                       : tcpPacket(ns, server, 80, client, port, flags);
        pkt.payloadBytes = payload;
        tr.add(pkt);
        ns += 1000;
    };
    for (uint32_t i = 0; i < flows; ++i) {
        if (i % 5 == 0)
            add(i, false, Syn | Ack, 0);
        else
            add(i, true, Syn, 0);
    }
    for (uint32_t k = 0; k < flows; ++k) {
        uint32_t i = static_cast<uint32_t>(uint64_t{k} * 7919 % flows);
        if (i % 10 == 3 || i == reopened)
            continue;
        add(i, false, Ack,
            static_cast<uint16_t>(100 + (i + 300 * variant) % 1200));
        if (i % 997 == 0)
            for (int j = 0; j < 60; ++j)
                add(i, j % 2 == 0, Ack, 1460);
        if (i % 2 == 0) {
            add(i, true, Rst, 0);
        } else {
            add(i, true, Fin | Ack, 0);
            add(i, false, Fin | Ack, 0);
            add(i, true, Ack, 0);
        }
    }
    ns += flow::flowIdleTimeoutNs;
    add(reopened, true, Rst, 0);
    return tr;
}

} // namespace

TEST(Stream, FlowTableChurnKnownAnswer)
{
    // Two epochs of the churn trace per session, the second with
    // shifted payloads, with template carry on and off. Size and
    // CRC-32 of each sealed archive were recorded from the session's
    // node-based flow map, so any change in close order or
    // clustering shows. The reopened flow returns after the 60 s
    // idle timeout; the answers for this trace were recorded from the
    // writer that still took the timeout as a setting, at its 60 s
    // default.
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.index = true;
    cfg.threads = 1;
    const trace::Trace epochs[] = {churnTrace(0), churnTrace(1)};

    struct Sealed
    {
        size_t bytes;
        uint32_t crc;
    };
    const Sealed first = {275425, 0xEF13836Du};
    const Sealed secondCarried = {275436, 0xF7993570u};
    const Sealed secondCold = {275436, 0x9C44340Cu};
    for (bool carry : {true, false}) {
        SCOPED_TRACE(carry ? "carry on" : "carry off");
        fccc::SessionOptions options;
        options.carryTemplates = carry;
        fccc::CompressSession session(cfg, options);
        std::vector<Sealed> sealed;
        for (int epoch = 0; epoch < 2; ++epoch) {
            if (epoch > 0)
                session.reArm();
            session.feed(epochs[epoch].packets());
            fccc::SealInfo info;
            std::vector<uint8_t> bytes = session.seal(&info);
            // Every flow once, and the reopened 5-tuple twice.
            EXPECT_EQ(info.records, 120001u);
            sealed.push_back({bytes.size(), util::Crc32::of(bytes)});
        }
        const Sealed &second = carry ? secondCarried : secondCold;
        EXPECT_EQ(sealed[0].bytes, first.bytes);
        EXPECT_EQ(sealed[0].crc, first.crc);
        EXPECT_EQ(sealed[1].bytes, second.bytes);
        EXPECT_EQ(sealed[1].crc, second.crc);
    }
}

TEST(Stream, DecompressMatchesBatchExactly)
{
    // Feeding a batch-compressed stream through the streaming
    // decompressor must reproduce the batch reconstruction packet
    // for packet (same seed, same record order).
    trace::Trace original = webTrace(33, 5.0);
    fccc::FccTraceCompressor codec;
    auto bytes = codec.compress(original);
    trace::Trace batch = codec.decompress(bytes);

    std::string fccIn = tempPath("batch.fcc");
    std::string tshOut = tempPath("streamed.tsh");
    writeBytes(fccIn, bytes);
    auto stats =
        fccc::decompressTraceFile(fccIn, tshOut, {}, kTsh);
    EXPECT_EQ(stats.packets, batch.size());
    EXPECT_EQ(stats.flows,
              flow::FlowTable().assemble(original).size());

    trace::Trace streamed = trace::readTshFile(tshOut);
    ASSERT_EQ(streamed.size(), batch.size());

    // Compare as multisets (equal timestamps may interleave
    // differently between the heap flush and the batch sort).
    std::vector<trace::PacketRecord> a = batch.packets();
    std::vector<trace::PacketRecord> b = streamed.packets();
    std::sort(a.begin(), a.end(), packetLess);
    std::sort(b.begin(), b.end(), packetLess);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].timestampUs(), b[i].timestampUs()) << i;
        EXPECT_EQ(a[i].srcIp, b[i].srcIp) << i;
        EXPECT_EQ(a[i].dstIp, b[i].dstIp) << i;
        EXPECT_EQ(a[i].tcpFlags, b[i].tcpFlags) << i;
        EXPECT_EQ(a[i].payloadBytes, b[i].payloadBytes) << i;
    }

    // The streamed output is itself time-ordered.
    EXPECT_TRUE(streamed.isTimeOrdered());

    std::remove(fccIn.c_str());
    std::remove(tshOut.c_str());
}

TEST(Stream, FullFileRoundTrip)
{
    trace::Trace original = webTrace(34, 4.0);
    std::string tshIn = tempPath("rt_in.tsh");
    std::string fccMid = tempPath("rt_mid.fcc");
    std::string tshOut = tempPath("rt_out.tsh");
    trace::writeTshFile(original, tshIn);

    fccc::compressTraceFile(tshIn, fccMid, {}, kTsh);
    auto stats =
        fccc::decompressTraceFile(fccMid, tshOut, {}, kTsh);
    EXPECT_EQ(stats.packets, original.size());

    trace::Trace restored = trace::readTshFile(tshOut);
    EXPECT_EQ(restored.size(), original.size());
    EXPECT_TRUE(restored.isTimeOrdered());

    std::remove(tshIn.c_str());
    std::remove(fccMid.c_str());
    std::remove(tshOut.c_str());
}

TEST(Stream, CrossContainerMatrixDecodesIdentically)
{
    // One trace, compressed as FCC2 and FCC3, must decompress to the
    // identical TSH bytes: expansion is driven by the chunk layout
    // (one RNG stream per chunk), never by the container. The legacy
    // unchunked layouts are no longer written; their shared
    // sequential-stream expansion is pinned by the golden corpus
    // (Golden.ArchivesDecodeByteExact: fcc1.fcc, fcc3-unchunked.fcc
    // and the zlib-wrapped fcc1.fcc all decode to
    // expected-fcc1.tsh).
    trace::Trace original = webTrace(35, 5.0);
    std::string tshIn = tempPath("matrix_in.tsh");
    trace::writeTshFile(original, tshIn);

    auto compressAs = [&](fccc::ContainerFormat container,
                          uint32_t chunkRecords,
                          const char *name) {
        fccc::FccConfig cfg;
        cfg.container = container;
        cfg.chunkRecords = chunkRecords;
        std::string fcc = tempPath(name) + ".fcc";
        fccc::compressTraceFile(tshIn, fcc, cfg);
        std::string tsh = tempPath(name) + ".tsh";
        fccc::decompressTraceFile(fcc, tsh, cfg, kTsh);
        std::ifstream in(tsh, std::ios::binary);
        std::vector<uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        EXPECT_FALSE(bytes.empty()) << name;
        std::remove(fcc.c_str());
        std::remove(tsh.c_str());
        return bytes;
    };

    for (uint32_t chunkRecords : {256u, 100000u}) {
        SCOPED_TRACE(chunkRecords);
        auto c2 = compressAs(fccc::ContainerFormat::Fcc2,
                             chunkRecords, "mc2");
        auto c3 = compressAs(fccc::ContainerFormat::Fcc3,
                             chunkRecords, "mc3");
        EXPECT_EQ(c2, c3);
    }

    std::remove(tshIn.c_str());
}

TEST(Stream, ConfigRejectsUnchunkedLayout)
{
    // Every written archive is chunked: a zero chunk size is not a
    // layout, and every entry point refuses it the same way.
    fccc::FccConfig cfg;
    cfg.chunkRecords = 0;
    EXPECT_THROW(cfg.validate(), util::Error);
    EXPECT_THROW(fccc::CompressSession{cfg}, util::Error);
    EXPECT_THROW(fccc::FccTraceCompressor(cfg).compress(webTrace(3, 1.0)),
                 util::Error);
    EXPECT_THROW(fccc::chunkLayout(10, 0), util::Error);
}

TEST(Stream, SessionRejectsMoreThan1024Threads)
{
    // A session starts a shard and a worker per thread, so it checks
    // the count before it starts any (fccd and fcctool compress run
    // on a session).
    fccc::FccConfig cfg;
    cfg.threads = 1025;
    EXPECT_THROW(cfg.validate(), util::Error);
    EXPECT_THROW(fccc::CompressSession{cfg}, util::Error);
}

TEST(Stream, RotatedLayoutIsContainerIndependent)
{
    // The session fixes the chunk layout once, time cuts included,
    // and both containers store it as it is: the same datasets
    // written as FCC2 and as FCC3 decode to the same layout and
    // reconstruct the same packets.
    trace::Trace tr = webTrace(38, 4.0);
    const std::vector<trace::PacketRecord> &packets = tr.packets();
    fccc::FccConfig cfg;
    cfg.chunkRecords = 64;
    cfg.threads = 1;
    auto feedWithCut = [&](fccc::CompressSession &session) {
        session.feed(std::span(packets).first(packets.size() / 3));
        session.rotateChunk();
        session.feed(std::span(packets).subspan(packets.size() / 3));
    };

    fccc::CompressSession cut(cfg);
    feedWithCut(cut);
    fccc::Datasets d = cut.sealDatasets();
    // The cut shows: some chunk before the last is short.
    ASSERT_GT(d.chunkSizes.size(), 2u);
    EXPECT_TRUE(std::any_of(d.chunkSizes.begin(),
                            d.chunkSizes.end() - 1,
                            [](uint32_t n) { return n < 64; }));

    std::vector<uint8_t> reference;
    for (fccc::ContainerFormat container :
         {fccc::ContainerFormat::Fcc2, fccc::ContainerFormat::Fcc3}) {
        SCOPED_TRACE(fccc::containerFormatName(container));
        fccc::FccConfig c = cfg;
        c.container = container;
        fccc::SizeBreakdown sizes;
        std::vector<uint8_t> bytes =
            fccc::serializeDatasets(d, c, sizes);
        EXPECT_EQ(fccc::deserialize(bytes).chunkSizes, d.chunkSizes);
        // A session of either container seals the same bytes.
        fccc::CompressSession session(c);
        feedWithCut(session);
        EXPECT_EQ(session.seal(), bytes);
        std::vector<uint8_t> tsh =
            trace::writeTsh(fccc::FccTraceCompressor(c).decompress(bytes));
        if (reference.empty())
            reference = tsh;
        EXPECT_EQ(tsh, reference);
    }
}

TEST(Stream, ExpandOfBuiltDatasetsMatchesDecompress)
{
    // buildDatasets returns the layout compress() writes, so
    // expanding the datasets reconstructs what decompressing the
    // archive does.
    trace::Trace tr = webTrace(39, 4.0);
    for (fccc::ContainerFormat container :
         {fccc::ContainerFormat::Fcc2, fccc::ContainerFormat::Fcc3}) {
        SCOPED_TRACE(fccc::containerFormatName(container));
        fccc::FccConfig cfg;
        cfg.container = container;
        cfg.chunkRecords = 64;
        fccc::FccTraceCompressor codec(cfg);
        fccc::FccCompressStats stats;
        fccc::Datasets d = codec.buildDatasets(tr, stats);
        EXPECT_EQ(d.chunkSizes,
                  fccc::chunkLayout(d.timeSeq.size(), 64));
        EXPECT_EQ(trace::writeTsh(codec.expand(d)),
                  trace::writeTsh(codec.decompress(codec.compress(tr))));
    }
}

TEST(Stream, Fcc3DeflateNoLargerThanFcc2)
{
    // The acceptance bar of the columnar refactor: on the reference
    // seed-2005 trace, FCC3 with the deflate backend must not lose
    // to the FCC2 whole-blob baseline.
    trace::Trace original = webTrace(2005, 8.0);
    std::string tshIn = tempPath("sz_in.tsh");
    trace::writeTshFile(original, tshIn);

    fccc::FccConfig cfg2;
    cfg2.container = fccc::ContainerFormat::Fcc2;
    std::string f2 = tempPath("sz2.fcc");
    auto s2 = fccc::compressTraceFile(tshIn, f2, cfg2);

    fccc::FccConfig cfg3;
    cfg3.container = fccc::ContainerFormat::Fcc3;
    cfg3.backend = codec::backend::EntropyBackend::Deflate;
    std::string f3 = tempPath("sz3.fcc");
    auto s3 = fccc::compressTraceFile(tshIn, f3, cfg3);

    EXPECT_LE(s3.outputBytes, s2.outputBytes);
    EXPECT_GT(s3.outputBytes, 0u);

    std::remove(tshIn.c_str());
    std::remove(f2.c_str());
    std::remove(f3.c_str());
}

TEST(Stream, Fcc3ByteIdenticalAcrossThreadCounts)
{
    // FCC3 with the deflate backend round-trips byte-identically at
    // 1/2/4/8 threads, both directions.
    trace::Trace original = webTrace(36, 5.0);
    std::string tshIn = tempPath("thr_in.tsh");
    trace::writeTshFile(original, tshIn);

    std::vector<uint8_t> refFcc, refTsh;
    for (uint32_t threads : {1u, 2u, 4u, 8u}) {
        fccc::FccConfig cfg;
        cfg.container = fccc::ContainerFormat::Fcc3;
        cfg.threads = threads;
        cfg.chunkRecords = 64;  // span several chunks
        std::string fcc = tempPath("thr.fcc");
        fccc::compressTraceFile(tshIn, fcc, cfg);
        std::ifstream in(fcc, std::ios::binary);
        std::vector<uint8_t> fccBytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        auto tshBytes = trace::writeTsh(
            fccc::FccTraceCompressor(cfg).decompress(fccBytes));
        if (threads == 1) {
            refFcc = fccBytes;
            refTsh = tshBytes;
            EXPECT_FALSE(refFcc.empty());
        } else {
            EXPECT_EQ(fccBytes, refFcc) << threads << " threads";
            EXPECT_EQ(tshBytes, refTsh) << threads << " threads";
        }
        std::remove(fcc.c_str());
    }
    std::remove(tshIn.c_str());
}

TEST(Stream, SplitDeflateParseIdenticalAcrossThreadCounts)
{
    // long_ipt here is several times the field-coded size from which
    // a deflate column's LZ77 parse splits into segments on the pool
    // (two windows), so from 2 threads up the column is stitched from
    // segments. Both layouts must match the one-thread bytes.
    trace::WebGenConfig gen;
    gen.seed = 2005;
    gen.durationSec = 30.0;
    gen.flowsPerSec = 1000.0;
    trace::Trace tr = trace::WebTrafficGenerator(gen).generate();
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.threads = 1;
    fccc::CompressSession session(cfg);
    session.feed(tr.packets());
    fccc::Datasets datasets = session.sealDatasets();

    for (bool indexed : {false, true}) {
        SCOPED_TRACE(indexed ? "indexed" : "plain");
        cfg.index = indexed;
        std::vector<uint8_t> reference;
        for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
            SCOPED_TRACE(threads);
            cfg.threads = threads;
            fccc::SizeBreakdown sizes;
            std::vector<fccc::ColumnStat> columns;
            std::vector<uint8_t> bytes =
                fccc::serializeDatasets(datasets, cfg, sizes, &columns);
            auto ipt = std::find_if(
                columns.begin(), columns.end(),
                [](const fccc::ColumnStat &c) {
                    return c.name == "long_ipt";
                });
            ASSERT_NE(ipt, columns.end());
            EXPECT_GE(ipt->encodedBytes, 4 * 2 * codec::deflate::windowSize);
            EXPECT_EQ(ipt->backend, codec::backend::EntropyBackend::Deflate);
            if (threads == 1)
                reference = std::move(bytes);
            else
                EXPECT_EQ(bytes, reference);
        }
    }
}

TEST(Stream, HybridDeflateRoundTripsViaStreaming)
{
    // The whole-blob zlib hybrid is no longer written, but streaming
    // decompression still unwraps it before container detection: a
    // wrapped archive drains to the bytes of the archive it wraps.
    trace::Trace original = webTrace(37, 4.0);
    std::string tshIn = tempPath("hybrid_in.tsh");
    trace::writeTshFile(original, tshIn);

    fccc::FccConfig cfg;
    std::string fccPlain = tempPath("hybrid_plain.fcc");
    std::string fccMid = tempPath("hybrid.fcc");
    std::string tshPlain = tempPath("hybrid_plain.tsh");
    std::string tshOut = tempPath("hybrid.tsh");
    fccc::compressTraceFile(tshIn, fccPlain, cfg);
    std::vector<uint8_t> bytes =
        codec::deflate::zlibCompress(readBytes(fccPlain));
    ASSERT_FALSE(bytes.empty());
    EXPECT_EQ(bytes[0], 0x78);  // zlib CMF
    std::ofstream(fccMid, std::ios::binary)
        .write(reinterpret_cast<const char *>(bytes.data()),
               static_cast<std::streamsize>(bytes.size()));

    fccc::decompressTraceFile(fccPlain, tshPlain, cfg, kTsh);
    auto stats =
        fccc::decompressTraceFile(fccMid, tshOut, cfg, kTsh);
    EXPECT_EQ(stats.packets, original.size());
    EXPECT_EQ(stats.inputBytes, bytes.size());
    EXPECT_EQ(readBytes(tshOut), readBytes(tshPlain));

    for (const std::string &path :
         {tshIn, fccPlain, fccMid, tshPlain, tshOut})
        std::remove(path.c_str());
}

TEST(Stream, MissingInputFileThrows)
{
    EXPECT_THROW(fccc::compressTraceFile(tempPath("nope.tsh"),
                                         tempPath("x.fcc"), {},
                                         kTsh),
                 util::Error);
    EXPECT_THROW(fccc::decompressTraceFile(tempPath("nope.fcc"),
                                           tempPath("x.tsh"), {},
                                           kTsh),
                 util::Error);
}

TEST(Stream, PartialTshRecordRejected)
{
    std::string path = tempPath("partial.tsh");
    std::vector<uint8_t> bad(trace::tshRecordBytes + 7, 0);
    // Make the first record a valid IPv4 header so only the trailing
    // partial record is at fault.
    trace::Trace one;
    trace::PacketRecord pkt;
    one.add(pkt);
    auto good = trace::writeTsh(one);
    std::copy(good.begin(), good.end(), bad.begin());
    writeBytes(path, bad);
    EXPECT_THROW(fccc::compressTraceFile(path, tempPath("x.fcc"),
                                         {}, kTsh),
                 util::Error);
    std::remove(path.c_str());
}

TEST(Stream, UnorderedInputRejected)
{
    trace::Trace tr;
    trace::PacketRecord pkt;
    pkt.timestampNs = 2000000;
    tr.add(pkt);
    pkt.timestampNs = 1000000;
    tr.add(pkt);
    std::string path = tempPath("unordered.tsh");
    trace::writeTshFile(tr, path);
    EXPECT_THROW(fccc::compressTraceFile(path, tempPath("x.fcc"),
                                         {}, kTsh),
                 util::Error);
    std::remove(path.c_str());
}

// ---- sorted-run drain: equivalence and incremental flush -----------------

namespace {

/** Records every write() separately, so tests see the flush steps. */
class RecordingSink final : public trace::TraceSink
{
  public:
    void
    write(std::span<const trace::PacketRecord> batch) override
    {
        writes.emplace_back(batch.begin(), batch.end());
    }
    void close() override {}
    uint64_t bytesWritten() const override
    {
        return all().size() * trace::tshRecordBytes;
    }

    std::vector<trace::PacketRecord>
    all() const
    {
        std::vector<trace::PacketRecord> out;
        for (const auto &w : writes)
            out.insert(out.end(), w.begin(), w.end());
        return out;
    }

    std::vector<std::vector<trace::PacketRecord>> writes;
};

void
addPacket(std::vector<trace::PacketRecord> &out, uint64_t tUs,
          uint32_t srcIp, uint16_t srcPort, uint32_t dstIp,
          uint16_t dstPort, uint8_t flags, uint16_t payload = 0)
{
    trace::PacketRecord pkt;
    pkt.timestampNs = tUs * 1000;
    pkt.srcIp = srcIp;
    pkt.srcPort = srcPort;
    pkt.dstIp = dstIp;
    pkt.dstPort = dstPort;
    pkt.tcpFlags = flags;
    pkt.payloadBytes = payload;
    out.push_back(pkt);
}

/** SYN, SYN|ACK, ACK of one connection, starting at @p tUs. */
void
addHandshake(std::vector<trace::PacketRecord> &out, uint64_t tUs,
             uint16_t clientPort)
{
    using namespace trace::tcp_flags;
    const uint32_t client = 0x0a000001, server = 0xc0a80001;
    addPacket(out, tUs, client, clientPort, server, 80, Syn);
    addPacket(out, tUs + 300, server, 80, client, clientPort,
              Syn | Ack);
    addPacket(out, tUs + 600, client, clientPort, server, 80, Ack);
}

trace::Trace
timeOrdered(std::vector<trace::PacketRecord> packets)
{
    trace::Trace tr(std::move(packets));
    tr.sortByTime();
    return tr;
}

/**
 * Groups of ten identical connections starting in the same
 * microsecond: with 4-record chunks every chunk boundary cuts a
 * group, so equal-timestamp packets sit on both sides of it.
 */
trace::Trace
tiedStartsTrace()
{
    std::vector<trace::PacketRecord> packets;
    uint16_t port = 20000;
    for (uint64_t group = 0; group < 5; ++group)
        for (int i = 0; i < 10; ++i)
            addHandshake(packets, 1000 + group * 5000, port++);
    return timeOrdered(std::move(packets));
}

/**
 * Two long transfers spanning the whole trace among 306
 * handshakes: with 8-record chunks (39 of them, an odd count) the
 * long flows expand in chunk 0 and their packets carry over every
 * later batch.
 */
trace::Trace
longCarryTrace()
{
    using namespace trace::tcp_flags;
    std::vector<trace::PacketRecord> packets;
    const uint32_t server = 0xc0a80002;
    for (uint16_t f = 0; f < 2; ++f) {
        uint32_t client = 0x0b000001 + f;
        uint16_t port = static_cast<uint16_t>(40000 + f);
        addPacket(packets, 10 + f, client, port, server, 80, Syn);
        for (uint64_t i = 1; i < 150; ++i) {
            uint64_t t = 10 + f + i * 20000;
            if (i % 2)
                addPacket(packets, t, server, 80, client, port, Ack,
                          1000);
            else
                addPacket(packets, t, client, port, server, 80, Ack);
        }
    }
    for (uint16_t i = 0; i < 306; ++i)
        addHandshake(packets, 100 + i * 9700,
                     static_cast<uint16_t>(1024 + i));
    return timeOrdered(std::move(packets));
}

/**
 * Twenty long transfers of 2048 packets, one after another: with
 * one record per chunk every batch of 2 × threads chunks flushes a
 * multiple of trace::canonicalMergeBlock packets.
 */
trace::Trace
blockEdgeTrace()
{
    using namespace trace::tcp_flags;
    std::vector<trace::PacketRecord> packets;
    const uint32_t client = 0x0c000001, server = 0xc0a80003;
    for (uint16_t f = 0; f < 20; ++f) {
        uint16_t port = static_cast<uint16_t>(30000 + f);
        uint64_t start = 1000 + uint64_t{f} * 10000;
        addPacket(packets, start, client, port, server, 80, Syn);
        for (uint64_t i = 1; i < trace::canonicalMergeBlock / 2; ++i) {
            if (i % 2)
                addPacket(packets, start + 3 * i, server, 80, client,
                          port, Ack, 1000);
            else
                addPacket(packets, start + 3 * i, client, port, server,
                          80, Ack);
        }
    }
    return timeOrdered(std::move(packets));
}

/**
 * Sixty flows of the elephants scenario, three of them long
 * transfers: about 10k packets, enough for one chunk to be split
 * across the pool (trace::canonicalRadixMinPackets and up).
 */
trace::Trace
elephantsTrace()
{
    trace::ScenarioConfig cfg =
        trace::scenarioDefaults(trace::ScenarioKind::Elephants, 2005);
    cfg.flows = 60;
    cfg.durationSec = 4.0;
    return trace::ScenarioGenerator(cfg).generate();
}

struct DrainFixture
{
    const char *name;
    trace::Trace trace;
    uint32_t chunkRecords;
    /**
     * When non-zero, cut the records into this many chunks and shift
     * them so the middle record starts at UINT64_MAX / 1000 µs: the
     * reconstructed timestamps of later packets pass UINT64_MAX ns
     * and wrap, so the next record's start is no monotone flush
     * limit and a chunk holding them buckets on the absolute
     * timestamp.
     */
    size_t wrappedChunks = 0;
};

std::vector<DrainFixture>
drainFixtures()
{
    std::vector<DrainFixture> fixtures;
    fixtures.push_back({"tied-starts", tiedStartsTrace(), 4});
    fixtures.push_back({"long-carry", longCarryTrace(), 8});
    fixtures.push_back({"web-odd-chunks", webTrace(37, 4.0), 21});
    fixtures.push_back({"single-chunk", webTrace(38, 3.0), 1u << 20});
    return fixtures;
}

/** FCC3 archive of @p fx written to a scratch file; returns path. */
std::string
writeFixtureArchive(const DrainFixture &fx, std::vector<uint8_t> &bytes)
{
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.chunkRecords = fx.chunkRecords;
    cfg.threads = 1;
    fccc::FccCompressStats stats;
    fccc::Datasets d =
        fccc::FccTraceCompressor(cfg).buildDatasets(fx.trace, stats);
    if (fx.wrappedChunks > 0) {
        size_t n = fx.wrappedChunks;
        d.chunkSizes = fccc::chunkLayout(
            d.records(), static_cast<uint32_t>((d.records() + n - 1) / n));
        uint64_t shift = UINT64_MAX / 1000 -
                         d.timeSeq[d.records() / 2].firstTimestampUs;
        for (fccc::TimeSeqRecord &rec : d.timeSeq)
            rec.firstTimestampUs += shift;
    }
    bytes = fccc::serializeDatasets(d, cfg, stats.sizes);
    std::string path = tempPath(std::string(fx.name) + ".fcc");
    writeBytes(path, bytes);
    return path;
}

/**
 * The independent reconstruction reference: expandFlow over every
 * chunk's records from the chunk's own RNG stream (ChunkStreams:
 * a legacy unchunked layout is one chunk seeded decompressSeed),
 * concatenated and ordered by std::sort. No split, no radix sort, no
 * merge, no batching, no flush limit.
 */
std::vector<trace::PacketRecord>
sortedReference(const fccc::Datasets &d)
{
    fccc::FccTraceCompressor codec;
    flow::ClassTable classes(d.weights);
    fccc::ChunkStreams chunks(d);
    std::vector<trace::PacketRecord> all;
    for (size_t c = 0; c < chunks.size(); ++c) {
        util::Rng rng(chunks.seed(c));
        for (const fccc::TimeSeqRecord &rec : chunks.records(c))
            codec.expandFlow(d, classes, rec, rng, all);
    }
    std::sort(all.begin(), all.end(), trace::packetCanonicalLess);
    return all;
}

RecordingSink
drain(const std::string &path, uint32_t threads)
{
    fccc::FccConfig cfg;
    cfg.threads = threads;
    fccc::DecompressSession session(cfg);
    session.open(path);
    RecordingSink sink;
    session.drainTo(sink);
    return sink;
}

} // namespace

TEST(Stream, DrainFixturesHaveTheirShape)
{
    std::vector<DrainFixture> fixtures = drainFixtures();
    for (const DrainFixture &fx : fixtures) {
        SCOPED_TRACE(fx.name);
        std::vector<uint8_t> bytes;
        writeFixtureArchive(fx, bytes);
        fccc::Datasets d = fccc::deserializeAuto(bytes, 1);
        const auto &sizes = d.chunkSizes;
        ASSERT_FALSE(sizes.empty());
        std::string name = fx.name;
        if (name == "single-chunk") {
            EXPECT_EQ(sizes.size(), 1u);
        } else {
            // Odd: never a multiple of a 2*threads batch.
            EXPECT_EQ(sizes.size() % 2, 1u) << sizes.size();
        }
        if (name == "tied-starts") {
            // Some chunk boundary separates equal start times.
            bool tieAtBoundary = false;
            size_t at = 0;
            for (size_t c = 0; c + 1 < sizes.size(); ++c) {
                at += sizes[c];
                tieAtBoundary |= d.timeSeq[at - 1].firstTimestampUs ==
                                 d.timeSeq[at].firstTimestampUs;
            }
            EXPECT_TRUE(tieAtBoundary);
        }
        if (name == "long-carry") {
            EXPECT_EQ(d.longTemplates.size(), 2u);
            EXPECT_TRUE(d.timeSeq.front().isLong);
        }
    }
}

TEST(Stream, DrainMatchesExpandAtAnyThreadCount)
{
    for (const DrainFixture &fx : drainFixtures()) {
        SCOPED_TRACE(fx.name);
        std::vector<uint8_t> bytes;
        std::string path = writeFixtureArchive(fx, bytes);
        fccc::FccConfig refCfg;
        refCfg.threads = 1;
        std::vector<trace::PacketRecord> reference =
            fccc::FccTraceCompressor(refCfg).decompress(bytes)
                .packets();
        ASSERT_EQ(reference.size(), fx.trace.size());
        for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
            SCOPED_TRACE(threads);
            EXPECT_TRUE(fcc::test::samePackets(
                drain(path, threads).all(), reference));
            fccc::FccConfig cfg;
            cfg.threads = threads;
            EXPECT_TRUE(fcc::test::samePackets(
                fccc::FccTraceCompressor(cfg).decompress(bytes)
                    .packets(),
                reference));
        }
        std::remove(path.c_str());
    }
}

TEST(Stream, OneSessionPoolCarriesEveryArchive)
{
    // One 4-thread session drains every fixture in turn: its one pool
    // runs each archive's column decode, then its expansion (a chunk
    // per job, or a single chunk split across the pool).
    fccc::FccConfig cfg;
    cfg.threads = 4;
    fccc::DecompressSession session(cfg);
    for (const DrainFixture &fx : drainFixtures()) {
        SCOPED_TRACE(fx.name);
        std::vector<uint8_t> bytes;
        std::string path = writeFixtureArchive(fx, bytes);
        session.open(path);
        RecordingSink sink;
        session.drainTo(sink);
        EXPECT_TRUE(fcc::test::samePackets(
            sink.all(), sortedReference(fccc::deserializeAuto(bytes, 1))));
        std::remove(path.c_str());
    }
}

TEST(Stream, DrainFlushesEachBatchIncrementally)
{
    // Paper §4: output leaves batch by batch. Batch b covers chunks
    // [2tb, 2t(b+1)) at t threads, and its flush is exactly the
    // packets older than the next batch's first record that no
    // earlier flush wrote — so the writes are the reference output
    // cut at those limits.
    std::vector<DrainFixture> fixtures = drainFixtures();
    const DrainFixture &fx = fixtures[1];  // long-carry: 39 chunks
    std::vector<uint8_t> bytes;
    std::string path = writeFixtureArchive(fx, bytes);
    fccc::Datasets d = fccc::deserializeAuto(bytes, 1);
    std::vector<trace::PacketRecord> reference =
        fccc::FccTraceCompressor(fccc::FccConfig{})
            .decompress(bytes)
            .packets();

    for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        size_t batch = 2 * threads;
        std::vector<std::vector<trace::PacketRecord>> expected;
        size_t next = 0, record = 0;
        for (size_t c = 0; c < d.chunkSizes.size(); ++c) {
            record += d.chunkSizes[c];
            bool batchEnds = (c + 1) % batch == 0 ||
                             c + 1 == d.chunkSizes.size();
            if (!batchEnds)
                continue;
            uint64_t limitNs = c + 1 < d.chunkSizes.size()
                ? d.timeSeq[record].firstTimestampUs * 1000
                : ~0ull;
            size_t end = next;
            while (end < reference.size() &&
                   reference[end].timestampNs < limitNs)
                ++end;
            if (end > next)
                expected.emplace_back(reference.begin() + next,
                                      reference.begin() + end);
            next = end;
        }
        ASSERT_EQ(next, reference.size());

        RecordingSink sink = drain(path, threads);
        EXPECT_GT(sink.writes.size(), 1u);
        ASSERT_EQ(sink.writes.size(), expected.size());
        for (size_t w = 0; w < expected.size(); ++w)
            EXPECT_TRUE(
                fcc::test::samePackets(sink.writes[w], expected[w]))
                << "write " << w;
    }
    std::remove(path.c_str());
}

namespace {

/**
 * Packets each batch of a drain at @p threads flushes: the
 * reference output cut at the next batch's first record.
 */
std::vector<size_t>
batchFlushSizes(const fccc::Datasets &d,
                const std::vector<trace::PacketRecord> &reference,
                uint32_t threads)
{
    std::vector<size_t> sizes;
    size_t batch = 2 * threads, next = 0, record = 0;
    for (size_t c = 0; c < d.chunkSizes.size(); ++c) {
        record += d.chunkSizes[c];
        if ((c + 1) % batch != 0 && c + 1 != d.chunkSizes.size())
            continue;
        uint64_t limitNs = c + 1 < d.chunkSizes.size()
            ? d.timeSeq[record].firstTimestampUs * 1000
            : ~0ull;
        size_t end = next;
        while (end < reference.size() &&
               reference[end].timestampNs < limitNs)
            ++end;
        sizes.push_back(end - next);
        next = end;
    }
    return sizes;
}

} // namespace

TEST(Stream, DrainIntoTshMatchesExpandAcrossBlockEdges)
{
    // The drain merges each batch straight into the sink in blocks
    // of trace::canonicalMergeBlock. Its TSH bytes, expand()'s and
    // decompress()'s must equal those of the independent reference
    // where a batch's flush ends exactly on a block edge
    // (block-edge), where the carry into the last batch is not empty
    // (long-carry), where one chunk is written as a span of its own
    // run (single-chunk), where one chunk of long flows is split
    // across the pool from 2 threads up (elephants-single-chunk) and
    // where reconstructed timestamps wrap past UINT64_MAX ns, across
    // chunks (wrapped) or inside the one chunk, which is then split
    // on absolute-timestamp buckets (wrapped-single-chunk).
    std::vector<DrainFixture> fixtures;
    fixtures.push_back({"block-edge", blockEdgeTrace(), 1});
    fixtures.push_back({"wrapped", webTrace(37, 4.0), 1u << 20, 6});
    fixtures.push_back(
        {"elephants-single-chunk", elephantsTrace(), 1u << 20});
    fixtures.push_back(
        {"wrapped-single-chunk", elephantsTrace(), 1u << 20, 1});
    for (DrainFixture &fx : drainFixtures())
        if (std::string(fx.name) != "tied-starts" &&
            std::string(fx.name) != "web-odd-chunks")
            fixtures.push_back(std::move(fx));

    for (const DrainFixture &fx : fixtures) {
        SCOPED_TRACE(fx.name);
        std::vector<uint8_t> bytes;
        std::string path = writeFixtureArchive(fx, bytes);
        fccc::Datasets d = fccc::deserializeAuto(bytes, 1);
        std::vector<trace::PacketRecord> reference = sortedReference(d);
        std::vector<uint8_t> expected =
            trace::writeTsh(trace::Trace(reference));
        std::string name = fx.name;
        for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
            SCOPED_TRACE(threads);
            std::vector<size_t> flushes =
                batchFlushSizes(d, reference, threads);
            if (fx.wrappedChunks > 0) {
                ASSERT_EQ(d.chunkSizes.size(), fx.wrappedChunks);
                EXPECT_GT(d.timeSeq.back().firstTimestampUs,
                          UINT64_MAX / 1000);
            } else if (name == "block-edge") {
                ASSERT_GT(flushes.size(), 1u);
                for (size_t size : flushes) {
                    EXPECT_GT(size, 0u);
                    EXPECT_EQ(size % trace::canonicalMergeBlock, 0u)
                        << size;
                }
            } else if (name == "long-carry") {
                // The long flows of chunk 0 outlast the last batch's
                // first record, so their tail is still carried.
                size_t lastBase =
                    (d.chunkSizes.size() - 1) / (2 * threads) *
                    (2 * threads);
                size_t record = 0;
                for (size_t c = 0; c < lastBase; ++c)
                    record += d.chunkSizes[c];
                ASSERT_GT(lastBase, 0u);
                const fccc::TimeSeqRecord &first = d.timeSeq.front();
                ASSERT_TRUE(first.isLong);
                // expandFlow adds iptUs[i] for every i > 0.
                const std::vector<uint64_t> &ipt =
                    d.longTemplates[first.templateIndex].iptUs;
                uint64_t lastUs = first.firstTimestampUs;
                for (size_t i = 1; i < ipt.size(); ++i)
                    lastUs += ipt[i];
                EXPECT_GT(lastUs, d.timeSeq[record].firstTimestampUs);
            } else {
                ASSERT_EQ(d.chunkSizes.size(), 1u);
            }
            if (name.find("elephants") != std::string::npos ||
                name == "wrapped-single-chunk") {
                EXPECT_GE(reference.size(),
                          trace::canonicalRadixMinPackets);
                EXPECT_GE(d.longTemplates.size(), 2u);
            }

            fccc::FccConfig cfg;
            cfg.threads = threads;
            fccc::DecompressSession session(cfg);
            session.open(path);
            auto out = std::make_unique<util::VectorByteSink>();
            util::VectorByteSink *written = out.get();
            trace::TshSink sink(std::move(out));
            session.drainTo(sink);
            EXPECT_TRUE(written->take() == expected);
            fccc::FccTraceCompressor codec(cfg);
            EXPECT_TRUE(trace::writeTsh(codec.expand(d)) == expected);
            EXPECT_TRUE(trace::writeTsh(codec.decompress(bytes)) ==
                        expected);
        }
        std::remove(path.c_str());
    }
}

TEST(Stream, SplitExpansionRejectsCorruptDatasets)
{
    // One chunk of long flows, expanded across a 4-thread pool: a
    // record naming a template that does not exist, or a long
    // template with an S value that does not decode, ends in
    // util::Error, as on one thread.
    fccc::FccConfig cfg;
    cfg.threads = 1;
    cfg.chunkRecords = 1u << 20;
    fccc::FccCompressStats stats;
    fccc::Datasets good =
        fccc::FccTraceCompressor(cfg).buildDatasets(elephantsTrace(),
                                                    stats);
    ASSERT_EQ(good.chunkSizes.size(), 1u);
    ASSERT_FALSE(good.longTemplates.empty());

    fccc::Datasets badIndex = good;
    badIndex.timeSeq.back().templateIndex = static_cast<uint32_t>(
        badIndex.shortTemplates.size() + badIndex.longTemplates.size());
    fccc::Datasets badS = good;
    std::vector<uint16_t> &sValues = badS.longTemplates.back().sValues;
    sValues[sValues.size() / 2] = 3;  // f3 = 3: no such size class
    EXPECT_THROW(flow::Characterizer(badS.weights).decode(3), util::Error);

    for (uint32_t threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        cfg.threads = threads;
        fccc::FccTraceCompressor codec(cfg);
        EXPECT_NO_THROW(codec.expand(good));
        EXPECT_THROW(codec.expand(badIndex), util::Error);
        EXPECT_THROW(codec.expand(badS), util::Error);
    }
}

TEST(Stream, ExpandEdgeChunksMatchReference)
{
    // The chunk expander's smallest inputs: an empty legacy layout
    // (one chunk of no records, so no time span to bucket on) and a
    // chunk of one packet, chunked and legacy.
    fccc::Datasets empty;
    ASSERT_TRUE(empty.chunkSizes.empty());

    trace::Trace onePacket;
    onePacket.add(tcpPacket(5'000'000'000ull, 0x0a000001, 40000,
                            0xc0a80001, 80, trace::tcp_flags::Syn));
    fccc::FccConfig buildCfg;
    buildCfg.threads = 1;
    fccc::FccCompressStats stats;
    fccc::Datasets one =
        fccc::FccTraceCompressor(buildCfg).buildDatasets(onePacket, stats);
    ASSERT_EQ(one.chunkSizes.size(), 1u);
    fccc::Datasets oneLegacy = one;
    oneLegacy.chunkSizes.clear();

    const std::pair<const char *, const fccc::Datasets *> cases[] = {
        {"empty-legacy", &empty},
        {"one-packet", &one},
        {"one-packet-legacy", &oneLegacy}};
    for (const auto &[name, d] : cases) {
        SCOPED_TRACE(name);
        std::vector<trace::PacketRecord> reference = sortedReference(*d);
        EXPECT_EQ(reference.size(), d == &empty ? 0u : 1u);
        for (uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(threads);
            fccc::FccConfig cfg;
            cfg.threads = threads;
            EXPECT_TRUE(fcc::test::samePackets(
                fccc::FccTraceCompressor(cfg).expand(*d).packets(),
                reference));
        }
    }
}

TEST(Stream, ChunkPerJobBatchExpandsEachChunkInline)
{
    // Eight chunks of at least trace::canonicalRadixMinPackets
    // packets each at 4 threads: a batch of at least `threads`
    // chunks runs one chunk per pool job, and each chunk must expand
    // inline there. A chunk that started its own parallelFor inside
    // a job would wait on the pool it runs on, and this test would
    // hang rather than pass.
    fccc::FccConfig cfg;
    cfg.threads = 1;
    fccc::FccCompressStats stats;
    fccc::Datasets d = fccc::FccTraceCompressor(cfg).buildDatasets(
        webTrace(41, 40.0), stats);
    d.chunkSizes = fccc::chunkLayout(
        d.records(), static_cast<uint32_t>((d.records() + 7) / 8));
    ASSERT_EQ(d.chunkSizes.size(), 8u);
    fccc::TemplateFactTable facts = fccc::templateFacts(d);
    fccc::ChunkStreams chunks(d);
    for (size_t c = 0; c < chunks.size(); ++c) {
        uint64_t packets = 0;
        for (const fccc::TimeSeqRecord &rec : chunks.records(c))
            packets += facts.of(rec.isLong, rec.templateIndex).packets;
        EXPECT_GE(packets, trace::canonicalRadixMinPackets) << c;
    }

    cfg.threads = 4;
    EXPECT_TRUE(fcc::test::samePackets(
        fccc::FccTraceCompressor(cfg).expand(d).packets(),
        sortedReference(d)));
}

TEST(Stream, DrainMatchesGoldenReferences)
{
    struct Case
    {
        const char *archive;
        const char *expected;
    };
    const Case cases[] = {
        {"fcc1.fcc", "expected-fcc1.tsh"},
        {"fcc3-unchunked.fcc", "expected-fcc1.tsh"},
        {"fcc2.fcc", "expected-chunked.tsh"},
        {"fcc3-deflate-indexed.fcc", "expected-chunked.tsh"},
        {"fcc3-range-lanes.fcc", "expected-chunked.tsh"},
        {"fcc3-quantized-indexed.fcc", "expected-quantized.tsh"},
        {"fcc3-header-indexed.fcc", "expected-header.tsh"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.archive);
        std::string dir = FCC_GOLDEN_DIR;
        std::ifstream in(dir + "/" + c.expected, std::ios::binary);
        std::vector<uint8_t> expected(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        ASSERT_FALSE(expected.empty());
        std::ifstream archive(dir + "/" + c.archive, std::ios::binary);
        std::vector<uint8_t> bytes(
            (std::istreambuf_iterator<char>(archive)),
            std::istreambuf_iterator<char>());
        std::vector<trace::PacketRecord> reference =
            sortedReference(fccc::deserializeAuto(bytes, 1));
        EXPECT_EQ(trace::writeTsh(trace::Trace(reference)), expected);
        for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
            SCOPED_TRACE(threads);
            trace::Trace out(
                drain(dir + "/" + c.archive, threads).all());
            EXPECT_TRUE(fcc::test::samePackets(out.packets(), reference));
            EXPECT_EQ(trace::writeTsh(out), expected);
        }
    }
}

// ---- sharded feed: the same bytes at any thread count --------------------

namespace {

/**
 * Every way a flow ends, for the sharded feed: web flows (FIN and
 * RST closes), RST-closed handshakes, long transfers of 80 packets
 * (every third left open at seal), 5-tuples that come back after
 * the 60 s idle timeout — with an RST that closes both the expired
 * flow and the flow it starts, or with an ACK that starts a flow
 * left open — and one 5-tuple that opens three flows in one
 * nanosecond, closing the first two.
 */
trace::Trace
shardedFeedTrace()
{
    using namespace trace::tcp_flags;
    trace::WebGenConfig web;
    web.seed = 41;
    web.durationSec = smokeTests() ? 8.0 : 12.0;
    web.flowsPerSec = 300.0;
    std::vector<trace::PacketRecord> packets =
        trace::WebTrafficGenerator(web).generate().packets();
    const uint32_t server = 0xc0a80009;
    for (uint16_t f = 0; f < 12; ++f) {
        uint32_t client = 0x0d000001 + f;
        auto port = static_cast<uint16_t>(50000 + f);
        uint64_t start = 1000 + uint64_t{f} * 70000;
        addPacket(packets, start, client, port, server, 80, Syn);
        for (uint64_t i = 1; i < 79; ++i) {
            if (i % 3)
                addPacket(packets, start + 900 * i, server, 80, client,
                          port, Ack, static_cast<uint16_t>(100 * f));
            else
                addPacket(packets, start + 900 * i, client, port,
                          server, 80, Ack);
        }
        if (f % 3 != 0)
            addPacket(packets, start + 900 * 79, client, port, server,
                      80, Rst);
    }
    for (uint16_t f = 0; f < 200; ++f) {
        uint32_t client = 0x0e000001 + f % 17;
        auto port = static_cast<uint16_t>(20000 + f);
        uint64_t start = 500 + uint64_t{f} * 9000;
        addPacket(packets, start, client, port, server, 443, Syn);
        addPacket(packets, start + 40, server, 443, client, port,
                  Syn | Ack);
        addPacket(packets, start + 90 + f % 7, client, port, server,
                  443, Rst);
    }
    const uint64_t idleUs = flow::flowIdleTimeoutNs / 1000;
    for (uint16_t f = 0; f < 24; ++f) {
        uint32_t client = 0x0f000001 + f;
        auto port = static_cast<uint16_t>(30000 + f);
        uint64_t start = 2000 + uint64_t{f} * 40000;
        addPacket(packets, start, client, port, server, 80, Syn);
        addPacket(packets, start + 300, server, 80, client, port,
                  Syn | Ack, static_cast<uint16_t>(f * 40));
        addPacket(packets, start + 300 + idleUs + 1 + f, client, port,
                  server, 80, f % 2 ? Rst : Ack);
    }
    trace::PacketRecord reused = tcpPacket(3000000500, 0x0a0a0a0a, 4242,
                                           server, 8080, Syn);
    for (uint8_t flags : {Syn, Rst, Syn, Ack, Rst, Syn}) {
        reused.tcpFlags = flags;
        reused.payloadBytes = flags == Ack ? 600 : 0;
        packets.push_back(reused);
    }
    std::stable_sort(packets.begin(), packets.end(),
                     [](const trace::PacketRecord &a,
                        const trace::PacketRecord &b) {
                         return a.timestampNs < b.timestampNs;
                     });
    return trace::Trace(std::move(packets));
}

/** The archive configuration of the sharded-feed tests: FCC3 with
 *  small chunks and the index. */
fccc::FccConfig
shardedFeedConfig(uint32_t threads)
{
    fccc::FccConfig cfg;
    cfg.container = fccc::ContainerFormat::Fcc3;
    cfg.chunkRecords = 64;
    cfg.index = true;
    cfg.threads = threads;
    return cfg;
}

/** Feed @p packets to @p session in calls cycling through @p sizes. */
void
feedInCalls(fccc::CompressSession &session,
            std::span<const trace::PacketRecord> packets,
            std::initializer_list<size_t> sizes)
{
    size_t next = 0;
    for (size_t i = 0; i < packets.size();) {
        size_t take = std::min(*(sizes.begin() + next % sizes.size()),
                               packets.size() - i);
        session.feed(packets.subspan(i, take));
        i += take;
        ++next;
    }
}

/** The sorted set of this process's thread ids (Linux). */
std::vector<std::string>
threadIds()
{
    std::vector<std::string> ids;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        ids.push_back(entry.path().filename().string());
    std::sort(ids.begin(), ids.end());
    return ids;
}

} // namespace

TEST(Stream, ShardedFeedWritesTheSameBytes)
{
    // One archive whatever the shard count and the feed call sizes:
    // flows closed by FIN, RST and idle expiry, long flows, a
    // 5-tuple reused within one nanosecond and flows still open at
    // seal all merge in the serial session's close order.
    trace::Trace tr = shardedFeedTrace();
    fccc::Datasets shape;
    std::vector<uint8_t> reference;
    {
        fccc::CompressSession serial(shardedFeedConfig(1));
        for (const trace::PacketRecord &pkt : tr.packets())
            serial.feed({&pkt, 1});
        reference = serial.seal();
        shape = fccc::deserializeAuto(reference, 1);
    }
    // The trace has its shape: long flows, and the flows the
    // FlowTable assembles, expired and reused 5-tuples included.
    EXPECT_GE(shape.longTemplates.size(), 12u);
    EXPECT_EQ(shape.timeSeq.size(),
              flow::FlowTable().assemble(tr).size());

    for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        fccc::FccConfig cfg = shardedFeedConfig(threads);
        // Every call is staged: smaller calls gather into one
        // dispatch, larger ones (the whole trace at once, too) fill
        // several.
        for (size_t batch :
             {size_t{1}, size_t{256}, size_t{4096}, size_t{10000},
              fccc::feedDispatchPackets, tr.size()}) {
            SCOPED_TRACE(batch);
            EXPECT_EQ(sessionBytes(tr, cfg, batch), reference);
        }
        // Staged calls that a larger one tops up.
        fccc::CompressSession mixed(cfg);
        feedInCalls(mixed, tr.packets(),
                    {1, 256, 4096, 10000, 7, fccc::feedDispatchPackets});
        EXPECT_EQ(mixed.seal(), reference);
    }
}

TEST(Stream, ShardedFeedCarriesTemplatesAcrossReArm)
{
    // Three epochs through reArm() with the template store carried:
    // each archive is the one-thread session's, chunk cuts included.
    trace::Trace tr = shardedFeedTrace();
    std::span<const trace::PacketRecord> all(tr.packets());
    const size_t cuts[] = {0, all.size() / 3, all.size() * 3 / 4,
                           all.size()};
    auto epochs = [&](uint32_t threads) {
        fccc::CompressSession session(shardedFeedConfig(threads));
        std::vector<std::vector<uint8_t>> archives;
        for (size_t e = 0; e + 1 < std::size(cuts); ++e) {
            if (e > 0)
                session.reArm();
            std::span<const trace::PacketRecord> epoch =
                all.subspan(cuts[e], cuts[e + 1] - cuts[e]);
            size_t half = epoch.size() / 2;
            feedInCalls(session, epoch.first(half), {256});
            session.rotateChunk();
            feedInCalls(session, epoch.subspan(half), {4096, 300});
            archives.push_back(session.seal());
        }
        return archives;
    };
    std::vector<std::vector<uint8_t>> reference = epochs(1);
    // The last epoch clusters short flows against the carried store.
    fccc::Datasets last = fccc::deserializeAuto(reference.back(), 1);
    EXPECT_FALSE(last.shortTemplates.empty());
    for (uint32_t threads : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        EXPECT_EQ(epochs(threads), reference);
    }
}

TEST(Stream, ShardedFeedThrowsAfterTheOrderedPrefix)
{
    // A disordered packet in the middle of a batch: feed() throws
    // after exactly the packets before it, staged or dispatched, and
    // the session seals them as a serial session fed only those.
    trace::Trace tr = shardedFeedTrace();
    std::vector<trace::PacketRecord> packets(tr.packets().begin(),
                                             tr.packets().end());
    const size_t bad = packets.size() / 2;
    ASSERT_GT(bad, fccc::feedDispatchPackets);
    ASSERT_GT(packets[bad - 1].timestampNs, 0u);
    packets.insert(packets.begin() + static_cast<ptrdiff_t>(bad),
                   packets[bad - 1]);
    packets[bad].timestampNs = packets[bad - 1].timestampNs - 1;
    std::span<const trace::PacketRecord> all(packets);

    fccc::CompressSession serial(shardedFeedConfig(1));
    serial.feed(all.first(bad));
    std::vector<uint8_t> reference = serial.seal();

    // The bad packet sits in one call whose ordered part fills
    // several dispatches; then in a call of 10,000 after calls of
    // 100, 5,000 packets in and three packets in.
    const size_t leads[] = {0, bad - 5000, bad - 3};
    for (uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        for (size_t lead : leads) {
            SCOPED_TRACE(lead);
            fccc::CompressSession session(shardedFeedConfig(threads));
            feedInCalls(session, all.first(lead), {100});
            size_t call = lead == 0 ? bad + 1000 : 10000;
            EXPECT_THROW(session.feed(all.subspan(lead, call)),
                         util::Error);
            EXPECT_EQ(session.stats().packets, bad);
            EXPECT_EQ(session.seal(), reference);
        }
    }

    // A session dropped while a staged dispatch runs waits for it.
    fccc::CompressSession dropped(shardedFeedConfig(4));
    feedInCalls(dropped,
                std::span<const trace::PacketRecord>(tr.packets())
                    .first(2 * fccc::feedDispatchPackets),
                {256});
}

TEST(Stream, OneSessionPoolCarriesEveryEpoch)
{
    // A 4-thread session starts one pool, for its feed shards and its
    // seals' column-encode jobs, and keeps it: after every seal of
    // four epochs through reArm() the process has the same four
    // threads more than before the session.
    trace::Trace tr = shardedFeedTrace();
    std::span<const trace::PacketRecord> all(tr.packets());
    std::vector<std::string> before = threadIds();
    fccc::CompressSession session(shardedFeedConfig(4));
    std::vector<std::string> pool;
    for (size_t e = 0; e < 4; ++e) {
        SCOPED_TRACE(e);
        if (e > 0)
            session.reArm();
        feedInCalls(session, all.subspan(e * all.size() / 4,
                                         all.size() / 4),
                    {4096});
        session.seal();
        std::vector<std::string> now = threadIds();
        std::vector<std::string> added;
        std::set_difference(now.begin(), now.end(), before.begin(),
                            before.end(), std::back_inserter(added));
        EXPECT_EQ(added.size(), 4u);
        if (e == 0)
            pool = added;
        EXPECT_EQ(added, pool);
    }
}
