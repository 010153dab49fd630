/**
 * @file
 * Query-expression tests: the grammar (parse/print round trips,
 * malformed input rejection, validation of inverted ranges), the
 * tri-state flow evaluation, and the {may, must} chunk planner —
 * whose soundness is checked against brute-forced random chunk
 * summaries (every flow a chunk could hold that matches the
 * expression must land in a planned chunk, and `must` may only be
 * set when every flow in the chunk matches).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <bit>

#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/index.hpp"
#include "query/expr.hpp"
#include "query/query.hpp"
#include "trace/packet.hpp"
#include "trace/web_gen.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

#include "test_common.hpp"

using namespace fcc;
using query::Expr;
using FlowView = query::Expr::FlowView;

namespace {

/** Parse + assert the canonical text form. */
void
expectCanonical(const std::string &text,
                const std::string &canonical)
{
    Expr parsed = query::parseExpr(text);
    EXPECT_EQ(parsed.str(), canonical) << "input: " << text;
    // The canonical form is a fixed point of parse∘print.
    EXPECT_EQ(query::parseExpr(parsed.str()).str(), parsed.str());
}

/** A random expression tree, leaves biased toward matchable data. */
Expr
randomExpr(util::Rng &rng, int depth)
{
    if (depth <= 0 || rng.uniformInt(0, 3) == 0) {
        switch (rng.uniformInt(0, 5)) {
        case 0:
            return Expr::matchAll();
        case 1:
            return Expr::serverIs(static_cast<uint32_t>(
                rng.uniformInt(0, UINT32_MAX)));
        case 2: {
            uint32_t bits =
                static_cast<uint32_t>(rng.uniformInt(1, 32));
            return Expr::serverIn(
                static_cast<uint32_t>(
                    rng.uniformInt(0, UINT32_MAX)),
                bits);
        }
        case 3: {
            uint64_t t0 = rng.uniformInt(0, 50'000'000);
            uint64_t t1 = rng.uniformInt(t0, 60'000'000);
            return Expr::timeWithin(t0, t1);
        }
        case 4:
            return Expr::minFlowPackets(static_cast<uint32_t>(
                rng.uniformInt(1, 100)));
        default: {
            uint16_t lo =
                static_cast<uint16_t>(rng.uniformInt(0, 1000));
            uint16_t hi = static_cast<uint16_t>(
                rng.uniformInt(lo, 1100));
            return Expr::portBetween(lo, hi);
        }
        }
    }
    switch (rng.uniformInt(0, 2)) {
    case 0:
        return Expr::andOf(randomExpr(rng, depth - 1),
                           randomExpr(rng, depth - 1));
    case 1:
        return Expr::orOf(randomExpr(rng, depth - 1),
                          randomExpr(rng, depth - 1));
    default:
        return Expr::notOf(randomExpr(rng, depth - 1));
    }
}

/**
 * Populate a summary's Bloom filter per the normative construction
 * of docs/FORMAT.md §5 (re-derived here on purpose: the planner's
 * soundness must hold against the on-wire filter, not against a
 * test double).
 */
void
bloomFill(codec::fcc::ChunkSummary &chunk,
          const std::vector<uint32_t> &servers)
{
    uint64_t want = std::max<uint64_t>(
        64, uint64_t{codec::fcc::bloomBitsPerServer} *
                servers.size());
    chunk.bloomBits = static_cast<uint32_t>(std::bit_ceil(want));
    chunk.bloom.assign(chunk.bloomBits / 8, 0);
    for (uint32_t ip : servers) {
        uint64_t h1 =
            util::mix64(0xA0761D6478BD642Full ^ ip);
        uint64_t h2 =
            util::mix64(0xE7037ED1A0B428DBull ^ ip) | 1;
        for (uint32_t i = 0; i < codec::fcc::bloomProbes; ++i) {
            uint64_t bit =
                (h1 + uint64_t{i} * h2) & (chunk.bloomBits - 1);
            chunk.bloom[bit >> 3] |=
                static_cast<uint8_t>(1u << (bit & 7));
        }
    }
}

/** A random chunk summary with a real Bloom filter over the flow
 *  server addresses it claims to hold. */
codec::fcc::ChunkSummary
randomChunk(util::Rng &rng,
            std::vector<std::pair<FlowView, uint64_t>> &flows)
{
    codec::fcc::ChunkSummary chunk;
    size_t n = static_cast<size_t>(rng.uniformInt(1, 24));
    chunk.minFirstUs = UINT64_MAX;
    chunk.maxEndUs = 0;
    chunk.maxFlowPackets = 0;
    chunk.records = n;
    for (size_t i = 0; i < n; ++i) {
        FlowView flow;
        // A small address pool makes Bloom hits (and misses) real.
        flow.serverIp = static_cast<uint32_t>(
            0x0a000000u + rng.uniformInt(0, 2000));
        flow.serverPort =
            static_cast<uint16_t>(rng.uniformInt(0, 1100));
        flow.packets = rng.uniformInt(1, 120);
        uint64_t startUs = rng.uniformInt(0, 55'000'000);
        chunk.minFirstUs = std::min(chunk.minFirstUs, startUs);
        // End time beyond the start; the packet we test is at the
        // flow start, inside [minFirstUs, maxEndUs] by design.
        chunk.maxEndUs = std::max(
            chunk.maxEndUs, startUs + rng.uniformInt(0, 4'000'000));
        chunk.maxFlowPackets =
            std::max(chunk.maxFlowPackets, flow.packets);
        flows.emplace_back(flow, startUs);
    }
    std::vector<uint32_t> servers;
    for (const auto &[flow, startUs] : flows)
        servers.push_back(flow.serverIp);
    bloomFill(chunk, servers);
    return chunk;
}

} // namespace

// ---- grammar --------------------------------------------------------

TEST(ExprGrammar, CanonicalForms)
{
    expectCanonical("all", "all");
    expectCanonical("server = 10.1.2.3", "server = 10.1.2.3");
    expectCanonical("server == 10.1.2.3", "server = 10.1.2.3");
    expectCanonical("server in 10.0.0.0/8", "server in 10.0.0.0/8");
    expectCanonical("port = 443", "port = 443");
    expectCanonical("port in [80, 443]", "port in [80, 443]");
    expectCanonical("time within [0, 60]", "time within [0, 60]");
    expectCanonical("time within [1.5, 2.25]",
                    "time within [1.5, 2.25]");
    expectCanonical("time within [0.000001, 0.000010]",
                    "time within [0.000001, 0.00001]");
    expectCanonical("flow.packets >= 50", "flow.packets >= 50");
    expectCanonical("not all", "not all");
    expectCanonical("( all )", "all");
    expectCanonical(
        "server = 1.2.3.4 and port = 80 and flow.packets >= 2",
        "server = 1.2.3.4 and port = 80 and flow.packets >= 2");
    expectCanonical("all or not (port = 1 and port = 2)",
                    "all or not (port = 1 and port = 2)");
    // Or binds looser than and; parens appear exactly where needed.
    expectCanonical("port = 1 and (port = 2 or port = 3)",
                    "port = 1 and (port = 2 or port = 3)");
    expectCanonical("port = 1 or port = 2 and port = 3",
                    "port = 1 or port = 2 and port = 3");
}

TEST(ExprGrammar, CidrHostAddressNormalizes)
{
    // The host bits of the CIDR base are masked away.
    Expr e = query::parseExpr("server in 10.1.2.3/8");
    EXPECT_EQ(e.str(), "server in 10.0.0.0/8");
}

TEST(ExprGrammar, RandomRoundTripFixedPoint)
{
    util::Rng rng(0xE1);
    for (int i = 0; i < 500; ++i) {
        Expr expr = randomExpr(rng, 4);
        std::string once = expr.str();
        Expr reparsed = query::parseExpr(once);
        EXPECT_EQ(reparsed.str(), once) << "expr: " << once;
    }
}

TEST(ExprGrammar, MalformedInputsThrow)
{
    const char *bad[] = {
        "",
        "   ",
        "serve = 1.2.3.4",
        "server = ",
        "server = 1.2.3",
        "server = 1.2.3.4.5",
        "server = 256.1.1.1",
        "server in 10.0.0.0",
        "server in 10.0.0.0/33",
        "server in 10.0.0.0/0",
        "port = ",
        "port = 65536",
        "port in [80 443]",
        "port in [80, 443",
        "time within 0, 60",
        "time within [0, 60",
        "time within [1.2345678, 2]",   // >6 fractional digits
        "time within [-1, 2]",
        "flow.packets > 3",
        "flow.packets >= 0",
        "flow.packets >=",
        "all and",
        "and all",
        "all or or all",
        "not",
        "(all",
        "all)",
        "all extra",
        "ALL",
    };
    for (const char *text : bad)
        EXPECT_THROW(query::parseExpr(text), util::Error)
            << "accepted: '" << text << "'";
}

TEST(ExprGrammar, InvertedRangesThrowAtConstruction)
{
    EXPECT_THROW(Expr::timeWithin(5'000'000, 4'999'999),
                 util::Error);
    EXPECT_THROW(Expr::portBetween(443, 80), util::Error);
    EXPECT_THROW(Expr::minFlowPackets(0), util::Error);
    EXPECT_THROW(Expr::serverIn(0x0a000000, 0), util::Error);
    EXPECT_THROW(Expr::serverIn(0x0a000000, 33), util::Error);
    EXPECT_THROW(query::parseExpr("time within [5, 4]"),
                 util::Error);
    EXPECT_THROW(query::parseExpr("port in [443, 80]"),
                 util::Error);
}

// ---- evaluation -----------------------------------------------------

TEST(ExprEval, LeavesAndCombinators)
{
    FlowView web{0x0a010203, 443, 60};  // 10.1.2.3:443, 60 packets
    FlowView other{0xc0a80001, 80, 2};  // 192.168.0.1:80, 2 packets

    EXPECT_TRUE(Expr::matchAll().matches(web, 0));
    EXPECT_TRUE(
        Expr::serverIs(0x0a010203).matches(web, 0));
    EXPECT_FALSE(
        Expr::serverIs(0x0a010203).matches(other, 0));
    EXPECT_TRUE(
        query::parseExpr("server in 10.0.0.0/8").matches(web, 0));
    EXPECT_FALSE(
        query::parseExpr("server in 10.0.0.0/8").matches(other, 0));
    EXPECT_TRUE(query::parseExpr("port = 443").matches(web, 0));
    EXPECT_TRUE(
        query::parseExpr("port in [80, 443]").matches(other, 0));
    EXPECT_FALSE(
        query::parseExpr("port in [81, 442]").matches(other, 0));
    EXPECT_TRUE(
        query::parseExpr("flow.packets >= 50").matches(web, 0));
    EXPECT_FALSE(
        query::parseExpr("flow.packets >= 50").matches(other, 0));

    Expr window = query::parseExpr("time within [1, 2]");
    EXPECT_TRUE(window.matches(web, 1'000'000));
    EXPECT_TRUE(window.matches(web, 2'000'000));  // inclusive
    EXPECT_FALSE(window.matches(web, 2'000'001));

    Expr combo = query::parseExpr(
        "server in 10.0.0.0/8 and not port = 80 or "
        "flow.packets >= 2");
    EXPECT_TRUE(combo.matches(web, 0));
    EXPECT_TRUE(combo.matches(other, 0));  // via the or-arm
}

TEST(ExprEval, FlowMatchShortcutAgreesWithFullEval)
{
    // Half the flows carry a known span, which lets time leaves
    // decide whole flows; then every packet time inside
    // [firstUs, lastUs] must agree with the verdict.
    util::Rng rng(0xF00D);
    size_t spanDecided = 0;
    for (int i = 0; i < 2000; ++i) {
        Expr expr = randomExpr(rng, 3);
        FlowView flow;
        flow.serverIp = static_cast<uint32_t>(
            rng.uniformInt(0, UINT32_MAX));
        flow.serverPort =
            static_cast<uint16_t>(rng.uniformInt(0, 1100));
        flow.packets = rng.uniformInt(1, 120);
        std::vector<uint64_t> times;
        if (rng.uniformInt(0, 1) == 0) {
            times.push_back(rng.uniformInt(0, 60'000'000));
        } else {
            flow.spanKnown = true;
            flow.firstUs = rng.uniformInt(0, 60'000'000);
            flow.lastUs =
                flow.firstUs + (rng.uniformInt(0, 3) == 0
                                    ? 0
                                    : rng.uniformInt(0, 8'000'000));
            times = {flow.firstUs, flow.lastUs};
            for (int k = 0; k < 16; ++k)
                times.push_back(
                    rng.uniformInt(flow.firstUs, flow.lastUs));
            FlowView unknown = flow;
            unknown.spanKnown = false;
            spanDecided +=
                expr.matchesFlow(unknown) ==
                    query::Expr::FlowMatch::PerPacket &&
                expr.matchesFlow(flow) !=
                    query::Expr::FlowMatch::PerPacket;
        }
        query::Expr::FlowMatch verdict = expr.matchesFlow(flow);
        for (uint64_t us : times) {
            bool full = expr.matches(flow, us);
            if (verdict == query::Expr::FlowMatch::Always) {
                EXPECT_TRUE(full) << expr.str() << " at " << us;
            } else if (verdict == query::Expr::FlowMatch::Never) {
                EXPECT_FALSE(full) << expr.str() << " at " << us;
            }
            // PerPacket: either answer is consistent by definition.
        }
    }
    EXPECT_GT(spanDecided, 100u);  // the span did decide flows
}

TEST(ExprEval, TimeLeafVerdictsAtSpanEdges)
{
    Expr window = query::parseExpr("time within [1, 2]");
    FlowView flow;
    flow.packets = 3;
    flow.spanKnown = true;
    auto verdictFor = [&](uint64_t firstUs, uint64_t lastUs) {
        flow.firstUs = firstUs;
        flow.lastUs = lastUs;
        return window.matchesFlow(flow);
    };
    using M = query::Expr::FlowMatch;
    EXPECT_EQ(verdictFor(1'000'000, 2'000'000), M::Always);
    EXPECT_EQ(verdictFor(1'500'000, 1'500'000), M::Always);
    EXPECT_EQ(verdictFor(0, 999'999), M::Never);
    EXPECT_EQ(verdictFor(2'000'001, 3'000'000), M::Never);
    EXPECT_EQ(verdictFor(0, 1'000'000), M::PerPacket);
    EXPECT_EQ(verdictFor(2'000'000, 2'000'001), M::PerPacket);
    EXPECT_EQ(verdictFor(0, 5'000'000), M::PerPacket);
    flow.spanKnown = false;
    EXPECT_EQ(window.matchesFlow(flow), M::PerPacket);
    // NOT flips a decided window verdict.
    flow.spanKnown = true;
    flow.firstUs = 1'200'000;
    flow.lastUs = 1'800'000;
    EXPECT_EQ(query::parseExpr("not time within [1, 2]")
                  .matchesFlow(flow),
              M::Never);
}

// ---- planning -------------------------------------------------------

TEST(ExprPlan, RandomExpressionsPlanSoundly)
{
    util::Rng rng(0xBEEF);
    size_t mayChecked = 0, mustChecked = 0;
    for (int round = 0; round < 200; ++round) {
        std::vector<std::pair<FlowView, uint64_t>> flows;
        codec::fcc::ChunkSummary chunk = randomChunk(rng, flows);
        Expr expr = randomExpr(rng, 3);
        query::Expr::ChunkMatch match = expr.planChunk(chunk);
        bool any = false, all = true;
        for (const auto &[flow, startUs] : flows) {
            bool m = expr.matches(flow, startUs);
            any = any || m;
            all = all && m;
        }
        // Soundness: a chunk holding a match may not be skipped.
        if (any) {
            EXPECT_TRUE(match.may)
                << "expr " << expr.str() << " skipped a matching "
                << "chunk (round " << round << ")";
            ++mayChecked;
        }
        // `must` promises every flow (at its in-bounds packet
        // times) matches.
        if (match.must) {
            EXPECT_TRUE(all)
                << "expr " << expr.str() << " claimed must on a "
                << "chunk with a non-match (round " << round << ")";
            ++mustChecked;
        }
    }
    EXPECT_GT(mayChecked, 50u);  // the test actually exercised both
    EXPECT_GT(mustChecked, 0u);
}

TEST(ExprPlan, TimeLeavesDoNotPruneChunksWhoseTimesWrap)
{
    // Past UINT64_MAX / 1000 µs a packet's nanosecond timestamp
    // wraps, so its microsecond time leaves the chunk's bounds: a
    // time leaf may neither skip such a chunk nor promise it.
    codec::fcc::ChunkSummary chunk;
    chunk.records = 1;
    chunk.maxFlowPackets = 3;
    chunk.minFirstUs = UINT64_MAX / 1000 - 10;
    chunk.maxEndUs = UINT64_MAX / 1000 + 10;
    for (const char *text : {"time within [0, 1]",
                             "not time within [0, 1]"}) {
        query::Expr::ChunkMatch m =
            query::parseExpr(text).planChunk(chunk);
        EXPECT_TRUE(m.may) << text;
        EXPECT_FALSE(m.must) << text;
    }
    chunk.maxEndUs = UINT64_MAX / 1000;
    EXPECT_FALSE(query::parseExpr("time within [0, 1]")
                     .planChunk(chunk)
                     .may);
}

TEST(ExprPlan, DeMorganEquivalentsPlanConsistently)
{
    // ¬(a ∧ b) ≡ ¬a ∨ ¬b and ¬(a ∨ b) ≡ ¬a ∧ ¬b: the planner's
    // verdicts for both spellings must agree on every chunk.
    util::Rng rng(0xD0);
    for (int round = 0; round < 200; ++round) {
        std::vector<std::pair<FlowView, uint64_t>> flows;
        codec::fcc::ChunkSummary chunk = randomChunk(rng, flows);
        Expr a = randomExpr(rng, 2);
        Expr b = randomExpr(rng, 2);

        Expr notAnd = Expr::notOf(Expr::andOf(a, b));
        Expr orNots =
            Expr::orOf(Expr::notOf(a), Expr::notOf(b));
        query::Expr::ChunkMatch m1 = notAnd.planChunk(chunk);
        query::Expr::ChunkMatch m2 = orNots.planChunk(chunk);
        EXPECT_EQ(m1.may, m2.may) << notAnd.str();
        EXPECT_EQ(m1.must, m2.must) << notAnd.str();

        Expr notOr = Expr::notOf(Expr::orOf(a, b));
        Expr andNots =
            Expr::andOf(Expr::notOf(a), Expr::notOf(b));
        query::Expr::ChunkMatch m3 = notOr.planChunk(chunk);
        query::Expr::ChunkMatch m4 = andNots.planChunk(chunk);
        EXPECT_EQ(m3.may, m4.may) << notOr.str();
        EXPECT_EQ(m3.must, m4.must) << notOr.str();
    }
}

// ---- verdict-first expansion ----------------------------------------

TEST(FlowHeader, SkippingFlowsByHeaderDrawKeepsTheStream)
{
    // A query skips a flow by drawing only its header. Expanding
    // flow k after k header draws must give exactly the packets a
    // full expansion of flows 0..k gives for flow k.
    trace::WebGenConfig gcfg;
    gcfg.seed = 11;
    gcfg.durationSec = 2.0;
    gcfg.flowsPerSec = 60.0;
    trace::WebTrafficGenerator gen(gcfg);
    trace::Trace tr = gen.generate();
    codec::fcc::FccConfig cfg;
    cfg.threads = 1;
    codec::fcc::FccTraceCompressor codec(cfg);
    codec::fcc::FccCompressStats stats;
    codec::fcc::Datasets d = codec.buildDatasets(tr, stats);
    ASSERT_GT(d.timeSeq.size(), 40u);
    ASSERT_FALSE(d.longTemplates.empty());

    flow::ClassTable classes(d.weights);
    for (size_t k = 0; k < d.timeSeq.size(); k += 7) {
        util::Rng full(1234);
        std::vector<trace::PacketRecord> packets;
        for (size_t i = 0; i <= k; ++i) {
            packets.clear();
            codec.expandFlow(d, classes, d.timeSeq[i], full, packets);
        }
        util::Rng skip(1234);
        for (size_t i = 0; i < k; ++i)
            codec::fcc::FccTraceCompressor::drawFlowHeader(skip);
        std::vector<trace::PacketRecord> alone;
        codec.expandFlow(d, classes, d.timeSeq[k], skip, alone);
        ASSERT_TRUE(fcc::test::samePackets(alone, packets))
            << "flow " << k;
        // Both streams sit at the same state afterwards.
        EXPECT_EQ(full.next(), skip.next()) << k;
    }
}

TEST(FlowHeader, FlowSpanBoundsEveryExpandedPacket)
{
    trace::WebGenConfig gcfg;
    gcfg.seed = 12;
    gcfg.durationSec = 3.0;
    gcfg.flowsPerSec = 60.0;
    trace::WebTrafficGenerator gen(gcfg);
    trace::Trace tr = gen.generate();
    codec::fcc::FccConfig cfg;
    cfg.threads = 1;
    codec::fcc::FccTraceCompressor codec(cfg);
    codec::fcc::FccCompressStats stats;
    codec::fcc::Datasets d = codec.buildDatasets(tr, stats);
    // A template whose first S value carries the dependence bit:
    // the first packet has no predecessor, so no step is taken.
    flow::Characterizer chi(d.weights);
    d.shortTemplates.push_back(flow::SfVector{
        {chi.encode({flow::FlagClass::Ack, true, flow::SizeClass::Small}),
         chi.encode({flow::FlagClass::Ack, true, flow::SizeClass::Empty}),
         chi.encode(
             {flow::FlagClass::Ack, false, flow::SizeClass::Large})}});
    codec::fcc::TimeSeqRecord odd = d.timeSeq.back();
    odd.isLong = false;
    odd.templateIndex =
        static_cast<uint32_t>(d.shortTemplates.size() - 1);
    odd.rttUs = 1000;
    d.timeSeq.push_back(odd);
    codec::fcc::TemplateFactTable facts = codec::fcc::templateFacts(d);

    util::Rng rng(99);
    flow::ClassTable classes(d.weights);
    std::vector<trace::PacketRecord> packets;
    size_t longFlows = 0;
    for (const codec::fcc::TimeSeqRecord &rec : d.timeSeq) {
        packets.clear();
        codec.expandFlow(d, classes, rec, rng, packets);
        const codec::fcc::TemplateFacts &f =
            facts.of(rec.isLong, rec.templateIndex);
        ASSERT_EQ(f.packets, packets.size());
        uint64_t wire = 0;
        for (const trace::PacketRecord &p : packets)
            wire += 40 + p.payloadBytes;
        EXPECT_EQ(f.wireBytes, wire);
        auto span = codec::fcc::flowSpan(f, rec);
        ASSERT_TRUE(span.has_value());
        // The span is exact: its ends are the first and last packet.
        EXPECT_EQ(span->firstUs, packets.front().timestampUs());
        EXPECT_EQ(span->lastUs, packets.back().timestampUs());
        for (const trace::PacketRecord &p : packets) {
            EXPECT_GE(p.timestampUs(), span->firstUs);
            EXPECT_LE(p.timestampUs(), span->lastUs);
        }
        longFlows += rec.isLong;
    }
    EXPECT_GT(longFlows, 0u);
}

TEST(FlowHeader, FlowSpanUnknownOnOverflowWrapOrEmptyFlow)
{
    codec::fcc::TimeSeqRecord rec;
    codec::fcc::TemplateFacts f;
    auto spanOf = [&] { return codec::fcc::flowSpan(f, rec); };

    // Empty flow: no packets, no span.
    EXPECT_FALSE(spanOf().has_value());

    // Long flow: first + ΣIPT overflows 64 bits (a saturated sum too).
    f.packets = 3;
    rec.isLong = true;
    rec.firstTimestampUs = 5;
    f.iptSumUs = UINT64_MAX;
    EXPECT_FALSE(spanOf().has_value());
    rec.firstTimestampUs = 0;
    EXPECT_FALSE(spanOf().has_value());  // wraps in ns

    // Long flow ending exactly at the last representable µs.
    f.iptSumUs = 7;
    rec.firstTimestampUs = UINT64_MAX / 1000 - 7;
    auto span = spanOf();
    ASSERT_TRUE(span.has_value());
    EXPECT_EQ(span->lastUs, UINT64_MAX / 1000);
    rec.firstTimestampUs += 1;  // one past: the ns timestamp wraps
    EXPECT_FALSE(spanOf().has_value());

    // Short flow: dependent · RTT overflows, and the sum overflows.
    rec.isLong = false;
    rec.firstTimestampUs = 0;
    rec.rttUs = UINT32_MAX;
    f.packets = UINT64_MAX;
    f.dependent = UINT64_MAX - 1;
    EXPECT_FALSE(spanOf().has_value());
    f.packets = 4;
    f.dependent = 2;
    rec.rttUs = 1000;
    span = spanOf();
    ASSERT_TRUE(span.has_value());
    EXPECT_EQ(span->lastUs,
              2 * 1000 + 1 * uint64_t{codec::fcc::reconstructionGapUs});
}
