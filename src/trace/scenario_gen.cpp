/**
 * @file
 * Adversarial scenario generator implementation. Each scenario keeps
 * per-connection TCP state (sequence numbers, IP-ID counters,
 * windows) so the synthesized packets are plausible captures, while
 * the arrival structure is deliberately hostile to the
 * flow-clustering codec: one-packet flows, scrambled direction
 * patterns, retransmission storms, chunk-spanning elephants.
 */

#include "trace/scenario_gen.hpp"

#include <algorithm>
#include <cmath>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace fcc::trace {

namespace {

using namespace tcp_flags;

/** Draw a random routable class B or class C network address. */
uint32_t
drawPublicIp(util::Rng &rng)
{
    if (rng.chance(0.5)) {
        // Class B: 128.0.0.0 .. 191.255.255.255
        return 0x80000000u |
               static_cast<uint32_t>(rng.uniformInt(0, 0x3fffffff));
    }
    // Class C: 192.0.0.0 .. 223.255.255.255
    return 0xc0000000u |
           static_cast<uint32_t>(rng.uniformInt(0, 0x1fffffff));
}

/** Mutable per-connection TCP state shared by all scenarios. */
struct ConnState
{
    uint32_t clientIp = 0, serverIp = 0;
    uint16_t clientPort = 0, serverPort = 80;
    uint32_t cSeq = 0, sSeq = 0;
    uint16_t cIpId = 0, sIpId = 0;
    uint16_t window = 0;
    uint64_t packets = 0;
};

ConnState
newConn(util::Rng &rng, uint32_t clientIp, uint32_t serverIp,
        uint16_t clientPort, uint16_t serverPort)
{
    ConnState c;
    c.clientIp = clientIp;
    c.serverIp = serverIp;
    c.clientPort = clientPort;
    c.serverPort = serverPort;
    c.cSeq = static_cast<uint32_t>(rng.next());
    c.sSeq = static_cast<uint32_t>(rng.next());
    c.cIpId = static_cast<uint16_t>(rng.next());
    c.sIpId = static_cast<uint16_t>(rng.next());
    c.window =
        static_cast<uint16_t>(rng.uniformInt(16, 255) << 8);
    return c;
}

uint16_t
takeEphemeral(uint16_t &next)
{
    uint16_t p = next;
    next = next >= 64999 ? 1024
                         : static_cast<uint16_t>(next + 1);
    return p;
}

/**
 * Build one packet and advance the connection state (sequence
 * numbers by payload and SYN/FIN, per-side IP-ID counters).
 */
PacketRecord
buildPacket(ConnState &c, bool fromClient, uint8_t flags,
            uint16_t payload, double atSec)
{
    PacketRecord pkt;
    pkt.timestampNs = static_cast<uint64_t>(atSec * 1e9);
    pkt.protocol = ip_proto::Tcp;
    pkt.tcpFlags = flags;
    pkt.payloadBytes = payload;
    pkt.window = c.window;
    if (fromClient) {
        pkt.srcIp = c.clientIp;
        pkt.dstIp = c.serverIp;
        pkt.srcPort = c.clientPort;
        pkt.dstPort = c.serverPort;
        pkt.seq = c.cSeq;
        pkt.ack = (flags & Ack) ? c.sSeq : 0;
        pkt.ipId = c.cIpId++;
        c.cSeq += payload;
        if (flags & (Syn | Fin))
            ++c.cSeq;
    } else {
        pkt.srcIp = c.serverIp;
        pkt.dstIp = c.clientIp;
        pkt.srcPort = c.serverPort;
        pkt.dstPort = c.clientPort;
        pkt.seq = c.sSeq;
        pkt.ack = (flags & Ack) ? c.cSeq : 0;
        pkt.ipId = c.sIpId++;
        c.sSeq += payload;
        if (flags & (Syn | Fin))
            ++c.sSeq;
    }
    ++c.packets;
    return pkt;
}

/**
 * Minimal request/response connection of exactly @p n packets
 * appended to @p out: handshake, one request, server data with
 * delayed ACKs, RST close. n == 1..3 degenerate into truncated
 * handshakes.
 */
void
emitExchange(ConnState &c, uint32_t n, double start, double rttSec,
             double gapSec, uint16_t mss, util::Rng &rng,
             std::vector<PacketRecord> &out)
{
    double t = start;
    auto put = [&](bool fromClient, uint8_t flags, uint16_t payload,
                   double dt) {
        t += dt;
        out.push_back(buildPacket(c, fromClient, flags, payload, t));
    };

    if (n == 0)
        return;
    put(true, Syn, 0, 0.0);
    if (n == 1)
        return;
    put(false, Syn | Ack, 0, rttSec);
    if (n == 2)
        return;
    if (n == 3) {
        put(true, Rst, 0, rttSec);
        return;
    }
    put(true, Ack, 0, rttSec);

    uint32_t mid = n - 4;  // the final packet is a client RST close
    if (mid > 0) {
        put(true, Ack | Psh,
            static_cast<uint16_t>(rng.uniformInt(200, 600)), gapSec);
        --mid;
        uint32_t sinceAck = 0;
        while (mid > 0) {
            if (sinceAck >= 2 && rng.chance(0.6)) {
                put(true, Ack, 0, rttSec);
                sinceAck = 0;
            } else {
                bool last = mid == 1;
                uint16_t bytes = last
                    ? static_cast<uint16_t>(rng.uniformInt(400, mss))
                    : mss;
                put(false,
                    last ? static_cast<uint8_t>(Ack | Psh)
                         : static_cast<uint8_t>(Ack),
                    bytes, sinceAck == 0 ? rttSec : gapSec);
                ++sinceAck;
            }
            --mid;
        }
    }
    put(true, Rst | Ack, 0, rttSec);
}

} // namespace

std::vector<ScenarioKind>
allScenarios()
{
    return {ScenarioKind::SynFlood,   ScenarioKind::PortScan,
            ScenarioKind::Elephants,  ScenarioKind::Incast,
            ScenarioKind::Reordering, ScenarioKind::LossStorm,
            ScenarioKind::MixedTail};
}

const char *
scenarioName(ScenarioKind kind)
{
    switch (kind) {
    case ScenarioKind::SynFlood: return "synflood";
    case ScenarioKind::PortScan: return "portscan";
    case ScenarioKind::Elephants: return "elephants";
    case ScenarioKind::Incast: return "incast";
    case ScenarioKind::Reordering: return "reordering";
    case ScenarioKind::LossStorm: return "lossstorm";
    case ScenarioKind::MixedTail: return "mixedtail";
    }
    return "unknown";
}

ScenarioConfig
scenarioDefaults(ScenarioKind kind, uint64_t seed)
{
    ScenarioConfig cfg;
    cfg.kind = kind;
    cfg.seed = seed;
    switch (kind) {
    case ScenarioKind::SynFlood:
        cfg.serverCount = 2;     // few victims, many spoofed sources
        cfg.clientCount = 4096;
        break;
    case ScenarioKind::PortScan:
        cfg.serverCount = 1;     // one target, one scanner
        cfg.clientCount = 2;
        break;
    case ScenarioKind::Elephants:
        cfg.serverCount = 8;
        cfg.clientCount = 64;
        cfg.tailAlpha = 1.4;
        cfg.maxFlowLen = 4000;
        break;
    case ScenarioKind::Incast:
        cfg.serverCount = 1;     // the aggregator
        cfg.clientCount = 256;   // sender pool
        cfg.tailAlpha = 1.2;
        cfg.incastRounds = 8;
        break;
    case ScenarioKind::Reordering:
        cfg.serverCount = 16;
        cfg.clientCount = 512;
        cfg.reorderFraction = 0.35;
        break;
    case ScenarioKind::LossStorm:
        cfg.serverCount = 16;
        cfg.clientCount = 512;
        cfg.lossFraction = 0.2;
        break;
    case ScenarioKind::MixedTail:
        cfg.serverCount = 32;
        cfg.clientCount = 1024;
        cfg.tailAlpha = 1.1;
        cfg.maxFlowLen = 400;
        break;
    }
    return cfg;
}

ScenarioGenerator::ScenarioGenerator(const ScenarioConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed)
{
    util::require(cfg_.durationSec > 0,
                  "scenario: duration must be > 0");
    util::require(cfg_.serverCount > 0 && cfg_.clientCount > 0,
                  "scenario: need at least one server and client");
    util::require(cfg_.tailAlpha > 0,
                  "scenario: tail exponent must be > 0");
    util::require(cfg_.maxFlowLen > 0,
                  "scenario: max flow length must be > 0");
    util::require(cfg_.mss >= 536,
                  "scenario: mss must be >= 536");
    util::require(cfg_.reorderFraction >= 0 &&
                      cfg_.reorderFraction <= 1,
                  "scenario: reorder fraction out of [0,1]");
    util::require(cfg_.lossFraction >= 0 && cfg_.lossFraction <= 1,
                  "scenario: loss fraction out of [0,1]");
}

Trace
ScenarioGenerator::generate()
{
    // Re-seed so repeated generate() calls replay the same trace.
    rng_ = util::Rng(cfg_.seed);
    info_ = ScenarioInfo{};
    nextEphemeral_ = 1024;
    serverIps_.clear();
    clientIps_.clear();
    serverIps_.reserve(cfg_.serverCount);
    for (uint32_t i = 0; i < cfg_.serverCount; ++i)
        serverIps_.push_back(drawPublicIp(rng_));
    clientIps_.reserve(cfg_.clientCount);
    for (uint32_t i = 0; i < cfg_.clientCount; ++i)
        clientIps_.push_back(drawPublicIp(rng_));

    Trace out;
    switch (cfg_.kind) {
    case ScenarioKind::SynFlood: makeSynFlood(out); break;
    case ScenarioKind::PortScan: makePortScan(out); break;
    case ScenarioKind::Elephants: makeElephants(out); break;
    case ScenarioKind::Incast: makeIncast(out); break;
    case ScenarioKind::Reordering: makeReordering(out); break;
    case ScenarioKind::LossStorm: makeLossStorm(out); break;
    case ScenarioKind::MixedTail: makeMixedTail(out); break;
    }
    out.sortByTime();
    info_.packets = out.size();
    return out;
}

void
ScenarioGenerator::makeSynFlood(Trace &out)
{
    if (cfg_.flows == 0)
        return;
    // Every attack packet is its own flow: a freshly spoofed source
    // address and port, SYN to a victim, no reply. The flow table,
    // address dataset and time-seq stream all degenerate to one
    // entry per packet — the codec's worst case.
    util::Zipf victimPop(serverIps_.size(), 0.8);
    util::Exponential inter(cfg_.flows / cfg_.durationSec);
    double t = 0.0;
    for (uint32_t i = 0; i < cfg_.flows; ++i) {
        t += inter.sample(rng_);
        PacketRecord pkt;
        pkt.timestampNs = static_cast<uint64_t>(t * 1e9);
        pkt.protocol = ip_proto::Tcp;
        pkt.tcpFlags = Syn;
        pkt.srcIp = drawPublicIp(rng_);
        pkt.srcPort =
            static_cast<uint16_t>(rng_.uniformInt(1024, 65000));
        pkt.dstIp = serverIps_[victimPop.sample(rng_) - 1];
        pkt.dstPort = 80;
        pkt.payloadBytes = 0;
        pkt.seq = static_cast<uint32_t>(rng_.next());
        pkt.ack = 0;
        pkt.window =
            static_cast<uint16_t>(rng_.uniformInt(16, 255) << 8);
        pkt.ipId = static_cast<uint16_t>(rng_.next());
        out.add(pkt);
    }
    info_.flows = cfg_.flows;
    info_.maxFlowPackets = 1;
}

void
ScenarioGenerator::makePortScan(Trace &out)
{
    if (cfg_.flows == 0)
        return;
    // Half-open SYN sweep: sequential destination ports, paced over
    // the capture. Closed ports answer RST|ACK (2-packet flows),
    // open ports answer SYN|ACK and get reset (3-packet flows).
    double gap = cfg_.durationSec / cfg_.flows;
    uint16_t port = 1;
    for (uint32_t i = 0; i < cfg_.flows; ++i) {
        double t0 = i * gap + rng_.uniform() * gap * 0.25;
        ConnState c =
            newConn(rng_, clientIps_[i % clientIps_.size()],
                    serverIps_[i % serverIps_.size()],
                    takeEphemeral(nextEphemeral_), port);
        port = port == 65535 ? 1 : static_cast<uint16_t>(port + 1);
        double lat = 0.0002 + rng_.uniform() * 0.002;
        out.add(buildPacket(c, true, Syn, 0, t0));
        if (rng_.chance(0.03)) {
            out.add(buildPacket(c, false, Syn | Ack, 0, t0 + lat));
            out.add(buildPacket(c, true, Rst, 0, t0 + 2 * lat));
        } else {
            out.add(buildPacket(c, false, Rst | Ack, 0, t0 + lat));
        }
        ++info_.flows;
        info_.maxFlowPackets =
            std::max(info_.maxFlowPackets, c.packets);
    }
}

void
ScenarioGenerator::makeElephants(Trace &out)
{
    if (cfg_.flows == 0)
        return;
    // A small elephant population carries almost all packets; each
    // spans nearly the whole capture with evenly spaced segments, so
    // one time-seq record covers many chunks. The rest are mice.
    uint32_t elephants = std::max<uint32_t>(1, cfg_.flows / 16);
    uint32_t mice = cfg_.flows - elephants;

    for (uint32_t i = 0; i < elephants; ++i) {
        uint32_t n = std::max<uint32_t>(
            4, static_cast<uint32_t>(std::lround(
                   cfg_.maxFlowLen * (0.5 + 0.5 * rng_.uniform()))));
        ConnState c = newConn(
            rng_,
            clientIps_[rng_.uniformInt(0, clientIps_.size() - 1)],
            serverIps_[rng_.uniformInt(0, serverIps_.size() - 1)],
            takeEphemeral(nextEphemeral_), 80);
        double rtt = 0.01 + rng_.uniform() * 0.07;
        double start = rng_.uniform() * 0.02 * cfg_.durationSec;
        double end =
            cfg_.durationSec * (0.9 + 0.1 * rng_.uniform());

        double t = start;
        out.add(buildPacket(c, true, Syn, 0, t));
        out.add(buildPacket(c, false, Syn | Ack, 0, t + rtt / 2));
        out.add(buildPacket(c, true, Ack, 0, t + rtt));
        t += rtt;

        uint32_t body = n > 7 ? n - 7 : 1;
        double interval = (end - t) / std::max(1u, body);
        for (uint32_t s = 0; s < body; ++s) {
            t += interval;
            if (s % 3 == 2)
                out.add(buildPacket(c, true, Ack, 0, t));
            else
                out.add(
                    buildPacket(c, false, Ack, cfg_.mss, t));
        }
        out.add(buildPacket(c, false, Fin | Ack, 0, t + rtt / 2));
        out.add(buildPacket(c, true, Fin | Ack, 0, t + rtt));
        out.add(buildPacket(c, false, Ack, 0, t + 1.5 * rtt));
        ++info_.flows;
        info_.maxFlowPackets =
            std::max(info_.maxFlowPackets, c.packets);
    }

    std::vector<PacketRecord> tmp;
    for (uint32_t i = 0; i < mice; ++i) {
        tmp.clear();
        uint32_t n =
            static_cast<uint32_t>(rng_.uniformInt(3, 12));
        ConnState c = newConn(
            rng_,
            clientIps_[rng_.uniformInt(0, clientIps_.size() - 1)],
            serverIps_[rng_.uniformInt(0, serverIps_.size() - 1)],
            takeEphemeral(nextEphemeral_), 80);
        double start = rng_.uniform() * cfg_.durationSec;
        emitExchange(c, n, start, 0.02 + rng_.uniform() * 0.06,
                     0.0003, cfg_.mss, rng_, tmp);
        for (const auto &pkt : tmp)
            out.add(pkt);
        ++info_.flows;
        info_.maxFlowPackets =
            std::max(info_.maxFlowPackets, c.packets);
    }
}

void
ScenarioGenerator::makeIncast(Trace &out)
{
    if (cfg_.flows == 0)
        return;
    // Barrier-synchronized fan-in: one aggregator opens a persistent
    // connection to every sender, then requests data from all of
    // them at once each round; responses are heavy-tailed bursts
    // with microsecond spacing.
    uint32_t aggregator = serverIps_[0];
    double roundGap =
        cfg_.durationSec / std::max(1u, cfg_.incastRounds);
    util::BoundedPareto respSegs(cfg_.tailAlpha, 1.0, 64.0);

    std::vector<ConnState> conns;
    std::vector<double> rtts;
    conns.reserve(cfg_.flows);
    rtts.reserve(cfg_.flows);
    for (uint32_t i = 0; i < cfg_.flows; ++i) {
        // The aggregator is the TCP client; senders serve port 80.
        conns.push_back(newConn(
            rng_, aggregator, clientIps_[i % clientIps_.size()],
            takeEphemeral(nextEphemeral_), 80));
        rtts.push_back(0.0002 + rng_.uniform() * 0.0018);
        double t0 = rng_.uniform() * roundGap * 0.5;
        ConnState &c = conns.back();
        out.add(buildPacket(c, true, Syn, 0, t0));
        out.add(
            buildPacket(c, false, Syn | Ack, 0, t0 + rtts[i] / 2));
        out.add(buildPacket(c, true, Ack, 0, t0 + rtts[i]));
    }

    for (uint32_t k = 0; k < cfg_.incastRounds; ++k) {
        double tk = (k + 0.5) * roundGap;
        for (uint32_t i = 0; i < cfg_.flows; ++i) {
            ConnState &c = conns[i];
            double tReq = tk + rng_.uniform() * 50e-6;
            out.add(buildPacket(
                c, true, Ack | Psh,
                static_cast<uint16_t>(rng_.uniformInt(200, 400)),
                tReq));
            uint32_t segs = std::max<uint32_t>(
                1, static_cast<uint32_t>(
                       std::lround(respSegs.sample(rng_))));
            double ts = tReq + rtts[i];
            uint32_t sinceAck = 0;
            for (uint32_t s = 0; s < segs; ++s) {
                ts += 2e-6 + rng_.uniform() * 6e-6;
                bool last = s + 1 == segs;
                out.add(buildPacket(
                    c, false,
                    last ? static_cast<uint8_t>(Ack | Psh)
                         : static_cast<uint8_t>(Ack),
                    cfg_.mss, ts));
                if (++sinceAck >= 2 && !last) {
                    ts += 1e-6;
                    out.add(buildPacket(c, true, Ack, 0, ts));
                    sinceAck = 0;
                }
            }
            ts += rtts[i];
            out.add(buildPacket(c, true, Ack, 0, ts));
        }
    }

    double tEnd = cfg_.incastRounds * roundGap;
    for (uint32_t i = 0; i < cfg_.flows; ++i) {
        ConnState &c = conns[i];
        if (rng_.chance(0.5)) {
            double t = tEnd + rng_.uniform() * roundGap * 0.25;
            out.add(buildPacket(c, true, Fin | Ack, 0, t));
            out.add(
                buildPacket(c, false, Fin | Ack, 0, t + rtts[i]));
            out.add(
                buildPacket(c, true, Ack, 0, t + 2 * rtts[i]));
        }
        ++info_.flows;
        info_.maxFlowPackets =
            std::max(info_.maxFlowPackets, c.packets);
    }
}

void
ScenarioGenerator::makeReordering(Trace &out)
{
    if (cfg_.flows == 0)
        return;
    // Generate clean request/response flows, then displace packets
    // by swapping adjacent capture timestamps: the observed
    // direction sequence — the basis of the SF vectors — no longer
    // matches any real exchange pattern.
    std::vector<PacketRecord> tmp;
    for (uint32_t i = 0; i < cfg_.flows; ++i) {
        tmp.clear();
        uint32_t n =
            static_cast<uint32_t>(rng_.uniformInt(4, 32));
        ConnState c = newConn(
            rng_,
            clientIps_[rng_.uniformInt(0, clientIps_.size() - 1)],
            serverIps_[rng_.uniformInt(0, serverIps_.size() - 1)],
            takeEphemeral(nextEphemeral_), 80);
        double start = rng_.uniform() * cfg_.durationSec;
        emitExchange(c, n, start, 0.01 + rng_.uniform() * 0.05,
                     0.0003, cfg_.mss, rng_, tmp);
        for (size_t p = 1; p < tmp.size(); ++p) {
            if (rng_.chance(cfg_.reorderFraction)) {
                std::swap(tmp[p - 1].timestampNs,
                          tmp[p].timestampNs);
                ++info_.reorderedPackets;
            }
        }
        for (const auto &pkt : tmp)
            out.add(pkt);
        ++info_.flows;
        info_.maxFlowPackets =
            std::max(info_.maxFlowPackets, c.packets);
    }
}

void
ScenarioGenerator::makeLossStorm(Trace &out)
{
    if (cfg_.flows == 0)
        return;
    // Request/response flows under loss: a lost data segment shows
    // up as duplicate ACKs from the receiver followed by a delayed
    // retransmission (same sequence number, new IP-ID). Loss
    // probability triples during the middle-third storm window.
    double stormLo = cfg_.durationSec / 3;
    double stormHi = 2 * cfg_.durationSec / 3;
    for (uint32_t i = 0; i < cfg_.flows; ++i) {
        ConnState c = newConn(
            rng_,
            clientIps_[rng_.uniformInt(0, clientIps_.size() - 1)],
            serverIps_[rng_.uniformInt(0, serverIps_.size() - 1)],
            takeEphemeral(nextEphemeral_), 80);
        double rtt = 0.01 + rng_.uniform() * 0.05;
        double t = rng_.uniform() * cfg_.durationSec;

        out.add(buildPacket(c, true, Syn, 0, t));
        out.add(buildPacket(c, false, Syn | Ack, 0, t += rtt));
        out.add(buildPacket(c, true, Ack, 0, t += rtt));
        out.add(buildPacket(
            c, true, Ack | Psh,
            static_cast<uint16_t>(rng_.uniformInt(200, 600)),
            t += 0.0003));

        uint32_t segs =
            static_cast<uint32_t>(rng_.uniformInt(4, 40));
        uint32_t sinceAck = 0;
        for (uint32_t s = 0; s < segs; ++s) {
            t += s == 0 ? rtt : 0.0004;
            bool last = s + 1 == segs;
            PacketRecord data = buildPacket(
                c, false,
                last ? static_cast<uint8_t>(Ack | Psh)
                     : static_cast<uint8_t>(Ack),
                cfg_.mss, t);
            out.add(data);
            double p = cfg_.lossFraction;
            if (t >= stormLo && t <= stormHi)
                p = std::min(0.9, p * 3);
            if (rng_.chance(p)) {
                uint32_t dups = static_cast<uint32_t>(
                    rng_.uniformInt(1, 3));
                for (uint32_t d = 0; d < dups; ++d) {
                    t += 0.0002;
                    out.add(buildPacket(c, true, Ack, 0, t));
                }
                t += 2 * rtt;  // retransmission timeout
                PacketRecord rtx = data;
                rtx.timestampNs =
                    static_cast<uint64_t>(t * 1e9);
                rtx.ipId = c.sIpId++;
                out.add(rtx);
                ++c.packets;
                ++info_.retransmissions;
                sinceAck = 0;
            } else if (++sinceAck >= 2) {
                t += 0.0002;
                out.add(buildPacket(c, true, Ack, 0, t));
                sinceAck = 0;
            }
        }
        out.add(buildPacket(c, false, Fin | Ack, 0, t += rtt));
        out.add(buildPacket(c, true, Fin | Ack, 0, t += rtt));
        out.add(buildPacket(c, false, Ack, 0, t += rtt));
        ++info_.flows;
        info_.maxFlowPackets =
            std::max(info_.maxFlowPackets, c.packets);
    }
}

void
ScenarioGenerator::makeMixedTail(Trace &out)
{
    if (cfg_.flows == 0)
        return;
    // Flow lengths from a bounded Pareto down to single packets,
    // with randomized per-packet directions and size classes: nearly
    // every flow gets a distinct SF vector, so the template store
    // sees worst-case diversity at every length bucket.
    util::BoundedPareto lens(
        cfg_.tailAlpha, 1.0,
        static_cast<double>(std::max<uint32_t>(2, cfg_.maxFlowLen)));
    util::Exponential gap(1.0 / 0.002);  // 2 ms mean spacing
    for (uint32_t i = 0; i < cfg_.flows; ++i) {
        uint32_t n = std::clamp<uint32_t>(
            static_cast<uint32_t>(std::lround(lens.sample(rng_))),
            1, cfg_.maxFlowLen);
        ConnState c = newConn(
            rng_,
            clientIps_[rng_.uniformInt(0, clientIps_.size() - 1)],
            serverIps_[rng_.uniformInt(0, serverIps_.size() - 1)],
            takeEphemeral(nextEphemeral_), 80);
        double t = rng_.uniform() * cfg_.durationSec;
        for (uint32_t p = 0; p < n; ++p) {
            bool first = p == 0;
            bool last = p + 1 == n;
            bool fromClient = first || rng_.chance(0.5);
            uint8_t flags;
            uint16_t payload = 0;
            if (first && rng_.chance(0.7)) {
                flags = Syn;  // the rest start mid-capture
            } else if (last && rng_.chance(0.3)) {
                flags = rng_.chance(0.5)
                    ? static_cast<uint8_t>(Fin | Ack)
                    : static_cast<uint8_t>(Rst | Ack);
            } else {
                double u = rng_.uniform();
                if (u < 0.4) {
                    flags = Ack;
                } else if (u < 0.7) {
                    flags = Ack | Psh;
                    payload = static_cast<uint16_t>(
                        rng_.uniformInt(1, 500));
                } else {
                    flags = Ack;
                    payload = static_cast<uint16_t>(
                        rng_.uniformInt(501, cfg_.mss));
                }
            }
            out.add(buildPacket(c, fromClient, flags, payload, t));
            t += gap.sample(rng_);
        }
        ++info_.flows;
        info_.maxFlowPackets =
            std::max(info_.maxFlowPackets, c.packets);
    }
}

} // namespace fcc::trace
