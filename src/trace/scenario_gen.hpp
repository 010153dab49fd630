/**
 * @file
 * Adversarial scenario generator matrix: hostile and non-paper
 * traffic mixes the clusterer was never evaluated on.
 *
 * The paper (and the seed-2005 web_gen workload) only ever exercises
 * well-formed TCP web traffic; this module synthesizes the traffic
 * classes that stress every assumption the flow-clustering codec
 * makes:
 *
 *  - SynFlood    — DDoS SYN storm: one packet per flow with spoofed
 *                  sources, so the flow count equals the packet
 *                  count (worst case for per-flow compression);
 *  - PortScan    — half-open SYN sweep over sequential ports, two to
 *                  three packets per probe flow;
 *  - Elephants   — a handful of long-lived bulk transfers spanning
 *                  the whole capture (and many time-seq chunks),
 *                  plus background mice;
 *  - Incast      — barrier-synchronized fan-in: many senders answer
 *                  one aggregator in bursts with heavy-tailed
 *                  (bounded-Pareto) response sizes;
 *  - Reordering  — request/response flows whose packets are locally
 *                  displaced in capture order, scrambling the
 *                  direction-dependence pattern the SF vectors
 *                  encode;
 *  - LossStorm   — loss and retransmission storms: dropped segments
 *                  trigger duplicate ACKs and delayed
 *                  retransmissions;
 *  - MixedTail   — flow lengths from a bounded Pareto with a
 *                  configurable tail exponent and randomized
 *                  per-packet classes: near-distinct SF vectors at
 *                  every length (template-store worst case).
 *
 * Every scenario is deterministic given its seed and emits a
 * time-ordered Trace, which any TraceSink writes, so fcctool,
 * fccquery and the benches consume scenario traffic unmodified. See
 * docs/SCENARIOS.md.
 */

#ifndef FCC_TRACE_SCENARIO_GEN_HPP
#define FCC_TRACE_SCENARIO_GEN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace fcc::trace {

/** The scenario matrix. */
enum class ScenarioKind : uint8_t
{
    SynFlood = 0,
    PortScan,
    Elephants,
    Incast,
    Reordering,
    LossStorm,
    MixedTail,
};

/** All scenarios, in enum order (drives the test/bench matrices). */
std::vector<ScenarioKind> allScenarios();

/** Stable lowercase name ("synflood", "portscan", ...). */
const char *scenarioName(ScenarioKind kind);

/**
 * Shared scenario knobs. Every generator reads `kind`, `seed`,
 * `durationSec` and `flows`; the remaining fields apply where noted.
 * Defaults are sized for tests — scenarioDefaults() scales the
 * per-kind shape knobs.
 */
struct ScenarioConfig
{
    ScenarioKind kind = ScenarioKind::SynFlood;
    uint64_t seed = 1;          ///< same seed, same trace
    double durationSec = 10.0;  ///< arrival window length

    /**
     * Target flow count: attack packets (SynFlood), probes
     * (PortScan), transfers (Elephants), senders (Incast), or
     * connections (the rest). 0 produces an empty trace.
     */
    uint32_t flows = 2000;

    /** Victim / target / aggregator address count. */
    uint32_t serverCount = 4;
    /** Attacker / client address pool (spoofed for SynFlood). */
    uint32_t clientCount = 1024;

    /**
     * Heavy-tail exponent: Incast response sizes, MixedTail flow
     * lengths, Elephants length spread. Lower = heavier tail.
     */
    double tailAlpha = 1.2;

    /** Packet-count cap of a single flow (Elephants, MixedTail). */
    uint32_t maxFlowLen = 4000;

    /** Reordering: probability a packet is displaced earlier. */
    double reorderFraction = 0.35;
    /** LossStorm: probability a data segment is lost once. */
    double lossFraction = 0.2;

    /** Incast: synchronized request rounds over the capture. */
    uint32_t incastRounds = 8;

    uint16_t mss = 1460;  ///< maximum segment size
};

/**
 * Per-kind default shape: starts from ScenarioConfig{} and adjusts
 * the knobs that define the scenario (e.g. SynFlood gets one victim
 * and a huge spoofed-client pool, Elephants few flows with a high
 * length cap). `flows` and `durationSec` keep their generic
 * defaults — callers scale those for smoke/test/bench size.
 */
ScenarioConfig scenarioDefaults(ScenarioKind kind, uint64_t seed);

/**
 * Ground truth a scenario can report about itself (for assertions
 * and the bench tables).
 */
struct ScenarioInfo
{
    uint64_t flows = 0;    ///< connections synthesized
    uint64_t packets = 0;  ///< packets emitted
    uint64_t maxFlowPackets = 0;
    uint64_t retransmissions = 0;  ///< LossStorm only
    uint64_t reorderedPackets = 0; ///< Reordering only
};

/**
 * Generator for the adversarial scenario matrix.
 *
 * Usage: construct with a config, call generate(). info() then
 * describes the most recent generation. Deterministic: equal configs
 * produce byte-identical traces.
 */
class ScenarioGenerator
{
  public:
    /** @throws fcc::util::Error on out-of-range parameters. */
    explicit ScenarioGenerator(const ScenarioConfig &cfg);

    /** Synthesize the whole trace (time-sorted). */
    Trace generate();

    /** Ground truth for the most recent generate(). */
    const ScenarioInfo &info() const { return info_; }

    const ScenarioConfig &config() const { return cfg_; }

  private:
    void makeSynFlood(Trace &out);
    void makePortScan(Trace &out);
    void makeElephants(Trace &out);
    void makeIncast(Trace &out);
    void makeReordering(Trace &out);
    void makeLossStorm(Trace &out);
    void makeMixedTail(Trace &out);

    ScenarioConfig cfg_;
    util::Rng rng_;
    ScenarioInfo info_;
    std::vector<uint32_t> serverIps_;
    std::vector<uint32_t> clientIps_;
    uint16_t nextEphemeral_ = 1024;
};

} // namespace fcc::trace

#endif // FCC_TRACE_SCENARIO_GEN_HPP
