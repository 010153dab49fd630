/**
 * @file
 * Composable query expressions over FCC archives.
 *
 * A small expression tree — AND/OR/NOT over five leaf kinds — with
 * a text grammar (parser and canonical printer) and conservative
 * per-chunk planning against the index block's summaries, so
 * arbitrary expressions still prune chunks (Bloom fingerprints per
 * server leaf, timestamp-bound overlap per time leaf, interval union
 * falling out of OR).
 *
 * Leaves and their semantics (cf. docs/QUERY.md):
 *
 *  - `server = A.B.C.D`      flow leaf: stored server (destination)
 *                            address — the 5-tuple component the
 *                            lossy codec preserves;
 *  - `server in A.B.C.D/N`   flow leaf: server address inside a
 *                            CIDR prefix;
 *  - `port = N` /
 *    `port in [LO, HI]`      flow leaf: the flow's server port (the
 *                            reconstruction writes
 *                            codec::fcc::reconstructionServerPort,
 *                            80);
 *  - `time within [T0, T1]`  packet leaf: reconstructed timestamp
 *                            inside the inclusive window (seconds,
 *                            up to microsecond precision);
 *  - `flow.packets >= N`     flow leaf: flows of at least N packets;
 *  - `all`                   matches everything.
 *
 * Grammar (lowest precedence first):
 *
 *     expr   := term ('or' term)*
 *     term   := factor ('and' factor)*
 *     factor := 'not' factor | '(' expr ')' | leaf
 *
 * A flow leaf has one value for every packet of a flow; a packet
 * matches the expression iff it evaluates true with the packet's
 * timestamp and its flow's attributes, so fccquery's --flow, --time
 * and --min-packets flags are just leaves ANDed together.
 *
 * Construction validates ranges: an inverted time window, an
 * inverted port range, an empty/overlong CIDR or a zero flow-size
 * threshold throw fcc::util::Error at parse/build time instead of
 * silently matching nothing.
 */

#ifndef FCC_QUERY_EXPR_HPP
#define FCC_QUERY_EXPR_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace fcc::codec::fcc {
struct ChunkSummary;
}

namespace fcc::query {

/**
 * Immutable query expression tree. Copies share structure; all
 * members are const-safe, so one Expr may be evaluated from many
 * threads concurrently (the serving layer does).
 */
class Expr
{
  public:
    enum class Kind : uint8_t
    {
        MatchAll,        ///< `all`
        ServerIp,        ///< `server = A.B.C.D`
        ServerCidr,      ///< `server in A.B.C.D/N`
        PortRange,       ///< `port = N` / `port in [LO, HI]`
        TimeWindow,      ///< `time within [T0, T1]`
        MinFlowPackets,  ///< `flow.packets >= N`
        And,
        Or,
        Not,
    };

    /** Default-constructed expression matches everything. */
    Expr();

    // ---- leaf factories (validating) -------------------------------

    /** Matches every packet. */
    static Expr matchAll();

    /** Flows whose stored server address equals @p ip. */
    static Expr serverIs(uint32_t ip);

    /**
     * Flows whose server address lies in @p address / @p prefixBits.
     * The address is canonicalized (host bits masked off).
     * @throws fcc::util::Error when prefixBits > 32.
     */
    static Expr serverIn(uint32_t address, uint32_t prefixBits);

    /** Flows whose server port equals @p port. */
    static Expr portIs(uint16_t port);

    /**
     * Flows whose server port lies in [lo, hi] inclusive.
     * @throws fcc::util::Error when hi < lo.
     */
    static Expr portBetween(uint16_t lo, uint16_t hi);

    /**
     * Packets whose reconstructed timestamp lies in [t0Us, t1Us]
     * inclusive (microseconds).
     * @throws fcc::util::Error when t1Us < t0Us.
     */
    static Expr timeWithin(uint64_t t0Us, uint64_t t1Us);

    /**
     * Flows of at least @p n packets.
     * @throws fcc::util::Error when n == 0 (a flow-size threshold
     *         of zero is always an authoring mistake; use `all`).
     */
    static Expr minFlowPackets(uint64_t n);

    // ---- combinators ------------------------------------------------

    /** a AND b (flattens nested ANDs into one n-ary node). */
    static Expr andOf(Expr a, Expr b);

    /** a OR b (flattens nested ORs into one n-ary node). */
    static Expr orOf(Expr a, Expr b);

    /** NOT a. */
    static Expr notOf(Expr a);

    // ---- inspection -------------------------------------------------

    Kind kind() const;

    /** True for the bare `all` expression (no filtering at all). */
    bool isMatchAll() const { return kind() == Kind::MatchAll; }

    /**
     * True when any TimeWindow leaf occurs in the tree — the
     * executor then refuses index timing bounds written with a
     * smaller reconstruction gap than the query's (see
     * FccArchive::run).
     */
    bool usesTime() const;

    /**
     * Canonical text form, parseable by parseExpr(). Parsing and
     * re-printing any printed expression is a fixed point.
     */
    std::string str() const;

    // ---- evaluation -------------------------------------------------

    /** The flow attributes a flow leaf evaluates against. */
    struct FlowView
    {
        uint32_t serverIp = 0;    ///< stored destination address
        uint16_t serverPort = 0;  ///< reconstruction server port
        uint64_t packets = 0;     ///< flow length (template size)
        /**
         * True when every packet timestamp of the flow is known to
         * lie in [firstUs, lastUs] (codec::fcc::FccTraceCompressor::
         * flowSpan). Only matchesFlow() reads the span; matches()
         * takes the packet time it is given.
         */
        bool spanKnown = false;
        uint64_t firstUs = 0;
        uint64_t lastUs = 0;
    };

    /** Per-flow pre-evaluation with the packet timestamp unknown. */
    enum class FlowMatch : uint8_t
    {
        Never,     ///< no packet of the flow can match
        Always,    ///< every packet of the flow matches
        PerPacket, ///< depends on the packet timestamp
    };

    /**
     * Evaluate one flow before any packet time is known. A time leaf
     * decides the flow when its span is known — Never when the span
     * misses the window, Always when the window covers it — and is
     * PerPacket otherwise. Executors call this once per flow and only
     * fall back to matches() per packet on PerPacket.
     */
    FlowMatch matchesFlow(const FlowView &flow) const;

    /** Full evaluation for one packet of @p flow at @p packetUs. */
    bool matches(const FlowView &flow, uint64_t packetUs) const;

    // ---- planning ---------------------------------------------------

    /**
     * Two-sided conservative verdict of one chunk against this
     * expression: @c may over-approximates "some packet of the
     * chunk matches" (false ⇒ the chunk can be skipped), @c must
     * under-approximates "every packet of the chunk matches". The
     * pair composes through NOT (may(¬e) = ¬must(e)), which is what
     * keeps planning sound for arbitrary trees.
     */
    struct ChunkMatch
    {
        bool may = true;
        bool must = false;
    };

    /**
     * Plan one chunk summary: Bloom probes for server leaves (CIDR
     * prefixes of /24 and longer enumerate their addresses; wider
     * prefixes cannot prune), timestamp-bound overlap for time
     * leaves, the flow-size maximum for flow.packets leaves. Never
     * produces a false "skip": a chunk holding a matching packet
     * always reports may == true.
     */
    ChunkMatch planChunk(const codec::fcc::ChunkSummary &chunk) const;

  private:
    struct Node;
    explicit Expr(std::shared_ptr<const Node> node);

    static void printNode(const Node &n, std::string &out);
    static bool nodeUsesTime(const Node &n);
    static FlowMatch flowMatchNode(const Node &n, const FlowView &f);
    static bool matchNode(const Node &n, const FlowView &f,
                          uint64_t packetUs);
    static ChunkMatch
    planNode(const Node &n, const codec::fcc::ChunkSummary &chunk);

    std::shared_ptr<const Node> node_;
};

/**
 * Parse the expression grammar (see file header). Accepts `==` as an
 * alias for `=`; keywords are case-sensitive and lower-case.
 * @throws fcc::util::Error on any syntax or range error, with a
 *         position-annotated message.
 */
Expr parseExpr(std::string_view text);

/**
 * Format @p us as the grammar's seconds literal (up to six fractional
 * digits, trailing zeros trimmed): 1500000 -> "1.5". Exposed for the
 * tools' output paths so printed times re-parse exactly.
 */
std::string formatSecondsUs(uint64_t us);

} // namespace fcc::query

#endif // FCC_QUERY_EXPR_HPP
