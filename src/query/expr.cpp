/**
 * @file
 * Expression tree: construction, printing, parsing, evaluation and
 * chunk planning. See expr.hpp for the grammar and semantics.
 */

#include "query/expr.hpp"

#include <cstdio>
#include <utility>
#include <vector>

#include "codec/fcc/index.hpp"
#include "trace/packet.hpp"
#include "util/error.hpp"

namespace fcc::query {

namespace {

/** Prefix-length threshold at or above which a CIDR leaf enumerates
 *  its addresses (≤ 256 of them) through the Bloom filter instead of
 *  giving up on pruning. */
constexpr uint32_t cidrEnumerationBits = 24;

/** Largest microsecond time a packet stores without wrapping (its
 *  timestamp is kept in nanoseconds). */
constexpr uint64_t maxExactUs = UINT64_MAX / 1000;

uint32_t
cidrMask(uint32_t prefixBits)
{
    return prefixBits == 0 ? 0u : ~uint32_t{0} << (32u - prefixBits);
}

} // namespace

struct Expr::Node
{
    Kind kind = Kind::MatchAll;

    // Leaf payloads (only the fields of the node's kind are set).
    uint32_t ip = 0;          ///< ServerIp / ServerCidr base
    uint32_t prefixBits = 0;  ///< ServerCidr
    uint16_t portLo = 0;      ///< PortRange
    uint16_t portHi = 0;      ///< PortRange
    uint64_t t0Us = 0;        ///< TimeWindow
    uint64_t t1Us = 0;        ///< TimeWindow
    uint64_t minPackets = 0;  ///< MinFlowPackets

    std::vector<Expr> children;  ///< And/Or: ≥2, Not: exactly 1

    // Bloom fingerprints, hashed once at construction: planNode()
    // probes the same address against every chunk of every archive,
    // so the hash must not be recomputed per (address, chunk) pair.
    codec::fcc::ServerFingerprint fp;  ///< ServerIp
    std::vector<codec::fcc::ServerFingerprint>
        cidrFps;  ///< ServerCidr, when the prefix is enumerable
};

Expr::Expr() : Expr(std::make_shared<const Node>()) {}

Expr::Expr(std::shared_ptr<const Node> node) : node_(std::move(node))
{
}

Expr::Kind
Expr::kind() const
{
    return node_->kind;
}

// ---- factories ------------------------------------------------------

Expr
Expr::matchAll()
{
    return Expr{};
}

Expr
Expr::serverIs(uint32_t ip)
{
    auto n = std::make_shared<Node>();
    n->kind = Kind::ServerIp;
    n->ip = ip;
    n->fp = codec::fcc::serverFingerprint(ip);
    return Expr{std::move(n)};
}

Expr
Expr::serverIn(uint32_t address, uint32_t prefixBits)
{
    // A /0 "prefix" constrains nothing — an empty CIDR is always a
    // spelling mistake; `all` says match-everything explicitly.
    util::require(prefixBits >= 1 && prefixBits <= 32,
                  "query expression: CIDR prefix length must be in "
                  "[1, 32]");
    auto n = std::make_shared<Node>();
    n->kind = Kind::ServerCidr;
    n->prefixBits = prefixBits;
    n->ip = address & cidrMask(prefixBits);
    if (prefixBits >= cidrEnumerationBits) {
        uint64_t count = uint64_t{1} << (32u - prefixBits);
        n->cidrFps.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; i < count; ++i)
            n->cidrFps.push_back(codec::fcc::serverFingerprint(
                n->ip + static_cast<uint32_t>(i)));
    }
    return Expr{std::move(n)};
}

Expr
Expr::portIs(uint16_t port)
{
    return portBetween(port, port);
}

Expr
Expr::portBetween(uint16_t lo, uint16_t hi)
{
    util::require(lo <= hi,
                  "query expression: inverted port range (hi < lo)");
    auto n = std::make_shared<Node>();
    n->kind = Kind::PortRange;
    n->portLo = lo;
    n->portHi = hi;
    return Expr{std::move(n)};
}

Expr
Expr::timeWithin(uint64_t t0Us, uint64_t t1Us)
{
    util::require(t0Us <= t1Us,
                  "query expression: inverted time window "
                  "(max < min)");
    auto n = std::make_shared<Node>();
    n->kind = Kind::TimeWindow;
    n->t0Us = t0Us;
    n->t1Us = t1Us;
    return Expr{std::move(n)};
}

Expr
Expr::minFlowPackets(uint64_t n)
{
    util::require(n >= 1,
                  "query expression: flow.packets threshold must be "
                  "at least 1");
    auto node = std::make_shared<Node>();
    node->kind = Kind::MinFlowPackets;
    node->minPackets = n;
    return Expr{std::move(node)};
}

// ---- combinators ----------------------------------------------------

namespace {

/** Append @p e to @p kids, splicing a same-kind n-ary child in place
 *  so `(a and b) and c` becomes one three-child AND. */
void
splice(std::vector<Expr> &kids, Expr e, Expr::Kind kind,
       const std::vector<Expr> &children)
{
    if (e.kind() == kind)
        kids.insert(kids.end(), children.begin(), children.end());
    else
        kids.push_back(std::move(e));
}

} // namespace

Expr
Expr::andOf(Expr a, Expr b)
{
    auto n = std::make_shared<Node>();
    n->kind = Kind::And;
    splice(n->children, a, Kind::And, a.node_->children);
    splice(n->children, b, Kind::And, b.node_->children);
    return Expr{std::move(n)};
}

Expr
Expr::orOf(Expr a, Expr b)
{
    auto n = std::make_shared<Node>();
    n->kind = Kind::Or;
    splice(n->children, a, Kind::Or, a.node_->children);
    splice(n->children, b, Kind::Or, b.node_->children);
    return Expr{std::move(n)};
}

Expr
Expr::notOf(Expr a)
{
    auto n = std::make_shared<Node>();
    n->kind = Kind::Not;
    n->children.push_back(std::move(a));
    return Expr{std::move(n)};
}

// ---- inspection -----------------------------------------------------

bool
Expr::nodeUsesTime(const Node &n)
{
    if (n.kind == Kind::TimeWindow)
        return true;
    for (const Expr &child : n.children)
        if (nodeUsesTime(*child.node_))
            return true;
    return false;
}

bool
Expr::usesTime() const
{
    return nodeUsesTime(*node_);
}

// ---- printer --------------------------------------------------------

std::string
formatSecondsUs(uint64_t us)
{
    std::string out = std::to_string(us / 1000000u);
    uint64_t frac = us % 1000000u;
    if (frac == 0)
        return out;
    char buf[8];
    std::snprintf(buf, sizeof buf, "%06llu",
                  static_cast<unsigned long long>(frac));
    std::string digits{buf};
    while (!digits.empty() && digits.back() == '0')
        digits.pop_back();
    out += '.';
    out += digits;
    return out;
}

void
Expr::printNode(const Node &n, std::string &out)
{
    // Parenthesize a child whose operator binds looser than its
    // context: OR under AND/NOT, AND under NOT. Leaves never need
    // parentheses, and nested same-kind n-ary nodes cannot occur
    // (the combinators flatten them).
    auto printChild = [&out](const Expr &child, bool parens) {
        if (parens)
            out += '(';
        printNode(*child.node_, out);
        if (parens)
            out += ')';
    };

    switch (n.kind) {
    case Kind::MatchAll:
        out += "all";
        return;
    case Kind::ServerIp:
        out += "server = ";
        out += trace::formatIp(n.ip);
        return;
    case Kind::ServerCidr:
        out += "server in ";
        out += trace::formatIp(n.ip);
        out += '/';
        out += std::to_string(n.prefixBits);
        return;
    case Kind::PortRange:
        if (n.portLo == n.portHi) {
            out += "port = ";
            out += std::to_string(n.portLo);
        } else {
            out += "port in [";
            out += std::to_string(n.portLo);
            out += ", ";
            out += std::to_string(n.portHi);
            out += ']';
        }
        return;
    case Kind::TimeWindow:
        out += "time within [";
        out += formatSecondsUs(n.t0Us);
        out += ", ";
        out += formatSecondsUs(n.t1Us);
        out += ']';
        return;
    case Kind::MinFlowPackets:
        out += "flow.packets >= ";
        out += std::to_string(n.minPackets);
        return;
    case Kind::And: {
        bool first = true;
        for (const Expr &child : n.children) {
            if (!first)
                out += " and ";
            first = false;
            printChild(child, child.kind() == Kind::Or);
        }
        return;
    }
    case Kind::Or: {
        bool first = true;
        for (const Expr &child : n.children) {
            if (!first)
                out += " or ";
            first = false;
            printChild(child, false);
        }
        return;
    }
    case Kind::Not: {
        const Expr &child = n.children.front();
        out += "not ";
        printChild(child, child.kind() == Kind::And ||
                              child.kind() == Kind::Or);
        return;
    }
    }
    FCC_ASSERT(false, "unreachable expression kind");
}

std::string
Expr::str() const
{
    std::string out;
    printNode(*node_, out);
    return out;
}

// ---- evaluation -----------------------------------------------------

Expr::FlowMatch
Expr::flowMatchNode(const Node &n, const FlowView &f)
{
    switch (n.kind) {
    case Kind::MatchAll:
        return FlowMatch::Always;
    case Kind::ServerIp:
        return f.serverIp == n.ip ? FlowMatch::Always
                                  : FlowMatch::Never;
    case Kind::ServerCidr:
        return (f.serverIp & cidrMask(n.prefixBits)) == n.ip
                   ? FlowMatch::Always
                   : FlowMatch::Never;
    case Kind::PortRange:
        return f.serverPort >= n.portLo && f.serverPort <= n.portHi
                   ? FlowMatch::Always
                   : FlowMatch::Never;
    case Kind::TimeWindow:
        if (!f.spanKnown)
            return FlowMatch::PerPacket;
        if (f.lastUs < n.t0Us || f.firstUs > n.t1Us)
            return FlowMatch::Never;
        if (f.firstUs >= n.t0Us && f.lastUs <= n.t1Us)
            return FlowMatch::Always;
        return FlowMatch::PerPacket;
    case Kind::MinFlowPackets:
        return f.packets >= n.minPackets ? FlowMatch::Always
                                         : FlowMatch::Never;
    case Kind::And: {
        FlowMatch acc = FlowMatch::Always;
        for (const Expr &child : n.children) {
            FlowMatch m = flowMatchNode(*child.node_, f);
            if (m == FlowMatch::Never)
                return FlowMatch::Never;
            if (m == FlowMatch::PerPacket)
                acc = FlowMatch::PerPacket;
        }
        return acc;
    }
    case Kind::Or: {
        FlowMatch acc = FlowMatch::Never;
        for (const Expr &child : n.children) {
            FlowMatch m = flowMatchNode(*child.node_, f);
            if (m == FlowMatch::Always)
                return FlowMatch::Always;
            if (m == FlowMatch::PerPacket)
                acc = FlowMatch::PerPacket;
        }
        return acc;
    }
    case Kind::Not:
        switch (flowMatchNode(*n.children.front().node_, f)) {
        case FlowMatch::Always:
            return FlowMatch::Never;
        case FlowMatch::Never:
            return FlowMatch::Always;
        case FlowMatch::PerPacket:
            return FlowMatch::PerPacket;
        }
    }
    FCC_ASSERT(false, "unreachable expression kind");
    return FlowMatch::Never;
}

Expr::FlowMatch
Expr::matchesFlow(const FlowView &flow) const
{
    return flowMatchNode(*node_, flow);
}

bool
Expr::matchNode(const Node &n, const FlowView &f, uint64_t packetUs)
{
    switch (n.kind) {
    case Kind::TimeWindow:
        return packetUs >= n.t0Us && packetUs <= n.t1Us;
    case Kind::And:
        for (const Expr &child : n.children)
            if (!matchNode(*child.node_, f, packetUs))
                return false;
        return true;
    case Kind::Or:
        for (const Expr &child : n.children)
            if (matchNode(*child.node_, f, packetUs))
                return true;
        return false;
    case Kind::Not:
        return !matchNode(*n.children.front().node_, f, packetUs);
    default:
        // All remaining kinds are flow leaves: decided without the
        // packet timestamp.
        return flowMatchNode(n, f) == FlowMatch::Always;
    }
}

bool
Expr::matches(const FlowView &flow, uint64_t packetUs) const
{
    return matchNode(*node_, flow, packetUs);
}

// ---- planning -------------------------------------------------------

Expr::ChunkMatch
Expr::planNode(const Node &n, const codec::fcc::ChunkSummary &chunk)
{
    switch (n.kind) {
    case Kind::MatchAll:
        return {true, true};
    case Kind::ServerIp:
        // Bloom "maybe" can never promise every flow matches.
        return {chunk.mayContain(n.fp), false};
    case Kind::ServerCidr: {
        if (n.prefixBits < cidrEnumerationBits)
            return {true, false};
        bool may = false;
        for (const auto &fp : n.cidrFps) {
            if (chunk.mayContain(fp)) {
                may = true;
                break;
            }
        }
        return {may, false};
    }
    case Kind::PortRange:
        // The index has no port summary; the reconstruction's server
        // port is a config value the planner does not know.
        return {true, false};
    case Kind::TimeWindow:
        // Past maxExactUs a reconstructed timestamp wraps in
        // nanoseconds, so the packet times leave the chunk bounds.
        if (chunk.maxEndUs > maxExactUs)
            return {true, false};
        return {chunk.overlapsTime(n.t0Us, n.t1Us),
                n.t0Us <= chunk.minFirstUs &&
                    chunk.maxEndUs <= n.t1Us};
    case Kind::MinFlowPackets:
        // Every emitted packet belongs to a flow of ≥ 1 packet, so a
        // threshold of 1 holds for the whole chunk vacuously.
        return {chunk.maxFlowPackets >= n.minPackets,
                n.minPackets <= 1};
    case Kind::And: {
        ChunkMatch acc{true, true};
        for (const Expr &child : n.children) {
            ChunkMatch m = planNode(*child.node_, chunk);
            acc.may = acc.may && m.may;
            acc.must = acc.must && m.must;
        }
        return acc;
    }
    case Kind::Or: {
        ChunkMatch acc{false, false};
        for (const Expr &child : n.children) {
            ChunkMatch m = planNode(*child.node_, chunk);
            acc.may = acc.may || m.may;
            acc.must = acc.must || m.must;
        }
        return acc;
    }
    case Kind::Not: {
        ChunkMatch m = planNode(*n.children.front().node_, chunk);
        return {!m.must, !m.may};
    }
    }
    FCC_ASSERT(false, "unreachable expression kind");
    return {true, false};
}

Expr::ChunkMatch
Expr::planChunk(const codec::fcc::ChunkSummary &chunk) const
{
    return planNode(*node_, chunk);
}

// ---- parser ---------------------------------------------------------

namespace {

/**
 * Hand-rolled tokenizer + recursive-descent parser for the grammar in
 * expr.hpp. Errors carry the byte offset of the offending token.
 */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Expr
    parse()
    {
        skipSpace();
        util::require(pos_ < text_.size(),
                      "query expression: empty input");
        Expr e = parseOr();
        skipSpace();
        if (pos_ < text_.size())
            fail("trailing input after expression");
        return e;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw util::Error{"query expression: " + what +
                          " at offset " + std::to_string(pos_)};
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    atWordChar(size_t i) const
    {
        if (i >= text_.size())
            return false;
        char c = text_[i];
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '.' || c == '_';
    }

    /** Peek the keyword/identifier at the cursor ("" when none). */
    std::string_view
    peekWord()
    {
        skipSpace();
        size_t end = pos_;
        char first = end < text_.size() ? text_[end] : '\0';
        if (!((first >= 'a' && first <= 'z') ||
              (first >= 'A' && first <= 'Z')))
            return {};
        while (atWordChar(end))
            ++end;
        return text_.substr(pos_, end - pos_);
    }

    bool
    eatWord(std::string_view word)
    {
        if (peekWord() != word)
            return false;
        pos_ += word.size();
        return true;
    }

    void
    expectWord(std::string_view word)
    {
        if (!eatWord(word))
            fail("expected '" + std::string{word} + "'");
    }

    bool
    eatChar(char c)
    {
        skipSpace();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return false;
        ++pos_;
        return true;
    }

    void
    expectChar(char c)
    {
        if (!eatChar(c))
            fail(std::string{"expected '"} + c + "'");
    }

    /** `=` or `==`. */
    void
    expectEquals()
    {
        expectChar('=');
        eatChar('=');
    }

    /** Scan the numeric token ([0-9.]+) at the cursor. */
    std::string_view
    scanNumeric()
    {
        skipSpace();
        size_t end = pos_;
        while (end < text_.size() &&
               ((text_[end] >= '0' && text_[end] <= '9') ||
                text_[end] == '.'))
            ++end;
        if (end == pos_)
            fail("expected a number");
        std::string_view tok = text_.substr(pos_, end - pos_);
        pos_ = end;
        return tok;
    }

    uint64_t
    parseUnsigned(std::string_view tok, uint64_t max,
                  const char *what)
    {
        uint64_t value = 0;
        if (tok.empty())
            fail(std::string{"expected "} + what);
        for (char c : tok) {
            if (c < '0' || c > '9')
                fail(std::string{"malformed "} + what);
            uint64_t digit = static_cast<uint64_t>(c - '0');
            if (value > (max - digit) / 10)
                fail(std::string{what} + " out of range");
            value = value * 10 + digit;
        }
        return value;
    }

    uint64_t
    parseUnsignedToken(uint64_t max, const char *what)
    {
        return parseUnsigned(scanNumeric(), max, what);
    }

    /**
     * Seconds literal -> microseconds, parsed as fixed-point decimal
     * (never through a double) so printed values re-parse exactly.
     */
    uint64_t
    parseSeconds()
    {
        std::string_view tok = scanNumeric();
        size_t dot = tok.find('.');
        std::string_view whole =
            dot == std::string_view::npos ? tok : tok.substr(0, dot);
        std::string_view frac =
            dot == std::string_view::npos ? std::string_view{}
                                          : tok.substr(dot + 1);
        if (dot != std::string_view::npos &&
            frac.find('.') != std::string_view::npos)
            fail("malformed seconds value");
        if (whole.empty() && frac.empty())
            fail("malformed seconds value");
        if (frac.size() > 6)
            fail("seconds value has sub-microsecond precision");
        uint64_t us =
            parseUnsigned(whole.empty() ? std::string_view{"0"}
                                        : whole,
                          ~uint64_t{0} / 1000000u, "seconds value") *
            1000000u;
        std::string fracDigits{frac};
        while (fracDigits.size() < 6)
            fracDigits += '0';
        us += parseUnsigned(fracDigits, 999999u,
                            "seconds fraction");
        return us;
    }

    /** Dotted-quad IPv4 address at the cursor. */
    uint32_t
    parseAddress()
    {
        std::string_view tok = scanNumeric();
        try {
            return trace::parseIp(std::string{tok});
        } catch (const util::Error &) {
            fail("malformed IPv4 address");
        }
    }

    Expr
    parseLeaf()
    {
        if (eatWord("all"))
            return Expr::matchAll();
        if (eatWord("server")) {
            if (eatWord("in")) {
                uint32_t addr = parseAddress();
                expectChar('/');
                uint64_t bits =
                    parseUnsignedToken(32, "CIDR prefix length");
                return Expr::serverIn(
                    addr, static_cast<uint32_t>(bits));
            }
            expectEquals();
            return Expr::serverIs(parseAddress());
        }
        if (eatWord("port")) {
            if (eatWord("in")) {
                expectChar('[');
                uint64_t lo = parseUnsignedToken(65535, "port");
                expectChar(',');
                uint64_t hi = parseUnsignedToken(65535, "port");
                expectChar(']');
                return Expr::portBetween(
                    static_cast<uint16_t>(lo),
                    static_cast<uint16_t>(hi));
            }
            expectEquals();
            uint64_t port = parseUnsignedToken(65535, "port");
            return Expr::portIs(static_cast<uint16_t>(port));
        }
        if (eatWord("time")) {
            expectWord("within");
            expectChar('[');
            uint64_t t0 = parseSeconds();
            expectChar(',');
            uint64_t t1 = parseSeconds();
            expectChar(']');
            return Expr::timeWithin(t0, t1);
        }
        if (eatWord("flow.packets")) {
            expectChar('>');
            expectChar('=');
            uint64_t n = parseUnsignedToken(
                ~uint64_t{0} - 9, "flow.packets threshold");
            return Expr::minFlowPackets(n);
        }
        fail("expected a predicate "
             "(all | server | port | time | flow.packets)");
    }

    Expr
    parseFactor()
    {
        if (eatWord("not"))
            return Expr::notOf(parseFactor());
        if (eatChar('(')) {
            Expr e = parseOr();
            expectChar(')');
            return e;
        }
        return parseLeaf();
    }

    Expr
    parseAnd()
    {
        Expr e = parseFactor();
        while (eatWord("and"))
            e = Expr::andOf(std::move(e), parseFactor());
        return e;
    }

    Expr
    parseOr()
    {
        Expr e = parseAnd();
        while (eatWord("or"))
            e = Expr::orOf(std::move(e), parseAnd());
        return e;
    }

    std::string_view text_;
    size_t pos_ = 0;
};

} // namespace

Expr
parseExpr(std::string_view text)
{
    return Parser{text}.parse();
}

} // namespace fcc::query
