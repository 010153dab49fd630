/**
 * @file
 * Fidelity tiers of the FCC3 container: deliberately lossy profiles
 * that trade reconstruction detail for compression ratio, applied as
 * a Datasets -> Datasets transform immediately before columnar
 * serialization (docs/FIDELITY.md; wire format in docs/FORMAT.md
 * §4.5).
 *
 *  - exact:     today's behaviour, bit-identical output (no tag on
 *               the wire — the default profile is the absence of
 *               one);
 *  - quantized: per-flow first timestamps floored to a configurable
 *               microsecond grid; every other column unchanged;
 *  - header:    per-packet payload size classes, timing structure
 *               (dependence bits, RTTs, exact long-flow inter-packet
 *               times) and addressing kept; TCP flag classes of all
 *               packets after the first normalized away, then the
 *               template store re-deduplicated — the S-value detail
 *               is what gets dropped;
 *  - flow:      per-flow records only (first timestamp, packet and
 *               payload-byte counts, reconstruction-rule duration,
 *               server address); no per-packet columns survive, so
 *               packet reconstruction is impossible by construction
 *               and decoders must error cleanly instead.
 */

#ifndef FCC_CODEC_FCC_FIDELITY_HPP
#define FCC_CODEC_FCC_FIDELITY_HPP

#include <cstdint>
#include <string>

namespace fcc::codec::fcc {

struct Datasets;

/** The four fidelity tiers, in decreasing reconstruction detail.
 *  Values are the on-wire fidelity tags (FORMAT.md §4.5); Exact is
 *  never written — an exact file carries no fidelity header at all,
 *  so it stays byte-identical to pre-fidelity writers. */
enum class Fidelity : uint8_t
{
    Exact = 0,
    Quantized = 1,
    Header = 2,
    Flow = 3,
};

/**
 * Bit 6 of the FCC3 column-count byte: set when a fidelity profile
 * header (tag byte + parameter varint) follows the column-count
 * byte. Readers that predate fidelity profiles reject the byte via
 * their column-count check instead of misreading the file.
 */
constexpr uint8_t fidelityProfileFlag = 0x40;

/** "exact" / "quantized" / "header" / "flow". */
const char *fidelityName(Fidelity fidelity);

/** Parse a name accepted by fidelityName(). @throws Error */
Fidelity parseFidelityName(const std::string &name);

/**
 * Degrade @p datasets to @p fidelity. Exact returns an unchanged
 * copy; the lossy tiers return datasets whose `fidelity` field (and,
 * for Quantized, `quantumUs`: the timestamp grid @p quantumUs, >= 1,
 * in microseconds) is set, ready for serializeColumnar().
 * The Flow tier moves everything into Datasets::flowRecords and
 * leaves the template/time-seq datasets empty — its payload-byte and
 * duration fields are computed with the same size-class and timing
 * rules the §4 reconstruction uses, so flow-level aggregates agree
 * with what an exact-tier decode would measure.
 *
 * @throws fcc::util::Error when the input datasets are inconsistent
 *         or already degraded below Exact.
 */
Datasets applyFidelity(const Datasets &datasets, Fidelity fidelity,
                       uint64_t quantumUs);

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_FIDELITY_HPP
