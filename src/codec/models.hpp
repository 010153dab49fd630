/**
 * @file
 * Analytical compression-ratio models of paper §5 (equations 5-8).
 *
 * The paper assumes ~50 stored bytes per packet (40 B TCP/IP header
 * plus timing) and derives, for a flow of n packets:
 *
 *   Van Jacobson (eq. 5):  r_vj(n) = (hdr + minEnc*(n-1)) / (hdr*n)
 *   Proposed     (eq. 7):  r(n)    = flowBytes / (hdr*n)
 *
 * and aggregates them over the flow-length distribution P_n
 * (eqs. 6 and 8). Peuhkuri's method is modeled as a constant
 * bytes-per-packet bound (~8/50 = 16 %).
 */

#ifndef FCC_CODEC_MODELS_HPP
#define FCC_CODEC_MODELS_HPP

#include <cstdint>
#include <vector>

namespace fcc::codec {

/** Stored bytes per packet in the original trace (paper: 50). */
inline constexpr double modelHeaderBytes = 50.0;
/** Van Jacobson minimal encoded header (§5: 6 bytes). */
inline constexpr double modelVjMinEncoded = 6.0;
/** Proposed method bytes per flow in time-seq (§5: 8 bytes). */
inline constexpr double modelFccFlowBytes = 8.0;
/** Peuhkuri per-packet record bytes (§5 bound: 16 % of 50). */
inline constexpr double modelPeuhkuriPacketBytes = 8.0;

/** Eq. 5 — Van Jacobson ratio for an n-packet flow. */
double vjRatio(uint32_t n);

/** Eq. 7 — proposed-method ratio for an n-packet flow. */
double fccRatio(uint32_t n);

/** Peuhkuri per-packet bound (independent of n). */
double peuhkuriRatio();

/**
 * Eqs. 6 / 8 — aggregate a per-flow-length ratio model over a
 * flow-length distribution.
 *
 * @param lengthDist (n, P_n) pairs; P_n sums to ~1.
 * @param perLength  per-length ratio function (vjRatio / fccRatio).
 * @return total compressed bytes over total original bytes, i.e.
 *         sum(P_n * n * r(n)) / sum(P_n * n).
 */
double
aggregateRatio(const std::vector<std::pair<uint32_t, double>> &lengthDist,
               double (*perLength)(uint32_t));

} // namespace fcc::codec

#endif // FCC_CODEC_MODELS_HPP
