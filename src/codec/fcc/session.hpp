/**
 * @file
 * Session-based compression API: the FCC compressor itself. Every
 * compression entry point runs on a CompressSession — the one-shot
 * FccTraceCompressor::compress(Trace), and the ingest loop of
 * stream.hpp behind fcctool and the continuous-capture archiver
 * (src/archive, fccd) — so the same packets give the same archive
 * bytes whichever of them produced it, at any thread count.
 *
 * The session is the paper's online compressor (§3): packets are
 * feed() in as they arrive and grouped by 5-tuple; when a
 * connection's teardown completes (flow::Connection: RST, the ACK
 * after both FINs, or an idle timeout) the flow is characterized,
 * clustered against the template store and appended to the epoch's
 * datasets. rotateChunk() cuts chunk boundaries on demand, on top of
 * the record-count slicing of FccConfig::chunkRecords; seal() closes
 * the current *epoch* into one self-contained archive, choosing its
 * chunk layout for either container, and reArm() starts the next
 * epoch without rebuilding the session.
 *
 * Output depends only on the packets: flows still open at the end of
 * an epoch close in canonical (first timestamp, 5-tuple) order, and
 * the time-seq dataset is sorted by that same key
 * (flow::canonicalFlowOrderKey).
 *
 * Template carry (SessionOptions::carryTemplates): the short-flow
 * cluster store survives seal()/reArm(), so a re-armed epoch skips
 * the recluster warm-up a cold run pays. Archives stay
 * self-contained either way: each epoch serializes only the
 * templates it referenced, in first-use order, so a carry-off
 * session's epochs are bit-identical to one-shot runs over the
 * split input.
 *
 * DecompressSession is the matching read side: one session walks
 * any number of archives (an fccd output directory, say) through
 * the §4 bounded-memory flush of FccTraceCompressor::expandInto.
 */

#ifndef FCC_CODEC_FCC_SESSION_HPP
#define FCC_CODEC_FCC_SESSION_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "codec/fcc/fcc_codec.hpp"
#include "codec/fcc/stream.hpp"
#include "flow/template_store.hpp"
#include "trace/source.hpp"
#include "util/thread_pool.hpp"

namespace fcc::codec::fcc {

/**
 * Packets per feed dispatch of a sharded session. feed() copies its
 * packets into a staging buffer; a full buffer is dispatched to the
 * shards, which work on it while the caller goes on feeding the next
 * one, so one pool round trip serves many small calls (the ingest
 * loop's ingestBatchRecords reads, perfbench's 4096-record ones) and
 * the wake-up of the workers overlaps the caller's reading. Staging
 * never changes an archive: seal() dispatches what is staged first.
 */
constexpr size_t feedDispatchPackets = 16384;

/** Session behaviour knobs (the codec knobs live in FccConfig). */
struct SessionOptions
{
    /**
     * Keep the short-flow template store across seal()/reArm(), so
     * re-armed epochs skip the cluster warm-up. Off, every epoch
     * clusters from scratch — byte-identical to running the one-shot
     * compressor on each epoch's packets separately.
     */
    bool carryTemplates = true;
};

/** What one seal() produced. */
struct SealInfo
{
    uint64_t records = 0;     ///< time-seq records (flows) sealed
    uint64_t packets = 0;     ///< packets they encode
    uint64_t chunks = 0;      ///< chunk count of the archive
    uint64_t bytes = 0;       ///< serialized archive size
    uint64_t minFirstUs = 0;  ///< earliest flow start (µs), 0 if none
    uint64_t maxLastUs = 0;   ///< latest packet timestamp seen (µs)
    uint64_t templatesNew = 0;///< clusters created this epoch
};

/**
 * An open-ended compression session over the FCC codec.
 *
 * Lifecycle: constructed *armed*; feed() accumulates flow state and
 * closed-flow datasets; seal() closes every open flow and serializes
 * the epoch (the session is then *sealed* — feed() throws); reArm()
 * starts the next epoch. Input must be time-ordered within an epoch;
 * reArm() resets the clock, so epochs may restart from zero.
 *
 * FccTraceCompressor::compress() and compressSource() are thin
 * shells over a single-epoch session; anything they can produce, a
 * session seals byte-identically. ingest() (stream.hpp) is the one
 * loop that drives a session from a TraceSource.
 *
 * The feed is sharded: the open flows live in one shard per worker
 * (FccConfig::threads, resolved), a packet goes to the shard of its
 * 5-tuple hash, and the shards assemble, characterize and pre-cluster
 * their packets concurrently on the session's pool. The flows they
 * close merge on the caller's thread in the order a serial session
 * closes them — by the index of the closing packet, an idle expiry
 * before the restart at the same packet — and only that merge
 * touches the address dictionary, the template store and the
 * datasets, so the archive bytes do not depend on the thread count.
 * A dispatch's merge runs when the next dispatch starts, or at
 * seal() (feedDispatchPackets). The same pool runs seal()'s column
 * encode jobs. At one thread there is one shard, run inline on each
 * feed() call, and each flow merges as it closes.
 */
class CompressSession
{
  public:
    /**
     * @throws fcc::util::Error when cfg does not validate
     *         (FccConfig::validate()).
     */
    explicit CompressSession(const FccConfig &cfg,
                             const SessionOptions &options = {});

    /** Out-of-line: OpenFlow is complete only in session.cpp. */
    ~CompressSession();

    CompressSession(const CompressSession &) = delete;
    CompressSession &operator=(const CompressSession &) = delete;

    /**
     * Feed packets in order. The order check runs before any packet
     * is dispatched: on a disordered packet the packets before it are
     * fed, and then this throws.
     *
     * @throws fcc::util::Error when sealed or on time-disordered
     *         input.
     */
    void feed(std::span<const trace::PacketRecord> batch);

    /**
     * Cut the current chunk at the stream position reached so far:
     * every flow that *started* at or before the last fed packet's
     * timestamp seals into earlier chunks than any flow starting
     * after it. The archiver calls this on its wall/trace-time chunk
     * policy; record-count slicing (FccConfig::chunkRecords) still
     * applies within the cut segments. Both containers store the
     * resulting layout.
     *
     * @throws fcc::util::Error when the session is sealed.
     */
    void rotateChunk();

    /**
     * Close every open flow, serialize the epoch's datasets into one
     * self-contained archive and return its bytes. The session
     * becomes sealed until reArm().
     *
     * @throws fcc::util::Error when already sealed.
     */
    std::vector<uint8_t> seal(SealInfo *info = nullptr);

    /**
     * Close the epoch exactly as seal() does, but return the datasets
     * seal() would serialize — chunk layout included — instead of
     * their bytes. The session
     * becomes sealed until reArm() and keeps no copy; stats() count
     * no sealed archive.
     *
     * @throws fcc::util::Error when already sealed.
     */
    Datasets sealDatasets();

    /**
     * Start the next epoch: per-epoch state (open flows, datasets,
     * address table, input clock, chunk cuts) resets; the template
     * store persists when SessionOptions::carryTemplates is set.
     *
     * @throws fcc::util::Error when the session is not sealed.
     */
    void reArm();

    /** True between seal() and reArm(). */
    bool sealed() const { return sealed_; }

    /** Cumulative stats across all epochs; inputBytes only counts
     *  what addInputBytes() attributed. */
    const StreamStats &stats() const { return stats_; }

    /** Attribute source-container bytes to stats().inputBytes (the
     *  session sees decoded records, not container bytes). */
    void addInputBytes(uint64_t bytes) { stats_.inputBytes += bytes; }

    const FccConfig &config() const { return cfg_; }
    const SessionOptions &options() const { return options_; }

  private:
    struct OpenFlow;
    struct Close;
    struct Shard;

    /** Where a closed flow sorts in the time-seq dataset. */
    struct RecordOrder
    {
        uint64_t firstNs = 0;
        flow::FlowKey key;
    };

    /** The session's pool, started on first use; none at 1 thread. */
    util::ThreadPool *workers();
    /** Wait for the dispatch under way, if any, and merge the flows
     *  it closed. */
    void settle();
    /** settle(), then start the shards on the staged packets; on the
     *  pool they run while the caller goes on. */
    void launchStaged();
    /** One shard's part of the dispatch under way. */
    void feedShard(size_t index);
    /** Packet @p i of a dispatch (0 at one shard) on @p shard. */
    void feedPacket(Shard &shard, uint32_t i,
                    const trace::PacketRecord &pkt);
    /** Close a flow of the one shard at once, as a serial session. */
    void closeFlow(const flow::FlowKey &key, OpenFlow &flowState);
    /** Record a flow a shard closed for the merge (thread-safe
     *  across shards). */
    void emitClose(Shard &shard, uint32_t packet,
                   const flow::FlowKey &key, OpenFlow &flowState) const;
    /** Merge @p close of @p shard (recordFlow). */
    void applyClose(Shard &shard, const Close &close,
                    uint32_t searched);
    /** The serial part of a close: a short flow's S values are
     *  @p values, a long flow's template @p longFlow (moved from). */
    void recordFlow(const Close &close, std::span<const uint16_t> values,
                    LongTemplate *longFlow, uint32_t searched);
    void closeEpoch();
    void resetEpoch();

    FccConfig cfg_;
    SessionOptions options_;
    flow::Characterizer chi_;
    flow::TemplateStore store_;

    // Per-epoch state, reset by reArm().
    Datasets datasets_;
    /** Sort key of each datasets_.timeSeq record, parallel to it. */
    std::vector<RecordOrder> recordOrder_;
    /** Open flows by 5-tuple hash: one shard per worker thread. */
    std::vector<Shard> shards_;
    /** The shard of each packet of the dispatch under way. */
    std::vector<uint16_t> shardOfPacket_;
    /** Fed packets not dispatched yet, up to feedDispatchPackets. */
    std::vector<trace::PacketRecord> staged_;
    /** The packets of the dispatch under way. */
    std::vector<trace::PacketRecord> inFlight_;
    /** A dispatch was started and not settled yet. */
    bool running_ = false;
    /** Store size when that dispatch started. */
    uint32_t searched_ = 0;
    std::unordered_map<uint32_t, uint32_t> addrIndex_;
    /** store index -> this epoch's compacted template index, or
     *  unmappedTemplate. */
    std::vector<uint32_t> templateRemap_;
    /** store indices referenced this epoch, in first-use order. */
    std::vector<uint32_t> templateOrder_;
    /** rotateChunk() cut positions: last fed timestamp (µs). */
    std::vector<uint64_t> chunkCutsUs_;
    uint64_t lastNs_ = 0;
    bool sawPacket_ = false;
    uint64_t epochPackets_ = 0;
    uint64_t templatesNew_ = 0;
    bool sealed_ = false;

    StreamStats stats_;
    /** Declared last, so destroyed first: its destructor waits for a
     *  dispatch still running on the shards. */
    std::unique_ptr<util::ThreadPool> pool_;
};

/**
 * The matching decompression session: holds config and cumulative
 * stats while open()/drainTo() walk any number of archives. Each
 * archive reconstructs with the §4 bounded-memory flush
 * (FccTraceCompressor::expandInto): a batch of chunks expands and
 * sorts concurrently (cfg.threads) and the sorted runs merge
 * between flushes, bit-identically at any thread count. The column
 * decode and the expansion of every archive share one pool, which
 * the session starts on first use.
 */
class DecompressSession
{
  public:
    explicit DecompressSession(const FccConfig &cfg = {});

    DecompressSession(const DecompressSession &) = delete;
    DecompressSession &operator=(const DecompressSession &) = delete;

    /**
     * Decode an archive's datasets into the session (mmap'd read,
     * container auto-detected, pooled FCC3 column decode). Replaces
     * any previously open archive.
     *
     * @throws fcc::util::Error on I/O failure or malformed input.
     */
    void open(const std::string &fccPath);

    /** True after a successful open(), until drainTo(). */
    bool isOpen() const { return open_; }

    /** The open archive's decoded datasets. @throws when !isOpen() */
    const Datasets &datasets() const;

    /**
     * Reconstruct the open archive into @p sink (which is closed on
     * return) and release it. Returns the stats of *this* archive;
     * stats() accumulates across all drained archives.
     *
     * Packets leave through FccTraceCompressor::expandInto, the
     * one reconstruction loop: the sink gets one write per block a
     * batch flushes, and memory holds one batch of chunks plus the
     * carry. A legacy unchunked archive (FCC1, unchunked FCC3) is one
     * chunk, so its drain holds the whole reconstructed archive
     * before the first write; those files are no longer written.
     *
     * @throws fcc::util::Error when no archive is open, or on a
     *         flow-fidelity archive (no per-packet data).
     */
    StreamStats drainTo(trace::TraceSink &sink);

    /** Cumulative stats across every archive drained so far
     *  (epochs = archives). */
    const StreamStats &stats() const { return stats_; }

    const FccConfig &config() const { return cfg_; }

  private:
    /** The session's pool, started on first use; none at 1 thread. */
    util::ThreadPool *workers();

    FccConfig cfg_;
    std::unique_ptr<util::ThreadPool> pool_;
    Datasets datasets_;
    uint64_t archiveBytes_ = 0;
    bool open_ = false;
    StreamStats stats_;
};

} // namespace fcc::codec::fcc

#endif // FCC_CODEC_FCC_SESSION_HPP
