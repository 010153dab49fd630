/**
 * @file
 * pcapng (IETF pcap Next Generation) reader and writer.
 *
 * The reader walks the block structure incrementally: Section Header
 * Blocks (both byte-order magics, multiple sections per file),
 * Interface Description Blocks (several per section, per-interface
 * if_tsresol handling for power-of-10 and power-of-2 clocks), and
 * Enhanced Packet Blocks over RAW or Ethernet link types. Statistics,
 * name-resolution and unknown/custom blocks are skipped by length.
 * Simple Packet Blocks carry no timestamp and are rejected — this is
 * a timing-sensitive library.
 *
 * The writer emits one section with a single LINKTYPE_RAW interface
 * at nanosecond resolution (full PacketRecord precision) and one
 * Enhanced Packet Block per packet.
 */

#ifndef FCC_TRACE_PCAPNG_HPP
#define FCC_TRACE_PCAPNG_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/source.hpp"
#include "trace/trace.hpp"
#include "util/io.hpp"

namespace fcc::trace {

/** Serialize a trace as a one-section, one-interface pcapng file. */
std::vector<uint8_t> writePcapng(const Trace &trace);

/** Parse a pcapng buffer. @throws fcc::util::Error on bad input. */
Trace readPcapng(std::span<const uint8_t> data);

/** Write a trace to a pcapng file. @throws fcc::util::Error */
void writePcapngFile(const Trace &trace, const std::string &path);

/** Read a pcapng file. @throws fcc::util::Error */
Trace readPcapngFile(const std::string &path);

/**
 * Incremental pcapng reader over a ByteSource: each block is framed
 * and parsed in place in one refillable util::ReadWindow.
 */
class PcapngSource final : public TraceSource
{
  public:
    /** Reads and validates the first Section Header Block. */
    explicit PcapngSource(std::unique_ptr<util::ByteSource> bytes);

    size_t read(std::span<PacketRecord> batch) override;
    uint64_t bytesConsumed() const override { return consumed_; }

  private:
    /** Per-interface description needed to decode packets. */
    struct Interface
    {
        uint16_t linkType = 0;
        uint8_t tsresol = 6;  ///< raw if_tsresol byte (default 1 µs)
    };

    /** One framed block, in place in the read window. */
    struct Block
    {
        uint32_t type = 0;
        std::span<const uint8_t> body;  ///< payload
    };

    bool nextBlock(Block &block);
    void beginSection(std::span<const uint8_t> body);
    void addInterface(std::span<const uint8_t> body);
    void parsePacket(std::span<const uint8_t> body,
                     PacketRecord &pkt);
    uint32_t fix(uint32_t v) const;
    uint16_t fix16(uint16_t v) const;

    util::ReadWindow in_;
    std::vector<Interface> interfaces_;
    uint64_t consumed_ = 0;
    bool swapped_ = false;
    bool started_ = false;
};

/** Streaming pcapng writer (single RAW interface, ns resolution). */
class PcapngSink final : public TraceSink
{
  public:
    explicit PcapngSink(std::unique_ptr<util::ByteSink> out);

    void write(std::span<const PacketRecord> batch) override;
    void close() override { out_->close(); }
    uint64_t bytesWritten() const override
    {
        return out_->bytesWritten();
    }

  private:
    std::unique_ptr<util::ByteSink> out_;
    std::vector<uint8_t> buf_;
};

} // namespace fcc::trace

#endif // FCC_TRACE_PCAPNG_HPP
