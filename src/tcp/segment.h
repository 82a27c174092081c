// TCP segment: the typed view the endpoints work with, plus wire
// serialization matching the DSL layout in src/packet/tcp_format.h (the
// proxy manipulates segments in wire form, the endpoints in typed form;
// parse/serialize round-trips between the two).
//
// Options are real wire bytes in [20, data_offset*4): kind-4 SACK-permitted
// on SYNs, kind-5 SACK blocks on ACKs (RFC 2018/2883), NOP-padded to 32-bit
// alignment. The whole-buffer checksum covers them, and the compiled codec's
// fixed-offset accessors are unaffected because every DSL field lives in the
// 20-byte fixed part. The sack_flag/dsack_flag reserved bits mirror the
// option content so per-packet classification stays option-blind.
//
// A Segment never owns its payload: parse_segment points it into the wire
// buffer it parsed, and the sender serializes data straight from its
// SendBuffer chunks into the pooled wire buffer. Only the receiver's
// out-of-order queue copies payload bytes, because it outlives the packet.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tcp/send_buffer.h"
#include "tcp/seq.h"
#include "util/bytes.h"

namespace snake::tcp {

/// One SACK block: received bytes [start, end) above the cumulative ACK —
/// or, for a leading DSACK block (RFC 2883), a duplicate range at or below
/// it.
struct SackBlock {
  Seq start = 0;
  Seq end = 0;

  bool operator==(const SackBlock& other) const {
    return start == other.start && end == other.end;
  }
};

struct Segment {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  Seq seq = 0;
  Seq ack = 0;
  std::uint8_t flags = 0;  // TcpFlag bits
  std::uint16_t window = 0;
  std::uint16_t urgent_ptr = 0;

  /// Model extension in the `reserved` header bits: DSACK indication. Real
  /// stacks carry this as a SACK option (RFC 2883); we also surface it as one
  /// header bit so option-free profiles keep their 20-byte headers. Set by a
  /// receiver whose ACK was triggered by a fully-duplicate segment.
  bool dsack = false;

  /// SACK-permitted option (kind 4) — SYN/SYN+ACK negotiation, RFC 2018 §2.
  bool sack_permitted = false;

  /// SACK blocks (kind 5), most recently changed first per RFC 2018 §4; a
  /// DSACK-emitting profile puts the duplicate range in blocks[0] (RFC 2883).
  /// At most kMaxSackBlocks survive serialization.
  std::vector<SackBlock> sack_blocks;

  /// Non-owning: valid while the wire buffer (or chunk) it views lives.
  ByteView payload;

  static constexpr std::size_t kMaxSackBlocks = 4;

  bool has(std::uint8_t flag) const { return (flags & flag) != 0; }

  /// Sequence space consumed: payload plus one for SYN and one for FIN.
  std::uint32_t seq_len() const;

  /// Option bytes this segment serializes to (NOP padding included).
  std::size_t option_bytes() const;

  /// Human-readable one-liner for traces: "SYN seq=1 ack=0 len=0".
  std::string summary() const;
};

/// Serializes to the header (20 bytes + options) + payload wire format with
/// a valid checksum; data_offset accounts for the option bytes.
Bytes serialize(const Segment& segment);

/// Serializes into `out` (cleared first), reusing its capacity — hot paths
/// feed this recycled buffers from the scenario's sim::BufferPool so
/// steady-state sends allocate nothing. `segment.payload` must not view
/// `out` itself.
void serialize_into(const Segment& segment, Bytes& out);

/// Same, but the payload is bytes [offset, offset + len) of `data`, copied
/// straight from its chunks into `out`; `segment.payload` is ignored. The
/// endpoint's data path: no intermediate payload buffer.
void serialize_into(const Segment& segment, const SendBuffer& data, std::size_t offset,
                    std::size_t len, Bytes& out);

/// Parses wire bytes; returns std::nullopt for truncated input, a bad
/// checksum, or malformed options (the receiving stack drops such packets
/// silently). The payload views `raw`, which must outlive the Segment — so
/// a temporary buffer is refused at compile time.
std::optional<Segment> parse_segment(const Bytes& raw);
std::optional<Segment> parse_segment(Bytes&& raw) = delete;

}  // namespace snake::tcp
