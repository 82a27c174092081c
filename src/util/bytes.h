// Big-endian byte serialization helpers.
//
// All wire formats in this repo (TCP, DCCP) are network byte order; these
// helpers are the single place where endianness is handled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace snake {

using Bytes = std::vector<std::uint8_t>;

/// Read-only view of bytes owned elsewhere — e.g. a TCP segment's payload
/// inside the packet's wire buffer. Valid only while that owner lives.
using ByteView = std::span<const std::uint8_t>;

/// Appends big-endian integers to a growing buffer.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u48(std::uint64_t v);  // low 48 bits, used by DCCP sequence numbers
  void u64(std::uint64_t v);
  void raw(ByteView data);
  void zeros(std::size_t count);

  std::size_t size() const { return out_.size(); }

 private:
  Bytes& out_;
};

/// Reads big-endian integers from a fixed buffer; throws std::out_of_range on
/// truncated input (callers treat that as a malformed packet).
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const Bytes& data) : data_(data.data()), size_(data.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u48();
  std::uint64_t u64();
  Bytes raw(std::size_t count);
  void skip(std::size_t count);

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }

 private:
  void require(std::size_t count) const {
    if (pos_ + count > size_) throw std::out_of_range("ByteReader: truncated buffer");
  }
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// Reads/writes an arbitrary bit-aligned unsigned field within a buffer.
/// This powers the packet-format DSL codec: fields are described by bit
/// offset and bit width, exactly like the header diagrams in the RFCs.
std::uint64_t read_bits(const Bytes& buf, std::size_t bit_offset, std::size_t bit_width);
void write_bits(Bytes& buf, std::size_t bit_offset, std::size_t bit_width, std::uint64_t value);

/// Hex dump ("a1 b2 c3 ...") for traces and test failure messages.
std::string to_hex(const Bytes& data);

}  // namespace snake
