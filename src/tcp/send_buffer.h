// The sender's byte queue: bytes [snd_una, snd_una + size()) of one TCP
// connection, unacked first, then unsent.
//
// Each application write becomes one immutable, reference-counted chunk, so
// queueing a write is at most one allocation (none when the application
// hands over a chunk it already shares, like the bulk server's response
// chunk), an ACK only moves the head offset and drops spent chunks, and a
// segment's payload is copied straight out of the chunks it spans into the
// segment's wire buffer. Copying a SendBuffer (a snapshot capture or restore
// of TcpEndpointState) copies a few chunk pointers, never the bytes: no chunk
// is ever written after append(), so any number of copies — including copies
// restored concurrently by several executors from one campaign-wide
// snapshot — can share it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "util/bytes.h"

namespace snake::tcp {

class SendBuffer {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Queues one application write behind the buffered bytes.
  void append(Bytes data);
  /// Queues a shared immutable chunk without copying it.
  void append(std::shared_ptr<const Bytes> chunk);

  /// Drops the first `n` bytes (acknowledged data); `n` <= size().
  void consume(std::size_t n);

  /// Appends bytes [offset, offset + len) to `out`; the range must lie
  /// within size().
  void copy_to(std::size_t offset, std::size_t len, Bytes& out) const;

 private:
  std::vector<std::shared_ptr<const Bytes>> chunks_;
  std::size_t head_ = 0;  ///< bytes of chunks_.front() already consumed
  std::size_t size_ = 0;
};

}  // namespace snake::tcp
