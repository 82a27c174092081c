#include "tcp/send_buffer.h"

#include <algorithm>
#include <cassert>

namespace snake::tcp {

void SendBuffer::append(Bytes data) {
  if (data.empty()) return;
  size_ += data.size();
  chunks_.push_back(std::make_shared<const Bytes>(std::move(data)));
}

void SendBuffer::consume(std::size_t n) {
  assert(n <= size_);
  size_ -= n;
  std::size_t pos = head_ + n;
  auto spent = chunks_.begin();
  while (spent != chunks_.end() && pos >= (*spent)->size()) {
    pos -= (*spent)->size();
    ++spent;
  }
  chunks_.erase(chunks_.begin(), spent);
  head_ = pos;
}

Bytes SendBuffer::slice(std::size_t offset, std::size_t len) const {
  assert(offset + len <= size_);
  Bytes out;
  out.reserve(len);
  std::size_t pos = head_ + offset;
  for (auto it = chunks_.begin(); out.size() < len; ++it) {
    const Bytes& chunk = **it;
    if (pos >= chunk.size()) {
      pos -= chunk.size();
      continue;
    }
    std::size_t n = std::min(chunk.size() - pos, len - out.size());
    out.insert(out.end(), chunk.begin() + static_cast<std::ptrdiff_t>(pos),
               chunk.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos = 0;
  }
  return out;
}

}  // namespace snake::tcp
