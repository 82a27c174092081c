#include "tcp/send_buffer.h"

#include <algorithm>
#include <cassert>

namespace snake::tcp {

void SendBuffer::append(Bytes data) {
  if (data.empty()) return;
  append(std::make_shared<const Bytes>(std::move(data)));
}

void SendBuffer::append(std::shared_ptr<const Bytes> chunk) {
  if (chunk == nullptr || chunk->empty()) return;
  size_ += chunk->size();
  chunks_.push_back(std::move(chunk));
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

void SendBuffer::copy_to(std::size_t offset, std::size_t len, Bytes& out) const {
  assert(offset + len <= size_);
  std::size_t pos = head_ + offset;
  for (auto it = chunks_.begin(); len > 0; ++it) {
    const Bytes& chunk = **it;
    if (pos >= chunk.size()) {
      pos -= chunk.size();
      continue;
    }
    std::size_t n = std::min(chunk.size() - pos, len);
    out.insert(out.end(), chunk.begin() + static_cast<std::ptrdiff_t>(pos),
               chunk.begin() + static_cast<std::ptrdiff_t>(pos + n));
    len -= n;
    pos = 0;
  }
}

}  // namespace snake::tcp
