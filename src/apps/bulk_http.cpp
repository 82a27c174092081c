#include "apps/bulk_http.h"

#include <array>
#include <memory>

namespace snake::apps {

namespace {

// The response byte at absolute offset q is (q * 31) & 0xFF, which has
// period 256. A doubled table lets any 256-byte window starting at q % 256
// be copied in one memcpy instead of a byte-at-a-time multiply loop (this
// fill was ~20% of a campaign profile).
constexpr std::size_t kPatternPeriod = 256;

const std::uint8_t* pattern_table() {
  static const std::array<std::uint8_t, 2 * kPatternPeriod> table = [] {
    std::array<std::uint8_t, 2 * kPatternPeriod> t{};
    for (std::size_t k = 0; k < t.size(); ++k)
      t[k] = static_cast<std::uint8_t>(k * 31);
    return t;
  }();
  return table.data();
}

/// Bytes [offset, offset + n) of the response, built straight into a fresh
/// buffer that send() then takes over without a copy.
Bytes response_chunk(std::uint64_t offset, std::size_t n) {
  const std::uint8_t* table = pattern_table();
  Bytes chunk;
  chunk.reserve(n);
  while (chunk.size() < n) {
    std::size_t phase = static_cast<std::size_t>((offset + chunk.size()) % kPatternPeriod);
    std::size_t run = std::min(n - chunk.size(), kPatternPeriod);
    chunk.insert(chunk.end(), table + phase, table + phase + run);
  }
  return chunk;
}

}  // namespace

std::shared_ptr<const Bytes> BulkHttpServer::full_chunk() {
  // Chunk offsets are multiples of kChunk, a multiple of the pattern period,
  // so every full chunk of every response is these same bytes: build them
  // once per process and share them, read-only, across sockets, snapshots
  // and executor threads.
  static_assert(kChunk % kPatternPeriod == 0);
  static const std::shared_ptr<const Bytes> chunk =
      std::make_shared<const Bytes>(response_chunk(0, kChunk));
  return chunk;
}

struct BulkHttpServer::PerConnection {
  std::uint64_t queued = 0;  ///< bytes handed to the socket so far
  bool closed = false;
};

BulkHttpServer::BulkHttpServer(tcp::TcpStack& stack, std::uint16_t port,
                               std::uint64_t response_bytes)
    : stack_(stack), response_bytes_(response_bytes) {
  stack_.listen(port, [this](tcp::TcpEndpoint& ep) {
    ++connections_accepted_;
    auto state = std::make_shared<PerConnection>();
    registry_.push_back(state);
    tcp::TcpCallbacks cb;
    cb.on_established = [this, &ep, state] { pump(&ep, state); };
    cb.on_remote_close = [&ep] { ep.close(); };
    return cb;
  });
}

void BulkHttpServer::pump(tcp::TcpEndpoint* endpoint, std::shared_ptr<PerConnection> state) {
  if (state->closed || endpoint->released()) return;
  // Once the peer's FIN made us close(), the socket drops every write: the
  // rest of the response counts as handed over without being made.
  if (!endpoint->accepts_data()) state->queued = response_bytes_;
  // Top the send buffer up to one chunk; stop once the full response has
  // been handed over, then close like an HTTP/1.0 server would.
  while (state->queued < response_bytes_ && endpoint->send_queue_bytes() < kChunk) {
    std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, response_bytes_ - state->queued));
    // `queued` advances in whole chunks, so only the tail is not the shared
    // full chunk.
    if (n == kChunk)
      endpoint->send(full_chunk());
    else
      endpoint->send(response_chunk(state->queued, n));
    state->queued += n;
  }
  if (state->queued >= response_bytes_ && endpoint->send_queue_bytes() == 0) {
    state->closed = true;
    endpoint->close();
    return;
  }
  stack_.node().scheduler().schedule_in(kPumpInterval,
                                        [this, endpoint, state] { pump(endpoint, state); });
}

BulkHttpServer::Snapshot BulkHttpServer::capture() const {
  Snapshot snap;
  snap.connections_accepted = connections_accepted_;
  snap.conns.reserve(registry_.size());
  for (const auto& state : registry_)
    snap.conns.push_back(Snapshot::Conn{state, state->queued, state->closed});
  return snap;
}

void BulkHttpServer::restore(const Snapshot& snap) {
  connections_accepted_ = snap.connections_accepted;
  registry_.clear();
  for (const auto& conn : snap.conns) {
    conn.object->queued = conn.queued;
    conn.object->closed = conn.closed;
    registry_.push_back(conn.object);
  }
}

BulkHttpClient::BulkHttpClient(tcp::TcpStack& stack, sim::Address server, std::uint16_t port,
                               std::optional<Duration> exit_after) {
  tcp::TcpCallbacks cb;
  cb.on_established = [this] { established_ = true; };
  cb.on_data = [this](ByteView chunk) { bytes_received_ += chunk.size(); };
  cb.on_reset = [this] { reset_ = true; };
  cb.on_remote_close = [this] {
    if (endpoint_ != nullptr) endpoint_->close();  // download complete
  };
  endpoint_ = &stack.connect(server, port, std::move(cb));
  if (exit_after.has_value()) {
    stack.node().scheduler().schedule_in(*exit_after, [this] {
      if (!endpoint_->released()) endpoint_->app_exit();
    });
  }
}

}  // namespace snake::apps
