// Bulk-transfer applications over TCP — the reproduction of the paper's
// test workload: "a large HTTP download with Apache or IIS running on the
// servers and wget for clients".
//
// The server streams a large response; the client counts received bytes.
// The client can be told to exit abruptly mid-download (app_exit), modeling
// wget being terminated while data is in flight — the precondition for the
// CLOSE_WAIT Resource Exhaustion attack.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tcp/stack.h"
#include "util/time.h"

namespace snake::apps {

/// HTTP-like bulk server. Accepts connections on `port` and streams
/// `response_bytes` to each, topping up the socket's send buffer from a
/// periodic pump so memory stays bounded, then closes. Also closes its end
/// when the remote closes first; from then on the socket accepts no data, so
/// the pump makes none of the rest of the response.
class BulkHttpServer {
 public:
  BulkHttpServer(tcp::TcpStack& stack, std::uint16_t port, std::uint64_t response_bytes);

  std::uint64_t connections_accepted() const { return connections_accepted_; }

  struct PerConnection;

  /// Mutable server state frozen between two scheduler events. Per-connection
  /// pump state lives in shared objects referenced both here and by cloned
  /// scheduler closures; restore writes the frozen values back INTO those
  /// same objects, so every closure cloned from the snapshot observes the
  /// rewound state.
  struct Snapshot {
    std::uint64_t connections_accepted = 0;
    struct Conn {
      std::shared_ptr<PerConnection> object;
      std::uint64_t queued = 0;
      bool closed = false;
    };
    std::vector<Conn> conns;
  };
  Snapshot capture() const;
  void restore(const Snapshot& snap);

 private:
  void pump(tcp::TcpEndpoint* endpoint, std::shared_ptr<PerConnection> state);

  tcp::TcpStack& stack_;
  std::uint64_t response_bytes_;
  std::uint64_t connections_accepted_ = 0;
  /// Every PerConnection ever created, in accept order — the snapshot layer's
  /// handle on pump state otherwise reachable only through closures.
  std::vector<std::shared_ptr<PerConnection>> registry_;

  /// The response bytes at any offset that is a multiple of kChunk.
  static std::shared_ptr<const Bytes> full_chunk();

  static constexpr std::size_t kChunk = 64 * 1024;       ///< send-buffer top-up target
  static constexpr Duration kPumpInterval = Duration::millis(10);
};

/// Mutable client state, declared once (see tcp::TcpEndpointState for the
/// pattern); the endpoint pointer is session-stable and stays outside.
struct BulkHttpClientState {
  std::uint64_t bytes_received_ = 0;
  bool established_ = false;
  bool reset_ = false;
};

/// HTTP-like bulk client (wget). Connects at construction.
class BulkHttpClient : private BulkHttpClientState {
 public:
  /// If `exit_after` is set, the client application exits abruptly that long
  /// after connecting (see TcpEndpoint::app_exit).
  BulkHttpClient(tcp::TcpStack& stack, sim::Address server, std::uint16_t port,
                 std::optional<Duration> exit_after = std::nullopt);

  std::uint64_t bytes_received() const { return bytes_received_; }
  bool established() const { return established_; }
  bool reset() const { return reset_; }
  tcp::TcpEndpoint& endpoint() { return *endpoint_; }

  using Snapshot = BulkHttpClientState;
  Snapshot capture() const { return *this; }
  void restore(const Snapshot& snap) { Snapshot::operator=(snap); }

 private:
  tcp::TcpEndpoint* endpoint_ = nullptr;
};

}  // namespace snake::apps
