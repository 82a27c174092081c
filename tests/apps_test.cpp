// Application-layer tests: the bulk HTTP download and the DCCP iperf analog.
#include <gtest/gtest.h>

#include "apps/bulk_http.h"
#include "apps/iperf_dccp.h"
#include "sim/network.h"
#include "tcp/stack.h"
#include "util/rng.h"

namespace snake::apps {
namespace {

struct World {
  explicit World(const tcp::TcpProfile& client_profile = tcp::linux_3_13_profile())
      : a(net.add_node(1, "client")),
        b(net.add_node(2, "server")),
        tcp_a(a, client_profile, Rng(1)),
        tcp_b(b, tcp::linux_3_13_profile(), Rng(2)),
        dccp_a(a, Rng(3)),
        dccp_b(b, Rng(4)) {
    auto [ab, ba] = net.connect(a, b, sim::LinkConfig{});
    a.set_default_route(ab);
    b.set_default_route(ba);
  }
  void run_for(double seconds) {
    net.scheduler().run_until(net.scheduler().now() + Duration::seconds(seconds));
  }
  sim::Network net;
  sim::Node& a;
  sim::Node& b;
  tcp::TcpStack tcp_a, tcp_b;
  dccp::DccpStack dccp_a, dccp_b;
};

TEST(BulkHttp, FiniteDownloadCompletesAndCleansUp) {
  World w;
  BulkHttpServer server(w.tcp_b, 80, 300000);
  BulkHttpClient client(w.tcp_a, 2, 80);
  w.run_for(30.0);
  EXPECT_TRUE(client.established());
  EXPECT_EQ(client.bytes_received(), 300000u);
  EXPECT_FALSE(client.reset());
  EXPECT_EQ(server.connections_accepted(), 1u);
  // Server closed after the response; client closed on remote close.
  EXPECT_EQ(w.tcp_b.open_sockets(), 0u);
}

TEST(BulkHttp, ServerMemoryStaysBoundedDuringStream) {
  // The pump keeps the socket send buffer around one chunk, not the whole
  // (potentially multi-GB) response.
  World w;
  BulkHttpServer server(w.tcp_b, 80, 1ULL << 30);
  BulkHttpClient client(w.tcp_a, 2, 80);
  w.run_for(2.0);
  ASSERT_FALSE(w.tcp_b.endpoints().empty());
  EXPECT_LE(w.tcp_b.endpoints()[0]->send_queue_bytes(), 2u * 64 * 1024);
  EXPECT_GT(client.bytes_received(), 1000000u);
}

TEST(BulkHttp, ClientExitMidDownloadTriggersAppExit) {
  World w;
  BulkHttpServer server(w.tcp_b, 80, 1ULL << 30);
  BulkHttpClient client(w.tcp_a, 2, 80, Duration::seconds(1.0));
  w.run_for(10.0);
  // Linux-profile client RSTs post-exit data; server cleans up.
  EXPECT_GT(client.endpoint().stats().rsts_sent, 0u);
  EXPECT_EQ(w.tcp_b.open_sockets(), 0u);
  EXPECT_LT(client.bytes_received(), 1ULL << 30);
}

TEST(BulkHttp, PeerCloseDoesNotGenerateTheRestOfTheResponse) {
  // A Windows client drains gracefully after exiting: no RST, just its FIN,
  // so the server's socket closes for writing with nearly the whole response
  // still unsent. The pump must not build that remainder only for send() to
  // drop it — at 2^62 bytes that would never finish — but hand the socket
  // over to its FIN and release.
  World w(tcp::windows_8_1_profile());
  BulkHttpServer server(w.tcp_b, 80, 1ULL << 62);
  BulkHttpClient client(w.tcp_a, 2, 80, Duration::seconds(1.0));
  w.run_for(5.0);
  EXPECT_EQ(client.endpoint().stats().rsts_sent, 0u);
  EXPECT_GT(client.bytes_received(), 0u);
  ASSERT_EQ(w.tcp_b.endpoints().size(), 1u);
  const tcp::TcpEndpoint& server_ep = *w.tcp_b.endpoints()[0];
  EXPECT_TRUE(server_ep.released());
  EXPECT_EQ(server_ep.send_queue_bytes(), 0u);
  // The server's FIN reached the client: it left FIN_WAIT_2 for TIME_WAIT.
  EXPECT_EQ(client.endpoint().state(), tcp::TcpState::kTimeWait);
  EXPECT_EQ(w.tcp_b.open_sockets(), 0u);
}

/// Checks every delivered byte against the bulk response pattern,
/// (q * 31) & 0xFF at stream offset q. A plain value, so a copy is a
/// snapshot.
struct PatternCheck {
  std::uint64_t offset = 0;
  std::uint64_t mismatches = 0;
  void take(ByteView data) {
    for (std::uint8_t b : data) mismatches += b != static_cast<std::uint8_t>(offset++ * 31);
  }
};

TEST(BulkHttp, ClientGetsThePatternAcrossChunksAndAfterARestore) {
  // Five full 64 KiB chunks — the one shared chunk, five times — plus a
  // tail built for its own offset. MSS-sized segments straddle every chunk
  // edge. A mid-transfer snapshot, restored after the run finished, must
  // replay the rest of the stream byte for byte.
  constexpr std::uint64_t kTotal = 5 * 64 * 1024 + 777;
  World w;
  BulkHttpServer server(w.tcp_b, 80, kTotal);
  PatternCheck check;
  tcp::TcpEndpoint* client = nullptr;
  tcp::TcpCallbacks cb;
  cb.on_data = [&check](ByteView data) { check.take(data); };
  cb.on_remote_close = [&client] { client->close(); };
  client = &w.tcp_a.connect(2, 80, std::move(cb));
  while (check.offset < 100000) w.run_for(0.005);
  ASSERT_LT(check.offset, 4 * 64 * 1024u);  // mid-transfer, chunks still queued

  sim::Scheduler::Snapshot sched;
  ASSERT_TRUE(w.net.scheduler().capture(sched));
  std::vector<sim::Link::Snapshot> links;
  for (const auto& link : w.net.links()) links.push_back(link->capture());
  std::vector<std::uint64_t> packet_ids;
  for (const auto& node : w.net.nodes()) packet_ids.push_back(node->next_packet_id());
  const tcp::TcpStack::Snapshot client_stack = w.tcp_a.capture();
  const tcp::TcpStack::Snapshot server_stack = w.tcp_b.capture();
  const BulkHttpServer::Snapshot server_app = server.capture();
  const PatternCheck at_capture = check;

  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(run == 0 ? "live run" : "restored run");
    if (run == 1) {
      w.net.scheduler().restore(sched);
      for (std::size_t i = 0; i < links.size(); ++i) w.net.links()[i]->restore(links[i]);
      for (std::size_t i = 0; i < packet_ids.size(); ++i)
        w.net.nodes()[i]->set_next_packet_id(packet_ids[i]);
      w.tcp_a.restore(client_stack);
      w.tcp_b.restore(server_stack);
      server.restore(server_app);
      check = at_capture;
    }
    w.run_for(30.0);
    EXPECT_EQ(check.offset, kTotal);
    EXPECT_EQ(check.mismatches, 0u);
    EXPECT_EQ(w.tcp_b.open_sockets(), 0u);
  }
}

TEST(IperfDccp, GoodputTracksOfferBelowCapacity) {
  World w;
  DccpIperfSink sink(w.dccp_b, 5001);
  DccpIperfSource::Options opts;
  opts.offer_rate_pps = 500;  // 4 Mbit/s on a 100 Mbit/s link
  opts.payload_bytes = 1000;
  opts.duration = Duration::seconds(10.0);
  DccpIperfSource source(w.dccp_a, 2, 5001, opts);
  w.run_for(15.0);
  EXPECT_TRUE(source.established());
  // Nearly all offered datagrams delivered (allowing handshake ramp).
  EXPECT_GT(sink.goodput_bytes(), 4500u * 1000u);
  EXPECT_LE(sink.goodput_bytes(), source.datagrams_offered() * 1000u);
  // Source closed after its duration; both sides released.
  EXPECT_EQ(w.dccp_b.open_sockets(), 0u);
}

TEST(IperfDccp, Ccid3SourceAlsoDelivers) {
  World w;
  dccp::DccpEndpointConfig accept_config;
  accept_config.ccid = 3;
  DccpIperfSink sink(w.dccp_b, 5001, accept_config);
  DccpIperfSource::Options opts;
  opts.offer_rate_pps = 500;
  opts.duration = Duration::seconds(10.0);
  opts.ccid = 3;
  DccpIperfSource source(w.dccp_a, 2, 5001, opts);
  w.run_for(20.0);
  EXPECT_TRUE(source.established());
  EXPECT_GT(sink.goodput_bytes(), 1000u * 1000u);
}

}  // namespace
}  // namespace snake::apps
