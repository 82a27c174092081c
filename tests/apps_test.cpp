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
