// bf::net: transport cost models and the virtual-time RPC fabric.
#include <gtest/gtest.h>

#include <thread>

#include "net/endpoint.h"
#include "net/transport.h"

namespace bf::net {
namespace {

// ---- cost models -----------------------------------------------------------

TEST(TransportCost, LocalGrpcChargesCopiesOnDelivery) {
  const auto node = sim::make_node_b();
  TransportCost grpc = local_grpc(node);
  TransportCost control = local_control(node);
  const std::size_t big = 8 << 20;
  // Same serialization on send...
  EXPECT_EQ(grpc.send_cost(big).ns(), control.send_cost(big).ns());
  // ...but the gRPC data path pays 3 extra copies on delivery.
  EXPECT_GT(grpc.deliver_cost(big).ns(), control.deliver_cost(big).ns());
  // Small control frames cost about the fixed hop latency either way.
  EXPECT_NEAR(static_cast<double>(grpc.deliver_cost(200).ns()),
              static_cast<double>(control.deliver_cost(200).ns()), 1e5);
}

TEST(TransportCost, RemoteGrpcIsSlowerThanLocal) {
  const auto b = sim::make_node_b();
  const auto c = sim::make_node_c();
  const std::size_t size = 1 << 20;
  EXPECT_GT(remote_grpc(b, c).deliver_cost(size).ns(),
            local_grpc(b).deliver_cost(size).ns());
}

TEST(TransportCost, DeliverMonotoneInSize) {
  TransportCost cost = local_grpc(sim::make_node_b());
  vt::Duration previous = vt::Duration::nanos(0);
  for (std::size_t size = 64; size <= (1 << 24); size *= 8) {
    const vt::Duration current = cost.deliver_cost(size);
    EXPECT_GT(current.ns(), previous.ns());
    previous = current;
  }
}

// ---- endpoint / connection ----------------------------------------------------

struct EchoServer {
  explicit EchoServer(const std::string& name) : endpoint(name) {
    endpoint.set_handler([this](std::shared_ptr<Connection> connection) {
      threads.emplace_back([connection] {
        while (auto frame = connection->next_request()) {
          if (frame->kind != Frame::Kind::kRequest) continue;
          // Echo the payload back, 50us of server handling.
          connection->reply(*frame, frame->payload,
                            frame->arrival_time + vt::Duration::micros(50));
        }
      });
    });
  }
  ~EchoServer() {
    endpoint.shutdown();
    for (auto& thread : threads) thread.join();
  }
  ServerEndpoint endpoint;
  std::vector<std::thread> threads;
};

TEST(Connection, UnaryCallRoundtrip) {
  EchoServer server("echo");
  vt::Cursor cursor;
  auto connection = server.endpoint.connect(
      "client", local_control(sim::make_node_b()), cursor);
  ASSERT_TRUE(connection.ok());
  Bytes payload = {1, 2, 3};
  auto reply = connection.value()->call(proto::Method::kGetDeviceInfo,
                                        payload, cursor);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().payload, payload);
  // The cursor advanced past a full round trip (~2 hops + handling).
  EXPECT_GT(cursor.now().ns(), vt::Duration::micros(800).ns());
  EXPECT_LT(cursor.now().ms(), 10.0);
}

TEST(Connection, CallsAdvanceMonotonically) {
  EchoServer server("echo");
  vt::Cursor cursor;
  auto connection = server.endpoint.connect(
      "client", local_control(sim::make_node_b()), cursor);
  ASSERT_TRUE(connection.ok());
  vt::Time previous = cursor.now();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        connection.value()->call(proto::Method::kGetDeviceInfo, {}, cursor)
            .ok());
    EXPECT_GT(cursor.now(), previous);
    previous = cursor.now();
  }
}

TEST(Connection, ConnectWithoutHandlerFails) {
  ServerEndpoint endpoint("empty");
  vt::Cursor cursor;
  auto connection = endpoint.connect("client",
                                     local_control(sim::make_node_b()),
                                     cursor);
  EXPECT_EQ(connection.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Connection, ShutdownFailsInFlightCalls) {
  ServerEndpoint endpoint("silent");
  endpoint.set_handler([](std::shared_ptr<Connection>) {});  // never serves
  vt::Cursor cursor;
  auto connection = endpoint.connect("client",
                                     local_control(sim::make_node_b()),
                                     cursor);
  ASSERT_TRUE(connection.ok());
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    endpoint.shutdown();
  });
  auto reply = connection.value()->call(proto::Method::kGetDeviceInfo, {},
                                        cursor);
  closer.join();
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

TEST(Connection, CallAfterCloseFails) {
  EchoServer server("echo");
  vt::Cursor cursor;
  auto connection = server.endpoint.connect(
      "client", local_control(sim::make_node_b()), cursor);
  ASSERT_TRUE(connection.ok());
  connection.value()->close();
  EXPECT_FALSE(
      connection.value()->call(proto::Method::kGetDeviceInfo, {}, cursor)
          .ok());
  EXPECT_FALSE(connection.value()
                   ->send(proto::Method::kFlush, 1, {}, cursor)
                   .ok());
}

TEST(Connection, NotificationsArriveOnStream) {
  ServerEndpoint endpoint("notifier");
  std::vector<std::thread> threads;
  endpoint.set_handler([&](std::shared_ptr<Connection> connection) {
    threads.emplace_back([connection] {
      while (auto frame = connection->next_request()) {
        // Push two notifications per request.
        connection->notify(proto::Method::kOpEnqueued, frame->correlation,
                           {}, frame->arrival_time);
        connection->notify(proto::Method::kOpComplete, frame->correlation,
                           {}, frame->arrival_time + vt::Duration::millis(1));
      }
    });
  });
  vt::Cursor cursor;
  auto connection = endpoint.connect("client",
                                     local_control(sim::make_node_b()),
                                     cursor);
  ASSERT_TRUE(connection.ok());
  ASSERT_TRUE(connection.value()
                  ->send(proto::Method::kEnqueueKernel, 7, {}, cursor)
                  .ok());
  auto first = connection.value()->notifications().pop();
  auto second = connection.value()->notifications().pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->method, proto::Method::kOpEnqueued);
  EXPECT_EQ(second->method, proto::Method::kOpComplete);
  EXPECT_EQ(first->correlation, 7u);
  EXPECT_LT(first->arrival_time, second->arrival_time);
  endpoint.shutdown();
  for (auto& thread : threads) thread.join();
}

TEST(Connection, InFlightFramesHoldTheGateBound) {
  ServerEndpoint endpoint("gated");
  endpoint.set_handler([](std::shared_ptr<Connection>) {
    // No dispatcher: frames stay in the inbox.
  });
  vt::Cursor cursor;
  cursor.advance(vt::Duration::millis(10));
  auto connection = endpoint.connect("client",
                                     local_control(sim::make_node_b()),
                                     cursor);
  ASSERT_TRUE(connection.ok());
  ASSERT_TRUE(connection.value()
                  ->send(proto::Method::kFlush, 1, {}, cursor)
                  .ok());
  // The client then races far ahead...
  cursor.advance(vt::Duration::seconds(10));
  connection.value()->announce(cursor.now());
  // ...but the unprocessed frame keeps the gate's bound at its arrival.
  EXPECT_LT(endpoint.gate().min_bound(), vt::Time::millis(100));
}

TEST(Connection, ParkedBoundIsInfiniteButInFlightFramesStillHoldIt) {
  ServerEndpoint endpoint("parked");
  endpoint.set_handler([](std::shared_ptr<Connection>) {
    // No dispatcher: frames stay in the inbox.
  });
  vt::Cursor cursor;
  cursor.advance(vt::Duration::millis(10));
  const TransportCost cost = local_control(sim::make_node_b());
  auto connected = endpoint.connect("client", cost, cursor);
  ASSERT_TRUE(connected.ok());
  Connection& connection = *connected.value();

  // Nothing in flight: a parked client holds nothing back.
  connection.park();
  EXPECT_TRUE(endpoint.gate().min_bound().is_infinite());

  // A wake for a wait armed before the park cannot un-park it.
  connection.prepare_wait(Connection::WaitTag::kEvent, 7);
  connection.park();
  connection.wake_announce(Connection::WaitTag::kEvent, 7,
                           vt::Time::millis(20));
  EXPECT_TRUE(endpoint.gate().min_bound().is_infinite());

  // A frame sent before the park and not yet dispatched holds the bound at
  // its arrival.
  ASSERT_TRUE(connection.send(proto::Method::kFlush, 1, {}, cursor).ok());
  const vt::Time sent = cursor.now();
  EXPECT_EQ(endpoint.gate().min_bound(), sent);
  connection.park();
  EXPECT_EQ(endpoint.gate().min_bound(),
            sent + cost.deliver_cost(Frame::kOverheadBytes));

  // Announcing the cursor ends the park.
  connection.announce(cursor.now());
  EXPECT_EQ(endpoint.gate().min_bound(), cursor.now());
}

TEST(Connection, ArrivalsAreInOrderPerConnection) {
  // A big frame followed by a tiny frame: FIFO (TCP) delivery means the tiny
  // frame cannot arrive earlier.
  ServerEndpoint endpoint("fifo");
  std::vector<vt::Time> arrivals;
  std::mutex arrivals_mutex;
  std::vector<std::thread> threads;
  endpoint.set_handler([&](std::shared_ptr<Connection> connection) {
    threads.emplace_back([&, connection] {
      while (auto frame = connection->next_request()) {
        std::lock_guard lock(arrivals_mutex);
        arrivals.push_back(frame->arrival_time);
      }
    });
  });
  vt::Cursor cursor;
  auto connection = endpoint.connect("client",
                                     local_grpc(sim::make_node_b()), cursor);
  ASSERT_TRUE(connection.ok());
  Bytes big(32 << 20);
  ASSERT_TRUE(connection.value()
                  ->send(proto::Method::kWriteData, 1, std::move(big), cursor)
                  .ok());
  ASSERT_TRUE(connection.value()
                  ->send(proto::Method::kFlush, 2, {}, cursor)
                  .ok());
  connection.value()->close();
  endpoint.shutdown();
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1], arrivals[0]);
}

TEST(ServerEndpoint, CountsLiveConnections) {
  EchoServer server("echo");
  vt::Cursor cursor;
  auto a = server.endpoint.connect("a", local_control(sim::make_node_b()),
                                   cursor);
  auto b = server.endpoint.connect("b", local_control(sim::make_node_b()),
                                   cursor);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(server.endpoint.connection_count(), 2u);
  a.value()->close();
  EXPECT_EQ(server.endpoint.connection_count(), 1u);
}

}  // namespace
}  // namespace bf::net
