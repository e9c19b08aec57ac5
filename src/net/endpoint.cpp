#include "net/endpoint.h"

#include <algorithm>

#include "common/log.h"
#include "fault/injector.h"

namespace bf::net {
namespace {

// Extra in-flight latency charged when the delay fault fires: on the order
// of the ~2 ms control-message floor, so delayed frames genuinely land in a
// different spot of the modeled timeline.
constexpr vt::Duration kInjectedDelay = vt::Duration::millis(2);

}  // namespace

Connection::Connection(ServerEndpoint* endpoint, std::string peer,
                       TransportCost cost, vt::Gate::Source source,
                       vt::Time connect_time)
    : endpoint_(endpoint),
      peer_(std::move(peer)),
      cost_(cost),
      source_(std::move(source)),
      client_bound_(connect_time),
      last_arrival_(connect_time),
      last_send_(connect_time) {}

Connection::~Connection() { close(); }

Frame Connection::make_request(proto::Method method, std::uint64_t correlation,
                               Bytes payload, vt::Cursor& cursor) {
  Frame frame;
  frame.kind = Frame::Kind::kRequest;
  frame.method = method;
  frame.correlation = correlation;
  frame.payload = std::move(payload);
  cursor.advance(cost_.send_cost(frame.wire_size()));
  frame.send_time = cursor.now();
  frame.arrival_time =
      frame.send_time + cost_.deliver_cost(frame.wire_size());
  return frame;
}

Frame Connection::make_server_frame(Frame::Kind kind, proto::Method method,
                                    std::uint64_t correlation, Bytes payload,
                                    vt::Time server_time) {
  Frame frame;
  frame.kind = kind;
  frame.method = method;
  frame.correlation = correlation;
  frame.payload = std::move(payload);
  frame.send_time = server_time;
  frame.arrival_time = server_time + cost_.deliver_cost(frame.wire_size());
  return frame;
}

Result<Frame> Connection::call(proto::Method method, Bytes payload,
                               vt::Cursor& cursor) {
  return call(method, std::move(payload), cursor, CallOptions{});
}

Result<Frame> Connection::call(proto::Method method, Bytes payload,
                               vt::Cursor& cursor, const CallOptions& options,
                               const trace::SpanContext& trace) {
  const unsigned attempts = std::max(1u, options.retry.max_attempts);
  Backoff backoff(options.retry);
  for (unsigned attempt = 1;; ++attempt) {
    const bool last = attempt >= attempts;
    // Retain the payload for a possible re-send; the final attempt moves it.
    auto result =
        call_attempt(method, last ? std::move(payload) : Bytes(payload),
                     cursor, options, trace);
    if (result.ok() || last || !is_retryable(result.status().code()) ||
        closed_.load()) {
      return result;
    }
    const vt::Duration delay = backoff.next();
    BF_LOG_WARN("net") << "retrying " << proto::to_string(method) << " on "
                       << peer_ << " after " << result.status().to_string()
                       << " (attempt " << attempt << "/" << attempts
                       << ", backoff " << delay.us() << "us)";
    cursor.advance(delay);
  }
}

Result<Frame> Connection::call_attempt(proto::Method method, Bytes payload,
                                       vt::Cursor& cursor,
                                       const CallOptions& options,
                                       const trace::SpanContext& trace) {
  if (closed_.load()) return Unavailable("connection closed");
  if (fault::should_fire(fault::site::kNetSendConnLoss)) {
    close();
    return Unavailable("injected fault: connection lost");
  }
  // The deadline is anchored to the attempt's start, before transport costs
  // accrue — exactly a gRPC per-call deadline.
  const vt::Time deadline = options.deadline_from(cursor.now());
  std::uint64_t call_id = 0;
  {
    std::lock_guard lock(pending_mutex_);
    call_id = next_call_id_++;
    pending_replies_[call_id] = std::nullopt;
  }

  Frame frame = make_request(method, call_id, std::move(payload), cursor);
  frame.trace = trace;
  if (fault::should_fire(fault::site::kNetSendDelay)) {
    frame.arrival_time += kInjectedDelay;
  }
  {
    std::lock_guard lock(bound_mutex_);
    frame.arrival_time = vt::max(frame.arrival_time, last_arrival_);
    last_arrival_ = frame.arrival_time;
    last_send_ = frame.send_time;
    inflight_arrivals_.push_back(frame.arrival_time);
    // Blocked until the reply: infinite bound, re-anchored by wake_announce
    // when the reply lands. In-flight stamps keep the effective bound down
    // until the dispatcher has admitted the request.
    client_bound_ = vt::Time::infinite();
    wait_tag_ = WaitTag::kReply;
    wait_id_ = call_id;
    publish_locked();
  }
  if (!inbox_.push(std::move(frame))) {
    std::lock_guard lock(pending_mutex_);
    pending_replies_.erase(call_id);
    announce(cursor.now());
    return Unavailable("connection closed");
  }

  Frame reply;
  {
    std::unique_lock lock(pending_mutex_);
    auto ready = [&] {
      auto it = pending_replies_.find(call_id);
      return closed_.load() || it == pending_replies_.end() ||
             it->second.has_value();
    };
    if (deadline.is_infinite()) {
      pending_cv_.wait(lock, ready);
    } else if (!pending_cv_.wait_for(lock, options.wedge_grace, ready)) {
      // Wedged server: nothing landed for wedge_grace of wall time, so the
      // modeled wait ran out at the deadline. Abandon the tag — a late reply
      // hits the unknown-call drop path — and complete at the deadline
      // stamp. Announcing the deadline is safe: our bound has been infinite
      // since the send, so the worker cannot have passed it.
      pending_replies_.erase(call_id);
      lock.unlock();
      cursor.advance_to(deadline);
      announce(cursor.now());
      return DeadlineExceeded("call " + std::string(proto::to_string(method)) +
                              " abandoned at deadline (no reply)");
    }
    auto it = pending_replies_.find(call_id);
    if (it == pending_replies_.end() || !it->second.has_value()) {
      pending_replies_.erase(call_id);
      announce(cursor.now());
      return Unavailable("connection closed during call");
    }
    reply = std::move(*it->second);
    pending_replies_.erase(it);
  }
  cursor.advance_to(reply.arrival_time);
  // First action after waking: re-own the bound at our new position.
  announce(cursor.now());
  if (reply.arrival_time > deadline) {
    // The reply landed, but past the deadline. The timeout is observed at
    // the arrival stamp (not the deadline): wake_announce already anchored
    // the gate bound there, and a VT clock never runs backwards.
    return DeadlineExceeded("call " + std::string(proto::to_string(method)) +
                            " reply landed past deadline");
  }
  return reply;
}

Status Connection::send(proto::Method method, std::uint64_t correlation,
                        Bytes payload, vt::Cursor& cursor) {
  if (closed_.load()) return Unavailable("connection closed");
  if (fault::should_fire(fault::site::kNetSendConnLoss)) {
    close();
    return Unavailable("injected fault: connection lost");
  }
  Frame frame = make_request(method, correlation, std::move(payload), cursor);
  if (fault::should_fire(fault::site::kNetSendDelay)) {
    frame.arrival_time += kInjectedDelay;
  }
  {
    std::lock_guard lock(bound_mutex_);
    frame.arrival_time = vt::max(frame.arrival_time, last_arrival_);
    last_arrival_ = frame.arrival_time;
    last_send_ = frame.send_time;
    inflight_arrivals_.push_back(frame.arrival_time);
    client_bound_ = frame.send_time;
    wait_tag_ = WaitTag::kNone;
    publish_locked();
  }
  if (!inbox_.push(std::move(frame))) {
    return Unavailable("connection closed");
  }
  return Status::Ok();
}

void Connection::prepare_wait(WaitTag tag, std::uint64_t id) {
  std::lock_guard lock(bound_mutex_);
  client_bound_ = vt::Time::infinite();
  wait_tag_ = tag;
  wait_id_ = id;
  publish_locked();
}

void Connection::wake_announce(WaitTag tag, std::uint64_t id, vt::Time at) {
  std::lock_guard lock(bound_mutex_);
  if (wait_tag_ != tag || wait_id_ != id) return;
  // The sleeper's next emission follows this wake frame. Anchor the bound
  // before the sleeper can resume.
  client_bound_ = at;
  wait_tag_ = WaitTag::kNone;
  publish_locked();
}

void Connection::announce(vt::Time t) { client_announce(t); }

void Connection::park() {
  // kNone disarms any armed wait, so wake_announce cannot re-anchor it.
  client_announce(vt::Time::infinite());
}

void Connection::close() {
  if (closed_.exchange(true)) return;
  inbox_.close();
  notifications_.close();
  pending_cv_.notify_all();
  // Unregister from the gate so the worker no longer waits on us. The
  // dispatcher announces through source_ under bound_mutex_ (publish_locked),
  // so the release must hold the same lock or it races a late announce.
  std::lock_guard lock(bound_mutex_);
  source_ = vt::Gate::Source();
}

std::optional<Frame> Connection::next_request() {
  on_processed();
  auto frame = inbox_.pop();
  if (!frame.has_value()) return std::nullopt;
  on_pop(frame->arrival_time);
  return frame;
}

void Connection::done_processing() { on_processed(); }

void Connection::reply(const Frame& request, Bytes payload,
                       vt::Time server_time) {
  // Reply lost on the wire: the caller stays blocked and (with a deadline
  // armed) completes with DEADLINE_EXCEEDED at the modeled deadline. The
  // drop happens before wake_announce — a lost frame must not move bounds.
  if (fault::should_fire(fault::site::kNetReplyDrop)) {
    BF_LOG_WARN("net") << "injected fault: dropping reply for call "
                       << request.correlation << " on " << peer_;
    return;
  }
  Frame frame = make_server_frame(Frame::Kind::kReply, request.method,
                                  request.correlation, std::move(payload),
                                  server_time);
  wake_announce(WaitTag::kReply, frame.correlation, frame.arrival_time);
  {
    std::lock_guard lock(pending_mutex_);
    auto it = pending_replies_.find(frame.correlation);
    if (it != pending_replies_.end()) {
      it->second = std::move(frame);
      pending_cv_.notify_all();
      return;
    }
  }
  BF_LOG_WARN("net") << "dropping reply for unknown call "
                     << frame.correlation << " on " << peer_;
}

Status Connection::notify(proto::Method method, std::uint64_t correlation,
                          Bytes payload, vt::Time server_time) {
  // OpEnqueued is the advisory admission ack (INIT -> FIRST); dropping it
  // must leave the event able to complete via OpComplete alone.
  if (method == proto::Method::kOpEnqueued &&
      fault::should_fire(fault::site::kNetNotifyDropEnqueued)) {
    return Status::Ok();  // modeled as lost in flight, not a send failure
  }
  // Completion lost on the wire: the event FSM never leaves its pending
  // state and a bounded wait must end in TIMED_OUT. Dropped before
  // wake_announce — a lost frame must not move bounds.
  if (method == proto::Method::kOpComplete &&
      fault::should_fire(fault::site::kNetNotifyDropComplete)) {
    BF_LOG_WARN("net") << "injected fault: dropping completion for op "
                       << correlation << " on " << peer_;
    return Status::Ok();
  }
  Frame frame = make_server_frame(Frame::Kind::kNotify, method, correlation,
                                  std::move(payload), server_time);
  // Op completions wake event waiters. The bound must be re-anchored
  // atomically with delivery — if it were left to the receiver's pump
  // thread, the worker could race past and execute a later-stamped tenant's
  // task before this client's next (earlier-stamped) request materializes.
  if (method == proto::Method::kOpComplete) {
    wake_announce(WaitTag::kEvent, correlation, frame.arrival_time);
    if (fault::should_fire(fault::site::kNetNotifyDupComplete)) {
      // Stale duplicate ack: the receiver's event map / state machine must
      // absorb the second copy without corrupting the event.
      notifications_.push(frame);
    }
  }
  if (!notifications_.push(std::move(frame))) {
    return Unavailable("notification stream closed by " + peer_);
  }
  return Status::Ok();
}

Status Connection::notify_batch(std::vector<Completion>& completions) {
  // Stage every frame first — applying the same per-completion fault sites
  // and wake_announce ordering as notify(), in completion order — then
  // deliver the whole batch with one consumer wake. Announcing a later
  // completion before an earlier one is *delivered* is safe: each announce
  // targets the single (tag, id) the client armed, so at most one of them
  // re-anchors the bound and the rest are no-ops, exactly as with N
  // individual notifies.
  //
  // The staging vector is thread-local: one device worker stages at a time
  // per thread, and reusing the vector keeps steady-state batches
  // allocation-free.
  static thread_local std::vector<Frame> staged;
  staged.clear();
  staged.reserve(completions.size() + 1);
  for (Completion& completion : completions) {
    if (completion.method == proto::Method::kOpEnqueued &&
        fault::should_fire(fault::site::kNetNotifyDropEnqueued)) {
      continue;
    }
    if (completion.method == proto::Method::kOpComplete &&
        fault::should_fire(fault::site::kNetNotifyDropComplete)) {
      BF_LOG_WARN("net") << "injected fault: dropping completion for op "
                         << completion.correlation << " on " << peer_;
      continue;
    }
    Frame frame = make_server_frame(Frame::Kind::kNotify, completion.method,
                                    completion.correlation,
                                    std::move(completion.payload),
                                    completion.server_time);
    if (completion.method == proto::Method::kOpComplete) {
      wake_announce(WaitTag::kEvent, completion.correlation,
                    frame.arrival_time);
      if (fault::should_fire(fault::site::kNetNotifyDupComplete)) {
        staged.push_back(frame);
      }
    }
    staged.push_back(std::move(frame));
  }
  completions.clear();
  if (staged.empty()) return Status::Ok();
  const bool delivered =
      notifications_.push_batch(std::make_move_iterator(staged.begin()),
                                std::make_move_iterator(staged.end()));
  staged.clear();
  if (!delivered) {
    return Unavailable("notification stream closed by " + peer_);
  }
  return Status::Ok();
}

// ---- bound arbitration -------------------------------------------------------

void Connection::client_announce(vt::Time t) {
  std::lock_guard lock(bound_mutex_);
  client_bound_ = t;
  wait_tag_ = WaitTag::kNone;
  publish_locked();
}

void Connection::on_pop(vt::Time arrival) {
  std::lock_guard lock(bound_mutex_);
  if (!inflight_arrivals_.empty()) inflight_arrivals_.pop_front();
  processing_ = arrival;
  publish_locked();
}

void Connection::on_processed() {
  std::lock_guard lock(bound_mutex_);
  processing_ = vt::Time::infinite();
  publish_locked();
}

void Connection::publish_locked() {
  vt::Time bound = client_bound_;
  if (!inflight_arrivals_.empty() && inflight_arrivals_.front() < bound) {
    bound = inflight_arrivals_.front();
  }
  if (processing_ < bound) bound = processing_;
  source_.announce(bound);
}

// ---- ServerEndpoint -----------------------------------------------------------

ServerEndpoint::ServerEndpoint(std::string address)
    : address_(std::move(address)) {}

ServerEndpoint::~ServerEndpoint() { shutdown(); }

void ServerEndpoint::set_handler(
    std::function<void(std::shared_ptr<Connection>)> handler) {
  std::lock_guard lock(mutex_);
  handler_ = std::move(handler);
}

Result<std::shared_ptr<Connection>> ServerEndpoint::connect(
    const std::string& peer, TransportCost cost, vt::Cursor& cursor) {
  if (shutdown_.load()) {
    return Unavailable("endpoint " + address_ + " is shut down");
  }
  std::function<void(std::shared_ptr<Connection>)> handler;
  {
    std::lock_guard lock(mutex_);
    handler = handler_;
  }
  if (!handler) {
    return FailedPrecondition("endpoint " + address_ + " has no handler");
  }
  // TCP + gRPC channel setup.
  cursor.advance(vt::Duration::micros(400));
  auto connection = std::make_shared<Connection>(
      this, peer, cost, gate_.register_source(cursor.now()), cursor.now());
  {
    std::lock_guard lock(mutex_);
    connections_.push_back(connection);
  }
  handler(connection);
  return connection;
}

void ServerEndpoint::shutdown() {
  if (shutdown_.exchange(true)) return;
  std::vector<std::weak_ptr<Connection>> connections;
  {
    std::lock_guard lock(mutex_);
    connections = connections_;
  }
  for (auto& weak : connections) {
    if (auto connection = weak.lock()) connection->close();
  }
  gate_.shutdown();
}

std::size_t ServerEndpoint::connection_count() const {
  std::lock_guard lock(mutex_);
  std::size_t count = 0;
  for (const auto& weak : connections_) {
    auto connection = weak.lock();
    if (connection && !connection->closed()) ++count;
  }
  return count;
}

}  // namespace bf::net
