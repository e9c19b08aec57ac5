#include "devmgr/device_manager.h"

#include <algorithm>

#include "common/arena.h"
#include "common/log.h"
#include "fault/injector.h"
#include "native/native_runtime.h"
#include "proto/wire.h"
#include "sim/bitstream.h"
#include "sim/kernels.h"
#include "trace/span.h"

namespace bf::devmgr {
namespace {

proto::DeviceDescriptor describe(const sim::Board& board) {
  const ocl::DeviceInfo info = native::describe_board(board);
  proto::DeviceDescriptor descriptor;
  descriptor.id = info.id;
  descriptor.name = info.name;
  descriptor.vendor = info.vendor;
  descriptor.platform = info.platform;
  descriptor.node = info.node;
  descriptor.accelerator = info.accelerator;
  descriptor.global_memory_bytes = info.global_memory_bytes;
  return descriptor;
}

template <typename T>
Bytes encode(const T& message) {
  proto::Writer writer;
  message.encode(writer);
  return writer.take();
}

template <typename T>
Result<T> decode(const net::Frame& frame) {
  proto::Reader reader(ByteSpan{frame.payload});
  return T::decode(reader);
}

// Free lists for the per-task vectors (ops, kernel args, wait ids): sealing
// hands them (and each op's staged write payload) to the worker, which
// retires them back to the pools after execution, so steady-state request
// streams reuse the same storage.
template <typename T>
arena::Pool<std::vector<T>>& vector_pool() {
  static arena::Pool<std::vector<T>> pool;
  return pool;
}

// Appends `values` to one of a building task's per-op vectors, reviving a
// pooled vector on first use, and returns the op's range in it.
template <typename T>
Range append_range(std::vector<T>& storage, std::span<const T> values) {
  if (values.empty()) return Range{};
  if (storage.capacity() == 0) storage = vector_pool<T>().acquire();
  const Range range{static_cast<std::uint32_t>(storage.size()),
                    static_cast<std::uint32_t>(values.size())};
  storage.insert(storage.end(), values.begin(), values.end());
  return range;
}

template <typename T>
void retire_vector(std::vector<T>& storage) {
  if (storage.capacity() != 0) vector_pool<T>().recycle(std::move(storage));
}

// Returns an executed (or cancelled, or rejected) task's per-request
// storage to the pools. The vectors keep their capacity; staged write
// payloads keep their heap blocks.
void retire_task_storage(Task& task) {
  for (Operation& op : task.ops) {
    if (op.inline_data.is_heap()) {
      arena::recycle(std::move(op.inline_data));
    }
  }
  retire_vector(task.ops);
  retire_vector(task.args);
  retire_vector(task.wait_ids);
}

// First size of a session's completion table, and how far past the highest
// admitted op id a new one may land. A client's op ids are dense, so a
// larger jump is a malformed request, not a reason to grow the table.
constexpr std::size_t kInitialOpTable = 1024;
constexpr std::uint64_t kMaxOpIdJump = 4096;

vt::Time deadline_of(std::uint64_t deadline_ns) {
  return deadline_ns != 0
             ? vt::Time::nanos(static_cast<std::int64_t>(deadline_ns))
             : vt::Time::infinite();
}

Status undecodable(proto::Method method, const Status& status) {
  return InvalidArgument("undecodable " +
                         std::string(proto::to_string(method)) +
                         " request: " + status.message());
}

}  // namespace

DeviceManager::DeviceManager(DeviceManagerConfig config, sim::Board* board,
                             shm::Namespace* node_shm)
    : config_(std::move(config)),
      board_(board),
      node_shm_(node_shm),
      endpoint_(config_.id),
      scheduler_(make_scheduler(config_.scheduler)) {
  BF_CHECK(board_ != nullptr);
  const metrics::Labels labels{{"device", board_->id()},
                               {"manager", config_.id}};
  tasks_counter_ = metrics_.counter("bf_devmgr_tasks_total", labels);
  ops_counter_ = metrics_.counter("bf_devmgr_ops_total", labels);
  reconfig_counter_ = metrics_.counter("bf_devmgr_reconfigurations_total",
                                       labels);
  busy_ms_gauge_ = metrics_.gauge("bf_devmgr_busy_ms", labels);
  sessions_gauge_ = metrics_.gauge("bf_devmgr_sessions", labels);
  task_span_ms_ = metrics_.histogram("bf_devmgr_task_span_ms", labels);
  queue_depth_gauge_ = metrics_.gauge("bf_devmgr_queue_depth", labels);
  health_probes_counter_ =
      metrics_.counter("bf_devmgr_health_probes_total", labels);
  tasks_cancelled_counter_ =
      metrics_.counter("bf_devmgr_tasks_cancelled_total", labels);
  gate_fallbacks_counter_ =
      metrics_.counter("bf_devmgr_gate_fallbacks_total", labels);

  endpoint_.gate().set_stall_grace(config_.gate_stall_grace);
  endpoint_.set_handler([this](std::shared_ptr<net::Connection> connection) {
    std::lock_guard lock(threads_mutex_);
    if (shutdown_.load()) {
      connection->close();
      return;
    }
    dispatchers_.emplace_back([this, connection = std::move(connection)] {
      serve_connection(connection);
    });
  });
  worker_ = std::thread([this] { worker_loop(); });
}

DeviceManager::~DeviceManager() { shutdown(); }

void DeviceManager::shutdown() {
  if (shutdown_.exchange(true)) return;
  endpoint_.shutdown();  // closes connections and the gate
  scheduler_->close();
  if (worker_.joinable()) worker_.join();
  std::vector<std::thread> dispatchers;
  {
    std::lock_guard lock(threads_mutex_);
    dispatchers.swap(dispatchers_);
  }
  for (std::thread& thread : dispatchers) {
    if (thread.joinable()) thread.join();
  }
}

double DeviceManager::utilization(vt::Time from, vt::Time to) const {
  if (to <= from) return 0.0;
  const vt::Duration busy = board_->busy_between(from, to);
  return busy.sec() / (to - from).sec();
}

std::size_t DeviceManager::session_count() const {
  std::lock_guard lock(state_mutex_);
  return sessions_.size();
}

std::uint64_t DeviceManager::tasks_executed() const {
  return static_cast<std::uint64_t>(tasks_counter_->value());
}

std::uint64_t DeviceManager::ops_executed() const {
  return static_cast<std::uint64_t>(ops_counter_->value());
}

std::vector<DeviceManager::ExecutionRecord> DeviceManager::execution_journal()
    const {
  std::lock_guard lock(state_mutex_);
  return journal_;
}

Result<DeviceManager::HealthSnapshot> DeviceManager::health() {
  if (shutdown_.load()) {
    return Unavailable("device manager " + config_.id + " is shut down");
  }
  HealthSnapshot snapshot;
  snapshot.queue_depth = scheduler_->size();
  snapshot.accepting = true;
  snapshot.ops_executed = ops_executed();
  {
    std::lock_guard lock(state_mutex_);
    snapshot.sessions = sessions_.size();
  }
  health_probes_counter_->increment();
  queue_depth_gauge_->set(static_cast<double>(snapshot.queue_depth));
  return snapshot;
}

std::uint64_t DeviceManager::tasks_cancelled() const {
  return static_cast<std::uint64_t>(tasks_cancelled_counter_->value());
}

std::string DeviceManager::segment_name(std::uint64_t session_id) const {
  return config_.id + ":sess:" + std::to_string(session_id);
}

// --- Dispatcher ----------------------------------------------------------------

void DeviceManager::serve_connection(
    const std::shared_ptr<net::Connection>& connection) {
  std::uint64_t session_id = 0;
  CommandScratch scratch;

  while (auto frame = connection->next_request()) {
    // Session must be opened first.
    if (session_id == 0) {
      if (frame->method != proto::Method::kOpenSession) {
        proto::AckResp resp;
        resp.status = proto::StatusMsg::from(
            FailedPrecondition("session not opened"));
        connection->reply(*frame, encode(resp),
                          frame->arrival_time + config_.sync_handling);
        continue;
      }
      auto request = decode<proto::OpenSessionReq>(*frame);
      proto::OpenSessionResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
        connection->reply(*frame, encode(resp),
                          frame->arrival_time + config_.sync_handling);
        continue;
      }
      Session session;
      session.client_id = request.value().client_id;
      session.owner = board_->owner(session.client_id);
      session.connection = connection;
      {
        std::lock_guard lock(state_mutex_);
        session.id = next_session_id_++;
        session_id = session.id;
      }
      bool shm_granted = false;
      if (request.value().use_shared_memory && config_.allow_shared_memory &&
          node_shm_ != nullptr) {
        auto segment =
            node_shm_->create(segment_name(session_id),
                              board_->host().memcpy_model,
                              config_.shm_segment_bytes);
        if (segment.ok()) {
          session.segment = segment.value();
          shm_granted = true;
        } else {
          BF_LOG_WARN("devmgr") << config_.id << ": shm denied for "
                                << session.client_id << ": "
                                << segment.status().to_string();
        }
      }
      {
        std::lock_guard lock(state_mutex_);
        sessions_.emplace(session_id, std::move(session));
        sessions_gauge_->set(static_cast<double>(sessions_.size()));
      }
      resp.session_id = session_id;
      resp.shared_memory_granted = shm_granted;
      resp.device = describe(*board_);
      connection->reply(*frame, encode(resp),
                        frame->arrival_time + config_.sync_handling);
      continue;
    }

    if (frame->method == proto::Method::kOpenSession) {
      // Duplicate open on an established connection: the first reply was
      // lost (or dropped by fault injection) and the client retried. Re-ack
      // the existing session instead of opening a second one — this is what
      // makes OpenSession idempotent (proto::is_idempotent).
      proto::OpenSessionResp resp;
      {
        std::lock_guard lock(state_mutex_);
        auto it = sessions_.find(session_id);
        if (it != sessions_.end()) {
          resp.session_id = session_id;
          resp.shared_memory_granted = it->second.segment != nullptr;
        } else {
          resp.status = proto::StatusMsg::from(
              Unavailable("session torn down during open retry"));
        }
      }
      resp.device = describe(*board_);
      connection->reply(*frame, encode(resp),
                        frame->arrival_time + config_.sync_handling);
      continue;
    }

    if (proto::is_command_queue_method(frame->method)) {
      handle_command(*connection, session_id, *frame, scratch);
    } else {
      handle_sync(session_id, *frame);
    }
    // The handlers decoded everything they need out of the payload
    // (WriteData bodies are copied into the op's staging buffer); the
    // frame's heap block goes back to the pool the client's encoder drew
    // it from.
    arena::recycle(std::move(frame->payload));
  }

  if (session_id != 0) cleanup_session(session_id);
}

void DeviceManager::handle_sync(std::uint64_t session_id,
                                const net::Frame& frame) {
  const vt::Time at = frame.arrival_time + config_.sync_handling;
  std::unique_lock lock(state_mutex_);
  auto session_it = sessions_.find(session_id);
  if (session_it == sessions_.end()) return;
  Session& session = session_it->second;
  auto connection = session.connection;
  if (frame.trace.is_valid() && trace::enabled()) {
    // Server-side handling span, child of the client's rpc span. Salted
    // with the arrival stamp so retried attempts get distinct span ids.
    const trace::SpanContext ctx = frame.trace.child(
        trace::salt::kHandle ^
        static_cast<std::uint64_t>(frame.arrival_time.ns()));
    trace::record(trace::Span{
        config_.id,
        std::string("handle:") + std::string(proto::to_string(frame.method)),
        frame.arrival_time, at, ctx.trace_id, ctx.span_id,
        frame.trace.span_id});
  }
  switch (frame.method) {
    case proto::Method::kGetDeviceInfo: {
      proto::OpenSessionResp resp;
      resp.session_id = session.id;
      resp.shared_memory_granted = session.segment != nullptr;
      resp.device = describe(*board_);
      connection->reply(frame, encode(resp), at);
      return;
    }
    case proto::Method::kProgram: {
      auto request = decode<proto::ProgramReq>(frame);
      proto::ProgramResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
        connection->reply(frame, encode(resp), at);
        return;
      }
      const sim::Bitstream* bitstream =
          sim::BitstreamLibrary::standard().find(request.value().bitstream_id);
      if (bitstream == nullptr) {
        resp.status = proto::StatusMsg::from(NotFound(
            "unknown bitstream '" + request.value().bitstream_id + "'"));
        connection->reply(frame, encode(resp), at);
        return;
      }
      const auto resident = board_->resident_accelerators();
      if (std::find(resident.begin(), resident.end(),
                    bitstream->accelerator) != resident.end()) {
        resp.reconfigured = false;  // already resident (region or full image)
        connection->reply(frame, encode(resp), at);
        return;
      }
      Task task;
      task.is_program = true;
      task.bitstream_id = bitstream->id;
      task.session_id = session.id;
      task.client_id = session.client_id;
      task.ready = at;
      task.program_waiter = std::make_shared<ProgramWaiter>();
      task.seq = next_task_seq_++;
      auto waiter = task.program_waiter;
      if (Status pushed = scheduler_->push(std::move(task)); !pushed.ok()) {
        // Shutdown race: the queue rejected the task; complete the waiter
        // ourselves so the dispatcher below unblocks with a status.
        waiter->complete(pushed, at);
      }
      // Hand the frame's gate hold over to the queued task before blocking,
      // otherwise the worker could never reach the task's stamp.
      connection->done_processing();
      lock.unlock();  // the worker needs state_mutex_ to wipe buffers
      auto [status, end] = waiter->wait();
      resp.status = proto::StatusMsg::from(status);
      resp.reconfigured = status.ok();
      connection->reply(frame, encode(resp), vt::max(end, at));
      return;
    }
    case proto::Method::kCreateBuffer: {
      auto request = decode<proto::CreateBufferReq>(frame);
      proto::CreateBufferResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
      } else {
        auto handle = board_->allocate(request.value().size);
        if (!handle.ok()) {
          resp.status = proto::StatusMsg::from(handle.status());
        } else {
          const std::uint64_t id = session.next_buffer_id++;
          session.buffers[id] = handle.value();
          resp.buffer_id = id;
        }
      }
      connection->reply(frame, encode(resp), at);
      return;
    }
    case proto::Method::kReleaseBuffer: {
      auto request = decode<proto::ReleaseBufferReq>(frame);
      proto::AckResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
      } else {
        auto it = session.buffers.find(request.value().buffer_id);
        if (it == session.buffers.end()) {
          resp.status = proto::StatusMsg::from(
              NotFound("unknown buffer " +
                       std::to_string(request.value().buffer_id)));
        } else {
          Status released = board_->release(it->second);
          session.buffers.erase(it);
          resp.status = proto::StatusMsg::from(released);
        }
      }
      connection->reply(frame, encode(resp), at);
      return;
    }
    case proto::Method::kCreateKernel: {
      auto request = decode<proto::CreateKernelReq>(frame);
      proto::CreateKernelResp resp;
      if (!request.ok()) {
        resp.status = proto::StatusMsg::from(request.status());
      } else if (!board_->has_kernel(request.value().name)) {
        resp.status = proto::StatusMsg::from(NotFound(
            "kernel '" + request.value().name + "' not in bitstream"));
      } else {
        const sim::KernelModel* model =
            sim::KernelRegistry::standard().find(request.value().name);
        BF_CHECK(model != nullptr);
        const std::uint64_t id = session.next_kernel_id++;
        session.kernels[id] = request.value().name;
        resp.kernel_id = id;
        resp.arity = model->arity();
      }
      connection->reply(frame, encode(resp), at);
      return;
    }
    case proto::Method::kCreateQueue: {
      proto::CreateQueueResp resp;
      session.building.emplace_back();
      resp.queue_id = session.building.size();
      connection->reply(frame, encode(resp), at);
      return;
    }
    case proto::Method::kReleaseQueue: {
      proto::AckResp resp;
      connection->reply(frame, encode(resp), at);
      return;
    }
    case proto::Method::kHealthCheck: {
      proto::HealthResp resp;
      resp.queue_depth = scheduler_->size();
      resp.sessions = sessions_.size();
      resp.ops_executed = ops_executed();
      resp.accepting = !shutdown_.load();
      health_probes_counter_->increment();
      queue_depth_gauge_->set(static_cast<double>(resp.queue_depth));
      connection->reply(frame, encode(resp), at);
      return;
    }
    default: {
      proto::AckResp resp;
      resp.status = proto::StatusMsg::from(
          Unimplemented(std::string("method ") +
                        std::string(proto::to_string(frame.method))));
      connection->reply(frame, encode(resp), at);
      return;
    }
  }
}

void DeviceManager::handle_command(net::Connection& connection,
                                   std::uint64_t session_id,
                                   const net::Frame& frame,
                                   CommandScratch& scratch) {
  const vt::Time at = frame.arrival_time + config_.op_handling;
  proto::Reader reader(ByteSpan{frame.payload});
  switch (frame.method) {
    case proto::Method::kEnqueueWrite: {
      proto::EnqueueWriteReq& request = scratch.write;
      if (Status s = proto::EnqueueWriteReq::decode(reader, request); !s.ok()) {
        reject_op(connection, frame.correlation, undecodable(frame.method, s),
                  at);
        return;
      }
      Operation op;
      op.kind = Operation::Kind::kWrite;
      op.op_id = request.op_id;
      op.queue_id = request.queue_id;
      op.buffer_id = request.buffer_id;
      op.offset = request.offset;
      op.size = request.size;
      op.trace = trace::SpanContext{request.trace_id, request.parent_span};
      enqueue_op(connection, session_id, std::move(op), request.wait_op_ids,
                 {}, at, vt::Time::infinite());
      return;
    }
    case proto::Method::kWriteData: {
      proto::WriteData& request = scratch.data;
      if (Status s = proto::WriteData::decode(reader, request); !s.ok()) {
        // The write op stays without data and fails when its task runs.
        BF_LOG_WARN("devmgr") << config_.id << ": "
                              << undecodable(frame.method, s).to_string();
        return;
      }
      std::lock_guard lock(state_mutex_);
      auto session_it = sessions_.find(session_id);
      if (session_it == sessions_.end()) return;
      // Find the pending write op (BUFFER phase of its state machine).
      for (Task& task : session_it->second.building) {
        for (Operation& op : task.ops) {
          if (op.op_id == request.op_id &&
              op.kind == Operation::Kind::kWrite && !op.data_ready) {
            op.shm_slot = request.shm_slot;
            op.inline_data = std::move(request.data);
            op.use_shm = request.shm_slot >= 0;
            op.data_ready = true;
            return;
          }
        }
      }
      // The op was rejected (or never enqueued) after the client staged its
      // payload: free the slot, or its bytes count against the segment's
      // capacity until the session ends.
      if (request.shm_slot >= 0 && session_it->second.segment != nullptr) {
        (void)session_it->second.segment->release(request.shm_slot);
      }
      BF_LOG_WARN("devmgr") << config_.id << ": WriteData for unknown op "
                            << request.op_id;
      return;
    }
    case proto::Method::kEnqueueRead: {
      proto::EnqueueReadReq& request = scratch.read;
      if (Status s = proto::EnqueueReadReq::decode(reader, request); !s.ok()) {
        reject_op(connection, frame.correlation, undecodable(frame.method, s),
                  at);
        return;
      }
      Operation op;
      op.kind = Operation::Kind::kRead;
      op.op_id = request.op_id;
      op.queue_id = request.queue_id;
      op.buffer_id = request.buffer_id;
      op.offset = request.offset;
      op.size = request.size;
      op.use_shm = request.use_shared_memory;
      op.trace = trace::SpanContext{request.trace_id, request.parent_span};
      enqueue_op(connection, session_id, std::move(op), request.wait_op_ids,
                 {}, at, vt::Time::infinite());
      return;
    }
    case proto::Method::kEnqueueKernel: {
      proto::EnqueueKernelReq& request = scratch.kernel;
      if (Status s = proto::EnqueueKernelReq::decode(reader, request);
          !s.ok()) {
        reject_op(connection, frame.correlation, undecodable(frame.method, s),
                  at);
        return;
      }
      Operation op;
      op.kind = Operation::Kind::kKernel;
      op.op_id = request.op_id;
      op.queue_id = request.queue_id;
      op.kernel_id = request.kernel_id;
      op.global_size = request.global_size;
      op.trace = trace::SpanContext{request.trace_id, request.parent_span};
      enqueue_op(connection, session_id, std::move(op), request.wait_op_ids,
                 request.args, at, vt::Time::infinite());
      return;
    }
    case proto::Method::kFlush: {
      proto::FlushReq& request = scratch.flush;
      if (Status s = proto::FlushReq::decode(reader, request); !s.ok()) {
        // No event waits on a flush: the ops stay queued for the next one.
        BF_LOG_WARN("devmgr") << config_.id << ": "
                              << undecodable(frame.method, s).to_string();
        return;
      }
      std::lock_guard lock(state_mutex_);
      auto session_it = sessions_.find(session_id);
      if (session_it == sessions_.end()) return;
      seal_task(session_it->second, request.queue_id, at,
                deadline_of(request.deadline_ns));
      return;
    }
    case proto::Method::kFinish: {
      proto::FinishReq& request = scratch.finish;
      if (Status s = proto::FinishReq::decode(reader, request); !s.ok()) {
        reject_op(connection, frame.correlation, undecodable(frame.method, s),
                  at);
        return;
      }
      Operation marker;
      marker.kind = Operation::Kind::kFinish;
      marker.op_id = request.op_id;
      marker.queue_id = request.queue_id;
      enqueue_op(connection, session_id, std::move(marker), {}, {}, at,
                 deadline_of(request.deadline_ns));
      return;
    }
    default:
      return;
  }
}

void DeviceManager::enqueue_op(net::Connection& connection,
                               std::uint64_t session_id, Operation op,
                               std::span<const std::uint64_t> waits,
                               std::span<const proto::KernelArgMsg> args,
                               vt::Time at, vt::Time deadline) {
  const std::uint64_t op_id = op.op_id;
  const std::uint64_t queue_id = op.queue_id;
  const bool finish = op.kind == Operation::Kind::kFinish;
  std::lock_guard lock(state_mutex_);
  auto session_it = sessions_.find(session_id);
  if (session_it == sessions_.end()) return;
  Session& session = session_it->second;
  if (queue_id == 0 || queue_id > session.building.size()) {
    reject_op(connection, op_id,
              InvalidArgument("unknown command queue " +
                              std::to_string(queue_id)),
              at);
    return;
  }
  if (op_id > session.max_op_id + kMaxOpIdJump) {
    reject_op(connection, op_id,
              InvalidArgument("op id " + std::to_string(op_id) +
                              " is too far past the session's highest, " +
                              std::to_string(session.max_op_id)),
              at);
    return;
  }
  std::vector<vt::Time>& stamps = session.completed_ops;
  if (op_id >= stamps.size()) {
    stamps.resize(std::max<std::size_t>({op_id + 1, 2 * stamps.size(),
                                         kInitialOpTable}),
                  vt::Time::infinite());
  }
  session.max_op_id = std::max(session.max_op_id, op_id);
  Task& task = session.building[queue_id - 1];
  if (task.ops.capacity() == 0) task.ops = vector_pool<Operation>().acquire();
  op.waits = append_range(task.wait_ids, waits);
  op.args = append_range(task.args, args);
  task.ops.push_back(std::move(op));
  if (finish) {
    seal_task(session, queue_id, at, deadline);
    return;
  }
  proto::OpEnqueued ack;
  ack.op_id = op_id;
  if (Status sent = connection.notify(proto::Method::kOpEnqueued, op_id,
                                      encode(ack), at);
      !sent.ok()) {
    // Client already gone: its events will be poisoned by the connection
    // loss, not by this ack, so the drop is benign but worth a trace.
    BF_LOG_WARN("devmgr") << config_.id << ": OpEnqueued for op " << op_id
                          << " undeliverable: " << sent.to_string();
  }
}

void DeviceManager::reject_op(net::Connection& connection,
                              std::uint64_t op_id, const Status& status,
                              vt::Time at) {
  if (connection.closed()) return;  // connection loss fails the event
  proto::OpComplete completion;
  completion.op_id = op_id;
  completion.status = proto::StatusMsg::from(status);
  if (Status sent = connection.notify(proto::Method::kOpComplete, op_id,
                                      encode(completion), at);
      !sent.ok()) {
    BF_LOG_WARN("devmgr") << config_.id << ": rejection notice for op "
                          << op_id << " undeliverable: " << sent.to_string();
  }
}

// Called with state_mutex_ held.
void DeviceManager::seal_task(Session& session, std::uint64_t queue_id,
                              vt::Time ready, vt::Time deadline) {
  if (queue_id == 0 || queue_id > session.building.size()) return;
  Task& building = session.building[queue_id - 1];
  if (building.empty()) return;
  Task task = std::move(building);
  building = Task{};
  task.session_id = session.id;
  task.client_id = session.client_id;
  task.owner = session.owner;
  task.queue_id = queue_id;
  task.ready = ready;
  task.deadline = deadline;
  task.seq = next_task_seq_++;
  // kBatching metadata: a task qualifies iff it is one dependency-free
  // kernel launch (plus its transfers) moving a small number of bytes. The
  // kernel id resolves to a name here, where the session map is at hand.
  std::size_t kernel_ops = 0;
  std::uint64_t transfer_bytes = 0;
  const std::string* kernel_name = nullptr;
  for (const Operation& op : task.ops) {
    if (op.kind == Operation::Kind::kKernel) {
      ++kernel_ops;
      auto kernel_it = session.kernels.find(op.kernel_id);
      if (kernel_it != session.kernels.end()) kernel_name = &kernel_it->second;
    } else if (op.kind == Operation::Kind::kWrite ||
               op.kind == Operation::Kind::kRead) {
      transfer_bytes += op.size;
    }
  }
  if (kernel_ops == 1 && task.wait_ids.empty() && kernel_name != nullptr &&
      !kernel_name->empty() &&
      transfer_bytes <= config_.scheduler.batch_small_bytes) {
    task.batchable = true;
    task.batch_key = *kernel_name;
  }
  if (Status pushed = scheduler_->push(std::move(task)); !pushed.ok()) {
    // Shutdown race: the central queue already closed and left the task
    // with us. Fail every op's event with the rejection status so no client
    // event is left hanging in FIRST/BUFFER (push-after-close must reject,
    // never silently queue).
    for (const Operation& op : task.ops) {  // NOLINT(bugprone-use-after-move)
      reject_op(*session.connection, op.op_id, pushed, ready);
    }
    retire_task_storage(task);
  }
}

// --- Worker ---------------------------------------------------------------------

void DeviceManager::worker_loop() {
  for (;;) {
    PopResult next = scheduler_->pop_next_safe(endpoint_.gate());
    if (!next.task.has_value()) break;  // closed and drained
    if (next.reason == PopReason::kStallFallback) {
      gate_fallbacks_counter_->increment();
    }
    if (config_.record_execution_journal) {
      std::lock_guard lock(state_mutex_);
      journal_.push_back(ExecutionRecord{next.task->ready, next.task->seq,
                                         next.task->client_id,
                                         next.strict_order});
      for (const Task& companion : next.batch) {
        journal_.push_back(ExecutionRecord{companion.ready, companion.seq,
                                           companion.client_id,
                                           next.strict_order});
      }
    }
    if (fault::should_fire(fault::site::kDevmgrWorkerStall)) {
      // Real-time stall only: virtual stamps are untouched, so the modeled
      // trace must come out identical while thread interleavings get
      // shaken (the sanitizers' favorite food).
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (next.task->is_program) {
      execute_program(*next.task);  // a barrier: never batched
    } else {
      execute_tasks(*next.task, next.batch);
    }
    retire_task_storage(*next.task);
    for (Task& companion : next.batch) {
      retire_task_storage(companion);
    }
  }
}

void DeviceManager::execute_program(const Task& task) {
  if (fault::should_fire(fault::site::kDevmgrReconfigAbort)) {
    // Aborted before the board was touched: resident image and every
    // client buffer stay intact, the requester sees a terminal status.
    task.program_waiter->complete(
        Aborted("injected fault: reconfiguration aborted"), task.ready);
    return;
  }
  const sim::Bitstream* bitstream =
      sim::BitstreamLibrary::standard().find(task.bitstream_id);
  if (bitstream == nullptr) {
    task.program_waiter->complete(
        NotFound("unknown bitstream '" + task.bitstream_id + "'"), task.ready);
    return;
  }
  // ensure_accelerator dedupes racing program requests (no-op when the
  // image is already resident), uses a partial-reconfiguration region in
  // space-sharing mode, and falls back to a full reprogram otherwise.
  bool wiped_memory = false;
  auto interval =
      board_->ensure_accelerator(*bitstream, task.ready, &wiped_memory);
  if (!interval.ok()) {
    task.program_waiter->complete(interval.status(), task.ready);
    return;
  }
  if (wiped_memory) {
    // Full reconfiguration wiped DDR: every client's buffers are gone.
    std::lock_guard lock(state_mutex_);
    for (auto& [id, session] : sessions_) {
      session.buffers.clear();
    }
  }
  if (interval.value().end > interval.value().start) {
    reconfig_counter_->increment();
  }
  task.program_waiter->complete(Status::Ok(), interval.value().end);
}

void DeviceManager::execute_tasks(const Task& lead,
                                  const std::vector<Task>& companions) {
  const std::size_t count = 1 + companions.size();
  if (runs_.size() < count) runs_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    TaskRun& run = runs_[i];
    const Task& task = i == 0 ? lead : companions[i - 1];
    run.task = &task;
    run.request_ctx = trace::SpanContext{};
    run.cursor = task.ready;
    run.abort_rest = false;
    run.kernel_index = 0;
    run.staged.clear();
    run.executed.clear();
    // Request context for the task's spans: ops of one task come from one
    // request in practice (each invocation seals its own flush), so the
    // first traced op carries it.
    for (std::size_t k = 0; k < task.ops.size(); ++k) {
      const Operation& op = task.ops[k];
      if (op.kind == Operation::Kind::kKernel) run.kernel_index = k;
      if (!run.request_ctx.is_valid() && op.trace.is_valid()) {
        run.request_ctx = op.trace;
      }
    }
    run.traced = run.request_ctx.is_valid() && trace::enabled();
  }

  if (count == 1) {
    for (const Operation& op : lead.ops) run_op(runs_[0], op);
  } else {
    // The scheduler only coalesces batchable tasks: one dependency-free
    // kernel launch each (devmgr/scheduler.h). Every task's pre-kernel
    // transfers run in batch order, the launches execute as one board pass,
    // then the post-kernel ops (reads, finish markers) — preserving each
    // client's op order.
    for (std::size_t i = 0; i < count; ++i) {
      TaskRun& run = runs_[i];
      for (std::size_t k = 0; k < run.kernel_index; ++k) {
        run_op(run, run.task->ops[k]);
      }
    }
    // The coalesced pass: one launch overhead for the whole batch. A task
    // aborted or failed before its kernel drops out; its kernel op fails.
    live_.clear();
    launches_.clear();
    vt::Time pass_ready = vt::Time::zero();
    for (std::size_t i = 0; i < count; ++i) {
      TaskRun& run = runs_[i];
      const Operation& op = run.task->ops[run.kernel_index];
      OpInputs inputs;
      if (Status ready = prepare_op(run, op, inputs); !ready.ok()) {
        proto::OpComplete completion;
        record_op(run, op, ready, completion);
        continue;
      }
      live_.push_back(i);
      // Lent to the pass and handed back below, so each run keeps its
      // launch's args capacity.
      launches_.push_back(std::move(run.launch));
      pass_ready = vt::max(pass_ready, inputs.ready);
    }
    if (!live_.empty()) {
      auto intervals = board_->run_kernel_batch(launches_, pass_ready);
      for (std::size_t j = 0; j < live_.size(); ++j) {
        runs_[live_[j]].launch = std::move(launches_[j]);
      }
      for (std::size_t j = 0; j < live_.size(); ++j) {
        TaskRun& run = runs_[live_[j]];
        const Operation& op = run.task->ops[run.kernel_index];
        proto::OpComplete completion;
        if (intervals.ok()) {
          record_op(run, op, intervals.value()[j], completion);
        } else {
          record_op(run, op, intervals.status(), completion);
        }
      }
    }
    for (std::size_t i = 0; i < count; ++i) {
      TaskRun& run = runs_[i];
      for (std::size_t k = run.kernel_index + 1; k < run.task->ops.size();
           ++k) {
        run_op(run, run.task->ops[k]);
      }
    }
  }

  // Spans and counters land before any completion is delivered: the client
  // woken by its last completion may immediately tear the scenario down
  // (and uninstall the trace sink), and must observe its ops as executed.
  for (std::size_t i = 0; i < count; ++i) finish_task(runs_[i]);
  // Completions are staged per op and delivered once per task: one
  // consumer wake instead of one per op. Safe because the worker never
  // depends on the client observing an earlier op mid-task, and the frame
  // stamps (and the gate wake bounds anchored inside notify_batch) are
  // identical to per-op delivery.
  for (std::size_t i = 0; i < count; ++i) flush_completions(runs_[i]);
}

void DeviceManager::run_op(TaskRun& run, const Operation& op) {
  proto::OpComplete completion;
  OpInputs inputs;
  if (Status ready = prepare_op(run, op, inputs); !ready.ok()) {
    record_op(run, op, ready, completion);
    return;
  }
  record_op(run, op, execute_operation(run, op, inputs, completion),
            completion);
}

Status DeviceManager::prepare_op(TaskRun& run, const Operation& op,
                                 OpInputs& inputs) {
  if (!run.abort_rest && fault::should_fire(fault::site::kDevmgrTaskAbort)) {
    // Mid-task shutdown: this op and everything after it in the task is
    // failed with a terminal status (earlier ops' effects stand) — no event
    // may be left dangling in FIRST/BUFFER.
    run.abort_rest = true;
  }
  inputs.ready = run.cursor;
  inputs.owner = run.task->owner;
  std::lock_guard lock(state_mutex_);
  auto session_it = sessions_.find(run.task->session_id);
  if (session_it == sessions_.end()) {
    return NotFound("session " + std::to_string(run.task->session_id) +
                    " is gone");
  }
  Session& session = session_it->second;
  if (run.connection == nullptr) run.connection = session.connection;
  if (run.abort_rest) return Aborted("injected fault: mid-task shutdown");
  // Event wait list: delay the op's readiness to its dependencies'
  // completions. A dependency whose command was never flushed is a
  // client-side ordering error (OpenCL would deadlock; we fail fast).
  const std::vector<vt::Time>& stamps = session.completed_ops;
  for (std::uint64_t wait_id : run.task->waits_of(op)) {
    if (wait_id >= stamps.size() || stamps[wait_id].is_infinite()) {
      return FailedPrecondition("wait-list op " + std::to_string(wait_id) +
                                " has not completed (flush its queue first)");
    }
    inputs.ready = vt::max(inputs.ready, stamps[wait_id]);
  }
  switch (op.kind) {
    case Operation::Kind::kWrite:
    case Operation::Kind::kRead: {
      auto buffer_it = session.buffers.find(op.buffer_id);
      if (buffer_it == session.buffers.end()) {
        return NotFound("unknown buffer " + std::to_string(op.buffer_id));
      }
      inputs.buffer = buffer_it->second;
      inputs.segment = session.segment;
      return Status::Ok();
    }
    case Operation::Kind::kKernel:
      break;
    case Operation::Kind::kFinish:
      return Status::Ok();
  }
  auto kernel_it = session.kernels.find(op.kernel_id);
  if (kernel_it == session.kernels.end()) {
    return NotFound("unknown kernel " + std::to_string(op.kernel_id));
  }
  sim::KernelLaunch& launch = run.launch;
  launch.kernel = kernel_it->second;
  launch.global_size = op.global_size;
  launch.owner = inputs.owner;
  launch.trace = trace::SpanContext{};
  launch.args.clear();
  const std::span<const proto::KernelArgMsg> args = run.task->args_of(op);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const proto::KernelArgMsg& arg = args[i];
    switch (arg.kind) {
      case proto::KernelArgMsg::Kind::kBuffer: {
        auto buffer_it = session.buffers.find(arg.buffer_id);
        if (buffer_it == session.buffers.end()) {
          return NotFound("kernel arg " + std::to_string(i) +
                          " references unknown buffer " +
                          std::to_string(arg.buffer_id));
        }
        launch.args.emplace_back(buffer_it->second);
        break;
      }
      case proto::KernelArgMsg::Kind::kInt:
        launch.args.emplace_back(arg.int_value);
        break;
      case proto::KernelArgMsg::Kind::kDouble:
        launch.args.emplace_back(arg.double_value);
        break;
      case proto::KernelArgMsg::Kind::kUnset:
        return InvalidArgument("kernel arg " + std::to_string(i) +
                               " is unset");
    }
  }
  if (op.trace.is_valid()) {
    // Same derivation as the op's "op:kernel" span, so the board's kernel
    // span nests under it.
    launch.trace = op.trace.child(trace::salt::kOp ^ op.op_id);
  }
  return Status::Ok();
}

Result<sim::Board::Interval> DeviceManager::execute_operation(
    const TaskRun& run, const Operation& op, const OpInputs& inputs,
    proto::OpComplete& completion) {
  const vt::Time ready = inputs.ready;
  switch (op.kind) {
    case Operation::Kind::kWrite: {
      if (!op.data_ready) {
        return FailedPrecondition("write op " + std::to_string(op.op_id) +
                                  " flushed before its data arrived");
      }
      if (op.use_shm) {
        if (inputs.segment == nullptr) {
          return FailedPrecondition("shm write without segment");
        }
        auto view = inputs.segment->view(op.shm_slot);
        if (!view.ok()) return view.status();
        auto written = board_->write(inputs.buffer, op.offset, view.value(),
                                     ready, inputs.owner);
        (void)inputs.segment->release(op.shm_slot);
        return written;
      }
      return board_->write(inputs.buffer, op.offset, ByteSpan{op.inline_data},
                           ready, inputs.owner);
    }
    case Operation::Kind::kRead: {
      if (op.use_shm) {
        if (inputs.segment == nullptr) {
          return FailedPrecondition("shm read without segment");
        }
        auto slot = inputs.segment->allocate(op.size);
        if (!slot.ok()) return slot.status();
        auto view = inputs.segment->writable_view(slot.value());
        if (!view.ok()) return view.status();
        // A range with no data leaves the slot unwritten: marking it zero
        // defers the zeros to the client's fetch, the transfer's one pass.
        bool zeros = false;
        auto interval = board_->read(inputs.buffer, op.offset, view.value(),
                                     ready, inputs.owner, &zeros);
        if (!interval.ok()) {
          (void)inputs.segment->release(slot.value());
          return interval.status();
        }
        if (zeros) (void)inputs.segment->mark_zero(slot.value());
        completion.shm_slot = slot.value();
        completion.size = op.size;
        return interval;
      }
      // Pooled read staging; no zero-fill needed because Board::read without
      // `zeros` fully defines the span on success (the data, or zeros where
      // the buffer holds none) and failures never ship `out`.
      Bytes out = arena::acquire(op.size);
      out.resize_for_overwrite(op.size);
      auto interval = board_->read(inputs.buffer, op.offset,
                                   MutableByteSpan{out}, ready, inputs.owner);
      if (!interval.ok()) return interval;
      completion.data = std::move(out);
      completion.size = op.size;
      return interval;
    }
    case Operation::Kind::kKernel:
      return board_->run_kernel(run.launch, ready);
    case Operation::Kind::kFinish:
      return sim::Board::Interval{ready, ready};
  }
  return Internal("unhandled operation kind");
}

void DeviceManager::record_op(TaskRun& run, const Operation& op,
                              const Result<sim::Board::Interval>& interval,
                              proto::OpComplete& completion) {
  completion.op_id = op.op_id;
  if (interval.ok()) {
    const sim::Board::Interval& occupied = interval.value();
    run.cursor = occupied.end;
    if (run.traced) run.executed.push_back(ExecutedOp{&op, occupied});
    completion.status = proto::StatusMsg::from(Status::Ok());
    std::lock_guard lock(state_mutex_);
    auto session_it = sessions_.find(run.task->session_id);
    if (session_it != sessions_.end()) {
      std::vector<vt::Time>& stamps = session_it->second.completed_ops;
      if (op.op_id < stamps.size()) stamps[op.op_id] = occupied.end;
    }
  } else {
    completion.status = proto::StatusMsg::from(interval.status());
  }
  if (run.connection == nullptr) return;  // session already torn down
  net::Completion staged;
  staged.correlation = op.op_id;
  staged.payload = encode(completion);
  staged.server_time = run.cursor;
  // encode() copied the read payload into the frame; its buffer goes back
  // to the pool instead of the heap.
  if (completion.data.is_heap()) {
    arena::recycle(std::move(completion.data));
  }
  run.staged.push_back(std::move(staged));
}

void DeviceManager::finish_task(const TaskRun& run) {
  const Task& task = *run.task;
  tasks_counter_->increment();
  ops_counter_->increment(static_cast<double>(task.ops.size()));
  // Once per task, aborted or failed ones included. The exemplar lets an
  // operator jump from a slow histogram bucket to the exact trace that
  // landed in it.
  task_span_ms_->observe((run.cursor - task.ready).ms(),
                         run.request_ctx.trace_id);
  busy_ms_gauge_->set(board_->busy_total().ms());
  record_task_spans(run);
}

// Task-level spans: "task" = FIFO admission to last op completion, split
// into "queue-wait" (admission to first device activity — the paper's
// central-queue delay) and "execute", with one "op:<kind>" span per
// successful operation. By construction queue-wait + execute == task. Only
// *successful* ops earn spans — aborted, poisoned or cancelled ops leave no
// trace (a tested invariant).
void DeviceManager::record_task_spans(const TaskRun& run) {
  if (!run.traced || run.executed.empty()) return;
  const Task& task = *run.task;
  vt::Time exec_start = run.executed.front().interval.start;
  vt::Time task_end = exec_start;
  for (const ExecutedOp& rec : run.executed) {
    if (rec.interval.start < exec_start) exec_start = rec.interval.start;
    if (rec.interval.end > task_end) task_end = rec.interval.end;
  }
  // Salt from the queue's *deterministic* ordering key (ready stamp +
  // client), never task.seq: the admission counter is assigned under real
  // thread races, and golden traces must be byte-identical across runs.
  const trace::SpanContext task_ctx = run.request_ctx.child(
      trace::salt::kTask ^
      trace::mix64(static_cast<std::uint64_t>(task.ready.ns())) ^
      trace::fnv1a(task.client_id));
  const trace::SpanContext wait_ctx = task_ctx.child(trace::salt::kQueueWait);
  const trace::SpanContext exec_ctx = task_ctx.child(trace::salt::kExecute);
  trace::record(trace::Span{config_.id, "task", task.ready, task_end,
                            task_ctx.trace_id, task_ctx.span_id,
                            run.request_ctx.span_id});
  trace::record(trace::Span{config_.id, "queue-wait", task.ready, exec_start,
                            wait_ctx.trace_id, wait_ctx.span_id,
                            task_ctx.span_id});
  trace::record(trace::Span{config_.id, "execute", exec_start, task_end,
                            exec_ctx.trace_id, exec_ctx.span_id,
                            task_ctx.span_id});
  for (const ExecutedOp& rec : run.executed) {
    const Operation& op = *rec.op;
    if (op.kind == Operation::Kind::kFinish) continue;  // zero-width marker
    const char* kind = op.kind == Operation::Kind::kWrite  ? "op:write"
                       : op.kind == Operation::Kind::kRead ? "op:read"
                                                           : "op:kernel";
    const trace::SpanContext op_ctx =
        op.trace.child(trace::salt::kOp ^ op.op_id);
    trace::record(trace::Span{config_.id, kind, rec.interval.start,
                              rec.interval.end, op_ctx.trace_id,
                              op_ctx.span_id, exec_ctx.span_id});
  }
}

void DeviceManager::flush_completions(TaskRun& run) {
  const std::shared_ptr<net::Connection> connection =
      std::move(run.connection);
  if (run.staged.empty()) return;
  if (connection->closed()) {
    // The stream closed while the task executed. The client's events are
    // resolved by connection-loss poisoning instead.
    for (const net::Completion& staged : run.staged) {
      BF_LOG_WARN("devmgr") << config_.id << ": OpComplete for op "
                            << staged.correlation
                            << " undeliverable: stream closed";
    }
    run.staged.clear();
    return;
  }
  const std::size_t count = run.staged.size();
  if (Status sent = connection->notify_batch(run.staged); !sent.ok()) {
    // Close raced the delivery (or fault injection dropped the batch push).
    BF_LOG_WARN("devmgr") << config_.id << ": " << count
                          << " OpComplete notification(s) undeliverable: "
                          << sent.to_string();
  }
}

void DeviceManager::cleanup_session(std::uint64_t session_id) {
  // The client is gone: recall its still-queued tasks so the worker never
  // spends board time on work nobody can observe. Program waiters are
  // completed with kCancelled (the dispatcher blocked on them belongs to
  // this very connection, but a shutdown drain may also reach here).
  std::vector<Task> cancelled = scheduler_->cancel_session(session_id);
  for (Task& task : cancelled) {
    if (task.program_waiter != nullptr) {
      task.program_waiter->complete(
          Cancelled("client disconnected before reconfiguration ran"),
          task.ready);
    }
    retire_task_storage(task);
  }
  if (!cancelled.empty()) {
    BF_LOG_INFO("devmgr") << config_.id << ": cancelled " << cancelled.size()
                          << " queued task(s) of dead session " << session_id;
    tasks_cancelled_counter_->increment(
        static_cast<double>(cancelled.size()));
  }
  std::shared_ptr<shm::Segment> segment;
  {
    std::lock_guard lock(state_mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    for (const auto& [id, handle] : it->second.buffers) {
      (void)board_->release(handle);
    }
    segment = it->second.segment;
    for (Task& task : it->second.building) retire_task_storage(task);
    sessions_.erase(it);
    sessions_gauge_->set(static_cast<double>(sessions_.size()));
  }
  if (segment != nullptr && node_shm_ != nullptr) {
    (void)node_shm_->unlink(segment_name(session_id));
  }
}

}  // namespace bf::devmgr
