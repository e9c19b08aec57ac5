// Device Manager: controls and shares one FPGA board (paper §III-B).
//
// Exposes the gRPC-analogue service over a net::ServerEndpoint. A dispatcher
// thread per client connection handles
//   * context & information methods synchronously (session, device info,
//     buffers, kernels, queues), and
//   * command-queue methods by accumulating them into per-(client, queue)
//     tasks; a flush seals the task into the central queue.
// A single worker thread pulls tasks in scheduler-policy order (modeled FIFO
// by default; see devmgr/scheduler.h for the weighted-fair, deadline, and
// batching alternatives) and executes them exclusively on the board,
// notifying each operation's event on completion. Every pop runs through one
// executor: a lone task is a batch of one whose ops run strictly in order;
// only a kBatching pop of two or more tasks shares one coalesced kernel pass.
// Board reconfiguration is the one synchronous method that rides the central
// queue, blocking all other operations while the board is programmed.
//
// Per-client resource pools (buffers, kernels, queues) provide isolation:
// a client can only ever name its own resources.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "devmgr/scheduler.h"
#include "devmgr/task.h"
#include "metrics/metrics.h"
#include "net/endpoint.h"
#include "shm/namespace.h"
#include "sim/board.h"

namespace bf::devmgr {

struct DeviceManagerConfig {
  std::string id;  // e.g. "devmgr-b"
  bool allow_shared_memory = true;
  std::uint64_t shm_segment_bytes = 4ULL * 1024 * 1024 * 1024;
  // Dispatcher handling cost per synchronous method / per command-queue op.
  vt::Duration sync_handling = vt::Duration::micros(60);
  vt::Duration op_handling = vt::Duration::micros(20);
  // Real-time grace before the conservative gate falls back to arrival
  // order (docs/VIRTUAL_TIME.md). Large enough that OS scheduling hiccups
  // on loaded machines never degrade ordering; lower it in tests that
  // intentionally exercise idle-producer liveness.
  std::chrono::milliseconds gate_stall_grace{1000};
  // Record every executed task's (ready, seq, client, ordered) in an
  // in-memory journal. Unbounded — test/audit use only (the fault matrix
  // asserts modeled-FIFO order against it); leave off in load experiments.
  bool record_execution_journal = false;
  // Central-queue scheduling policy (devmgr/scheduler.h). The default kFifo
  // reproduces the paper's modeled-FIFO behavior exactly.
  SchedulerConfig scheduler;
};

class DeviceManager {
 public:
  // `board` must outlive the manager. `node_shm` is the hosting node's
  // shared-memory namespace (nullptr => shm unavailable, gRPC data path).
  DeviceManager(DeviceManagerConfig config, sim::Board* board,
                shm::Namespace* node_shm);
  ~DeviceManager();

  DeviceManager(const DeviceManager&) = delete;
  DeviceManager& operator=(const DeviceManager&) = delete;

  [[nodiscard]] const std::string& id() const { return config_.id; }
  [[nodiscard]] net::ServerEndpoint& endpoint() { return endpoint_; }
  [[nodiscard]] sim::Board& board() { return *board_; }
  [[nodiscard]] metrics::Registry& metrics() { return metrics_; }

  // FPGA time utilization over a modeled window: busy / (to - from).
  // This is the metric the Accelerators Registry's gatherer consumes.
  // Per-client occupancy lives in the board's ledger (sim::Board).
  [[nodiscard]] double utilization(vt::Time from, vt::Time to) const;

  [[nodiscard]] std::size_t session_count() const;
  [[nodiscard]] std::uint64_t tasks_executed() const;
  [[nodiscard]] std::uint64_t ops_executed() const;

  // One entry per task handed to the worker, in real execution order
  // (populated only when config.record_execution_journal is set). `ordered`
  // is false for pops that bypassed the conservative gate (shutdown drain /
  // stall fallback) and therefore carry no FIFO guarantee.
  struct ExecutionRecord {
    vt::Time ready;
    std::uint64_t seq = 0;
    std::string client_id;
    bool ordered = true;
  };
  [[nodiscard]] std::vector<ExecutionRecord> execution_journal() const;

  // Point-in-time liveness/load snapshot — the in-process twin of the
  // kHealthCheck RPC (the registry's prober uses whichever channel it has).
  // Unavailable once shutdown has begun; a probing registry treats that the
  // same as an unreachable manager.
  struct HealthSnapshot {
    std::size_t queue_depth = 0;   // sealed tasks waiting in the scheduler
    std::size_t sessions = 0;      // open client sessions
    std::uint64_t ops_executed = 0;
    bool accepting = true;
  };
  [[nodiscard]] Result<HealthSnapshot> health();

  // Queued-but-unexecuted tasks discarded because their client vanished.
  [[nodiscard]] std::uint64_t tasks_cancelled() const;

  // Derives the shared segment name for a session (same formula the remote
  // library uses to open it).
  [[nodiscard]] std::string segment_name(std::uint64_t session_id) const;

  void shutdown();

 private:
  struct Session {
    std::uint64_t id = 0;
    std::string client_id;
    sim::Owner owner = 0;  // client_id interned by the board's ledger
    std::shared_ptr<net::Connection> connection;
    std::shared_ptr<shm::Segment> segment;  // null => gRPC data path
    std::map<std::uint64_t, sim::MemHandle> buffers;
    std::map<std::uint64_t, std::string> kernels;  // id -> kernel name
    std::uint64_t next_buffer_id = 1;
    std::uint64_t next_kernel_id = 1;
    // Tasks under construction, one per command queue, at index queue id
    // - 1: queue ids are dense from 1 (kCreateQueue appends a slot).
    std::vector<Task> building;
    // Completion stamps of executed ops (event wait-list resolution),
    // indexed by op id; infinite until the op completes. Op ids are
    // per-session and dense, so this is 8 B per op. Unbounded for now.
    std::vector<vt::Time> completed_ops;
    std::uint64_t max_op_id = 0;  // highest op id admitted
  };

  // One reused decode target per command method, owned by a connection's
  // dispatcher (proto::decode-into-scratch contract).
  struct CommandScratch {
    proto::EnqueueWriteReq write;
    proto::WriteData data;
    proto::EnqueueReadReq read;
    proto::EnqueueKernelReq kernel;
    proto::FlushReq flush;
    proto::FinishReq finish;
  };

  void serve_connection(const std::shared_ptr<net::Connection>& connection);
  void worker_loop();

  // Dispatcher-side handlers; they lock state_mutex_ internally.
  void handle_sync(std::uint64_t session_id, const net::Frame& frame);
  void handle_command(net::Connection& connection, std::uint64_t session_id,
                      const net::Frame& frame, CommandScratch& scratch);
  // Appends a decoded op, its wait list and kernel args to its queue's
  // building task and acks it, or fails the op when its queue or op id is
  // out of range. A finish marker is not acked: it seals its task with
  // `deadline`.
  void enqueue_op(net::Connection& connection, std::uint64_t session_id,
                  Operation op, std::span<const std::uint64_t> waits,
                  std::span<const proto::KernelArgMsg> args, vt::Time at,
                  vt::Time deadline);
  // Completes an op the manager will not run with `status`, so the client's
  // event does not wait forever.
  void reject_op(net::Connection& connection, std::uint64_t op_id,
                 const Status& status, vt::Time at);
  // Requires state_mutex_ held.
  void seal_task(Session& session, std::uint64_t queue_id, vt::Time ready,
                 vt::Time deadline);

  // --- Worker-side execution ---------------------------------------------
  struct ExecutedOp {
    const Operation* op = nullptr;
    sim::Board::Interval interval;
  };
  // One popped data task's execution state. The worker keeps one per batch
  // member in runs_ and reuses them across pops, vectors and all.
  struct TaskRun {
    const Task* task = nullptr;
    trace::SpanContext request_ctx;  // first traced op's request context
    bool traced = false;
    vt::Time cursor;  // end of the last successful op
    bool abort_rest = false;
    std::size_t kernel_index = 0;  // the kernel op (batches of two or more)
    // The session's connection, read by the first prepare_op (null when the
    // session is gone: its completions are dropped).
    std::shared_ptr<net::Connection> connection;
    // Encoded completions, delivered by flush_completions in one wake.
    std::vector<net::Completion> staged;
    std::vector<ExecutedOp> executed;  // successful ops (traced runs only)
    // The kernel op's launch, rebuilt in place by prepare_op.
    sim::KernelLaunch launch;
  };
  // What one op reads from its session, snapshotted under state_mutex_.
  struct OpInputs {
    vt::Time ready;  // the run's cursor, delayed by the op's wait list
    sim::Owner owner = 0;
    sim::MemHandle buffer;
    std::shared_ptr<shm::Segment> segment;
  };

  void execute_program(const Task& task);
  // Executes `lead` plus its kBatching companions (empty for every other
  // policy). A lone task runs its ops in order; two or more run their
  // pre-kernel transfers, one coalesced board pass, then the rest.
  void execute_tasks(const Task& lead, const std::vector<Task>& companions);
  // Per-op step: prepare_op, board op, record_op.
  void run_op(TaskRun& run, const Operation& op);
  // The abort-fault check, then the op's one state_mutex_ acquisition
  // before it runs: session, wait-list stamps, buffer/segment, kernel
  // launch (into run.launch), and on the first op the connection. A non-OK
  // status fails the op.
  Status prepare_op(TaskRun& run, const Operation& op, OpInputs& inputs);
  // Returns the op's exclusive board occupancy interval.
  Result<sim::Board::Interval> execute_operation(
      const TaskRun& run, const Operation& op, const OpInputs& inputs,
      proto::OpComplete& completion);
  // The op's one state_mutex_ acquisition after it ran (successful ops
  // only): completed_ops. Then stages its completion
  // (consuming completion.data into the arena).
  void record_op(TaskRun& run, const Operation& op,
                 const Result<sim::Board::Interval>& interval,
                 proto::OpComplete& completion);
  // Per-task epilogue, before any completion is delivered: counters,
  // task_span_ms, spans.
  void finish_task(const TaskRun& run);
  void record_task_spans(const TaskRun& run);
  void flush_completions(TaskRun& run);

  void cleanup_session(std::uint64_t session_id);

  DeviceManagerConfig config_;
  sim::Board* board_;
  shm::Namespace* node_shm_;
  net::ServerEndpoint endpoint_;
  std::unique_ptr<Scheduler> scheduler_;
  metrics::Registry metrics_;

  mutable std::mutex state_mutex_;
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_session_id_ = 1;
  std::uint64_t next_task_seq_ = 1;
  std::vector<ExecutionRecord> journal_;  // see record_execution_journal

  // Worker-owned scratch, reused across pops.
  std::vector<TaskRun> runs_;
  std::vector<std::size_t> live_;  // runs_ indexes in the coalesced pass
  std::vector<sim::KernelLaunch> launches_;

  std::mutex threads_mutex_;
  std::vector<std::thread> dispatchers_;
  std::thread worker_;
  std::atomic<bool> shutdown_{false};

  // Metric handles (created once, updated by the worker). The task and op
  // counters are incremented before the counted ops' completions are
  // delivered; tasks_executed() and friends read them.
  std::shared_ptr<metrics::Counter> tasks_counter_;
  std::shared_ptr<metrics::Counter> ops_counter_;
  std::shared_ptr<metrics::Counter> reconfig_counter_;
  std::shared_ptr<metrics::Gauge> busy_ms_gauge_;
  std::shared_ptr<metrics::Gauge> sessions_gauge_;
  std::shared_ptr<metrics::Histogram> task_span_ms_;
  std::shared_ptr<metrics::Gauge> queue_depth_gauge_;
  std::shared_ptr<metrics::Counter> health_probes_counter_;
  std::shared_ptr<metrics::Counter> tasks_cancelled_counter_;
  // Pops released by the gate's stall-breaker instead of a safe bound.
  std::shared_ptr<metrics::Counter> gate_fallbacks_counter_;
};

}  // namespace bf::devmgr
