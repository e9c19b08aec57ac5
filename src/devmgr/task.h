// Tasks: the atomic unit of execution of BlastFunction (paper §III-B).
//
// Command-queue calls accumulate per (client, queue) into a Task; a flush
// (explicit clFlush/clFinish or any blocking call) seals the task and sends
// it to the Device Manager's central queue, where a worker thread executes
// tasks one at a time on the FPGA. Each operation carries the client event
// tag (op_id) so completions are notified punctually even though operations
// execute in groups.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "proto/messages.h"
#include "sim/kernels.h"
#include "trace/span.h"
#include "vt/time.h"

namespace bf::devmgr {

// A contiguous run of one op's entries in its task's per-op storage
// (Task::args, Task::wait_ids).
struct Range {
  std::uint32_t begin = 0;
  std::uint32_t count = 0;
};

struct Operation {
  enum class Kind { kWrite, kRead, kKernel, kFinish };
  Kind kind = Kind::kFinish;
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;

  // Buffer ops.
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  bool use_shm = false;
  std::int64_t shm_slot = -1;  // staged write payload (shm path)
  Bytes inline_data;           // staged write payload (gRPC path)
  bool data_ready = false;     // BUFFER phase arrived

  // Kernel ops. The args live in Task::args.
  std::uint64_t kernel_id = 0;
  Range args;
  std::array<std::uint64_t, 3> global_size = {1, 1, 1};

  // Event wait list in Task::wait_ids: this op may not start before these
  // ops completed.
  Range waits;

  // Request trace context propagated from the enqueueing client (invalid
  // when the request is untraced); the span id is the client's rpc span.
  trace::SpanContext trace;
};

// Blocks a dispatcher thread until the worker has executed a board
// reconfiguration (the one synchronous method that must serialize with the
// command stream).
class ProgramWaiter {
 public:
  void complete(Status status, vt::Time end) {
    {
      std::lock_guard lock(mutex_);
      status_ = std::move(status);
      end_ = end;
      done_ = true;
    }
    // Exactly one dispatcher ever waits on a ProgramWaiter (the one that
    // accepted the kProgram call), and complete() fires once.
    cv_.notify_one();
  }

  // Returns (status, completion time).
  std::pair<Status, vt::Time> wait() {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return done_; });
    return {status_, end_};
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  Status status_;
  vt::Time end_;
};

struct Task {
  std::uint64_t seq = 0;  // per-manager admission counter
  std::uint64_t session_id = 0;
  std::string client_id;  // deterministic tiebreaker for equal ready stamps
  sim::Owner owner = 0;   // the session's ledger owner, stamped at seal
  std::uint64_t queue_id = 0;
  vt::Time ready;  // modeled arrival of the sealing flush
  // Client-requested completion deadline (from its CallOptions timeout);
  // infinite when the client set none. Only the kDeadline policy orders by
  // it — no task is dropped for missing a deadline.
  vt::Time deadline = vt::Time::infinite();
  std::vector<Operation> ops;
  // Every op's kernel args and wait list, addressed by the op's ranges. The
  // three vectors are pooled: they keep their capacity from task to task.
  std::vector<proto::KernelArgMsg> args;
  std::vector<std::uint64_t> wait_ids;

  // kBatching metadata, derived at seal time: a task is batchable iff it is
  // exactly one dependency-free kernel launch moving a small number of bytes;
  // batch_key is the kernel name (only same-kernel launches coalesce).
  bool batchable = false;
  std::string batch_key;

  // Board reconfiguration rides the central queue as a special task so it
  // blocks every other operation (paper §III-B).
  bool is_program = false;
  std::string bitstream_id;
  std::shared_ptr<ProgramWaiter> program_waiter;

  [[nodiscard]] bool empty() const { return ops.empty() && !is_program; }

  [[nodiscard]] std::span<const proto::KernelArgMsg> args_of(
      const Operation& op) const {
    return std::span(args).subspan(op.args.begin, op.args.count);
  }
  [[nodiscard]] std::span<const std::uint64_t> waits_of(
      const Operation& op) const {
    return std::span(wait_ids).subspan(op.waits.begin, op.waits.count);
  }
};

}  // namespace bf::devmgr
