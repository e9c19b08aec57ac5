// Pluggable central scheduler of a Device Manager.
//
// The paper's Device Manager serializes every task through one modeled-FIFO
// queue (§III-B) — the known bottleneck behind the Table III/IV degradation
// at high load. This interface makes the ordering decision a policy:
//
//  * kFifo         — the paper's modeled-FIFO (ready stamp, client, seq),
//                    conservatively gated (vt::Gate). The default; behaves
//                    byte-identically to the historical TaskQueue.
//  * kWeightedFair — per-tenant weighted fair queueing: tasks are ordered by
//                    client-keyed virtual finish times, so a tenant's share
//                    of board passes tracks its configured weight under
//                    contention instead of its raw submission rate.
//  * kDeadline     — earliest-deadline-first on the task deadline the client
//                    derived from its CallOptions timeout; tasks without a
//                    deadline sort by ready stamp behind any deadlined work
//                    due at the same instant.
//  * kBatching     — FIFO order plus coalescing: compatible same-kernel
//                    small launches from the head of the queue are handed to
//                    the worker as one batch, which the board executes as a
//                    single pass (one launch overhead instead of N).
//
// Only the Device Manager constructs or pops a concrete scheduler; every
// other layer selects a policy through SchedulerConfig
// (tools/check_api.sh enforces interface-only access outside src/devmgr/).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "devmgr/task.h"
#include "vt/gate.h"
#include "vt/time.h"

namespace bf::devmgr {

enum class SchedulerPolicy { kFifo, kWeightedFair, kDeadline, kBatching };

[[nodiscard]] std::string_view to_string(SchedulerPolicy policy);

struct SchedulerConfig {
  SchedulerPolicy policy = SchedulerPolicy::kFifo;

  // kWeightedFair: client_id (pod name) -> weight. Missing clients get
  // default_weight; a tenant with twice the weight gets twice the board
  // passes when both are backlogged.
  std::map<std::string, double> weights;
  double default_weight = 1.0;

  // kBatching: at most max_batch tasks per board pass; a companion joins the
  // head's batch only if it runs the same kernel, its ready stamp is within
  // batch_window of the head's, and it moves no more than batch_small_bytes
  // over PCIe (batching exists to amortize the fixed launch overhead of
  // *small* launches — a huge transfer would just delay the whole pass).
  std::size_t max_batch = 4;
  vt::Duration batch_window = vt::Duration::millis(10);
  std::uint64_t batch_small_bytes = 4ULL * 1024 * 1024;
};

// Why a pop returned the way it did.
enum class PopReason {
  kSafe,          // conservatively gated: no client can still emit earlier
  kStallFallback, // gate stall-grace expired; best-effort (arrival) order
  kShutdownDrain, // gate shut down: draining so waiters are not stranded
  kClosedDrained, // scheduler closed and empty: the worker should exit
};

// Typed result of Scheduler::pop_next_safe (replaces the historical
// TaskQueue::pop(vt::Gate&, bool* ordered) out-param API).
struct PopResult {
  // The task to execute; nullopt iff the scheduler is closed and drained.
  std::optional<Task> task;
  // True iff the pop was conservatively gated — strict policy order over the
  // complete set of tasks stamped up to the popped task's ready time. False
  // for shutdown drains and stall-grace fallbacks (best-effort order).
  bool strict_order = true;
  PopReason reason = PopReason::kSafe;
  // kBatching only: further tasks coalesced with *task into one board pass,
  // in FIFO order. Empty under every other policy.
  std::vector<Task> batch;
};

// Single-consumer scheduling queue between dispatcher threads (push) and the
// Device Manager's worker (pop_next_safe). Thread safe; push/close/cancel
// serialize on an internal mutex, so a push racing close() either fully
// succeeds (the task will be drained) or is rejected with kUnavailable.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  // Enqueues a task, moving from `task` only on success. After close()
  // every push is rejected deterministically with kUnavailable and `task`
  // is left intact — it is NOT silently queued or dropped, and the caller
  // must fail the task's events (it still holds the ops) so clients observe
  // a terminal status, then retire the task's storage.
  [[nodiscard]] virtual Status push(Task&& task) = 0;

  // Blocks until the policy's next task is safe to execute (or the
  // scheduler/gate is shut down). Single-consumer.
  [[nodiscard]] virtual PopResult pop_next_safe(vt::Gate& gate) = 0;

  // Removes every still-queued task of `session_id` and returns them so the
  // caller can fail their waiters (program waiters, per-op events). Tasks
  // already handed to the worker are not recalled.
  [[nodiscard]] virtual std::vector<Task> cancel_session(
      std::uint64_t session_id) = 0;

  virtual void close() = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
};

[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const SchedulerConfig& config);

}  // namespace bf::devmgr
