#include "devmgr/scheduler.h"

#include <condition_variable>
#include <mutex>
#include <set>
#include <utility>

namespace bf::devmgr {

std::string_view to_string(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kFifo: return "fifo";
    case SchedulerPolicy::kWeightedFair: return "wfq";
    case SchedulerPolicy::kDeadline: return "edf";
    case SchedulerPolicy::kBatching: return "batch";
  }
  return "?";
}

namespace {

// A queued task plus policy metadata (the WFQ virtual finish tag).
struct Entry {
  Task task;
  double finish_tag = 0.0;
};

// The paper's modeled-FIFO order. Equal modeled stamps break ties
// deterministically by client (pod name), never by real arrival order —
// run-to-run reproducibility depends on it. seq keeps one client's
// equal-stamp tasks in submission order.
struct ByReady {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.task.ready != b.task.ready) return a.task.ready < b.task.ready;
    if (a.task.client_id != b.task.client_id) {
      return a.task.client_id < b.task.client_id;
    }
    return a.task.seq < b.task.seq;
  }
};

struct ByFinishTag {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.finish_tag != b.finish_tag) return a.finish_tag < b.finish_tag;
    return ByReady{}(a, b);
  }
};

struct ByDeadline {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.task.deadline != b.task.deadline) {
      return a.task.deadline < b.task.deadline;
    }
    return ByReady{}(a, b);
  }
};

// Shared machinery: the mutex/cv queue with close/cancel semantics and the
// conservatively gated pop loop. Policies customize the container order
// (Compare), entry annotation at push, the gate wait stamp, and how the head
// (plus batch companions) is taken.
template <typename Compare>
class QueueBase : public Scheduler {
 protected:
  using Set = std::multiset<Entry, Compare>;
  using Node = typename Set::node_type;
  static constexpr std::size_t kMaxSpareNodes = 64;

 public:
  QueueBase() { spare_nodes_.reserve(kMaxSpareNodes); }

  Status push(Task&& task) override {
    {
      std::lock_guard lock(mutex_);
      if (closed_) {
        return Unavailable("scheduler closed");
      }
      Entry entry{std::move(task), 0.0};
      annotate_locked(entry);
      if (spare_nodes_.empty()) {
        entries_.insert(std::move(entry));
      } else {
        // Reuse a popped entry's node: the steady state allocates none.
        Node node = std::move(spare_nodes_.back());
        spare_nodes_.pop_back();
        node.value() = std::move(entry);
        entries_.insert(std::move(node));
      }
    }
    // Exactly one consumer (the manager's worker thread) ever blocks in
    // pop_next_safe, so one wake suffices; close() keeps notify_all for the
    // shutdown broadcast.
    cv_.notify_one();
    return Status::Ok();
  }

  PopResult pop_next_safe(vt::Gate& gate) override {
    for (;;) {
      vt::Time stamp;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [&] { return closed_ || !entries_.empty(); });
        if (entries_.empty()) {  // closed and drained
          PopResult out;
          out.reason = PopReason::kClosedDrained;
          return out;
        }
        stamp = wait_stamp_locked();
      }
      // Conservative gate: no client can still emit anything stamped earlier
      // than the wait stamp. While we wait, only later-stamped tasks can be
      // added, so the stamp is stable.
      bool fallback = false;
      if (!gate.wait_safe(stamp, &fallback)) {
        // Gate shutdown: drain remaining tasks without ordering guarantees
        // so pending waiters (e.g. ProgramWaiter) are not stranded.
        std::lock_guard lock(mutex_);
        PopResult out;
        out.strict_order = false;
        out.reason = PopReason::kShutdownDrain;
        if (entries_.empty()) return out;
        take_locked(out);
        return out;
      }
      std::lock_guard lock(mutex_);
      if (entries_.empty()) continue;
      PopResult out;
      out.strict_order = !fallback;
      out.reason = fallback ? PopReason::kStallFallback : PopReason::kSafe;
      take_locked(out);
      return out;
    }
  }

  std::vector<Task> cancel_session(std::uint64_t session_id) override {
    std::vector<Task> cancelled;
    std::lock_guard lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->task.session_id == session_id) {
        Node node = entries_.extract(it++);
        cancelled.push_back(std::move(node.value().task));
        recycle_locked(std::move(node));
      } else {
        ++it;
      }
    }
    return cancelled;
  }

  void close() override {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  std::size_t size() const override {
    std::lock_guard lock(mutex_);
    return entries_.size();
  }

 protected:
  // Push-time policy metadata (WFQ finish tags). Requires mutex_ held.
  virtual void annotate_locked(Entry& entry) { (void)entry; }

  // The stamp the gate must clear before the next pop. FIFO pops its head,
  // so head ready == min ready; reordering policies still gate on the
  // earliest queued stamp (the strongest guarantee a conservative gate can
  // give once the policy deviates from modeled-arrival order).
  [[nodiscard]] virtual vt::Time wait_stamp_locked() const {
    return entries_.begin()->task.ready;
  }

  // Removes the policy head into `out`. Requires mutex_ held and a
  // non-empty queue.
  virtual void take_locked(PopResult& out) {
    Node node = entries_.extract(entries_.begin());
    taken_locked(node.value());
    out.task = std::move(node.value().task);
    recycle_locked(std::move(node));
  }

  // Observation hook after the head is chosen (WFQ virtual-time advance).
  virtual void taken_locked(const Entry& entry) { (void)entry; }

  // Keeps an extracted node (its task already moved out) for the next push.
  void recycle_locked(Node&& node) {
    if (spare_nodes_.size() >= kMaxSpareNodes) return;  // freed
    node.value() = Entry{};
    spare_nodes_.push_back(std::move(node));
  }

  [[nodiscard]] vt::Time min_ready_locked() const {
    vt::Time min = vt::Time::infinite();
    for (const Entry& entry : entries_) {
      if (entry.task.ready < min) min = entry.task.ready;
    }
    return min;
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  Set entries_;
  std::vector<Node> spare_nodes_;  // extracted nodes, reused by push
  bool closed_ = false;
};

// --- kFifo: the historical TaskQueue, re-homed --------------------------------

class FifoScheduler final : public QueueBase<ByReady> {
 public:
  [[nodiscard]] std::string_view name() const override { return "fifo"; }
};

// --- kWeightedFair: client-keyed virtual finish times --------------------------

class WfqScheduler final : public QueueBase<ByFinishTag> {
 public:
  explicit WfqScheduler(SchedulerConfig config) : config_(std::move(config)) {}

  [[nodiscard]] std::string_view name() const override { return "wfq"; }

 protected:
  void annotate_locked(Entry& entry) override {
    // Classic start-time fair queueing with unit task cost: a task's finish
    // tag advances its client's virtual stream by 1/weight, anchored at the
    // global virtual time so an idle client re-enters at "now" instead of
    // burning accumulated credit.
    const double weight = weight_for(entry.task.client_id);
    double& last = last_finish_[entry.task.client_id];
    const double start = last > virtual_now_ ? last : virtual_now_;
    last = start + 1.0 / weight;
    entry.finish_tag = last;
  }

  [[nodiscard]] vt::Time wait_stamp_locked() const override {
    return min_ready_locked();
  }

  void taken_locked(const Entry& entry) override {
    if (entry.finish_tag > virtual_now_) virtual_now_ = entry.finish_tag;
  }

 private:
  [[nodiscard]] double weight_for(const std::string& client_id) const {
    auto it = config_.weights.find(client_id);
    const double weight =
        it != config_.weights.end() ? it->second : config_.default_weight;
    return weight > 0.0 ? weight : 1.0;
  }

  SchedulerConfig config_;
  double virtual_now_ = 0.0;
  std::map<std::string, double> last_finish_;  // client -> last finish tag
};

// --- kDeadline: EDF with ready-stamp fallback ----------------------------------

class EdfScheduler final : public QueueBase<ByDeadline> {
 public:
  [[nodiscard]] std::string_view name() const override { return "edf"; }

 protected:
  [[nodiscard]] vt::Time wait_stamp_locked() const override {
    return min_ready_locked();
  }
};

// --- kBatching: FIFO plus same-kernel coalescing -------------------------------

class BatchingScheduler final : public QueueBase<ByReady> {
 public:
  explicit BatchingScheduler(SchedulerConfig config)
      : config_(std::move(config)) {}

  [[nodiscard]] std::string_view name() const override { return "batch"; }

 protected:
  void take_locked(PopResult& out) override {
    Node lead = entries_.extract(entries_.begin());
    const Task& head = lead.value().task;
    if (head.batchable && config_.max_batch > 1) {
      // Scan in FIFO order for compatible companions. A client whose next
      // task is skipped is blocked for the rest of the scan: pulling a later
      // task of that client past the skipped one would invert its completion
      // order. A program task is a barrier — nothing batches across a
      // reconfiguration.
      std::set<std::string> blocked;
      const vt::Time horizon = head.ready + config_.batch_window;
      for (auto it = entries_.begin();
           it != entries_.end() && out.batch.size() + 1 < config_.max_batch;) {
        const Task& candidate = it->task;
        if (candidate.is_program) break;
        if (candidate.ready > horizon) break;  // FIFO order: no later match
        if (candidate.batchable && candidate.batch_key == head.batch_key &&
            blocked.count(candidate.client_id) == 0) {
          Node node = entries_.extract(it++);
          out.batch.push_back(std::move(node.value().task));
          recycle_locked(std::move(node));
        } else {
          blocked.insert(candidate.client_id);
          ++it;
        }
      }
    }
    out.task = std::move(lead.value().task);
    recycle_locked(std::move(lead));
  }

 private:
  SchedulerConfig config_;
};

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const SchedulerConfig& config) {
  switch (config.policy) {
    case SchedulerPolicy::kFifo:
      return std::make_unique<FifoScheduler>();
    case SchedulerPolicy::kWeightedFair:
      return std::make_unique<WfqScheduler>(config);
    case SchedulerPolicy::kDeadline:
      return std::make_unique<EdfScheduler>();
    case SchedulerPolicy::kBatching:
      return std::make_unique<BatchingScheduler>(config);
  }
  return std::make_unique<FifoScheduler>();
}

}  // namespace bf::devmgr
