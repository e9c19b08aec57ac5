#include "sim/board.h"

#include <algorithm>

#include "trace/span.h"

namespace bf::sim {
namespace {

// Partial-reconfiguration streaming rate (config port) and fixed setup.
constexpr double kPrBytesPerSecond = 100.0 * 1024 * 1024;
constexpr vt::Duration kPrSetup = vt::Duration::millis(250);

// The part of [start, end] inside [from, to].
vt::Duration clipped(vt::Time start, vt::Time end, vt::Time from,
                     vt::Time to) {
  const vt::Time lo = vt::max(start, from);
  const vt::Time hi = end < to ? end : to;
  return lo < hi ? hi - lo : vt::Duration::nanos(0);
}

}  // namespace

Board::Board(BoardConfig config)
    : config_(std::move(config)), memory_(config_.memory_bytes) {
  BF_CHECK(config_.pr_regions >= 1);
  regions_.resize(config_.pr_regions);
}

Result<Board::Interval> Board::configure(const Bitstream& bitstream,
                                         vt::Time ready) {
  std::lock_guard lock(mutex_);
  memory_.reset();
  for (Region& region : regions_) region.bitstream.reset();
  regions_[0].bitstream = bitstream;
  ++reconfigurations_;
  const Interval interval =
      schedule_locked(ready, bitstream.reconfiguration_time());
  // Full programming stalls every region.
  for (Region& region : regions_) {
    region.busy_until = vt::max(region.busy_until, interval.end);
  }
  return interval;
}

Result<Board::Interval> Board::configure_region(unsigned region_index,
                                                const Bitstream& bitstream,
                                                vt::Time ready) {
  std::lock_guard lock(mutex_);
  if (config_.pr_regions == 1) {
    return FailedPrecondition("board " + config_.id +
                              " is not in space-sharing (shell) mode");
  }
  if (region_index >= regions_.size()) {
    return InvalidArgument("region " + std::to_string(region_index) +
                           " out of range");
  }
  // PR bitstreams cover one region: size scales down with the region count.
  const double bytes =
      static_cast<double>(bitstream.size_bytes) / config_.pr_regions;
  const vt::Duration pr_time =
      kPrSetup + vt::Duration::from_seconds_f(bytes / kPrBytesPerSecond);
  regions_[region_index].bitstream = bitstream;
  ++reconfigurations_;
  return schedule_kernel_locked(region_index, ready, pr_time);
}

Result<Board::Interval> Board::ensure_accelerator(const Bitstream& bitstream,
                                                  vt::Time ready,
                                                  bool* wiped_memory) {
  if (wiped_memory != nullptr) *wiped_memory = false;
  bool full_reconfigure = false;
  unsigned target_region = 0;
  {
    std::lock_guard lock(mutex_);
    for (const Region& region : regions_) {
      if (region.bitstream.has_value() &&
          region.bitstream->id == bitstream.id) {
        return Interval{ready, ready};  // already resident
      }
    }
    if (config_.pr_regions == 1) {
      full_reconfigure = true;
    } else {
      // A free region if one exists, otherwise the round-robin victim.
      target_region = next_victim_region_ % config_.pr_regions;
      for (unsigned i = 0; i < regions_.size(); ++i) {
        if (!regions_[i].bitstream.has_value()) {
          target_region = i;
          break;
        }
      }
      next_victim_region_ = (target_region + 1) % config_.pr_regions;
    }
  }
  if (full_reconfigure) {
    if (wiped_memory != nullptr) *wiped_memory = true;
    return configure(bitstream, ready);
  }
  return configure_region(target_region, bitstream, ready);
}

std::optional<Bitstream> Board::bitstream() const {
  std::lock_guard lock(mutex_);
  return regions_[0].bitstream;
}

bool Board::has_kernel(const std::string& name) const {
  std::lock_guard lock(mutex_);
  return region_with_kernel_locked(name) != nullptr;
}

std::vector<std::string> Board::resident_accelerators() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  for (const Region& region : regions_) {
    if (!region.bitstream.has_value()) continue;
    if (std::find(out.begin(), out.end(), region.bitstream->accelerator) ==
        out.end()) {
      out.push_back(region.bitstream->accelerator);
    }
  }
  return out;
}

unsigned Board::free_region_count() const {
  std::lock_guard lock(mutex_);
  unsigned free = 0;
  for (const Region& region : regions_) {
    if (!region.bitstream.has_value()) ++free;
  }
  return free;
}

const Board::Region* Board::region_with_kernel_locked(
    const std::string& name) const {
  for (const Region& region : regions_) {
    if (region.bitstream.has_value() && region.bitstream->has_kernel(name)) {
      return &region;
    }
  }
  return nullptr;
}

Result<MemHandle> Board::allocate(std::uint64_t size) {
  std::lock_guard lock(mutex_);
  return memory_.allocate(size);
}

Status Board::release(MemHandle handle) {
  std::lock_guard lock(mutex_);
  return memory_.release(handle);
}

Result<Board::Interval> Board::write(MemHandle handle, std::uint64_t offset,
                                     ByteSpan data, vt::Time ready,
                                     Owner owner) {
  std::lock_guard lock(mutex_);
  if (config_.functional) {
    if (Status s = memory_.write(handle, offset, data); !s.ok()) return s;
  } else {
    // Timing-only mode: charge the transfer without materializing contents
    // (large load experiments would otherwise hold every tenant's weights).
    auto size = memory_.allocation_size(handle);
    if (!size.ok()) return size.status();
    if (offset + data.size() > size.value()) {
      return InvalidArgument("device write out of bounds");
    }
  }
  return record_busy_locked(
      schedule_locked(ready, config_.host.pcie.transfer_time(data.size())),
      owner);
}

Result<Board::Interval> Board::read(MemHandle handle, std::uint64_t offset,
                                    MutableByteSpan out, vt::Time ready,
                                    Owner owner, bool* zeros) {
  std::lock_guard lock(mutex_);
  if (config_.functional) {
    if (Status s = memory_.read(handle, offset, out, zeros); !s.ok()) return s;
  } else {
    auto size = memory_.allocation_size(handle);
    if (!size.ok()) return size.status();
    if (offset + out.size() > size.value()) {
      return InvalidArgument("device read out of bounds");
    }
    // Timing-only mode holds no contents: the range reads as zeros.
    if (zeros != nullptr) {
      *zeros = true;
    } else {
      std::fill(out.begin(), out.end(), std::uint8_t{0});
    }
  }
  return record_busy_locked(
      schedule_locked(ready, config_.host.pcie.transfer_time(out.size())),
      owner);
}

Result<Board::Interval> Board::run_kernel(const KernelLaunch& launch,
                                          vt::Time ready) {
  Interval interval;
  std::lock_guard lock(mutex_);
  const Status status = run_pass_locked({&launch, 1}, ready, {&interval, 1});
  if (!status.ok()) return status;
  return interval;
}

Result<std::vector<Board::Interval>> Board::run_kernel_batch(
    const std::vector<KernelLaunch>& launches, vt::Time ready) {
  if (launches.empty()) {
    return InvalidArgument("empty kernel batch");
  }
  std::vector<Interval> intervals(launches.size());
  std::lock_guard lock(mutex_);
  const Status status = run_pass_locked(launches, ready, intervals);
  if (!status.ok()) return status;
  return intervals;
}

Status Board::run_pass_locked(std::span<const KernelLaunch> launches,
                              vt::Time ready, std::span<Interval> out) {
  const std::string& kernel = launches.front().kernel;
  for (const KernelLaunch& launch : launches) {
    if (launch.kernel != kernel) {
      return InvalidArgument("kernel batch mixes '" + kernel + "' and '" +
                             launch.kernel + "'");
    }
  }
  bool any_configured = false;
  for (const Region& region : regions_) {
    any_configured |= region.bitstream.has_value();
  }
  if (!any_configured) {
    return FailedPrecondition("board " + config_.id + " is not configured");
  }
  const Region* region = region_with_kernel_locked(kernel);
  if (region == nullptr) {
    return NotFound("kernel '" + kernel + "' not resident on board '" +
                    config_.id + "'");
  }
  const KernelModel* model = KernelRegistry::standard().find(kernel);
  if (model == nullptr) {
    return Internal("no model for kernel '" + kernel + "'");
  }
  // Validate and cost every launch before touching memory, so a bad launch
  // fails the whole pass with no partial functional effects. Every model's
  // execution_time includes the fixed launch overhead; the followers ride
  // the already-filled pipeline, so the pass pays it once. Until the pass
  // is placed, out[i] holds launch i's share as an interval from zero.
  const vt::Duration overhead = kernel_launch_overhead();
  const vt::Duration zero = vt::Duration::nanos(0);
  vt::Duration total = zero;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    if (Status s = model->validate(launches[i]); !s.ok()) return s;
    auto exec_time = model->execution_time(launches[i]);
    if (!exec_time.ok()) return exec_time.status();
    const vt::Duration share =
        i == 0 ? exec_time.value() : vt::max(exec_time.value() - overhead, zero);
    out[i] = Interval{vt::Time::zero(), vt::Time::zero() + share};
    total += share;
  }
  if (config_.functional) {
    for (const KernelLaunch& launch : launches) {
      if (Status s = model->execute(launch, memory_); !s.ok()) return s;
    }
  }
  kernel_launches_ += launches.size();
  const auto region_index = static_cast<unsigned>(region - regions_.data());
  vt::Time cursor = schedule_kernel_locked(region_index, ready, total).start;
  for (std::size_t i = 0; i < launches.size(); ++i) {
    const KernelLaunch& launch = launches[i];
    const Interval interval = record_busy_locked(
        Interval{cursor, cursor + out[i].duration()}, launch.owner);
    out[i] = interval;
    cursor = interval.end;
    if (launch.trace.is_valid() && trace::enabled()) {
      trace::Span span;
      span.track = config_.id;
      span.name = "kernel:" + launch.kernel;
      span.start = interval.start;
      span.end = interval.end;
      span.trace_id = launch.trace.trace_id;
      span.span_id = launch.trace.child(trace::salt::kKernel).span_id;
      span.parent_span_id = launch.trace.span_id;
      trace::record(std::move(span));
    }
  }
  return Status::Ok();
}

std::uint64_t Board::memory_capacity() const {
  std::lock_guard lock(mutex_);
  return memory_.capacity();
}

std::uint64_t Board::memory_used() const {
  std::lock_guard lock(mutex_);
  return memory_.used();
}

vt::Time Board::busy_until() const {
  std::lock_guard lock(mutex_);
  vt::Time latest = busy_until_;
  for (const Region& region : regions_) {
    latest = vt::max(latest, region.busy_until);
  }
  return latest;
}

vt::Duration Board::busy_total() const {
  std::lock_guard lock(mutex_);
  return busy_total_;
}

vt::Duration Board::busy_between(vt::Time from, vt::Time to) const {
  std::lock_guard lock(mutex_);
  vt::Duration total = vt::Duration::nanos(0);
  for (const BusyEntry& entry : busy_log_) {
    total += clipped(entry.start, entry.end, from, to);
  }
  return total;
}

Owner Board::owner(const std::string& client_id) {
  std::lock_guard lock(mutex_);
  const auto it = std::find(owner_ids_.begin(), owner_ids_.end(), client_id);
  if (it != owner_ids_.end()) {
    return static_cast<Owner>(it - owner_ids_.begin());
  }
  owner_ids_.push_back(client_id);
  return static_cast<Owner>(owner_ids_.size() - 1);
}

vt::Duration Board::client_busy_between(const std::string& client_id,
                                        vt::Time from, vt::Time to) const {
  std::lock_guard lock(mutex_);
  // An unknown id maps one past the last owner, so it matches no entry.
  const auto owner = static_cast<Owner>(
      std::find(owner_ids_.begin(), owner_ids_.end(), client_id) -
      owner_ids_.begin());
  vt::Duration total = vt::Duration::nanos(0);
  for (const BusyEntry& entry : busy_log_) {
    if (entry.owner != owner) continue;
    total += clipped(entry.start, entry.end, from, to);
  }
  return total;
}

std::vector<Board::Occupancy> Board::busy_snapshot(vt::Time from,
                                                   vt::Time to) const {
  std::lock_guard lock(mutex_);
  std::vector<Occupancy> out;
  for (const BusyEntry& entry : busy_log_) {
    if (entry.end <= from || entry.start >= to) continue;
    out.push_back(Occupancy{owner_ids_[entry.owner], entry.start, entry.end});
  }
  return out;
}

std::uint64_t Board::reconfiguration_count() const {
  std::lock_guard lock(mutex_);
  return reconfigurations_;
}

std::uint64_t Board::kernel_launch_count() const {
  std::lock_guard lock(mutex_);
  return kernel_launches_;
}

Board::Interval Board::schedule_locked(vt::Time ready, vt::Duration exec) {
  const vt::Time start = vt::max(ready, busy_until_);
  const vt::Time end = start + exec;
  busy_until_ = end;
  return Interval{start, end};
}

Board::Interval Board::schedule_kernel_locked(unsigned region_index,
                                              vt::Time ready,
                                              vt::Duration exec) {
  if (config_.pr_regions == 1) {
    // Classic mode: kernels and DMA share the one exclusive timeline.
    return schedule_locked(ready, exec);
  }
  Region& region = regions_[region_index];
  const vt::Time start = vt::max(ready, region.busy_until);
  const vt::Time end = start + exec;
  region.busy_until = end;
  return Interval{start, end};
}

Board::Interval Board::record_busy_locked(Interval interval, Owner owner) {
  if (interval.end <= interval.start) return interval;
  busy_total_ += interval.duration();
  if (!busy_log_.empty() && busy_log_.back().owner == owner &&
      busy_log_.back().end == interval.start) {
    busy_log_.back().end = interval.end;  // bounds the log size
  } else {
    busy_log_.push_back(BusyEntry{interval.start, interval.end, owner});
  }
  return interval;
}

}  // namespace bf::sim
