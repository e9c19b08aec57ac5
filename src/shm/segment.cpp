#include "shm/segment.h"

#include <algorithm>
#include <utility>

#include "common/arena.h"
#include "fault/injector.h"

namespace bf::shm {
namespace {

// Recycled-buffer cache bounds: enough to keep a few in-flight transfer
// buffers warm, small enough that huge one-off sweeps (the 2 GiB Fig 4a
// points) do not pin host memory.
constexpr std::size_t kMaxSpareBuffers = 4;
constexpr std::uint64_t kMaxSpareBytes = 64ULL << 20;
// Spare slot-map nodes: more than the slots a request keeps live at once.
constexpr std::size_t kMaxSpareNodes = 16;

}  // namespace

Segment::Segment(sim::CopyModel copy_model, std::uint64_t capacity_bytes)
    : copy_model_(copy_model), capacity_(capacity_bytes) {
  BF_CHECK(capacity_bytes > 0);
  spare_nodes_.reserve(kMaxSpareNodes);
}

Result<std::int64_t> Segment::stage(ByteSpan data, vt::Cursor& cursor) {
  // Mid-stream staging failure: the client already sent the op's metadata,
  // so the manager will see a write with no payload and must fail that op
  // (not hang on it) when the task is flushed.
  if (fault::should_fire(fault::site::kShmStageFail)) {
    return ResourceExhausted("injected fault: shm stage failed");
  }
  std::int64_t slot = 0;
  {
    std::lock_guard lock(mutex_);
    // The copy below defines the slot's full logical size.
    auto allocated = allocate_locked(data.size());
    if (!allocated.ok()) return allocated.status();
    slot = allocated.value();
    std::copy(data.begin(), data.end(), slots_[slot].storage.begin());
    bytes_copied_ += data.size();
    ++copies_;
  }
  cursor.advance(copy_model_.copy_time(data.size()));
  return slot;
}

Result<std::int64_t> Segment::stage(Bytes&& data, vt::Cursor& cursor) {
  if (fault::should_fire(fault::site::kShmStageFail)) {
    return ResourceExhausted("injected fault: shm stage failed");
  }
  const std::uint64_t size = data.size();
  std::int64_t slot = 0;
  {
    std::lock_guard lock(mutex_);
    auto inserted = insert_locked(std::move(data));
    if (!inserted.ok()) return inserted.status();
    slot = inserted.value();
    // The modeled copy still happens (paper §III-B keeps one client-side
    // copy); only the host-side byte shuffling is elided.
    bytes_copied_ += size;
    ++copies_;
  }
  cursor.advance(copy_model_.copy_time(size));
  return slot;
}

Status Segment::fetch(std::int64_t slot, MutableByteSpan out,
                      vt::Cursor& cursor) {
  {
    std::lock_guard lock(mutex_);
    auto it = slots_.find(slot);
    if (it == slots_.end()) {
      return NotFound("unknown shm slot " + std::to_string(slot));
    }
    if (it->second.size != out.size()) {
      return InvalidArgument("shm fetch size mismatch: slot holds " +
                             std::to_string(it->second.size) +
                             "B, caller expects " +
                             std::to_string(out.size()) + "B");
    }
    if (it->second.zero) {
      // The modeled copy of a zero slot: the only host pass over the bytes.
      std::fill(out.begin(), out.end(), std::uint8_t{0});
    } else {
      std::copy_n(it->second.storage.begin(), it->second.size, out.begin());
      recycle_locked(std::move(it->second.storage));
    }
    bytes_copied_ += out.size();
    ++copies_;
    used_ -= it->second.size;
    erase_locked(it);
  }
  cursor.advance(copy_model_.copy_time(out.size()));
  return Status::Ok();
}

Result<Bytes> Segment::fetch_take(std::int64_t slot, vt::Cursor& cursor) {
  Bytes out;
  std::uint64_t size = 0;
  {
    std::lock_guard lock(mutex_);
    auto it = slots_.find(slot);
    if (it == slots_.end()) {
      return NotFound("unknown shm slot " + std::to_string(slot));
    }
    size = it->second.size;
    materialize_locked(it->second);
    out = std::move(it->second.storage);
    // Recycled backing may be larger than the slot's logical size; shrink
    // (no reallocation, contents preserved) so callers see exact payloads.
    out.resize(size);
    bytes_copied_ += size;
    ++copies_;
    used_ -= size;
    erase_locked(it);
  }
  cursor.advance(copy_model_.copy_time(size));
  return out;
}

Result<ByteSpan> Segment::view(std::int64_t slot) {
  auto span = writable_view(slot);
  if (!span.ok()) return span.status();
  return ByteSpan{span.value()};
}

Result<std::int64_t> Segment::allocate(std::uint64_t size) {
  std::lock_guard lock(mutex_);
  return allocate_locked(size);
}

Result<MutableByteSpan> Segment::writable_view(std::int64_t slot) {
  std::lock_guard lock(mutex_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    return NotFound("unknown shm slot " + std::to_string(slot));
  }
  materialize_locked(it->second);
  return MutableByteSpan{it->second.storage.data(), it->second.size};
}

Status Segment::mark_zero(std::int64_t slot) {
  std::lock_guard lock(mutex_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    return NotFound("unknown shm slot " + std::to_string(slot));
  }
  if (!it->second.zero) {
    recycle_locked(std::move(it->second.storage));  // leaves it empty
    it->second.zero = true;
  }
  return Status::Ok();
}

Status Segment::release(std::int64_t slot) {
  std::lock_guard lock(mutex_);
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    return NotFound("unknown shm slot " + std::to_string(slot));
  }
  used_ -= it->second.size;
  if (!it->second.zero) recycle_locked(std::move(it->second.storage));
  erase_locked(it);
  return Status::Ok();
}

std::uint64_t Segment::used() const {
  std::lock_guard lock(mutex_);
  return used_;
}

std::uint64_t Segment::total_bytes_copied() const {
  std::lock_guard lock(mutex_);
  return bytes_copied_;
}

std::uint64_t Segment::copy_count() const {
  std::lock_guard lock(mutex_);
  return copies_;
}

std::size_t Segment::slot_count() const {
  std::lock_guard lock(mutex_);
  return slots_.size();
}

Result<std::int64_t> Segment::allocate_locked(std::uint64_t size) {
  if (size == 0) return InvalidArgument("zero-size shm slot");
  if (used_ + size > capacity_) {
    return ResourceExhausted("shm segment full: " + std::to_string(used_) +
                             "B used of " + std::to_string(capacity_) + "B");
  }
  Slot slot;
  slot.size = size;
  slot.storage = take_storage_locked(size);
  const std::int64_t id = emplace_locked(std::move(slot));
  used_ += size;
  return id;
}

std::int64_t Segment::emplace_locked(Slot&& slot) {
  const std::int64_t id = next_slot_++;
  if (spare_nodes_.empty()) {
    slots_.emplace(id, std::move(slot));
    return id;
  }
  SlotMap::node_type node = std::move(spare_nodes_.back());
  spare_nodes_.pop_back();
  node.key() = id;
  node.mapped() = std::move(slot);
  slots_.insert(std::move(node));
  return id;
}

void Segment::erase_locked(SlotMap::iterator it) {
  SlotMap::node_type node = slots_.extract(it);
  if (spare_nodes_.size() >= kMaxSpareNodes) return;  // freed
  node.mapped() = Slot{};
  spare_nodes_.push_back(std::move(node));
}

Bytes Segment::take_storage_locked(std::uint64_t size) {
  // Reuse the smallest spare buffer that fits before allocating fresh.
  std::size_t best = spare_.size();
  for (std::size_t i = 0; i < spare_.size(); ++i) {
    if (spare_[i].capacity() < size) continue;
    if (best == spare_.size() ||
        spare_[i].capacity() < spare_[best].capacity()) {
      best = i;
    }
  }
  Bytes storage;
  if (best != spare_.size()) {
    storage = std::move(spare_[best]);
    spare_bytes_ -= storage.capacity();
    spare_.erase(spare_.begin() + static_cast<std::ptrdiff_t>(best));
  } else {
    // Spare-cache miss: fall back to the process-wide arena before the heap.
    storage = arena::acquire(size);
  }
  // Stale contents either way; the caller defines every byte.
  if (storage.size() < size) storage.resize_for_overwrite(size);
  return storage;
}

void Segment::materialize_locked(Slot& slot) {
  if (!slot.zero) return;
  slot.storage = take_storage_locked(slot.size);
  std::fill_n(slot.storage.begin(), slot.size, std::uint8_t{0});
  slot.zero = false;
}

Result<std::int64_t> Segment::insert_locked(Bytes&& storage) {
  const std::uint64_t size = storage.size();
  if (size == 0) return InvalidArgument("zero-size shm slot");
  if (used_ + size > capacity_) {
    return ResourceExhausted("shm segment full: " + std::to_string(used_) +
                             "B used of " + std::to_string(capacity_) + "B");
  }
  Slot slot;
  slot.size = size;
  slot.storage = std::move(storage);
  const std::int64_t id = emplace_locked(std::move(slot));
  used_ += size;
  return id;
}

void Segment::recycle_locked(Bytes storage) {
  const std::uint64_t bytes = storage.capacity();
  if (!storage.is_heap() || spare_.size() >= kMaxSpareBuffers ||
      spare_bytes_ + bytes > kMaxSpareBytes) {
    // Doesn't fit the per-segment cache: offer it to the process-wide
    // arena (which enforces its own size bounds) instead of freeing.
    arena::recycle(std::move(storage));
    return;
  }
  spare_bytes_ += bytes;
  spare_.push_back(std::move(storage));
}

}  // namespace bf::shm
