// Shared-memory data plane.
//
// When a function is co-located with its Device Manager, BlastFunction moves
// buffer payloads through a shared memory area instead of gRPC, cutting the
// data copies from four to one (paper §III-B). The one remaining copy — kept
// for OpenCL compatibility — is the application-buffer <-> shared-slot copy
// on the client side; it is charged to the client's cursor via the node's
// memcpy model. The span-based stage/fetch overloads perform that copy for
// real (so data integrity is testable); the Bytes&&/fetch_take overloads
// transfer ownership instead — zero host work — while still charging the
// same modeled cost and counting the same modeled copy, so virtual-time
// results and copy accounting are identical either way.
//
// The Device Manager side hands slots to the board's DMA engine directly
// (PCIe cost charged by the board, no host copy). A read slot whose board
// range holds no data (a timing-only board, or a never-written buffer) is
// marked zero instead of being filled: it keeps its size but no storage,
// and the client's fetch writes the zeros straight into the application
// buffer. Each shm transfer therefore makes one host pass over its bytes,
// the client-side copy the paper models.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "sim/costmodel.h"
#include "vt/cursor.h"

namespace bf::shm {

// One client<->manager shared memory area (a POSIX shm mapping in the real
// system, mounted into both containers by the Registry's pod patch).
class Segment {
 public:
  Segment(sim::CopyModel copy_model, std::uint64_t capacity_bytes);

  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;

  // --- client side ----------------------------------------------------------

  // Copies application data into a fresh slot (the single modeled copy).
  // Use this overload only when the caller does NOT own the buffer — the
  // OpenCL write path, where `data` views application memory the host code
  // keeps. If the caller holds a Bytes it will not reuse, prefer the
  // Bytes&& overload: same modeled cost, no real memcpy.
  Result<std::int64_t> stage(ByteSpan data, vt::Cursor& cursor);

  // Ownership-transfer variant: moves the buffer into the slot without
  // touching its bytes. Same modeled charge and copy accounting as the
  // copying overload (virtual-time results are identical either way); the
  // difference is purely real-time — no memcpy of the payload. On error the
  // argument is left untouched, so the caller can fall back or retry.
  Result<std::int64_t> stage(Bytes&& data, vt::Cursor& cursor);

  // Copies a slot's contents out into an application buffer (the single
  // modeled copy on the read path) and releases the slot. Use when the
  // destination is caller-owned memory (OpenCL blocking-read semantics).
  // A zero slot zero-fills `out` instead; the charge and copy accounting are
  // the same.
  Status fetch(std::int64_t slot, MutableByteSpan out, vt::Cursor& cursor);

  // Ownership-transfer variant of fetch: returns the slot's buffer itself
  // and releases the slot. Prefer this when the caller would otherwise
  // allocate a Bytes just to fetch into it — same modeled charge as fetch,
  // no real memcpy. A zero slot returns a zeroed pooled buffer.
  Result<Bytes> fetch_take(std::int64_t slot, vt::Cursor& cursor);

  // --- manager side ---------------------------------------------------------

  // Zero-copy view of a staged slot for board DMA. Valid until release().
  // A zero slot is materialized (zero-filled) first.
  Result<ByteSpan> view(std::int64_t slot);

  // Allocates a slot for the board DMA to fill (read path). The storage is
  // uninitialized: the caller must define every byte through
  // writable_view() or mark the slot zero.
  Result<std::int64_t> allocate(std::uint64_t size);
  // Writable view of a slot. A zero slot is materialized (zero-filled)
  // first.
  Result<MutableByteSpan> writable_view(std::int64_t slot);
  // Marks a slot as all zeros and returns its storage to the spare cache, so
  // no host pass fills it; fetch/fetch_take/view produce the zeros. Copy
  // accounting and the fetch charge are those of a filled slot.
  Status mark_zero(std::int64_t slot);

  Status release(std::int64_t slot);

  // --- introspection ---------------------------------------------------------

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t used() const;
  [[nodiscard]] std::uint64_t total_bytes_copied() const;
  [[nodiscard]] std::uint64_t copy_count() const;
  [[nodiscard]] std::size_t slot_count() const;

 private:
  // A slot's logical size may be smaller than its backing capacity when the
  // buffer was recycled from a previously released slot. A zero slot has no
  // storage.
  struct Slot {
    Bytes storage;
    std::uint64_t size = 0;
    bool zero = false;
  };

  using SlotMap = std::map<std::int64_t, Slot>;

  Result<std::int64_t> allocate_locked(std::uint64_t size);
  // Files `slot` under the next id in a recycled map node when one is
  // spare, so the steady-state stage/fetch cycle allocates no node.
  std::int64_t emplace_locked(Slot&& slot);
  // Erases a slot (its storage already recycled or moved out), keeping the
  // node for the next emplace_locked.
  void erase_locked(SlotMap::iterator it);
  // Uninitialized storage of at least `size` bytes: a spare buffer, else a
  // pooled arena buffer.
  Bytes take_storage_locked(std::uint64_t size);
  // Gives a zero slot zero-filled storage; no-op for any other slot.
  void materialize_locked(Slot& slot);
  // Moves from `storage` only on success.
  Result<std::int64_t> insert_locked(Bytes&& storage);
  void recycle_locked(Bytes storage);

  sim::CopyModel copy_model_;
  std::uint64_t capacity_;
  mutable std::mutex mutex_;
  // A map, not a vector: view()/writable_view() hand out spans into a
  // slot's storage (inline for small payloads), so a slot must not move
  // while other slots come and go.
  SlotMap slots_;
  std::vector<SlotMap::node_type> spare_nodes_;  // reused by emplace_locked
  // Bounded cache of released slot buffers, so the steady-state stage/fetch
  // cycle allocates no fresh host memory.
  std::vector<Bytes> spare_;
  std::uint64_t spare_bytes_ = 0;
  std::uint64_t used_ = 0;
  std::int64_t next_slot_ = 1;
  std::uint64_t bytes_copied_ = 0;
  std::uint64_t copies_ = 0;
};

}  // namespace bf::shm
