// Modeled on-board DDR memory.
//
// The DE5a-Net carries 8 GiB over two SODIMM banks. We model the address
// space (so allocation pressure and fragmentation behave realistically) but
// back each allocation with its own host vector, materialized lazily on
// first write, so the simulator does not need 8 GiB of host RAM per board.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace bf::sim {

// Opaque handle to an on-board allocation.
struct MemHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
  auto operator<=>(const MemHandle&) const = default;
};

class DeviceMemory {
 public:
  explicit DeviceMemory(std::uint64_t capacity_bytes, unsigned bank_count = 2);

  // First-fit allocation across banks (round-robin starting bank, matching
  // the interleaved SODIMM layout). Returns an error when no contiguous
  // region fits.
  Result<MemHandle> allocate(std::uint64_t size);
  Status release(MemHandle handle);

  // Data access. Offsets are relative to the allocation base. Reads of
  // never-written regions return zeroes (DDR content is modeled as zeroed).
  // An allocation is materialized all at once (write and borrow_mut size it
  // to the full allocation), so a read either copies real data or sees an
  // allocation that holds none. In the latter case a non-null `zeros` is
  // set and `out` is left untouched, so the caller can skip the zero-fill;
  // with `zeros` null, `out` is zero-filled. On success `out` holds the
  // data or `*zeros` is true.
  Status write(MemHandle handle, std::uint64_t offset, ByteSpan data);
  Status read(MemHandle handle, std::uint64_t offset, MutableByteSpan out,
              bool* zeros = nullptr) const;

  // Zero-copy access to the backing store, used by the functional kernels
  // to compute in place. Both overloads materialize the allocation's host
  // vector (zero-filled, which is semantically invisible — unwritten DDR
  // already reads as zeroes), so a borrowed span always observes and
  // persists real data. Spans stay valid until the allocation is
  // release()d or the memory is reset(); they alias read()/write() of the
  // same handle.
  Result<ByteSpan> borrow(MemHandle handle, std::uint64_t offset,
                          std::uint64_t size);
  Result<MutableByteSpan> borrow_mut(MemHandle handle, std::uint64_t offset,
                                     std::uint64_t size);

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t used() const { return used_; }
  [[nodiscard]] std::uint64_t free_bytes() const { return capacity_ - used_; }
  [[nodiscard]] std::size_t allocation_count() const {
    return allocations_.size();
  }
  Result<std::uint64_t> allocation_size(MemHandle handle) const;

  // Drops every allocation (board reconfiguration wipes DDR contents).
  void reset();

 private:
  struct Allocation {
    std::uint64_t base = 0;   // modeled device address
    std::uint64_t size = 0;
    unsigned bank = 0;
    Bytes data;               // lazily materialized backing store
  };

  struct Bank {
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    // free regions: start -> length
    std::map<std::uint64_t, std::uint64_t> free_list;
  };

  Result<std::uint64_t> carve(Bank& bank, std::uint64_t size);
  void restore(Bank& bank, std::uint64_t base, std::uint64_t size);

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::vector<Bank> banks_;
  unsigned next_bank_ = 0;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Allocation> allocations_;
};

}  // namespace bf::sim
