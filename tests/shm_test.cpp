// bf::shm: segments (single-copy data plane) and the node namespace.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "shm/namespace.h"
#include "shm/segment.h"

namespace bf::shm {
namespace {

sim::CopyModel copy_model() { return sim::CopyModel(13.0 * 1024 * 1024 * 1024); }

TEST(Segment, StageViewFetchRoundtrip) {
  Segment segment(copy_model(), 1 << 20);
  vt::Cursor cursor;
  Bytes data(64 * 1024, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  auto slot = segment.stage(ByteSpan{data}, cursor);
  ASSERT_TRUE(slot.ok());
  EXPECT_GT(cursor.now().ns(), 0);  // copy time charged

  auto view = segment.view(slot.value());
  ASSERT_TRUE(view.ok());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), view.value().begin()));

  Bytes out(data.size());
  ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
  EXPECT_EQ(out, data);
  // fetch released the slot
  EXPECT_FALSE(segment.view(slot.value()).ok());
  EXPECT_EQ(segment.used(), 0u);
}

TEST(Segment, CopyTimeProportionalToSize) {
  Segment segment(copy_model(), 64 << 20);
  vt::Cursor small_cursor;
  vt::Cursor large_cursor;
  Bytes small(1 << 10);
  Bytes large(1 << 20);
  (void)segment.stage(ByteSpan{small}, small_cursor);
  (void)segment.stage(ByteSpan{large}, large_cursor);
  EXPECT_NEAR(static_cast<double>(large_cursor.now().ns()) /
                  static_cast<double>(small_cursor.now().ns()),
              1024.0, 10.0);  // integer-ns rounding on the small copy
}

TEST(Segment, FetchSizeMismatchRejected) {
  Segment segment(copy_model(), 1 << 20);
  vt::Cursor cursor;
  Bytes data(16);
  auto slot = segment.stage(ByteSpan{data}, cursor);
  ASSERT_TRUE(slot.ok());
  Bytes wrong(8);
  EXPECT_FALSE(
      segment.fetch(slot.value(), MutableByteSpan{wrong}, cursor).ok());
  // Slot still alive after the failed fetch.
  EXPECT_TRUE(segment.view(slot.value()).ok());
}

TEST(Segment, CapacityEnforced) {
  Segment segment(copy_model(), 100);
  vt::Cursor cursor;
  Bytes data(80);
  auto first = segment.stage(ByteSpan{data}, cursor);
  ASSERT_TRUE(first.ok());
  auto second = segment.stage(ByteSpan{data}, cursor);
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(segment.release(first.value()).ok());
  EXPECT_TRUE(segment.stage(ByteSpan{data}, cursor).ok());
}

TEST(Segment, ManagerSideAllocateAndWrite) {
  Segment segment(copy_model(), 1 << 20);
  auto slot = segment.allocate(4);
  ASSERT_TRUE(slot.ok());
  auto view = segment.writable_view(slot.value());
  ASSERT_TRUE(view.ok());
  // allocate() hands out uninitialized storage: define every byte.
  std::fill(view.value().begin(), view.value().end(), std::uint8_t{0});
  view.value()[0] = 42;
  vt::Cursor cursor;
  Bytes out(4);
  ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
  EXPECT_EQ(out[0], 42);
}

TEST(Segment, CountsCopies) {
  Segment segment(copy_model(), 1 << 20);
  vt::Cursor cursor;
  Bytes data(100);
  auto slot = segment.stage(ByteSpan{data}, cursor);
  Bytes out(100);
  (void)segment.fetch(slot.value(), MutableByteSpan{out}, cursor);
  EXPECT_EQ(segment.copy_count(), 2u);  // one in, one out
  EXPECT_EQ(segment.total_bytes_copied(), 200u);
}

// A zero slot behaves like a slot filled with zeros: every way out yields
// zeros, and the charge and copy accounting match a materialized slot.
TEST(Segment, ZeroSlotFetchesZerosWithTheSameAccounting) {
  constexpr std::size_t kSize = 64 * 1024;
  Segment filled(copy_model(), 1 << 20);
  Segment marked(copy_model(), 1 << 20);
  vt::Cursor filled_cursor;
  vt::Cursor marked_cursor;

  auto a = filled.allocate(kSize);
  ASSERT_TRUE(a.ok());
  auto view = filled.writable_view(a.value());
  ASSERT_TRUE(view.ok());
  std::fill(view.value().begin(), view.value().end(), std::uint8_t{0});
  auto b = marked.allocate(kSize);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(marked.mark_zero(b.value()).ok());
  EXPECT_EQ(marked.used(), kSize);  // still holds its capacity share

  Bytes filled_out(kSize, 0xAB);
  Bytes marked_out(kSize, 0xAB);
  ASSERT_TRUE(
      filled.fetch(a.value(), MutableByteSpan{filled_out}, filled_cursor).ok());
  ASSERT_TRUE(
      marked.fetch(b.value(), MutableByteSpan{marked_out}, marked_cursor).ok());
  EXPECT_EQ(marked_out, Bytes(kSize, 0));
  EXPECT_EQ(marked.copy_count(), filled.copy_count());
  EXPECT_EQ(marked.total_bytes_copied(), filled.total_bytes_copied());
  EXPECT_EQ(marked_cursor.now(), filled_cursor.now());
  EXPECT_EQ(marked.used(), 0u);
  EXPECT_EQ(marked.slot_count(), 0u);

  // fetch_take: a zeroed buffer even when the spare cache holds stale data.
  Bytes stale(kSize, 0xAB);
  auto staged = marked.stage(std::move(stale), marked_cursor);
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(marked.release(staged.value()).ok());  // 0xAB buffer -> spares
  auto c = marked.allocate(kSize);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(marked.mark_zero(c.value()).ok());
  const std::uint64_t copies = marked.copy_count();
  const vt::Time before = marked_cursor.now();
  auto taken = marked.fetch_take(c.value(), marked_cursor);
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken.value(), Bytes(kSize, 0));
  EXPECT_EQ(marked.copy_count(), copies + 1);
  EXPECT_EQ(marked_cursor.now() - before,
            copy_model().copy_time(kSize));
}

TEST(Segment, ZeroSlotViewsMaterializeZeros) {
  Segment segment(copy_model(), 1 << 20);
  Bytes stale(4096, 0xAB);
  vt::Cursor cursor;
  auto staged = segment.stage(std::move(stale), cursor);
  ASSERT_TRUE(staged.ok());
  ASSERT_TRUE(segment.release(staged.value()).ok());  // stale spare

  auto slot = segment.allocate(4096);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(segment.mark_zero(slot.value()).ok());
  auto view = segment.view(slot.value());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(Bytes(view.value().begin(), view.value().end()), Bytes(4096, 0));

  auto other = segment.allocate(4096);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(segment.mark_zero(other.value()).ok());
  auto writable = segment.writable_view(other.value());
  ASSERT_TRUE(writable.ok());
  EXPECT_EQ(Bytes(writable.value().begin(), writable.value().end()),
            Bytes(4096, 0));
  writable.value()[7] = 9;  // materialized: writes now stick
  Bytes out(4096, 0xAB);
  ASSERT_TRUE(segment.fetch(other.value(), MutableByteSpan{out}, cursor).ok());
  EXPECT_EQ(out[7], 9);
  EXPECT_EQ(out[0], 0);
}

TEST(Segment, MarkZeroUnknownSlotIsNotFound) {
  Segment segment(copy_model(), 1 << 20);
  EXPECT_EQ(segment.mark_zero(12345).code(), StatusCode::kNotFound);
  auto slot = segment.allocate(16);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(segment.release(slot.value()).ok());
  EXPECT_EQ(segment.mark_zero(slot.value()).code(), StatusCode::kNotFound);
}

// The client stages and fetches while the manager allocates, marks and
// releases slots of the same segment (run under TSan and ASan via the
// parallel label).
TEST(Segment, ClientAndManagerThreadsShareOneSegment) {
  Segment segment(copy_model(), 8 << 20);
  constexpr int kRounds = 2000;
  std::thread manager([&] {
    for (int i = 0; i < kRounds; ++i) {
      const std::uint64_t size = 1024 + 64 * static_cast<std::uint64_t>(i % 8);
      auto slot = segment.allocate(size);
      ASSERT_TRUE(slot.ok());
      if (i % 2 == 0) {
        ASSERT_TRUE(segment.mark_zero(slot.value()).ok());
      } else {
        auto view = segment.writable_view(slot.value());
        ASSERT_TRUE(view.ok());
        std::fill(view.value().begin(), view.value().end(), std::uint8_t{1});
      }
      ASSERT_TRUE(segment.release(slot.value()).ok());
    }
  });
  vt::Cursor cursor;
  Bytes data(2048, 0x5A);
  Bytes out(2048);
  for (int i = 0; i < kRounds; ++i) {
    auto slot = segment.stage(ByteSpan{data}, cursor);
    ASSERT_TRUE(slot.ok());
    ASSERT_TRUE(segment.fetch(slot.value(), MutableByteSpan{out}, cursor).ok());
    ASSERT_EQ(out, data);
  }
  manager.join();
  EXPECT_EQ(segment.used(), 0u);
  EXPECT_EQ(segment.slot_count(), 0u);
}

// Payloads of 64 B or less live inline in a slot's storage, so a view is
// only valid until release() if the slot itself stays put while the other
// thread stages and fetches other slots.
TEST(Segment, SmallSlotViewsStayValidWhileOtherSlotsChurn) {
  Segment segment(copy_model(), 8 << 20);
  constexpr int kRounds = 2000;
  constexpr std::uint64_t kSmall = 48;
  std::thread manager([&] {
    for (int i = 0; i < kRounds; ++i) {
      auto slot = segment.allocate(kSmall);
      ASSERT_TRUE(slot.ok());
      auto writable = segment.writable_view(slot.value());
      ASSERT_TRUE(writable.ok());
      const auto fill = static_cast<std::uint8_t>(i);
      for (std::uint8_t& byte : writable.value()) {
        byte = fill;
        std::this_thread::yield();
      }
      auto view = segment.view(slot.value());
      ASSERT_TRUE(view.ok());
      ASSERT_EQ(view.value().data(), writable.value().data());
      for (std::uint8_t byte : view.value()) ASSERT_EQ(byte, fill);
      ASSERT_TRUE(segment.release(slot.value()).ok());
    }
  });
  vt::Cursor cursor;
  Bytes data(kSmall, 0x5A);
  Bytes out(kSmall);
  std::int64_t slots[4] = {};
  for (int i = 0; i < kRounds; ++i) {
    for (std::int64_t& slot : slots) {
      auto staged = segment.stage(ByteSpan{data}, cursor);
      ASSERT_TRUE(staged.ok());
      slot = staged.value();
    }
    for (std::int64_t slot : slots) {
      ASSERT_TRUE(segment.fetch(slot, MutableByteSpan{out}, cursor).ok());
      ASSERT_EQ(out, data);
    }
  }
  manager.join();
  EXPECT_EQ(segment.used(), 0u);
  EXPECT_EQ(segment.slot_count(), 0u);
}

TEST(Segment, ZeroSizeSlotRejected) {
  Segment segment(copy_model(), 1 << 20);
  EXPECT_FALSE(segment.allocate(0).ok());
}

TEST(Namespace, CreateOpenUnlink) {
  Namespace ns;
  auto created = ns.create("devmgr-b:sess:1", copy_model(), 1 << 20);
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(ns.segment_count(), 1u);

  auto opened = ns.open("devmgr-b:sess:1");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().get(), created.value().get());  // same mapping

  EXPECT_FALSE(ns.create("devmgr-b:sess:1", copy_model(), 1).ok());
  ASSERT_TRUE(ns.unlink("devmgr-b:sess:1").ok());
  EXPECT_FALSE(ns.open("devmgr-b:sess:1").ok());
  EXPECT_FALSE(ns.unlink("devmgr-b:sess:1").ok());
}

TEST(Namespace, SegmentSurvivesUnlinkWhileHeld) {
  // POSIX shm semantics: unlink removes the name, the mapping lives while
  // a handle is held.
  Namespace ns;
  auto created = ns.create("seg", copy_model(), 1 << 20);
  ASSERT_TRUE(created.ok());
  auto handle = created.value();
  ASSERT_TRUE(ns.unlink("seg").ok());
  vt::Cursor cursor;
  Bytes data(10);
  EXPECT_TRUE(handle->stage(ByteSpan{data}, cursor).ok());
}

}  // namespace
}  // namespace bf::shm
