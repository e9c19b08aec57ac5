// bf::sim::Board: exclusive timeline, busy accounting, the owner-tagged
// occupancy ledger, reconfiguration and the bitstream library.
#include <gtest/gtest.h>

#include <vector>

#include "sim/bitstream.h"
#include "sim/board.h"

namespace bf::sim {
namespace {

BoardConfig small_board(bool functional = true) {
  BoardConfig config;
  config.id = "fpga-t";
  config.node = "B";
  config.host = make_node_b();
  config.memory_bytes = 64 * kMiB;
  config.functional = functional;
  return config;
}

const Bitstream& vadd_bitstream() {
  return *BitstreamLibrary::standard().find(BitstreamLibrary::kVadd);
}

// ---- BitstreamLibrary -------------------------------------------------------

TEST(BitstreamLibrary, ContainsThePaperAccelerators) {
  const auto& library = BitstreamLibrary::standard();
  ASSERT_NE(library.find(BitstreamLibrary::kSobel), nullptr);
  ASSERT_NE(library.find(BitstreamLibrary::kMatMul), nullptr);
  ASSERT_NE(library.find(BitstreamLibrary::kAlexNet), nullptr);
  EXPECT_EQ(library.find("bogus"), nullptr);
  EXPECT_FALSE(library.get("bogus").has_value());

  const Bitstream* alexnet = library.find(BitstreamLibrary::kAlexNet);
  EXPECT_EQ(alexnet->accelerator, "pipecnn_alexnet");
  EXPECT_TRUE(alexnet->has_kernel("conv"));
  EXPECT_TRUE(alexnet->has_kernel("pool"));
  EXPECT_FALSE(alexnet->has_kernel("sobel"));
}

TEST(BitstreamLibrary, ReconfigurationTimeGrowsWithSize) {
  const auto& library = BitstreamLibrary::standard();
  const auto small = library.find(BitstreamLibrary::kVadd);
  const auto large = library.find(BitstreamLibrary::kAlexNet);
  EXPECT_LT(small->reconfiguration_time().ns(),
            large->reconfiguration_time().ns());
  // Order of seconds, like a real full-device Arria-10 program.
  EXPECT_GT(small->reconfiguration_time().sec(), 0.5);
  EXPECT_LT(large->reconfiguration_time().sec(), 5.0);
}

// ---- Board ---------------------------------------------------------------------

TEST(Board, StartsUnconfigured) {
  Board board(small_board());
  EXPECT_FALSE(board.bitstream().has_value());
  EXPECT_FALSE(board.has_kernel("vadd"));
  KernelLaunch launch;
  launch.kernel = "vadd";
  EXPECT_EQ(board.run_kernel(launch, vt::Time::zero()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Board, ConfigureLoadsKernelsAndWipesMemory) {
  Board board(small_board());
  auto handle = board.allocate(1024);
  ASSERT_TRUE(handle.ok());
  auto interval = board.configure(vadd_bitstream(), vt::Time::zero());
  ASSERT_TRUE(interval.ok());
  EXPECT_TRUE(board.has_kernel("vadd"));
  EXPECT_EQ(board.memory_used(), 0u);  // DDR wiped
  Bytes out(4);
  EXPECT_FALSE(board.read(handle.value(), 0, MutableByteSpan{out},
                          vt::Time::zero())
                   .ok());
  EXPECT_EQ(board.reconfiguration_count(), 1u);
}

TEST(Board, TimelineSerializesOverlappingWork) {
  Board board(small_board());
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto buffer = board.allocate(8 * kMiB);
  ASSERT_TRUE(buffer.ok());
  Bytes data(8 * kMiB, 1);
  // Two writes both "ready" at the same instant: the second must start when
  // the first ends.
  const vt::Time ready = board.busy_until();
  auto first = board.write(buffer.value(), 0, ByteSpan{data}, ready);
  auto second = board.write(buffer.value(), 0, ByteSpan{data}, ready);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().start, first.value().end);
  EXPECT_GT(second.value().end, second.value().start);
}

TEST(Board, ReadyAfterBusyStartsAtReady) {
  Board board(small_board());
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto buffer = board.allocate(1024);
  ASSERT_TRUE(buffer.ok());
  Bytes data(1024);
  const vt::Time late = board.busy_until() + vt::Duration::seconds(5);
  auto interval = board.write(buffer.value(), 0, ByteSpan{data}, late);
  ASSERT_TRUE(interval.ok());
  EXPECT_EQ(interval.value().start, late);
}

TEST(Board, BusyAccountingExcludesReconfiguration) {
  Board board(small_board());
  auto interval = board.configure(vadd_bitstream(), vt::Time::zero());
  ASSERT_TRUE(interval.ok());
  // Programming occupies the timeline but does not count as utilization
  // ("time spent computing OpenCL calls", paper definition).
  EXPECT_EQ(board.busy_total().ns(), 0);
  EXPECT_GT(board.busy_until(), vt::Time::zero());

  auto buffer = board.allocate(kMiB);
  ASSERT_TRUE(buffer.ok());
  Bytes data(kMiB);
  auto write = board.write(buffer.value(), 0, ByteSpan{data},
                           board.busy_until());
  ASSERT_TRUE(write.ok());
  EXPECT_EQ(board.busy_total().ns(), write.value().duration().ns());
}

TEST(Board, BusyBetweenClipsToWindow) {
  Board board(small_board());
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto buffer = board.allocate(kMiB);
  ASSERT_TRUE(buffer.ok());
  Bytes data(kMiB);
  auto interval =
      board.write(buffer.value(), 0, ByteSpan{data}, board.busy_until());
  ASSERT_TRUE(interval.ok());
  const vt::Time mid = interval.value().start +
                       vt::Duration::nanos(interval.value().duration().ns() / 2);
  EXPECT_NEAR(board.busy_between(interval.value().start, mid).ns(),
              interval.value().duration().ns() / 2, 2);
  EXPECT_EQ(board.busy_between(interval.value().end,
                               interval.value().end + vt::Duration::seconds(1))
                .ns(),
            0);
}

TEST(Board, KernelRequiresConfiguredBitstream) {
  Board board(small_board());
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  KernelLaunch launch;
  launch.kernel = "sobel";  // not in the vadd bitstream
  EXPECT_EQ(board.run_kernel(launch, board.busy_until()).status().code(),
            StatusCode::kNotFound);
}

TEST(Board, TimingOnlyModeSkipsDataButChecksBounds) {
  Board board(small_board(/*functional=*/false));
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto buffer = board.allocate(1024);
  ASSERT_TRUE(buffer.ok());
  Bytes data(512, 0xAA);
  ASSERT_TRUE(
      board.write(buffer.value(), 0, ByteSpan{data}, board.busy_until()).ok());
  Bytes out(512, 0xFF);
  ASSERT_TRUE(board.read(buffer.value(), 0, MutableByteSpan{out},
                         board.busy_until())
                  .ok());
  for (std::uint8_t byte : out) EXPECT_EQ(byte, 0);  // zeros, not data
  // Bounds still enforced.
  Bytes big(2048);
  EXPECT_FALSE(
      board.write(buffer.value(), 0, ByteSpan{big}, board.busy_until()).ok());
}

// One board's read of a 4 KiB buffer into a 0xAB-poisoned span, after an
// optional write, with or without the caller asking to be told about zeros.
struct ReadOutcome {
  Bytes out;
  bool zeros = false;
  Board::Interval interval;
  std::vector<Board::Occupancy> log;
};

ReadOutcome read_once(bool functional, bool written, bool request_zeros) {
  constexpr std::size_t kSize = 4096;
  Board board(small_board(functional));
  EXPECT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  const Owner owner = board.owner("fn");
  auto buffer = board.allocate(kSize);
  EXPECT_TRUE(buffer.ok());
  if (written) {
    Bytes data(kSize);
    for (std::size_t i = 0; i < kSize; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    EXPECT_TRUE(board
                    .write(buffer.value(), 0, ByteSpan{data},
                           board.busy_until(), owner)
                    .ok());
  }
  ReadOutcome outcome;
  outcome.out = Bytes(kSize, 0xAB);
  outcome.zeros = !request_zeros;  // must be overwritten when requested
  auto interval = board.read(buffer.value(), 0, MutableByteSpan{outcome.out},
                             board.busy_until(), owner,
                             request_zeros ? &outcome.zeros : nullptr);
  EXPECT_TRUE(interval.ok());
  if (interval.ok()) outcome.interval = interval.value();
  outcome.log = board.busy_snapshot(vt::Time::zero(), vt::Time::seconds(60));
  return outcome;
}

void expect_same_timeline(const ReadOutcome& a, const ReadOutcome& b) {
  EXPECT_EQ(a.interval.start, b.interval.start);
  EXPECT_EQ(a.interval.end, b.interval.end);
  ASSERT_EQ(a.log.size(), b.log.size());
  for (std::size_t i = 0; i < a.log.size(); ++i) {
    EXPECT_EQ(a.log[i].client_id, b.log[i].client_id);
    EXPECT_EQ(a.log[i].start, b.log[i].start);
    EXPECT_EQ(a.log[i].end, b.log[i].end);
  }
}

// A range with no data reports zeros and leaves `out` untouched when the
// caller asks; otherwise it is zero-filled. Modeled time is the same.
TEST(Board, ReadOfNoDataReportsZerosWithoutWritingThem) {
  const Bytes poison(4096, 0xAB);
  const Bytes zeros(4096, 0);
  struct Case {
    bool functional;
    bool written;
  };
  // Timing-only boards hold no data even after a write.
  for (const Case c : {Case{false, false}, Case{false, true},
                       Case{true, false}}) {
    SCOPED_TRACE(testing::Message() << "functional=" << c.functional
                                    << " written=" << c.written);
    const ReadOutcome reported = read_once(c.functional, c.written, true);
    const ReadOutcome filled = read_once(c.functional, c.written, false);
    EXPECT_TRUE(reported.zeros);
    EXPECT_EQ(reported.out, poison);
    EXPECT_EQ(filled.out, zeros);
    expect_same_timeline(reported, filled);
  }
}

TEST(Board, ReadOfWrittenFunctionalBufferCopiesData) {
  const ReadOutcome reported = read_once(true, true, true);
  const ReadOutcome plain = read_once(true, true, false);
  EXPECT_FALSE(reported.zeros);
  EXPECT_EQ(reported.out[0], 1);
  EXPECT_EQ(reported.out[1], 8);
  EXPECT_EQ(reported.out, plain.out);
  expect_same_timeline(reported, plain);
  // And the same timeline as a read of no data.
  expect_same_timeline(reported, read_once(false, true, true));
}

TEST(Board, TransferTimeDependsOnHostPcie) {
  BoardConfig gen2 = small_board();
  gen2.host = make_node_a();  // PCIe gen2
  Board slow(gen2);
  Board fast(small_board());  // node B, gen3
  ASSERT_TRUE(slow.configure(vadd_bitstream(), vt::Time::zero()).ok());
  ASSERT_TRUE(fast.configure(vadd_bitstream(), vt::Time::zero()).ok());
  auto slow_buffer = slow.allocate(8 * kMiB);
  auto fast_buffer = fast.allocate(8 * kMiB);
  Bytes data(8 * kMiB);
  auto slow_write =
      slow.write(slow_buffer.value(), 0, ByteSpan{data}, slow.busy_until());
  auto fast_write =
      fast.write(fast_buffer.value(), 0, ByteSpan{data}, fast.busy_until());
  EXPECT_GT(slow_write.value().duration().ns(),
            fast_write.value().duration().ns());
}

// ---- Occupancy ledger ---------------------------------------------------------

const Bitstream& bitstream(const char* id) {
  return *BitstreamLibrary::standard().find(id);
}

// A timing-only board hosting `regions` PR regions (tiny kernel arguments
// suffice: only the launch's size arguments drive its modeled time).
BoardConfig timing_board(unsigned regions) {
  BoardConfig config = small_board(/*functional=*/false);
  config.pr_regions = regions;
  return config;
}

KernelLaunch mm_launch(Board& board, Owner owner) {
  KernelLaunch launch;
  launch.kernel = "mm";
  launch.args = {board.allocate(1024).value(), board.allocate(1024).value(),
                 board.allocate(1024).value(), std::int64_t{256}};
  launch.owner = owner;
  return launch;
}

TEST(BoardLedger, SameOwnerBackToBackMergesOtherOwnersStaySeparate) {
  Board board(timing_board(1));
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  const Owner a = board.owner("fn-a");
  const Owner b = board.owner("fn-b");
  EXPECT_EQ(board.owner("fn-a"), a);  // interned once
  EXPECT_NE(a, b);
  EXPECT_NE(a, Owner{0});
  auto buffer = board.allocate(kMiB);
  ASSERT_TRUE(buffer.ok());
  Bytes data(kMiB);
  const vt::Time ready = board.busy_until();
  auto a1 = board.write(buffer.value(), 0, ByteSpan{data}, ready, a);
  auto a2 = board.write(buffer.value(), 0, ByteSpan{data}, ready, a);
  auto b1 = board.write(buffer.value(), 0, ByteSpan{data}, ready, b);
  // Same owner, but not contiguous with b1: a new entry.
  auto b2 = board.write(buffer.value(), 0, ByteSpan{data},
                        board.busy_until() + vt::Duration::millis(1), b);
  ASSERT_TRUE(a1.ok() && a2.ok() && b1.ok() && b2.ok());

  const auto snapshot =
      board.busy_snapshot(vt::Time::zero(), vt::Time::seconds(60));
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].client_id, "fn-a");
  EXPECT_EQ(snapshot[0].start, a1.value().start);
  EXPECT_EQ(snapshot[0].end, a2.value().end);
  EXPECT_EQ(snapshot[1].client_id, "fn-b");
  EXPECT_EQ(snapshot[1].start, b1.value().start);
  EXPECT_EQ(snapshot[1].end, b1.value().end);
  EXPECT_EQ(snapshot[2].client_id, "fn-b");
  EXPECT_EQ(snapshot[2].start, b2.value().start);
  EXPECT_EQ(
      board.client_busy_between("fn-a", vt::Time::zero(), vt::Time::seconds(60))
          .ns(),
      a1.value().duration().ns() + a2.value().duration().ns());
}

TEST(BoardLedger, OwnerZeroIsUnattributed) {
  Board board(timing_board(1));
  ASSERT_TRUE(board.configure(vadd_bitstream(), vt::Time::zero()).ok());
  EXPECT_EQ(board.owner(""), Owner{0});
  auto buffer = board.allocate(kMiB);
  ASSERT_TRUE(buffer.ok());
  Bytes data(kMiB);
  auto write =
      board.write(buffer.value(), 0, ByteSpan{data}, board.busy_until());
  ASSERT_TRUE(write.ok());
  const vt::Time horizon = write.value().end + vt::Duration::seconds(1);
  const auto snapshot = board.busy_snapshot(vt::Time::zero(), horizon);
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].client_id, "");
  EXPECT_EQ(board.client_busy_between("", vt::Time::zero(), horizon).ns(),
            write.value().duration().ns());
  EXPECT_EQ(board.client_busy_between("ghost", vt::Time::zero(), horizon).ns(),
            0);
}

TEST(BoardLedger, OverlappingRegionKernelsKeepTheirOwners) {
  Board board(timing_board(2));
  ASSERT_TRUE(
      board.configure_region(0, bitstream(BitstreamLibrary::kSobel),
                             vt::Time::zero())
          .ok());
  ASSERT_TRUE(
      board.configure_region(1, bitstream(BitstreamLibrary::kMatMul),
                             vt::Time::zero())
          .ok());
  const Owner a = board.owner("fn-sobel");
  const Owner b = board.owner("fn-mm");
  KernelLaunch sobel;
  sobel.kernel = "sobel";
  sobel.args = {board.allocate(640 * 480 * 4).value(),
                board.allocate(640 * 480 * 4).value(), std::int64_t{640},
                std::int64_t{480}};
  sobel.owner = a;
  const vt::Time ready = board.busy_until();
  auto sobel_run = board.run_kernel(sobel, ready);
  auto mm_run = board.run_kernel(mm_launch(board, b), ready);
  ASSERT_TRUE(sobel_run.ok() && mm_run.ok());
  EXPECT_EQ(sobel_run.value().start, mm_run.value().start);  // overlapping
  // Contiguous on region 1 and the same owner: extends the mm entry.
  auto mm_again = board.run_kernel(mm_launch(board, b), mm_run.value().end);
  ASSERT_TRUE(mm_again.ok());
  EXPECT_EQ(mm_again.value().start, mm_run.value().end);

  const vt::Time horizon = board.busy_until() + vt::Duration::seconds(1);
  EXPECT_EQ(board.client_busy_between("fn-sobel", ready, horizon).ns(),
            sobel_run.value().duration().ns());
  EXPECT_EQ(board.client_busy_between("fn-mm", ready, horizon).ns(),
            mm_run.value().duration().ns() + mm_again.value().duration().ns());
  EXPECT_EQ(board.busy_snapshot(ready, horizon).size(), 2u);
}

TEST(BoardLedger, BatchAttributesEachLaunchToItsOwner) {
  Board board(timing_board(1));
  ASSERT_TRUE(
      board.configure(bitstream(BitstreamLibrary::kMatMul), vt::Time::zero())
          .ok());
  const Owner a = board.owner("fn-a");
  const Owner b = board.owner("fn-b");
  const std::vector<KernelLaunch> launches = {
      mm_launch(board, a), mm_launch(board, b), mm_launch(board, a)};
  auto pass = board.run_kernel_batch(launches, board.busy_until());
  ASSERT_TRUE(pass.ok());
  const std::vector<Board::Interval>& parts = pass.value();
  ASSERT_EQ(parts.size(), 3u);

  const vt::Time from = parts.front().start;
  const vt::Time to = parts.back().end;
  const auto snapshot = board.busy_snapshot(from, to);
  ASSERT_EQ(snapshot.size(), 3u);
  const char* expected[] = {"fn-a", "fn-b", "fn-a"};
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(snapshot[i].client_id, expected[i]);
    EXPECT_EQ(snapshot[i].start, parts[i].start);
    EXPECT_EQ(snapshot[i].end, parts[i].end);
  }
  EXPECT_EQ(board.client_busy_between("fn-a", from, to).ns(),
            parts[0].duration().ns() + parts[2].duration().ns());
  EXPECT_EQ(board.client_busy_between("fn-b", from, to).ns(),
            parts[1].duration().ns());
}

TEST(BoardLedger, ClientSumsEqualBoardBusyInEveryWindow) {
  Board board(timing_board(1));
  ASSERT_TRUE(
      board.configure(bitstream(BitstreamLibrary::kMatMul), vt::Time::zero())
          .ok());
  const Owner a = board.owner("fn-a");
  const Owner b = board.owner("fn-b");
  auto buffer = board.allocate(kMiB);
  ASSERT_TRUE(buffer.ok());
  Bytes data(kMiB);
  const vt::Time start = board.busy_until();
  ASSERT_TRUE(board.write(buffer.value(), 0, ByteSpan{data}, start, a).ok());
  ASSERT_TRUE(board.write(buffer.value(), 0, ByteSpan{data}, start).ok());
  ASSERT_TRUE(board.run_kernel(mm_launch(board, b), start).ok());
  ASSERT_TRUE(board
                  .run_kernel_batch({mm_launch(board, a), mm_launch(board, b)},
                                    start + vt::Duration::millis(50))
                  .ok());
  Bytes out(kMiB);
  ASSERT_TRUE(
      board.read(buffer.value(), 0, MutableByteSpan{out}, start, b).ok());

  const vt::Time end = board.busy_until();
  const vt::Duration third = vt::Duration::nanos((end - start).ns() / 3);
  const std::pair<vt::Time, vt::Time> windows[] = {
      {vt::Time::zero(), end + vt::Duration::seconds(1)},
      {start + third, start + third + third},  // clips at both edges
      {start, start + third}};
  for (const auto& [from, to] : windows) {
    const vt::Duration sum = board.client_busy_between("", from, to) +
                             board.client_busy_between("fn-a", from, to) +
                             board.client_busy_between("fn-b", from, to);
    EXPECT_EQ(sum.ns(), board.busy_between(from, to).ns());
  }
  EXPECT_GT(board.busy_between(vt::Time::zero(), end).ns(), 0);
}

}  // namespace
}  // namespace bf::sim
