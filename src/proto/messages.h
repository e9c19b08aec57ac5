// Device Manager service protocol (the paper's gRPC service, §III-B).
//
// Two method families:
//  * context & information methods — synchronous request/response
//    (session open, device info, program/reconfigure, buffer and kernel and
//    queue management);
//  * command-queue methods — asynchronous, multi-phase. Each op carries a
//    client-chosen op_id (the paper's "tag": a pointer to the client event).
//    Phases mirror the remote library's event state machine:
//      INIT  -> Enqueue*Req (metadata)
//      FIRST <- OpEnqueued
//      BUFFER-> WriteData / <- data inside OpComplete for reads
//      COMPLETE <- OpComplete
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "proto/wire.h"

namespace bf::proto {

enum class Method : std::uint32_t {
  kOpenSession = 1,
  kGetDeviceInfo = 2,
  kProgram = 3,
  kCreateBuffer = 4,
  kReleaseBuffer = 5,
  kCreateKernel = 6,
  kCreateQueue = 7,
  kReleaseQueue = 8,
  kHealthCheck = 9,
  kEnqueueWrite = 16,
  kWriteData = 17,
  kEnqueueRead = 18,
  kEnqueueKernel = 19,
  kFlush = 20,
  kFinish = 21,
  // Server -> client notifications.
  kOpEnqueued = 32,
  kOpComplete = 33,
};

std::string_view to_string(Method method);
[[nodiscard]] bool is_command_queue_method(Method method);

// Methods safe to retry after a lost reply: re-execution (or a duplicate
// server-side execution whose first reply was dropped) does not change
// observable state. Resource *creation* methods are excluded — a retried
// CreateBuffer whose first reply was lost would leak the first buffer.
// OpenSession qualifies because the Device Manager re-acks the existing
// session on a duplicate open over the same connection.
[[nodiscard]] bool is_idempotent(Method method);

// --- Decoding ------------------------------------------------------------------
//
// Every message decodes through one path, `T::decode(reader, out)`. It resets
// `out` to the message defaults, except that repeated fields (wait lists,
// kernel args) are cleared with their capacity kept, then fills it from the
// reader. A caller that decodes each frame into one reused scratch message
// per method therefore allocates nothing once the scratch has grown to the
// largest message seen. On error `out` holds a partial decode. The by-value
// `T::decode(reader)` wraps it for callers without scratch.
template <typename T>
Result<T> decode_value(Reader& reader) {
  T out;
  if (Status s = T::decode(reader, out); !s.ok()) return s;
  return out;
}

// --- Shared submessages -----------------------------------------------------

struct StatusMsg {
  std::uint32_t code = 0;  // StatusCode as integer
  std::string message;

  static StatusMsg from(const Status& status);
  [[nodiscard]] Status to_status() const;
  void encode(Writer& writer) const;
  static Status decode(Reader& reader, StatusMsg& out);
  static Result<StatusMsg> decode(Reader& reader) {
    return decode_value<StatusMsg>(reader);
  }
};

struct DeviceDescriptor {
  std::string id;
  std::string name;
  std::string vendor;
  std::string platform;
  std::string node;
  std::string accelerator;
  std::uint64_t global_memory_bytes = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, DeviceDescriptor& out);
  static Result<DeviceDescriptor> decode(Reader& reader) {
    return decode_value<DeviceDescriptor>(reader);
  }
};

struct KernelArgMsg {
  enum class Kind : std::uint32_t { kUnset = 0, kBuffer = 1, kInt = 2, kDouble = 3 };
  Kind kind = Kind::kUnset;
  std::uint64_t buffer_id = 0;
  std::int64_t int_value = 0;
  double double_value = 0.0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, KernelArgMsg& out);
  static Result<KernelArgMsg> decode(Reader& reader) {
    return decode_value<KernelArgMsg>(reader);
  }
};

// --- Context & information methods -------------------------------------------

struct OpenSessionReq {
  std::string client_id;
  bool use_shared_memory = false;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, OpenSessionReq& out);
  static Result<OpenSessionReq> decode(Reader& reader) {
    return decode_value<OpenSessionReq>(reader);
  }
};

struct OpenSessionResp {
  StatusMsg status;
  std::uint64_t session_id = 0;
  bool shared_memory_granted = false;
  DeviceDescriptor device;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, OpenSessionResp& out);
  static Result<OpenSessionResp> decode(Reader& reader) {
    return decode_value<OpenSessionResp>(reader);
  }
};

struct ProgramReq {
  std::string bitstream_id;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, ProgramReq& out);
  static Result<ProgramReq> decode(Reader& reader) {
    return decode_value<ProgramReq>(reader);
  }
};

struct ProgramResp {
  StatusMsg status;
  bool reconfigured = false;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, ProgramResp& out);
  static Result<ProgramResp> decode(Reader& reader) {
    return decode_value<ProgramResp>(reader);
  }
};

struct CreateBufferReq {
  std::uint64_t size = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, CreateBufferReq& out);
  static Result<CreateBufferReq> decode(Reader& reader) {
    return decode_value<CreateBufferReq>(reader);
  }
};

struct CreateBufferResp {
  StatusMsg status;
  std::uint64_t buffer_id = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, CreateBufferResp& out);
  static Result<CreateBufferResp> decode(Reader& reader) {
    return decode_value<CreateBufferResp>(reader);
  }
};

struct ReleaseBufferReq {
  std::uint64_t buffer_id = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, ReleaseBufferReq& out);
  static Result<ReleaseBufferReq> decode(Reader& reader) {
    return decode_value<ReleaseBufferReq>(reader);
  }
};

struct CreateKernelReq {
  std::string name;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, CreateKernelReq& out);
  static Result<CreateKernelReq> decode(Reader& reader) {
    return decode_value<CreateKernelReq>(reader);
  }
};

struct CreateKernelResp {
  StatusMsg status;
  std::uint64_t kernel_id = 0;
  std::uint64_t arity = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, CreateKernelResp& out);
  static Result<CreateKernelResp> decode(Reader& reader) {
    return decode_value<CreateKernelResp>(reader);
  }
};

struct CreateQueueResp {
  StatusMsg status;
  std::uint64_t queue_id = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, CreateQueueResp& out);
  static Result<CreateQueueResp> decode(Reader& reader) {
    return decode_value<CreateQueueResp>(reader);
  }
};

// Generic status-only response (release buffer/queue, flush ack, ...).
struct AckResp {
  StatusMsg status;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, AckResp& out);
  static Result<AckResp> decode(Reader& reader) {
    return decode_value<AckResp>(reader);
  }
};

// Liveness + load probe (request body is empty). The registry's gatherer
// polls this to drive unhealthy-board detection and migration; `accepting`
// goes false once the manager has begun shutting down.
struct HealthResp {
  StatusMsg status;
  std::uint64_t queue_depth = 0;    // sealed tasks waiting in the FIFO
  std::uint64_t sessions = 0;       // open client sessions
  std::uint64_t ops_executed = 0;   // lifetime completed operations
  bool accepting = true;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, HealthResp& out);
  static Result<HealthResp> decode(Reader& reader) {
    return decode_value<HealthResp>(reader);
  }
};

// --- Command-queue methods ----------------------------------------------------

struct EnqueueWriteReq {
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  // Event wait list: ops that must complete before this one starts.
  std::vector<std::uint64_t> wait_op_ids;
  // Request trace context (0 = untraced; only encoded when set, so untraced
  // messages are byte-identical to pre-tracing builds).
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, EnqueueWriteReq& out);
  static Result<EnqueueWriteReq> decode(Reader& reader) {
    return decode_value<EnqueueWriteReq>(reader);
  }
};

// BUFFER phase of a write. Exactly one of `data` (gRPC path, bytes inline)
// or `shm_slot` (shared-memory path) is used; `size` is always set so the
// manager can charge transfer costs without touching the payload.
struct WriteData {
  std::uint64_t op_id = 0;
  std::uint64_t size = 0;
  std::int64_t shm_slot = -1;
  Bytes data;
  // Encode-only alternative to `data`: when non-empty, encode() serializes
  // this view instead of copying the payload into the message first. The
  // caller must keep the viewed buffer alive across encode(). decode()
  // always fills `data`.
  ByteSpan data_view;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, WriteData& out);
  static Result<WriteData> decode(Reader& reader) {
    return decode_value<WriteData>(reader);
  }
};

struct EnqueueReadReq {
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;
  std::uint64_t buffer_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  bool use_shared_memory = false;
  std::vector<std::uint64_t> wait_op_ids;
  std::uint64_t trace_id = 0;     // see EnqueueWriteReq
  std::uint64_t parent_span = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, EnqueueReadReq& out);
  static Result<EnqueueReadReq> decode(Reader& reader) {
    return decode_value<EnqueueReadReq>(reader);
  }
};

struct EnqueueKernelReq {
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;
  std::uint64_t kernel_id = 0;
  std::vector<KernelArgMsg> args;
  std::array<std::uint64_t, 3> global_size = {1, 1, 1};
  std::vector<std::uint64_t> wait_op_ids;
  std::uint64_t trace_id = 0;     // see EnqueueWriteReq
  std::uint64_t parent_span = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, EnqueueKernelReq& out);
  static Result<EnqueueKernelReq> decode(Reader& reader) {
    return decode_value<EnqueueKernelReq>(reader);
  }
};

struct FlushReq {
  std::uint64_t queue_id = 0;
  // Modeled completion deadline (ns since experiment start) the client
  // derived from its CallOptions timeout; 0 = none. Only the kDeadline
  // scheduling policy consults it.
  std::uint64_t deadline_ns = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, FlushReq& out);
  static Result<FlushReq> decode(Reader& reader) {
    return decode_value<FlushReq>(reader);
  }
};

// Finish = flush + completion notification carrying this op_id.
struct FinishReq {
  std::uint64_t op_id = 0;
  std::uint64_t queue_id = 0;
  std::uint64_t deadline_ns = 0;  // as FlushReq::deadline_ns

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, FinishReq& out);
  static Result<FinishReq> decode(Reader& reader) {
    return decode_value<FinishReq>(reader);
  }
};

// --- Server -> client notifications ------------------------------------------

struct OpEnqueued {
  std::uint64_t op_id = 0;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, OpEnqueued& out);
  static Result<OpEnqueued> decode(Reader& reader) {
    return decode_value<OpEnqueued>(reader);
  }
};

struct OpComplete {
  std::uint64_t op_id = 0;
  StatusMsg status;
  // Read results: inline bytes (gRPC) or an shm slot reference.
  std::int64_t shm_slot = -1;
  Bytes data;
  std::uint64_t size = 0;
  // Set by decode_view() instead of `data`; views the decoded frame's
  // payload buffer, so it is valid only while that buffer lives. encode()
  // serializes it when non-empty (same contract as WriteData::data_view).
  ByteSpan data_view;

  void encode(Writer& writer) const;
  static Status decode(Reader& reader, OpComplete& out);
  static Result<OpComplete> decode(Reader& reader) {
    return decode_value<OpComplete>(reader);
  }
  // Zero-copy decode: identical to decode() except the payload field lands
  // in `data_view` rather than being copied into `data`. Do not use with
  // reencode() or any reader whose buffer dies before the message.
  static Result<OpComplete> decode_view(Reader& reader);
};

// Round-trips any message type through its wire encoding (test helper).
template <typename T>
Result<T> reencode(const T& message) {
  Writer writer;
  message.encode(writer);
  Reader reader(ByteSpan{writer.bytes()});
  return T::decode(reader);
}

}  // namespace bf::proto
