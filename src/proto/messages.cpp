#include "proto/messages.h"

namespace bf::proto {
namespace {

// Decode-loop helper: returns error status on malformed input, otherwise
// invokes `on_field` for every field and lets it consume the value.
template <typename F>
Status decode_fields(Reader& reader, F&& on_field) {
  while (!reader.at_end()) {
    auto header = reader.next_field();
    if (!header.ok()) return header.status();
    Status s = on_field(header.value());
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

template <typename T>
Status take_uint(Reader& reader, T& out) {
  auto value = reader.read_varint();
  if (!value.ok()) return value.status();
  out = static_cast<T>(value.value());
  return Status::Ok();
}

Status take_string(Reader& reader, std::string& out) {
  auto value = reader.read_string();
  if (!value.ok()) return value.status();
  out = std::move(value.value());
  return Status::Ok();
}

Status take_bytes(Reader& reader, Bytes& out) {
  auto value = reader.read_bytes();
  if (!value.ok()) return value.status();
  out = std::move(value.value());
  return Status::Ok();
}

Status take_bool(Reader& reader, bool& out) {
  std::uint64_t raw = 0;
  Status s = take_uint(reader, raw);
  if (!s.ok()) return s;
  out = raw != 0;
  return Status::Ok();
}

Status take_zigzag(Reader& reader, std::int64_t& out) {
  auto value = reader.read_zigzag();
  if (!value.ok()) return value.status();
  out = value.value();
  return Status::Ok();
}

// A length-delimited submessage, decoded in place.
template <typename T>
Status take_message(Reader& reader, T& out) {
  auto raw = reader.read_bytes_view();
  if (!raw.ok()) return raw.status();
  Reader sub(raw.value());
  return T::decode(sub, out);
}

// One element of a repeated varint field (event wait lists).
Status append_uint(Reader& reader, std::vector<std::uint64_t>& out) {
  auto value = reader.read_varint();
  if (!value.ok()) return value.status();
  out.push_back(value.value());
  return Status::Ok();
}

// Resets a decode target to the message defaults while its repeated fields
// keep their capacity: the decode-into-scratch contract (messages.h).
template <typename T>
void reset_keeping_capacity(T& out) {
  std::vector<std::uint64_t> waits = std::move(out.wait_op_ids);
  waits.clear();
  if constexpr (requires { out.args; }) {
    std::vector<KernelArgMsg> args = std::move(out.args);
    args.clear();
    out = T{};
    out.args = std::move(args);
  } else {
    out = T{};
  }
  out.wait_op_ids = std::move(waits);
}

}  // namespace

std::string_view to_string(Method method) {
  switch (method) {
    case Method::kOpenSession: return "OpenSession";
    case Method::kGetDeviceInfo: return "GetDeviceInfo";
    case Method::kProgram: return "Program";
    case Method::kCreateBuffer: return "CreateBuffer";
    case Method::kReleaseBuffer: return "ReleaseBuffer";
    case Method::kCreateKernel: return "CreateKernel";
    case Method::kCreateQueue: return "CreateQueue";
    case Method::kReleaseQueue: return "ReleaseQueue";
    case Method::kHealthCheck: return "HealthCheck";
    case Method::kEnqueueWrite: return "EnqueueWrite";
    case Method::kWriteData: return "WriteData";
    case Method::kEnqueueRead: return "EnqueueRead";
    case Method::kEnqueueKernel: return "EnqueueKernel";
    case Method::kFlush: return "Flush";
    case Method::kFinish: return "Finish";
    case Method::kOpEnqueued: return "OpEnqueued";
    case Method::kOpComplete: return "OpComplete";
  }
  return "Unknown";
}

bool is_idempotent(Method method) {
  switch (method) {
    case Method::kOpenSession:   // duplicate open re-acks the live session
    case Method::kGetDeviceInfo:
    case Method::kProgram:       // already-loaded bitstream is a no-op
    case Method::kHealthCheck:
      return true;
    default:
      return false;
  }
}

bool is_command_queue_method(Method method) {
  switch (method) {
    case Method::kEnqueueWrite:
    case Method::kWriteData:
    case Method::kEnqueueRead:
    case Method::kEnqueueKernel:
    case Method::kFlush:
    case Method::kFinish:
      return true;
    default:
      return false;
  }
}

// --- StatusMsg ---------------------------------------------------------------

StatusMsg StatusMsg::from(const Status& status) {
  return StatusMsg{static_cast<std::uint32_t>(status.code()),
                   status.message()};
}

Status StatusMsg::to_status() const {
  return Status(static_cast<StatusCode>(code), message);
}

void StatusMsg::encode(Writer& writer) const {
  writer.field_uint(1, code);
  if (!message.empty()) writer.field_string(2, message);
}

Status StatusMsg::decode(Reader& reader, StatusMsg& out) {
  out = StatusMsg{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.code);
      case 2: return take_string(reader, out.message);
      default: return reader.skip(h.type);
    }
  });
}

// --- DeviceDescriptor ----------------------------------------------------------

void DeviceDescriptor::encode(Writer& writer) const {
  writer.field_string(1, id);
  writer.field_string(2, name);
  writer.field_string(3, vendor);
  writer.field_string(4, platform);
  writer.field_string(5, node);
  writer.field_string(6, accelerator);
  writer.field_uint(7, global_memory_bytes);
}

Status DeviceDescriptor::decode(Reader& reader, DeviceDescriptor& out) {
  out = DeviceDescriptor{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_string(reader, out.id);
      case 2: return take_string(reader, out.name);
      case 3: return take_string(reader, out.vendor);
      case 4: return take_string(reader, out.platform);
      case 5: return take_string(reader, out.node);
      case 6: return take_string(reader, out.accelerator);
      case 7: return take_uint(reader, out.global_memory_bytes);
      default: return reader.skip(h.type);
    }
  });
}

// --- KernelArgMsg --------------------------------------------------------------

void KernelArgMsg::encode(Writer& writer) const {
  writer.field_uint(1, static_cast<std::uint64_t>(kind));
  switch (kind) {
    case Kind::kBuffer: writer.field_uint(2, buffer_id); break;
    case Kind::kInt: writer.field_int(3, int_value); break;
    case Kind::kDouble: writer.field_double(4, double_value); break;
    case Kind::kUnset: break;
  }
}

Status KernelArgMsg::decode(Reader& reader, KernelArgMsg& out) {
  out = KernelArgMsg{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: {
        std::uint64_t raw = 0;
        Status st = take_uint(reader, raw);
        if (!st.ok()) return st;
        if (raw > 3) return InvalidArgument("bad kernel arg kind");
        out.kind = static_cast<Kind>(raw);
        return Status::Ok();
      }
      case 2: return take_uint(reader, out.buffer_id);
      case 3: return take_zigzag(reader, out.int_value);
      case 4: {
        auto value = reader.read_double();
        if (!value.ok()) return value.status();
        out.double_value = value.value();
        return Status::Ok();
      }
      default: return reader.skip(h.type);
    }
  });
}

// --- OpenSession -----------------------------------------------------------------

void OpenSessionReq::encode(Writer& writer) const {
  writer.field_string(1, client_id);
  writer.field_bool(2, use_shared_memory);
}

Status OpenSessionReq::decode(Reader& reader, OpenSessionReq& out) {
  out = OpenSessionReq{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_string(reader, out.client_id);
      case 2: return take_bool(reader, out.use_shared_memory);
      default: return reader.skip(h.type);
    }
  });
}

void OpenSessionResp::encode(Writer& writer) const {
  Writer status_writer;
  status.encode(status_writer);
  writer.field_bytes(1, ByteSpan{status_writer.bytes()});
  writer.field_uint(2, session_id);
  writer.field_bool(3, shared_memory_granted);
  Writer device_writer;
  device.encode(device_writer);
  writer.field_bytes(4, ByteSpan{device_writer.bytes()});
}

Status OpenSessionResp::decode(Reader& reader, OpenSessionResp& out) {
  out = OpenSessionResp{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_message(reader, out.status);
      case 2: return take_uint(reader, out.session_id);
      case 3: return take_bool(reader, out.shared_memory_granted);
      case 4: return take_message(reader, out.device);
      default: return reader.skip(h.type);
    }
  });
}

// --- Program ----------------------------------------------------------------------

void ProgramReq::encode(Writer& writer) const {
  writer.field_string(1, bitstream_id);
}

Status ProgramReq::decode(Reader& reader, ProgramReq& out) {
  out = ProgramReq{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_string(reader, out.bitstream_id);
      default: return reader.skip(h.type);
    }
  });
}

void ProgramResp::encode(Writer& writer) const {
  Writer status_writer;
  status.encode(status_writer);
  writer.field_bytes(1, ByteSpan{status_writer.bytes()});
  writer.field_bool(2, reconfigured);
}

Status ProgramResp::decode(Reader& reader, ProgramResp& out) {
  out = ProgramResp{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_message(reader, out.status);
      case 2: return take_bool(reader, out.reconfigured);
      default: return reader.skip(h.type);
    }
  });
}

// --- Buffers / kernels / queues ---------------------------------------------------

void CreateBufferReq::encode(Writer& writer) const {
  writer.field_uint(1, size);
}

Status CreateBufferReq::decode(Reader& reader, CreateBufferReq& out) {
  out = CreateBufferReq{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.size);
      default: return reader.skip(h.type);
    }
  });
}

void CreateBufferResp::encode(Writer& writer) const {
  Writer status_writer;
  status.encode(status_writer);
  writer.field_bytes(1, ByteSpan{status_writer.bytes()});
  writer.field_uint(2, buffer_id);
}

Status CreateBufferResp::decode(Reader& reader, CreateBufferResp& out) {
  out = CreateBufferResp{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_message(reader, out.status);
      case 2: return take_uint(reader, out.buffer_id);
      default: return reader.skip(h.type);
    }
  });
}

void ReleaseBufferReq::encode(Writer& writer) const {
  writer.field_uint(1, buffer_id);
}

Status ReleaseBufferReq::decode(Reader& reader, ReleaseBufferReq& out) {
  out = ReleaseBufferReq{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.buffer_id);
      default: return reader.skip(h.type);
    }
  });
}

void CreateKernelReq::encode(Writer& writer) const {
  writer.field_string(1, name);
}

Status CreateKernelReq::decode(Reader& reader, CreateKernelReq& out) {
  out = CreateKernelReq{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_string(reader, out.name);
      default: return reader.skip(h.type);
    }
  });
}

void CreateKernelResp::encode(Writer& writer) const {
  Writer status_writer;
  status.encode(status_writer);
  writer.field_bytes(1, ByteSpan{status_writer.bytes()});
  writer.field_uint(2, kernel_id);
  writer.field_uint(3, arity);
}

Status CreateKernelResp::decode(Reader& reader, CreateKernelResp& out) {
  out = CreateKernelResp{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_message(reader, out.status);
      case 2: return take_uint(reader, out.kernel_id);
      case 3: return take_uint(reader, out.arity);
      default: return reader.skip(h.type);
    }
  });
}

void CreateQueueResp::encode(Writer& writer) const {
  Writer status_writer;
  status.encode(status_writer);
  writer.field_bytes(1, ByteSpan{status_writer.bytes()});
  writer.field_uint(2, queue_id);
}

Status CreateQueueResp::decode(Reader& reader, CreateQueueResp& out) {
  out = CreateQueueResp{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_message(reader, out.status);
      case 2: return take_uint(reader, out.queue_id);
      default: return reader.skip(h.type);
    }
  });
}

void AckResp::encode(Writer& writer) const {
  Writer status_writer;
  status.encode(status_writer);
  writer.field_bytes(1, ByteSpan{status_writer.bytes()});
}

Status AckResp::decode(Reader& reader, AckResp& out) {
  out = AckResp{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_message(reader, out.status);
      default: return reader.skip(h.type);
    }
  });
}

void HealthResp::encode(Writer& writer) const {
  Writer status_writer;
  status.encode(status_writer);
  writer.field_bytes(1, ByteSpan{status_writer.bytes()});
  writer.field_uint(2, queue_depth);
  writer.field_uint(3, sessions);
  writer.field_uint(4, ops_executed);
  writer.field_uint(5, accepting ? 1 : 0);
}

Status HealthResp::decode(Reader& reader, HealthResp& out) {
  out = HealthResp{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_message(reader, out.status);
      case 2: return take_uint(reader, out.queue_depth);
      case 3: return take_uint(reader, out.sessions);
      case 4: return take_uint(reader, out.ops_executed);
      case 5: return take_bool(reader, out.accepting);
      default: return reader.skip(h.type);
    }
  });
}

// --- Command-queue ops --------------------------------------------------------

void EnqueueWriteReq::encode(Writer& writer) const {
  writer.field_uint(1, op_id);
  writer.field_uint(2, queue_id);
  writer.field_uint(3, buffer_id);
  writer.field_uint(4, offset);
  writer.field_uint(5, size);
  for (std::uint64_t wait : wait_op_ids) writer.field_uint(8, wait);
  if (trace_id != 0) {
    writer.field_uint(9, trace_id);
    writer.field_uint(10, parent_span);
  }
}

Status EnqueueWriteReq::decode(Reader& reader, EnqueueWriteReq& out) {
  reset_keeping_capacity(out);
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.op_id);
      case 2: return take_uint(reader, out.queue_id);
      case 3: return take_uint(reader, out.buffer_id);
      case 4: return take_uint(reader, out.offset);
      case 5: return take_uint(reader, out.size);
      case 9: return take_uint(reader, out.trace_id);
      case 10: return take_uint(reader, out.parent_span);
      case 8: return append_uint(reader, out.wait_op_ids);
      default: return reader.skip(h.type);
    }
  });
}

void WriteData::encode(Writer& writer) const {
  writer.field_uint(1, op_id);
  writer.field_uint(2, size);
  writer.field_int(3, shm_slot);
  const ByteSpan payload = data_view.empty() ? ByteSpan{data} : data_view;
  if (!payload.empty()) writer.field_bytes(4, payload);
}

Status WriteData::decode(Reader& reader, WriteData& out) {
  out = WriteData{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.op_id);
      case 2: return take_uint(reader, out.size);
      case 3: return take_zigzag(reader, out.shm_slot);
      case 4: return take_bytes(reader, out.data);
      default: return reader.skip(h.type);
    }
  });
}

void EnqueueReadReq::encode(Writer& writer) const {
  writer.field_uint(1, op_id);
  writer.field_uint(2, queue_id);
  writer.field_uint(3, buffer_id);
  writer.field_uint(4, offset);
  writer.field_uint(5, size);
  writer.field_bool(6, use_shared_memory);
  for (std::uint64_t wait : wait_op_ids) writer.field_uint(8, wait);
  if (trace_id != 0) {
    writer.field_uint(9, trace_id);
    writer.field_uint(10, parent_span);
  }
}

Status EnqueueReadReq::decode(Reader& reader, EnqueueReadReq& out) {
  reset_keeping_capacity(out);
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.op_id);
      case 2: return take_uint(reader, out.queue_id);
      case 3: return take_uint(reader, out.buffer_id);
      case 4: return take_uint(reader, out.offset);
      case 5: return take_uint(reader, out.size);
      case 6: return take_bool(reader, out.use_shared_memory);
      case 9: return take_uint(reader, out.trace_id);
      case 10: return take_uint(reader, out.parent_span);
      case 8: return append_uint(reader, out.wait_op_ids);
      default: return reader.skip(h.type);
    }
  });
}

void EnqueueKernelReq::encode(Writer& writer) const {
  writer.field_uint(1, op_id);
  writer.field_uint(2, queue_id);
  writer.field_uint(3, kernel_id);
  for (const KernelArgMsg& arg : args) {
    Writer arg_writer;
    arg.encode(arg_writer);
    writer.field_bytes(4, ByteSpan{arg_writer.bytes()});
  }
  writer.field_uint(5, global_size[0]);
  writer.field_uint(6, global_size[1]);
  writer.field_uint(7, global_size[2]);
  for (std::uint64_t wait : wait_op_ids) writer.field_uint(8, wait);
  if (trace_id != 0) {
    writer.field_uint(9, trace_id);
    writer.field_uint(10, parent_span);
  }
}

Status EnqueueKernelReq::decode(Reader& reader, EnqueueKernelReq& out) {
  reset_keeping_capacity(out);
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.op_id);
      case 2: return take_uint(reader, out.queue_id);
      case 3: return take_uint(reader, out.kernel_id);
      case 4: return take_message(reader, out.args.emplace_back());
      case 5: return take_uint(reader, out.global_size[0]);
      case 6: return take_uint(reader, out.global_size[1]);
      case 7: return take_uint(reader, out.global_size[2]);
      case 9: return take_uint(reader, out.trace_id);
      case 10: return take_uint(reader, out.parent_span);
      case 8: return append_uint(reader, out.wait_op_ids);
      default: return reader.skip(h.type);
    }
  });
}

void FlushReq::encode(Writer& writer) const {
  writer.field_uint(1, queue_id);
  if (deadline_ns != 0) {
    writer.field_uint(2, deadline_ns);
  }
}

Status FlushReq::decode(Reader& reader, FlushReq& out) {
  out = FlushReq{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.queue_id);
      case 2: return take_uint(reader, out.deadline_ns);
      default: return reader.skip(h.type);
    }
  });
}

void FinishReq::encode(Writer& writer) const {
  writer.field_uint(1, op_id);
  writer.field_uint(2, queue_id);
  if (deadline_ns != 0) {
    writer.field_uint(3, deadline_ns);
  }
}

Status FinishReq::decode(Reader& reader, FinishReq& out) {
  out = FinishReq{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.op_id);
      case 2: return take_uint(reader, out.queue_id);
      case 3: return take_uint(reader, out.deadline_ns);
      default: return reader.skip(h.type);
    }
  });
}

// --- Notifications -------------------------------------------------------------

void OpEnqueued::encode(Writer& writer) const {
  writer.field_uint(1, op_id);
}

Status OpEnqueued::decode(Reader& reader, OpEnqueued& out) {
  out = OpEnqueued{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.op_id);
      default: return reader.skip(h.type);
    }
  });
}

void OpComplete::encode(Writer& writer) const {
  writer.field_uint(1, op_id);
  Writer status_writer;
  status.encode(status_writer);
  writer.field_bytes(2, ByteSpan{status_writer.bytes()});
  writer.field_int(3, shm_slot);
  const ByteSpan payload = data_view.empty() ? ByteSpan{data} : data_view;
  if (!payload.empty()) writer.field_bytes(4, payload);
  writer.field_uint(5, size);
}

namespace {

// Shared field loop for OpComplete::decode / decode_view; `view` selects
// whether the payload field is copied or aliased.
Status decode_op_complete(Reader& reader, OpComplete& out, bool view) {
  out = OpComplete{};
  return decode_fields(reader, [&](Reader::FieldHeader h) -> Status {
    switch (h.field) {
      case 1: return take_uint(reader, out.op_id);
      case 2: return take_message(reader, out.status);
      case 3: return take_zigzag(reader, out.shm_slot);
      case 4: {
        if (!view) return take_bytes(reader, out.data);
        auto span = reader.read_bytes_view();
        if (!span.ok()) return span.status();
        out.data_view = span.value();
        return Status::Ok();
      }
      case 5: return take_uint(reader, out.size);
      default: return reader.skip(h.type);
    }
  });
}

}  // namespace

Status OpComplete::decode(Reader& reader, OpComplete& out) {
  return decode_op_complete(reader, out, /*view=*/false);
}

Result<OpComplete> OpComplete::decode_view(Reader& reader) {
  OpComplete out;
  if (Status s = decode_op_complete(reader, out, /*view=*/true); !s.ok()) {
    return s;
  }
  return out;
}

}  // namespace bf::proto
