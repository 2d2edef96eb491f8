#include "net/frame.h"

#include <cstring>

namespace oasis::net {
namespace {

using common::ByteReader;
using common::ByteWriter;

/// A reader over one frame body: a short body or a trailing byte is
/// NetError{kMalformedFrame}.
ByteReader body_reader(const tensor::ByteBuffer& body, const char* what) {
  return ByteReader(body, [what](const std::string& why) {
    throw NetError(NetError::Reason::kMalformedFrame,
                   std::string(what) + " frame body " + why);
  });
}

/// Starts a frame: the 5-byte header with a zero length that finish_frame()
/// patches, so the body is written once, straight into the frame's buffer.
ByteWriter begin_frame(FrameType type, std::size_t body_bytes = 0) {
  ByteWriter out;
  out.reserve(kFrameHeaderBytes + body_bytes);
  out.u32(0);
  out.u8(static_cast<std::uint8_t>(type));
  return out;
}

tensor::ByteBuffer finish_frame(ByteWriter out) {
  tensor::ByteBuffer frame = out.take();
  const auto body_len =
      static_cast<std::uint32_t>(frame.size() - kFrameHeaderBytes);
  std::memcpy(frame.data(), &body_len, sizeof(body_len));
  return frame;
}

/// A handshake frame opened with the magic + version words every handshake
/// body starts with.
ByteWriter begin_handshake(FrameType type,
                           std::uint32_t version = kProtocolVersion) {
  ByteWriter out = begin_frame(type);
  out.u32(kProtocolMagic);
  out.u32(version);
  return out;
}

void check_magic(ByteReader& r, const char* what) {
  const std::uint32_t magic = r.u32();
  if (magic != kProtocolMagic) {
    throw NetError(NetError::Reason::kBadMagic,
                   std::string(what) + " frame magic " + std::to_string(magic));
  }
  const std::uint32_t version = r.u32();
  if (version != kProtocolVersion) {
    throw NetError(NetError::Reason::kBadVersion,
                   std::string(what) + " frame speaks protocol version " +
                       std::to_string(version) + ", expected " +
                       std::to_string(kProtocolVersion));
  }
}

}  // namespace

bool frame_type_known(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kVersionReject);
}

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kHello: return "hello";
    case FrameType::kWelcome: return "welcome";
    case FrameType::kModel: return "model";
    case FrameType::kUpdate: return "update";
    case FrameType::kRetryAfter: return "retry_after";
    case FrameType::kRoundResult: return "round_result";
    case FrameType::kGoodbye: return "goodbye";
    case FrameType::kResume: return "resume";
    case FrameType::kResumeAck: return "resume_ack";
    case FrameType::kHeartbeat: return "heartbeat";
    case FrameType::kVersionReject: return "version_reject";
  }
  return "unknown";
}

tensor::ByteBuffer encode_hello(const Hello& hello) {
  ByteWriter out = begin_handshake(FrameType::kHello);
  out.u64(hello.client_id);
  return finish_frame(std::move(out));
}

tensor::ByteBuffer encode_welcome(const Welcome& welcome) {
  ByteWriter out = begin_handshake(FrameType::kWelcome);
  out.u64(welcome.round);
  return finish_frame(std::move(out));
}

tensor::ByteBuffer encode_model(const fl::GlobalModelMessage& msg) {
  ByteWriter out = begin_frame(FrameType::kModel, 8 + msg.model_state.size());
  out.u64(msg.round);
  out.append(msg.model_state.data(), msg.model_state.size());
  return finish_frame(std::move(out));
}

tensor::ByteBuffer encode_update(const fl::ClientUpdateMessage& msg) {
  ByteWriter out = begin_frame(FrameType::kUpdate, 24 + msg.gradients.size());
  out.u64(msg.round);
  out.u64(msg.client_id);
  out.u64(msg.num_examples);
  out.append(msg.gradients.data(), msg.gradients.size());
  return finish_frame(std::move(out));
}

tensor::ByteBuffer encode_retry_after(std::uint64_t retry_after_ms) {
  ByteWriter out = begin_frame(FrameType::kRetryAfter);
  out.u64(retry_after_ms);
  return finish_frame(std::move(out));
}

tensor::ByteBuffer encode_round_result(const RoundResult& result) {
  ByteWriter out = begin_frame(FrameType::kRoundResult);
  out.u64(result.round);
  out.u8(result.committed ? 1 : 0);
  return finish_frame(std::move(out));
}

tensor::ByteBuffer encode_goodbye() {
  return finish_frame(begin_frame(FrameType::kGoodbye));
}

tensor::ByteBuffer encode_resume(const Resume& resume) {
  ByteWriter out = begin_handshake(FrameType::kResume);
  out.u64(resume.client_id);
  out.u64(resume.last_round);
  out.u8(resume.has_update ? 1 : 0);
  out.u64(resume.update_round);
  return finish_frame(std::move(out));
}

tensor::ByteBuffer encode_resume_ack(const ResumeAck& ack) {
  ByteWriter out = begin_handshake(FrameType::kResumeAck);
  out.u64(ack.round);
  out.u8(static_cast<std::uint8_t>(ack.status));
  return finish_frame(std::move(out));
}

tensor::ByteBuffer encode_heartbeat() {
  return finish_frame(begin_frame(FrameType::kHeartbeat));
}

tensor::ByteBuffer encode_version_reject(const VersionReject& reject) {
  return finish_frame(
      begin_handshake(FrameType::kVersionReject, reject.supported_version));
}

Hello decode_hello(const tensor::ByteBuffer& body) {
  ByteReader r = body_reader(body, "hello");
  check_magic(r, "hello");
  Hello hello;
  hello.client_id = r.u64();
  r.expect_end();
  return hello;
}

Welcome decode_welcome(const tensor::ByteBuffer& body) {
  ByteReader r = body_reader(body, "welcome");
  check_magic(r, "welcome");
  Welcome welcome;
  welcome.round = r.u64();
  r.expect_end();
  return welcome;
}

fl::GlobalModelMessage decode_model(const tensor::ByteBuffer& body) {
  ByteReader r = body_reader(body, "model");
  fl::GlobalModelMessage msg;
  msg.round = r.u64();
  const auto state = r.rest();
  msg.model_state.assign(state.begin(), state.end());
  return msg;
}

fl::ClientUpdateMessage decode_update(const tensor::ByteBuffer& body) {
  ByteReader r = body_reader(body, "update");
  fl::ClientUpdateMessage msg;
  msg.round = r.u64();
  msg.client_id = r.u64();
  msg.num_examples = r.u64();
  const auto gradients = r.rest();
  msg.gradients.assign(gradients.begin(), gradients.end());
  return msg;
}

std::uint64_t decode_retry_after(const tensor::ByteBuffer& body) {
  ByteReader r = body_reader(body, "retry_after");
  const std::uint64_t ms = r.u64();
  r.expect_end();
  return ms;
}

RoundResult decode_round_result(const tensor::ByteBuffer& body) {
  ByteReader r = body_reader(body, "round_result");
  RoundResult result;
  result.round = r.u64();
  result.committed = r.u8() != 0;
  r.expect_end();
  return result;
}

Resume decode_resume(const tensor::ByteBuffer& body) {
  ByteReader r = body_reader(body, "resume");
  check_magic(r, "resume");
  Resume resume;
  resume.client_id = r.u64();
  resume.last_round = r.u64();
  resume.has_update = r.u8() != 0;
  resume.update_round = r.u64();
  r.expect_end();
  return resume;
}

ResumeAck decode_resume_ack(const tensor::ByteBuffer& body) {
  ByteReader r = body_reader(body, "resume_ack");
  check_magic(r, "resume_ack");
  ResumeAck ack;
  ack.round = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(ResumeStatus::kExpired)) {
    r.fail("status byte " + std::to_string(status));
  }
  ack.status = static_cast<ResumeStatus>(status);
  r.expect_end();
  return ack;
}

VersionReject decode_version_reject(const tensor::ByteBuffer& body) {
  ByteReader r = body_reader(body, "version_reject");
  const std::uint32_t magic = r.u32();
  if (magic != kProtocolMagic) {
    throw NetError(NetError::Reason::kBadMagic,
                   "version_reject frame magic " + std::to_string(magic));
  }
  VersionReject reject;
  reject.supported_version = r.u32();
  r.expect_end();
  return reject;
}

FrameDecoder::FrameDecoder(std::size_t max_body_bytes)
    : max_body_bytes_(max_body_bytes) {}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  // Compact once the consumed prefix dominates, so a long-lived connection
  // does not grow its buffer without bound.
  if (off_ > 0 && off_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off_));
    off_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> FrameDecoder::next() {
  if (buffered() < kFrameHeaderBytes) return std::nullopt;
  // The header is validated BEFORE waiting for (or allocating) the body, so
  // a hostile length prefix or garbage type byte is rejected from the first
  // five bytes alone. No read here can fail: the header is buffered and the
  // body is taken only once it is.
  ByteReader r(std::span<const std::uint8_t>(buf_).subspan(off_), nullptr);
  const std::uint32_t body_len = r.u32();
  if (body_len > max_body_bytes_) {
    throw NetError(NetError::Reason::kOversizedFrame,
                   "frame body of " + std::to_string(body_len) +
                       " bytes exceeds the " +
                       std::to_string(max_body_bytes_) + "-byte budget");
  }
  const std::uint8_t type = r.u8();
  if (!frame_type_known(type)) {
    throw NetError(NetError::Reason::kBadFrameType,
                   "unknown frame type byte " + std::to_string(type));
  }
  if (r.remaining() < body_len) return std::nullopt;
  const auto body = r.take(body_len);
  Frame frame{static_cast<FrameType>(type),
              tensor::ByteBuffer(body.begin(), body.end())};
  off_ += r.offset();
  return frame;
}

}  // namespace oasis::net
