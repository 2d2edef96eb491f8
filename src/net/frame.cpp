#include "net/frame.h"

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

tensor::ByteBuffer make_frame(FrameType type, const ByteWriter& body = {}) {
  ByteWriter out;
  out.reserve(kFrameHeaderBytes + body.size());
  out.u32(static_cast<std::uint32_t>(body.size()));
  out.u8(static_cast<std::uint8_t>(type));
  out.append(body.bytes().data(), body.size());
  return out.take();
}

/// The magic + version words every handshake body opens with.
ByteWriter handshake_body(std::uint32_t version = kProtocolVersion) {
  ByteWriter body;
  body.u32(kProtocolMagic);
  body.u32(version);
  return body;
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
  ByteWriter body = handshake_body();
  body.u64(hello.client_id);
  return make_frame(FrameType::kHello, body);
}

tensor::ByteBuffer encode_welcome(const Welcome& welcome) {
  ByteWriter body = handshake_body();
  body.u64(welcome.round);
  return make_frame(FrameType::kWelcome, body);
}

tensor::ByteBuffer encode_model(const fl::GlobalModelMessage& msg) {
  ByteWriter body;
  body.reserve(8 + msg.model_state.size());
  body.u64(msg.round);
  body.append(msg.model_state.data(), msg.model_state.size());
  return make_frame(FrameType::kModel, body);
}

tensor::ByteBuffer encode_update(const fl::ClientUpdateMessage& msg) {
  ByteWriter body;
  body.reserve(24 + msg.gradients.size());
  body.u64(msg.round);
  body.u64(msg.client_id);
  body.u64(msg.num_examples);
  body.append(msg.gradients.data(), msg.gradients.size());
  return make_frame(FrameType::kUpdate, body);
}

tensor::ByteBuffer encode_retry_after(std::uint64_t retry_after_ms) {
  ByteWriter body;
  body.u64(retry_after_ms);
  return make_frame(FrameType::kRetryAfter, body);
}

tensor::ByteBuffer encode_round_result(const RoundResult& result) {
  ByteWriter body;
  body.u64(result.round);
  body.u8(result.committed ? 1 : 0);
  return make_frame(FrameType::kRoundResult, body);
}

tensor::ByteBuffer encode_goodbye() { return make_frame(FrameType::kGoodbye); }

tensor::ByteBuffer encode_resume(const Resume& resume) {
  ByteWriter body = handshake_body();
  body.u64(resume.client_id);
  body.u64(resume.last_round);
  body.u8(resume.has_update ? 1 : 0);
  body.u64(resume.update_round);
  return make_frame(FrameType::kResume, body);
}

tensor::ByteBuffer encode_resume_ack(const ResumeAck& ack) {
  ByteWriter body = handshake_body();
  body.u64(ack.round);
  body.u8(static_cast<std::uint8_t>(ack.status));
  return make_frame(FrameType::kResumeAck, body);
}

tensor::ByteBuffer encode_heartbeat() {
  return make_frame(FrameType::kHeartbeat);
}

tensor::ByteBuffer encode_version_reject(const VersionReject& reject) {
  return make_frame(FrameType::kVersionReject,
                    handshake_body(reject.supported_version));
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
