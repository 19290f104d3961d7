#include "core/wire.hpp"

#include "crypto/hmac.hpp"

namespace naplet::nsock {

namespace {

// The MAC decision for both tagged records lives here: the tag covers the
// bytes of persist_covered(), and the wire form is those bytes plus the
// tag. A writing archive only reads the fields it visits, so the const
// record is safe to walk.
template <typename Msg>
util::Bytes covered_bytes(const Msg& msg) {
  util::Archive ar;
  const_cast<Msg&>(msg).persist_covered(ar);
  return std::move(ar).take_bytes();
}

template <typename Msg>
util::Bytes seal_record(Msg& msg, util::ByteSpan session_key) {
  util::Archive ar;
  msg.persist_covered(ar);
  msg.mac = compute_mac(session_key, ar.bytes());
  ar.field(msg.mac);
  return std::move(ar).take_bytes();
}

template <typename Msg>
bool verify_record(const Msg& msg, util::ByteSpan session_key) {
  if (session_key.empty()) return true;  // security disabled
  const util::Bytes payload = covered_bytes(msg);
  return verify_mac(session_key, payload, msg.mac);
}

bool valid_type(CtrlType type) {
  return type >= CtrlType::kConnect && type <= CtrlType::kHeartbeat;
}

bool valid_type(HandoffType type) {
  return type >= HandoffType::kAttach && type <= HandoffType::kError;
}

template <typename Msg>
util::StatusOr<Msg> decode_record(util::ByteSpan data, const char* what) {
  Msg msg;
  NAPLET_RETURN_IF_ERROR(util::Archive::decode(data, msg));
  if (!valid_type(msg.type)) {
    return util::ProtocolError(
        std::string("bad ") + what + " type " +
        std::to_string(static_cast<std::uint8_t>(msg.type)));
  }
  return msg;
}

}  // namespace

std::string_view to_string(CtrlType type) noexcept {
  switch (type) {
    case CtrlType::kConnect: return "CONNECT";
    case CtrlType::kConnectAck: return "CONNECT_ACK";
    case CtrlType::kConnectReject: return "CONNECT_REJECT";
    case CtrlType::kSus: return "SUS";
    case CtrlType::kSusAck: return "SUS_ACK";
    case CtrlType::kAckWait: return "ACK_WAIT";
    case CtrlType::kSusRes: return "SUS_RES";
    case CtrlType::kSusResAck: return "SUS_RES_ACK";
    case CtrlType::kCls: return "CLS";
    case CtrlType::kClsAck: return "CLS_ACK";
    case CtrlType::kReject: return "REJECT";
    case CtrlType::kHeartbeat: return "HEARTBEAT";
  }
  return "?";
}

std::string_view to_string(HandoffType type) noexcept {
  switch (type) {
    case HandoffType::kAttach: return "ATTACH";
    case HandoffType::kAttachOk: return "ATTACH_OK";
    case HandoffType::kResume: return "RESUME";
    case HandoffType::kResumeOk: return "RESUME_OK";
    case HandoffType::kResumeWait: return "RESUME_WAIT";
    case HandoffType::kError: return "ERROR";
  }
  return "?";
}

util::Bytes CtrlMsg::mac_payload() const { return covered_bytes(*this); }

util::Bytes CtrlMsg::encode() const { return util::Archive::encode(*this); }

util::StatusOr<CtrlMsg> CtrlMsg::decode(util::ByteSpan data) {
  return decode_record<CtrlMsg>(data, "ctrl");
}

util::Bytes CtrlMsg::seal(util::ByteSpan session_key) {
  return seal_record(*this, session_key);
}

bool CtrlMsg::verify(util::ByteSpan session_key) const {
  return verify_record(*this, session_key);
}

util::Bytes HandoffMsg::mac_payload() const { return covered_bytes(*this); }

util::Bytes HandoffMsg::encode() const { return util::Archive::encode(*this); }

util::StatusOr<HandoffMsg> HandoffMsg::decode(util::ByteSpan data) {
  return decode_record<HandoffMsg>(data, "handoff");
}

util::Bytes HandoffMsg::seal(util::ByteSpan session_key) {
  return seal_record(*this, session_key);
}

bool HandoffMsg::verify(util::ByteSpan session_key) const {
  return verify_record(*this, session_key);
}

util::Bytes BatchHandoffMsg::encode() const {
  return util::Archive::encode(*this);
}

util::StatusOr<BatchHandoffMsg> BatchHandoffMsg::decode(util::ByteSpan data) {
  if (data.empty() || data[0] != kBatchHandoffMagic) {
    return util::ProtocolError("bad batch handoff magic");
  }
  BatchHandoffMsg msg;
  NAPLET_RETURN_IF_ERROR(util::Archive::decode(data, msg));
  for (const HandoffMsg& entry : msg.entries) {
    if (!valid_type(entry.type)) {
      return util::ProtocolError(
          "bad batch entry type " +
          std::to_string(static_cast<std::uint8_t>(entry.type)));
    }
  }
  return msg;
}

util::Bytes BatchHandoffReply::encode() const {
  return util::Archive::encode(*this);
}

util::StatusOr<BatchHandoffReply> BatchHandoffReply::decode(
    util::ByteSpan data) {
  BatchHandoffReply reply;
  NAPLET_RETURN_IF_ERROR(util::Archive::decode(data, reply));
  return reply;
}

util::Bytes compute_mac(util::ByteSpan session_key, util::ByteSpan payload) {
  if (session_key.empty()) return {};
  const crypto::Sha256Digest tag = crypto::hmac_sha256(session_key, payload);
  return util::Bytes(tag.begin(), tag.end());
}

bool verify_mac(util::ByteSpan session_key, util::ByteSpan payload,
                util::ByteSpan tag) {
  if (session_key.empty()) return true;  // security disabled
  return crypto::hmac_sha256_verify(session_key, payload, tag);
}

util::Bytes DataFrame::encode() const {
  util::BytesWriter w(body.size() + 8);
  w.u64(seq);
  w.raw(util::ByteSpan(body.data(), body.size()));
  return std::move(w).take();
}

util::StatusOr<DataFrame> DataFrame::decode(util::ByteSpan data) {
  util::BytesReader r(data);
  auto seq = r.u64();
  if (!seq.ok()) return seq.status();
  auto body = r.raw(r.remaining());
  if (!body.ok()) return body.status();
  return DataFrame{*seq, std::move(*body)};
}

}  // namespace naplet::nsock
