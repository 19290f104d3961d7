#include "net/frame.hpp"

#include <algorithm>
#include <optional>

namespace naplet::net {

util::Status write_frame(Stream& stream, util::ByteSpan payload) {
  return write_frame_vectored(stream, std::span<const util::ByteSpan>(
                                          &payload, 1));
}

util::Status write_frame_vectored(Stream& stream,
                                  std::span<const util::ByteSpan> parts) {
  if (parts.size() > kMaxVectoredParts) {
    return util::InvalidArgument("too many frame parts: " +
                                 std::to_string(parts.size()));
  }
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  if (total > kMaxFrameSize) {
    return util::InvalidArgument("frame too large: " + std::to_string(total));
  }
  std::uint8_t header[4];
  header[0] = static_cast<std::uint8_t>(total >> 24);
  header[1] = static_cast<std::uint8_t>(total >> 16);
  header[2] = static_cast<std::uint8_t>(total >> 8);
  header[3] = static_cast<std::uint8_t>(total);

  util::ByteSpan bufs[kMaxVectoredParts + 1];
  bufs[0] = util::ByteSpan(header, sizeof header);
  std::size_t n = 1;
  for (const auto& part : parts) {
    if (!part.empty()) bufs[n++] = part;
  }
  return stream.write_all_vectored(std::span<const util::ByteSpan>(bufs, n));
}

namespace {

// First buffer size for a frame's payload; it doubles as bytes arrive.
constexpr std::size_t kFrameReadChunk = 16 * 1024;

// Reads up to `max` bytes, giving up at `deadline_us` (RealClock) when one
// is set.
util::StatusOr<std::size_t> read_some_until(
    Stream& stream, std::uint8_t* out, std::size_t max,
    std::optional<std::int64_t> deadline_us) {
  if (!deadline_us) return stream.read_some(out, max);
  const std::int64_t left = *deadline_us - util::RealClock::instance().now_us();
  if (left <= 0) return util::Timeout("frame read deadline passed");
  return stream.read_some_for(out, max, util::us(left));
}

util::Status read_exact_until(Stream& stream, std::uint8_t* out,
                              std::size_t n,
                              std::optional<std::int64_t> deadline_us) {
  std::size_t got = 0;
  while (got < n) {
    auto r = read_some_until(stream, out + got, n - got, deadline_us);
    if (!r.ok()) return r.status();
    if (*r == 0) {
      return util::IoError("stream closed mid-read (" + std::to_string(got) +
                           "/" + std::to_string(n) + " bytes)");
    }
    got += *r;
  }
  return util::OkStatus();
}

util::StatusOr<util::Bytes> read_frame_until(
    Stream& stream, std::optional<std::int64_t> deadline_us) {
  std::uint8_t len_bytes[4];
  // First byte may hit a clean EOF (peer closed between frames).
  auto first = read_some_until(stream, len_bytes, 1, deadline_us);
  if (!first.ok()) return first.status();
  if (*first == 0) return util::Unavailable("stream closed");
  NAPLET_RETURN_IF_ERROR(
      read_exact_until(stream, len_bytes + 1, 3, deadline_us));

  std::uint32_t len = 0;
  for (std::uint8_t b : len_bytes) len = len << 8 | b;
  if (len > kMaxFrameSize) {
    return util::ProtocolError("frame length " + std::to_string(len) +
                               " exceeds limit");
  }
  // The prefix is the peer's claim, not a promise: grow the buffer as the
  // bytes arrive, so a 4-byte prefix announcing 64 MiB costs one chunk.
  util::Bytes payload;
  while (payload.size() < len) {
    const std::size_t got = payload.size();
    payload.resize(std::min<std::size_t>(
        len, std::max(kFrameReadChunk, 2 * got)));
    NAPLET_RETURN_IF_ERROR(read_exact_until(stream, payload.data() + got,
                                            payload.size() - got,
                                            deadline_us));
  }
  return payload;
}

}  // namespace

util::Status read_exact(Stream& stream, std::uint8_t* out, std::size_t n) {
  return read_exact_until(stream, out, n, std::nullopt);
}

util::StatusOr<util::Bytes> read_frame(Stream& stream) {
  return read_frame_until(stream, std::nullopt);
}

util::StatusOr<util::Bytes> read_frame_for(Stream& stream,
                                           util::Duration timeout) {
  return read_frame_until(
      stream, util::RealClock::instance().now_us() + timeout.count());
}

}  // namespace naplet::net
