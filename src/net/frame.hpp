// Length-prefixed message framing over a Stream.
//
// NapletSocket data messages and handoff/control exchanges over TCP use a
// u32 big-endian length prefix. A maximum frame size guards against
// corrupted prefixes taking down a server.
#pragma once

#include "net/transport.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace naplet::net {

inline constexpr std::size_t kMaxFrameSize = 64 * 1024 * 1024;

/// Read exactly n bytes (blocking); kIoError/kUnavailable on EOF mid-frame.
util::Status read_exact(Stream& stream, std::uint8_t* out, std::size_t n);

/// Write one length-prefixed frame.
util::Status write_frame(Stream& stream, util::ByteSpan payload);

/// Write one length-prefixed frame whose payload is the concatenation of
/// `parts`, as a single gather-write: the u32 prefix is encoded into a
/// stack buffer and handed to Stream::write_all_vectored together with the
/// caller's spans, so the payload is never copied and the frame goes out
/// in one transport operation. At most kMaxVectoredParts payload spans.
inline constexpr std::size_t kMaxVectoredParts = 7;
util::Status write_frame_vectored(Stream& stream,
                                  std::span<const util::ByteSpan> parts);

/// Read one length-prefixed frame. Returns kUnavailable on clean EOF at a
/// frame boundary (peer closed), kIoError on mid-frame EOF. The payload
/// buffer grows as bytes arrive, so a prefix alone allocates little.
util::StatusOr<util::Bytes> read_frame(Stream& stream);

/// read_frame that gives up with kTimeout once `timeout` has passed since
/// the call, however the bytes trickle in.
util::StatusOr<util::Bytes> read_frame_for(Stream& stream,
                                           util::Duration timeout);

/// How long a server waits for a freshly accepted stream's first frame.
/// A well-behaved client writes it right after connect(), so it gets the
/// same 1 s a resume allows for its redirector connect; a silent or
/// trickling client loses its stream instead of holding a thread.
inline constexpr util::Duration kFirstFrameTimeout = std::chrono::seconds(1);

}  // namespace naplet::net
