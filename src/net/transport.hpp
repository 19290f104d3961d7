// Transport abstraction: reliable ordered byte streams (TCP-like), datagram
// sockets (UDP-like), and a Network factory. Two backends implement these
// interfaces — TcpNetwork (POSIX sockets) and SimNetwork (in-process, with
// latency/loss injection) — so the NapletSocket protocol code is testable
// deterministically and runnable on real sockets unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "net/endpoint.hpp"
#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace naplet::net {

/// Reliable, ordered, bidirectional byte stream (a connected TCP socket).
class Stream {
 public:
  virtual ~Stream() = default;

  /// Blocking read of up to `max` bytes; returns 0 on orderly peer shutdown.
  virtual util::StatusOr<std::size_t> read_some(std::uint8_t* out,
                                                std::size_t max) = 0;

  /// Like read_some but gives up after `timeout` with StatusCode::kTimeout.
  virtual util::StatusOr<std::size_t> read_some_for(std::uint8_t* out,
                                                    std::size_t max,
                                                    util::Duration timeout) = 0;

  /// Write the entire span (blocking).
  virtual util::Status write_all(util::ByteSpan data) = 0;

  /// Gather-write: transmit the concatenation of `parts` as one contiguous
  /// byte sequence. Backends override this to avoid materializing the
  /// concatenation — TcpStream issues a single writev(2), SimStream
  /// enqueues one chunk — which is what lets the session layer frame a
  /// message (header + caller's payload) with zero intermediate copies.
  /// The default writes the parts back to back (correct, not zero-copy).
  virtual util::Status write_all_vectored(
      std::span<const util::ByteSpan> parts) {
    for (const auto& part : parts) {
      if (part.empty()) continue;
      auto st = write_all(part);
      if (!st.ok()) return st;
    }
    return util::OkStatus();
  }

  /// Drain any bytes already received and buffered, without blocking.
  /// This is what suspend() uses to capture in-flight data (paper §3.1).
  virtual util::StatusOr<util::Bytes> drain_pending() = 0;

  /// Close both directions; further reads/writes fail.
  virtual void close() = 0;

  [[nodiscard]] virtual Endpoint local_endpoint() const = 0;
  [[nodiscard]] virtual Endpoint remote_endpoint() const = 0;
};

using StreamPtr = std::unique_ptr<Stream>;

/// Passive listening socket.
class Listener {
 public:
  virtual ~Listener() = default;

  /// Accept one connection; blocks up to `timeout` (nullopt = forever).
  virtual util::StatusOr<StreamPtr> accept(
      std::optional<util::Duration> timeout) = 0;

  [[nodiscard]] virtual Endpoint local_endpoint() const = 0;

  /// Close; pending and future accepts fail with kCancelled.
  virtual void close() = 0;
};

using ListenerPtr = std::unique_ptr<Listener>;

/// Unreliable datagram socket (UDP). The control channel's reliability
/// layer (rudp) sits on top of this.
class Datagram {
 public:
  virtual ~Datagram() = default;

  virtual util::Status send_to(const Endpoint& dest, util::ByteSpan data) = 0;

  struct Packet {
    Endpoint from;
    util::Bytes data;
  };
  /// Receive one datagram; kTimeout after `timeout`, kCancelled if closed.
  virtual util::StatusOr<Packet> recv_for(util::Duration timeout) = 0;

  [[nodiscard]] virtual Endpoint local_endpoint() const = 0;
  virtual void close() = 0;
};

using DatagramPtr = std::unique_ptr<Datagram>;

/// Fabric-level fault counters, surfaced so operator stats can attribute
/// recoveries to concrete network events. Backends without fault modeling
/// (TcpNetwork) report zeros.
struct NetworkCounters {
  std::uint64_t datagrams_dropped = 0;  ///< lost to loss probability/partition
  std::uint64_t partition_events = 0;   ///< set_partition(.., true) calls
  std::uint64_t partitions_active = 0;  ///< node pairs currently partitioned
  std::uint64_t streams_severed = 0;    ///< streams force-closed by the fabric
};

/// Factory for streams/listeners/datagram sockets on one host ("node").
class Network {
 public:
  virtual ~Network() = default;

  /// Listen on `port` (0 = auto-assign).
  virtual util::StatusOr<ListenerPtr> listen(std::uint16_t port) = 0;

  /// Connect to a remote listener.
  virtual util::StatusOr<StreamPtr> connect(const Endpoint& dest,
                                            util::Duration timeout) = 0;

  /// Bind a datagram socket on `port` (0 = auto-assign).
  virtual util::StatusOr<DatagramPtr> bind_datagram(std::uint16_t port) = 0;

  /// Address other nodes should use to reach this network's sockets.
  [[nodiscard]] virtual std::string local_host() const = 0;

  /// Fault counters for the fabric this node is attached to.
  [[nodiscard]] virtual NetworkCounters counters() const { return {}; }
};

using NetworkPtr = std::shared_ptr<Network>;

}  // namespace naplet::net
