// Networked directory service: the agent location service (paper §2.1)
// served over TCP, so agent servers on different machines — or different
// processes — can share one directory, matching the paper's testbed shape
// (a well-known naming host) instead of the in-process registry.
//
//   host A                    directory host              host B
//   RemoteLocationService ──► DirectoryServer ◄── RemoteLocationService
//                             (wraps a LocationService)
//
// The wire protocol is one request/response frame pair per operation over
// a fresh connection (simple and stateless; a lookup with a timeout holds
// its connection while it blocks). Not a consensus system: the directory
// is a single authority, exactly like the paper's location service.
#pragma once

#include <atomic>
#include <memory>

#include "agent/location.hpp"
#include "net/stream_server.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace naplet::agent {

/// Serves a LocationService over a TCP listener.
///
/// Observability: every request is counted (`directory_requests`, split
/// into `directory_lookups` / `directory_mutations`), timed end to end
/// (`directory_op_us`), and tracked while being served
/// (`directory_inflight` gauge) — the numbers a caching tier's load
/// reduction is judged against.
class DirectoryServer {
 public:
  DirectoryServer(net::NetworkPtr network, LocationService& backing,
                  std::uint16_t port = 0,
                  obs::Registry* registry = nullptr);
  ~DirectoryServer();

  DirectoryServer(const DirectoryServer&) = delete;
  DirectoryServer& operator=(const DirectoryServer&) = delete;

  util::Status start();
  void stop();

  [[nodiscard]] net::Endpoint endpoint() const;
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_served_.load();
  }

 private:
  // Both run on the server worker that accepted `stream`.
  void serve(const std::shared_ptr<net::Stream>& stream,
             const util::StatusOr<util::Bytes>& request);
  void serve_request(const std::shared_ptr<net::Stream>& stream,
                     const util::StatusOr<util::Bytes>& request);

  net::NetworkPtr network_;
  LocationService& backing_;
  std::uint16_t port_;
  obs::Registry& registry_;
  obs::Counter& requests_total_;
  obs::Counter& lookups_total_;
  obs::Counter& mutations_total_;
  obs::Gauge& inflight_;
  obs::Histogram& op_latency_;
  std::atomic<std::uint64_t> requests_served_{0};
  // Last member: its workers call serve() and touch everything above.
  net::StreamServer server_;
};

/// LocationService client backed by a DirectoryServer. Drop-in for the
/// in-process registry: AgentServer and SocketController only see the
/// LocationService interface.
class RemoteLocationService final : public LocationService {
 public:
  RemoteLocationService(net::NetworkPtr network, net::Endpoint directory);

  void register_agent(const AgentId& id, const NodeInfo& node) override;
  void begin_migration(const AgentId& id) override;
  void end_migration(const AgentId& id) override;
  void deregister_agent(const AgentId& id) override;
  [[nodiscard]] std::optional<NodeInfo> try_lookup(
      const AgentId& id) const override;
  [[nodiscard]] util::StatusOr<NodeInfo> lookup(
      const AgentId& id, util::Duration timeout) const override;
  [[nodiscard]] bool known(const AgentId& id) const override;
  /// Remote poll: the directory protocol has no push channel, so this
  /// re-queries known() with escalating pacing until gone or timeout.
  [[nodiscard]] bool wait_gone(const AgentId& id,
                               util::Duration timeout) const override;
  [[nodiscard]] std::size_t size() const override;

  void register_server(const NodeInfo& node) override;
  void deregister_server(const std::string& server_name) override;
  [[nodiscard]] util::StatusOr<NodeInfo> lookup_server(
      const std::string& server_name) const override;

  /// Errors from the most recent failed round trip (mutating calls return
  /// void per the interface; failures are recorded here and logged).
  [[nodiscard]] util::Status last_error() const;

 private:
  util::StatusOr<util::Bytes> round_trip(util::ByteSpan request,
                                         util::Duration extra_wait = {}) const;
  void record_error(const util::Status& status) const;

  net::NetworkPtr network_;
  net::Endpoint directory_;
  mutable std::mutex error_mu_;
  mutable util::Status last_error_;
};

}  // namespace naplet::agent
