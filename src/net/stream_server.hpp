// StreamServer: accept streams on a listener and serve each one on a
// pooled worker thread, leader/followers style.
//
// Exactly one worker (the leader) holds the accept role and blocks in
// accept(). The worker that accepts a stream passes the role to the most
// recently parked follower, starting a new worker only when none is
// parked, and then serves the stream itself: it reads the first frame
// under kFirstFrameTimeout and runs the handler. When the handler returns
// the worker parks as a follower again. So every stream still has a thread
// of its own for as long as its handler runs, but a steady stream of short
// exchanges reuses two threads instead of starting one per stream, and the
// handler starts on the thread that accepted.
//
// Followers are woken last-in first-out, so under light load the oldest
// ones stay untouched: a follower parked for kIdleExit leaves the pool
// unless it is the only one. stop() closes the listener, closes streams
// still waiting for their first frame, wakes the followers and joins every
// worker; it waits for running handlers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "net/transport.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::net {

class StreamServer {
 public:
  /// Runs on the worker that accepted `stream`. `first_frame` is the
  /// stream's first length-prefixed frame, or why it could not be read
  /// (EOF, malformed prefix, kTimeout, or stop()). The handler owns the
  /// stream from here on and must close it when done.
  using Handler = std::function<void(std::shared_ptr<Stream> stream,
                                     util::StatusOr<util::Bytes> first_frame)>;

  /// A follower exits after this long without being called, unless it is
  /// the only one.
  static constexpr util::Duration kIdleExit = std::chrono::seconds(1);

  explicit StreamServer(Handler handler);
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Take ownership of `listener` and start the first worker.
  void start(ListenerPtr listener);
  void stop();

  [[nodiscard]] Endpoint endpoint() const;

  /// Worker threads started since construction.
  [[nodiscard]] std::uint64_t threads_started() const {
    return threads_started_.load();
  }
  /// Worker threads currently alive (leader, busy and idle).
  [[nodiscard]] std::size_t workers() const;
  /// Followers parked waiting for the accept role (not yet called).
  [[nodiscard]] std::size_t idle_workers() const;

 private:
  // The leader re-checks for stop() this often while accept() is quiet.
  static constexpr util::Duration kAcceptTick = std::chrono::milliseconds(200);

  // A parked worker, on its own stack; the leader calls the newest one.
  struct Follower {
    util::CondVar cv;
    bool called = false;  // guarded by mu_: the accept role is now ours
  };

  // Entered holding the accept role.
  void run();
  // Parks the caller as a follower; true once it is called to lead, false
  // when it should leave the pool instead.
  bool park() NAPLET_REQUIRES(mu_);
  void spawn_worker() NAPLET_REQUIRES(mu_);
  std::vector<std::thread> take_exited() NAPLET_REQUIRES(mu_);

  Handler handler_ NAPLET_NOT_GUARDED(
      "set at construction, immutable while workers run");
  ListenerPtr listener_ NAPLET_NOT_GUARDED(
      "set in start() before the first worker; Listener is internally "
      "synchronized");

  mutable util::Mutex mu_{util::LockRank::kStreamServer, "stream_server"};
  bool stopping_ NAPLET_GUARDED_BY(mu_) = false;  // stop() was called
  // No worker will accept again: stop() was called or accept() failed.
  bool closed_ NAPLET_GUARDED_BY(mu_) = false;
  std::vector<Follower*> followers_ NAPLET_GUARDED_BY(mu_);  // oldest first
  std::vector<std::thread> threads_ NAPLET_GUARDED_BY(mu_);
  // Workers that left run(); the next spawn or stop() joins them.
  std::vector<std::thread::id> exited_ NAPLET_GUARDED_BY(mu_);
  // Streams whose first frame is still being read; stop() closes them.
  std::vector<Stream*> awaiting_ NAPLET_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> threads_started_{0};
};

}  // namespace naplet::net
