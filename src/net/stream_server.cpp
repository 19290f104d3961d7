#include "net/stream_server.hpp"

#include <algorithm>
#include <utility>

#include "net/frame.hpp"

namespace naplet::net {

StreamServer::StreamServer(Handler handler) : handler_(std::move(handler)) {}

StreamServer::~StreamServer() { stop(); }

void StreamServer::start(ListenerPtr listener) {
  listener_ = std::move(listener);
  util::MutexLock lock(mu_);
  spawn_worker();
}

void StreamServer::stop() {
  {
    util::MutexLock lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    closed_ = true;
    for (Stream* stream : awaiting_) stream->close();
    for (Follower* f : followers_) f->cv.notify_one();
  }
  if (listener_) listener_->close();
  // No worker starts once closed_ is set, so this is every one of them.
  std::vector<std::thread> threads;
  {
    util::MutexLock lock(mu_);
    threads = std::exchange(threads_, {});
    exited_.clear();
  }
  for (auto& t : threads) t.join();
}

Endpoint StreamServer::endpoint() const {
  return listener_ ? listener_->local_endpoint() : Endpoint{};
}

std::size_t StreamServer::workers() const {
  util::MutexLock lock(mu_);
  return threads_.size() - exited_.size();
}

std::size_t StreamServer::idle_workers() const {
  util::MutexLock lock(mu_);
  return followers_.size();
}

void StreamServer::spawn_worker() {
  threads_.emplace_back(&StreamServer::run, this);
  threads_started_.fetch_add(1);
}

std::vector<std::thread> StreamServer::take_exited() {
  std::vector<std::thread> done;
  for (const std::thread::id id : exited_) {
    auto it = std::find_if(threads_.begin(), threads_.end(),
                           [id](const std::thread& t) {
                             return t.get_id() == id;
                           });
    done.push_back(std::move(*it));
    threads_.erase(it);
  }
  exited_.clear();
  return done;
}

bool StreamServer::park() {
  Follower self;
  followers_.push_back(&self);
  while (!self.called && !closed_) {
    const bool timed_out =
        self.cv.wait_for(mu_, kIdleExit) == std::cv_status::timeout;
    // Followers are called newest first, so one that waited a whole
    // kIdleExit is more than the load needs; the last one always stays.
    if (timed_out && !self.called && followers_.size() > 1) break;
  }
  if (self.called) return true;  // the caller already took us off the list
  followers_.erase(std::find(followers_.begin(), followers_.end(), &self));
  return false;
}

void StreamServer::run() {
  util::UniqueMutexLock lock(mu_);
  do {
    // Leader: accept one stream.
    util::StatusOr<StreamPtr> accepted = util::Cancelled("stopped");
    while (!closed_) {
      lock.unlock();
      accepted = listener_->accept(kAcceptTick);
      lock.lock();
      if (accepted.ok() ||
          accepted.status().code() != util::StatusCode::kTimeout) {
        break;
      }
    }
    if (closed_ || !accepted.ok()) {
      // Stopped, or the listener failed: the followers leave too.
      if (accepted.ok()) (*accepted)->close();
      closed_ = true;
      for (Follower* f : followers_) f->cv.notify_one();
      break;
    }

    // Pass the accept role on before serving, so the next connection
    // never waits for this handler.
    std::vector<std::thread> reaped;
    if (!followers_.empty()) {
      Follower* next = followers_.back();
      followers_.pop_back();
      next->called = true;
      next->cv.notify_one();
    } else {
      reaped = take_exited();
      spawn_worker();
    }
    std::shared_ptr<Stream> stream(std::move(*accepted));
    awaiting_.push_back(stream.get());
    lock.unlock();

    for (auto& t : reaped) t.join();
    util::StatusOr<util::Bytes> first =
        read_frame_for(*stream, kFirstFrameTimeout);
    lock.lock();
    awaiting_.erase(
        std::find(awaiting_.begin(), awaiting_.end(), stream.get()));
    lock.unlock();
    handler_(std::move(stream), std::move(first));
    lock.lock();
  } while (park());
  // After stop() nobody reaps: it joins every thread it took.
  if (!stopping_) exited_.push_back(std::this_thread::get_id());
}

}  // namespace naplet::net
