// SocketController — suspension, resume, close, and the ConnectionMigrator
// hooks (paper §2.2 suspend/resume/close, §3.1 concurrent migration,
// §3.2 multiple connections). Split from controller.cpp for readability.
#include <algorithm>

#include "core/controller.hpp"
#include "crypto/random.hpp"
#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "util/log.hpp"

namespace naplet::nsock {

namespace {

constexpr util::Duration kRetrySleep = std::chrono::milliseconds(20);
constexpr util::Duration kStatePollSlice = std::chrono::milliseconds(50);
// Growth factor of the resume retry backoff.
constexpr double kResumeRetryMultiplier = 2.0;
// How long a parked suspend waits for the peer's migration to finish.
constexpr util::Duration kParkTimeout = std::chrono::seconds(30);

std::int64_t now_us() { return util::RealClock::instance().now_us(); }

}  // namespace

std::optional<Session::CtrlResponse> SocketController::wait_response(
    Session& session, std::initializer_list<CtrlType> want,
    util::Duration timeout) {
  const std::int64_t deadline = now_us() + timeout.count();
  for (;;) {
    const std::int64_t remaining = deadline - now_us();
    if (remaining <= 0) return std::nullopt;
    auto resp = session.responses().pop_for(util::us(remaining));
    if (!resp) return std::nullopt;
    for (CtrlType t : want) {
      if (resp->type == static_cast<std::uint8_t>(t)) return resp;
    }
    NAPLET_LOG(kDebug, "controller")
        << "conn " << session.conn_id() << ": discarding stale response type "
        << static_cast<int>(resp->type);
  }
}

// ===========================================================================
// Suspension — active side

util::Status SocketController::suspend(const SessionPtr& session) {
  if (session == nullptr) return util::InvalidArgument("null session");
  const ConnState st = session->state();
  if (st == ConnState::kEstablished) {
    if (!session->advance(ConnEvent::kAppSuspend, st).ok()) {
      // The peer's SUS landed since the read above; nothing was sent.
      return suspend(session);
    }
    return active_suspend(session);
  }
  if (st == ConnState::kSuspended || st == ConnState::kSuspendWait) {
    return suspend_for_migration(session, session->local_agent());
  }
  if (st == ConnState::kSusAcked) {
    // A passive suspension is mid-drain; wait for it to settle, then the
    // connection is suspended (remotely) and §3.2 rules apply.
    session->wait_state(
        [](ConnState s) { return s != ConnState::kSusAcked; },
        config_.ctrl_response_timeout);
    return suspend(session);
  }
  return util::FailedPrecondition(
      "cannot suspend from state " + std::string(to_string(st)));
}

util::Status SocketController::active_suspend(const SessionPtr& session) {
  // Mint this migration's trace id (| 1 so it can never be the "untraced"
  // zero); every span and protocol message of this round carries it.
  session->set_trace_id(crypto::random_u64() | 1);
  util::Stopwatch suspend_sw(util::RealClock::instance());
  // This is OUR suspension round: bookkeeping from any previous round is
  // obsolete. (Clearing here also closes a scheduling window where the
  // resume handler's own clear lands after this suspend has begun.)
  session->update_flags([](Session::Flags& f) {
    f.remote_suspended = false;
    f.peer_waiting_resume = false;
  });
  const std::uint64_t mark = session->freeze_writes_and_mark();

  CtrlMsg sus;
  sus.type = CtrlType::kSus;
  sus.conn_id = session->conn_id();
  sus.sent_seq = mark;
  // Best-effort: if the peer controller restarted since we last heard from
  // it, its control endpoint is stale and this send times out — the resend
  // loop below refreshes the location and tries again, so a send failure
  // here must not abort the suspension outright.
  if (auto st = send_session_ctrl(session->peer_node().control, sus, *session);
      !st.ok()) {
    NAPLET_LOG(kDebug, "controller")
        << "conn " << session->conn_id()
        << ": initial SUS send failed (" << st.to_string()
        << "); retrying via location refresh";
  }
  span(session->trace_id(), obs::SpanKind::kSuspendSent, *session, "SUS",
       mark);

  // Wait for the peer's reply while KEEPING OUR RECEIVE SIDE DRAINING:
  // the peer can only reply after freezing its writers, and one of those
  // writers may be blocked on TCP backpressure that only our reads can
  // relieve (the application reader is already parked on the state cell).
  // A REJECT means the peer's session is mid-transit (exported, not yet
  // imported at its destination): refresh the peer's location and resend.
  std::optional<Session::CtrlResponse> resp;
  {
    const std::int64_t now0 = util::RealClock::instance().now_us();
    const std::int64_t deadline = now0 + config_.ctrl_response_timeout.count();
    // Unprompted resend cadence: the peer controller may have crashed and
    // restarted at a new control endpoint, in which case no REJECT ever
    // arrives — periodically refresh its location and send the SUS again
    // (the peer's duplicate-SUS path re-acks harmlessly if both land).
    const std::int64_t resend_every = std::max<std::int64_t>(
        std::chrono::microseconds(std::chrono::milliseconds(250)).count(),
        config_.ctrl_response_timeout.count() / 4);
    std::int64_t next_resend = now0 + resend_every;
    while (util::RealClock::instance().now_us() < deadline) {
      resp = wait_response(
          *session,
          {CtrlType::kSusAck, CtrlType::kAckWait, CtrlType::kReject},
          std::chrono::milliseconds(20));
      if (resp &&
          resp->type == static_cast<std::uint8_t>(CtrlType::kReject)) {
        resp.reset();
        // Interruptible pause: stop() sets the event and this suspension
        // unwinds immediately instead of finishing its retry budget.
        if (stop_event_.wait_for(kRetrySleep)) {
          return util::Cancelled("controller stopping");
        }
        if (auto fresh =
                server_.locations().try_lookup(session->peer_agent())) {
          session->set_peer_node(*fresh);
        }
        (void)send_session_ctrl(session->peer_node().control, sus, *session);
        continue;
      }
      if (resp) break;
      if (util::RealClock::instance().now_us() >= next_resend) {
        next_resend = util::RealClock::instance().now_us() + resend_every;
        if (auto fresh =
                server_.locations().try_lookup(session->peer_agent())) {
          session->set_peer_node(*fresh);
        }
        // Bounded so a still-dead endpoint cannot eat the whole deadline.
        (void)send_session_ctrl(session->peer_node().control, sus, *session,
                                util::us(resend_every));
      }
      session->pump_available(std::chrono::milliseconds(20));
    }
  }
  if (!resp) {
    if (config_.suspend_rollback && session->has_stream() &&
        !session->is_broken()) {
      // The handshake died (peer controller crashed or SUS lost above the
      // reliability layer) but the data stream is healthy: roll back to
      // ESTABLISHED so the application keeps running; the caller retries
      // the migration once the peer recovers.
      (void)session->advance(ConnEvent::kSuspendAbort);
      return util::Timeout("no SUS response for conn " +
                           std::to_string(session->conn_id()) +
                           "; rolled back to ESTABLISHED");
    }
    // Peer unreachable: fail-safe local suspension (the FSM's timeout arc).
    (void)session->advance(ConnEvent::kTimeout);
    session->close_stream();
    return util::Timeout("no SUS response for conn " +
                         std::to_string(session->conn_id()));
  }

  // Both replies carry the peer's declared high-water mark: pull every
  // in-flight frame into the input buffer before closing the socket.
  util::Stopwatch drain_sw(util::RealClock::instance());
  auto drained = session->drain_to_mark(resp->sent_seq, config_.drain_timeout);
  session->close_stream();
  hist_drain_us_.record(obs::ms_to_us(drain_sw.elapsed_ms()));
  if (drained.ok()) {
    const std::uint64_t buffered = session->buffered_bytes();
    hist_replay_bytes_.record(buffered);
    span(session->trace_id(), obs::SpanKind::kDrainComplete, *session,
         "active", buffered);
  }

  if (resp->type == static_cast<std::uint8_t>(CtrlType::kSusAck)) {
    NAPLET_RETURN_IF_ERROR(session->advance(ConnEvent::kRecvSusAck));
    if (drained.ok()) {
      journal_commit(recovery::CommitPoint::kSuspendCommitted, session);
      hist_suspend_us_.record(obs::ms_to_us(suspend_sw.elapsed_ms()));
    }
    return drained;
  }

  // ACK_WAIT: overlapped concurrent migration and the peer outranks us
  // (paper Fig. 4(a), low-priority side). Park until its SUS_RES.
  NAPLET_RETURN_IF_ERROR(session->advance(ConnEvent::kRecvAckWait));
  session->update_flags([](Session::Flags& f) {
    f.local_suspend_parked = true;
  });
  const bool released = session->park_event().wait_for(kParkTimeout);
  session->park_event().reset();
  session->update_flags([](Session::Flags& f) {
    f.local_suspend_parked = false;
  });
  if (!drained.ok()) return drained;
  if (!released) {
    return util::Timeout("parked suspend not released for conn " +
                         std::to_string(session->conn_id()));
  }
  journal_commit(recovery::CommitPoint::kSuspendCommitted, session);
  hist_suspend_us_.record(obs::ms_to_us(suspend_sw.elapsed_ms()));
  return util::OkStatus();
}

// ===========================================================================
// Suspension — passive side (bus thread)

void SocketController::handle_sus(CtrlMsg msg) {
  SessionPtr session = find_session_from(msg.conn_id, msg.client_agent);
  CtrlMsg reply;
  reply.conn_id = msg.conn_id;
  // Replies belong to the PEER's migration trace, not our own.
  reply.trace_id = msg.trace_id;

  if (session == nullptr) {
    reply.type = CtrlType::kReject;
    reply.reason = "unknown connection";
    (void)send_ctrl(msg.node.control, reply, {});
    return;
  }
  if (!msg.verify(session->session_key())) {
    mac_rejections_.add(1);
    reply.type = CtrlType::kReject;
    reply.reason = "MAC verification failed";
    (void)send_ctrl(msg.node.control, reply, {});
    return;
  }
  if (!admit_epoch(*session, msg)) return;
  if (msg.trace_id != 0) session->set_peer_trace_id(msg.trace_id);
  session->set_peer_node(msg.node);
  const util::ByteSpan key(session->session_key().data(),
                           session->session_key().size());

  // A SUS may land while a resume is one step from completion (RES_ACKED
  // or RES_SENT about to see its RESUME_OK); wait briefly for that to
  // settle rather than rejecting a legitimate request. The wait is capped
  // tightly: this runs on the controller's single dispatch thread, and a
  // long block would head-of-line-delay every other connection's control
  // traffic. If it does not settle, the sender's retry loop covers it.
  if (session->state() == ConnState::kResAcked ||
      session->state() == ConnState::kResSent) {
    session->wait_state(
        [](ConnState s) {
          return s != ConnState::kResAcked && s != ConnState::kResSent;
        },
        std::chrono::milliseconds(250));
  }

  const ConnState st = session->state();
  switch (st) {
    case ConnState::kEstablished: {
      if (msg.group_id != 0) {
        // Group-suspend prepare: the peer is sweeping its whole agent.
        // A refusal here (injected or policy) vetoes the ENTIRE group —
        // the coordinator rolls every member back (chaos scenario 9).
        const fault::Decision d = fault::hit("ctrl.group.prepare");
        if (d.action == fault::Action::kError ||
            d.action == fault::Action::kKill) {
          reply.type = CtrlType::kReject;
          reply.reason = "fault: group prepare refused";
          (void)send_session_ctrl(msg.node.control, reply, *session);
          return;
        }
      }
      // Normal passive suspension (paper §2.2).
      (void)session->advance(ConnEvent::kRecvSus);  // -> SUS_ACKED
      const std::uint64_t mark = session->freeze_writes_and_mark();
      session->update_flags([&](Session::Flags& f) {
        f.remote_suspended = true;
        f.peer_declared_seq = msg.sent_seq;
      });
      // Consistent cut: before acknowledging the FIRST member of a group
      // sweep, freeze every OTHER established session facing the
      // migrating agent, so no later member's buffer can contain data the
      // application produced after this member's cut point.
      if (msg.group_id != 0) group_freeze_inbound(session, msg);
      reply.type = CtrlType::kSusAck;
      reply.sent_seq = mark;
      (void)send_session_ctrl(msg.node.control, reply, *session);
      finish_passive_suspend(session, msg.sent_seq);
      return;
    }

    case ConnState::kSusSent: {
      // Overlapped concurrent migration (paper Fig. 4(a)): our SUS and the
      // peer's crossed. Priority (agent-ID hash) breaks the tie.
      const std::uint64_t mark = session->sent_seq();  // frozen already
      if (session->local_has_priority()) {
        // We win: delay the peer with ACK_WAIT and note that we owe it a
        // SUS_RES once our migration completes.
        session->update_flags([&](Session::Flags& f) {
          f.peer_parked = true;
          f.peer_declared_seq = msg.sent_seq;
        });
        reply.type = CtrlType::kAckWait;
        reply.sent_seq = mark;
        (void)send_session_ctrl(msg.node.control, reply, *session);
      } else {
        // Low priority always acknowledges (paper: "side A always
        // acknowledges a SUSPEND request since it has a low priority").
        session->update_flags([&](Session::Flags& f) {
          f.remote_suspended = true;
          f.peer_declared_seq = msg.sent_seq;
        });
        reply.type = CtrlType::kSusAck;
        reply.sent_seq = mark;
        (void)send_session_ctrl(msg.node.control, reply, *session);
        // Our own active_suspend drains and closes once ACK_WAIT arrives.
      }
      return;
    }

    case ConnState::kSusAcked: {
      // Pre-frozen group member: group_freeze_inbound froze this session
      // ahead of its own SUS (consistent cut). That SUS has now arrived —
      // acknowledge with the pre-freeze mark and complete the passive
      // suspension that was deferred until the peer actually asked.
      if (session->flags().group_prefrozen) {
        session->update_flags([&](Session::Flags& f) {
          f.group_prefrozen = false;
          f.peer_declared_seq = msg.sent_seq;
        });
        reply.type = CtrlType::kSusAck;
        reply.sent_seq = session->sent_seq();
        (void)send_session_ctrl(msg.node.control, reply, *session);
        finish_passive_suspend(session, msg.sent_seq);
        return;
      }
      [[fallthrough]];
    }
    case ConnState::kSuspended:
    case ConnState::kSuspendWait: {
      // Duplicate SUS (a lost ACK was retransmitted around): re-acknowledge.
      reply.type = CtrlType::kSusAck;
      reply.sent_seq = session->sent_seq();
      (void)send_session_ctrl(msg.node.control, reply, *session);
      return;
    }

    case ConnState::kResumeWait: {
      // Our resume was parked awaiting the peer's reconnect, but the peer
      // is suspending again instead (another migration round began). Its
      // suspension supersedes the parked resume: accept it — we are
      // already quiesced (no data socket) — and wake the parked waiter,
      // whose resume completes as a passive suspension. The flag goes
      // first: the waiter wakes on SUSPENDED and reads it at once.
      session->update_flags([&](Session::Flags& f) {
        f.remote_suspended = true;
        f.peer_declared_seq = msg.sent_seq;
      });
      (void)session->advance(ConnEvent::kRecvSus);  // -> SUSPENDED
      reply.type = CtrlType::kSusAck;
      reply.sent_seq = session->sent_seq();
      (void)send_session_ctrl(msg.node.control, reply, *session);
      session->resume_event().set();
      return;
    }

    default: {
      reply.type = CtrlType::kReject;
      reply.reason = "SUS in state " + std::string(to_string(st));
      (void)send_session_ctrl(msg.node.control, reply, *session);
      return;
    }
  }
}

void SocketController::finish_passive_suspend(const SessionPtr& session,
                                              std::uint64_t peer_mark) {
  util::Stopwatch drain_sw(util::RealClock::instance());
  auto drained = session->drain_to_mark(peer_mark, config_.drain_timeout);
  if (!drained.ok()) {
    NAPLET_LOG(kError, "controller")
        << "conn " << session->conn_id()
        << ": passive drain failed: " << drained.to_string();
  }
  session->close_stream();
  hist_drain_us_.record(obs::ms_to_us(drain_sw.elapsed_ms()));
  (void)session->advance(ConnEvent::kExecSuspended);  // -> SUSPENDED
  if (drained.ok()) {
    const std::uint64_t buffered = session->buffered_bytes();
    hist_replay_bytes_.record(buffered);
    span(session->peer_trace_id(), obs::SpanKind::kDrainComplete, *session,
         "passive", buffered);
    journal_commit(recovery::CommitPoint::kDrainComplete, session);
  }
}

void SocketController::handle_sus_response(CtrlMsg msg) {
  SessionPtr session = find_session_from(msg.conn_id, msg.client_agent);
  if (session == nullptr) return;
  if (!msg.verify(session->session_key())) {
    mac_rejections_.add(1);
    return;
  }
  if (!admit_epoch(*session, msg)) return;
  session->set_peer_node(msg.node);
  session->responses().push(Session::CtrlResponse{
      static_cast<std::uint8_t>(msg.type), msg.sent_seq});
}

void SocketController::handle_sus_res(CtrlMsg msg) {
  SessionPtr session = find_session_from(msg.conn_id, msg.client_agent);
  if (session == nullptr) return;
  if (!msg.verify(session->session_key())) {
    mac_rejections_.add(1);
    return;
  }
  if (!admit_epoch(*session, msg)) return;
  // The peer has landed; record its new endpoints and release our parked
  // suspend (paper Fig. 4(a): SUS_RES -> SUS_RES_ACK).
  session->set_peer_node(msg.node);
  if (session->state() == ConnState::kSuspendWait) {
    (void)session->advance(ConnEvent::kRecvSusRes);  // -> SUSPENDED
  }
  session->update_flags([](Session::Flags& f) { f.remote_suspended = false; });

  CtrlMsg ack;
  ack.type = CtrlType::kSusResAck;
  ack.conn_id = msg.conn_id;
  (void)send_session_ctrl(msg.node.control, ack, *session);
  session->park_event().set();
}

void SocketController::handle_simple_ack(CtrlMsg msg) {
  SessionPtr session = find_session_from(msg.conn_id, msg.client_agent);
  if (session == nullptr) return;
  if (!msg.verify(session->session_key())) {
    mac_rejections_.add(1);
    return;
  }
  if (!admit_epoch(*session, msg)) return;
  session->responses().push(Session::CtrlResponse{
      static_cast<std::uint8_t>(msg.type), msg.sent_seq});
}

// ===========================================================================
// Resume

util::Status SocketController::resume(const SessionPtr& session) {
  if (session == nullptr) return util::InvalidArgument("null session");
  return do_resume(session);
}

util::Status SocketController::do_resume(const SessionPtr& session) {
  // Crash-recovery extension: a resume that times out because the peer
  // controller is mid-restart (replaying its journal) is retried with
  // capped exponential backoff. resume_max_attempts == 1 is the paper's
  // single-shot behavior.
  util::Duration backoff = config_.resume_retry_backoff;
  util::Stopwatch resume_sw(util::RealClock::instance());
  for (int attempt = 1;; ++attempt) {
    util::Status status = do_resume_once(session);
    if (status.ok()) {
      hist_resume_us_.record(obs::ms_to_us(resume_sw.elapsed_ms()));
      return status;
    }
    if (attempt >= config_.resume_max_attempts) return status;
    if (status.code() != util::StatusCode::kTimeout ||
        session->state() != ConnState::kSuspended) {
      return status;  // only a timed-out, still-resumable session retries
    }
    resume_retries_.add(1);
    NAPLET_LOG(kInfo, "recovery")
        << "conn " << session->conn_id() << ": resume attempt " << attempt
        << " timed out; retrying in " << backoff.count() / 1000 << "ms";
    if (stop_event_.wait_for(backoff)) {
      return util::Cancelled("controller stopping");
    }
    backoff = std::min(
        config_.resume_retry_cap,
        util::Duration(static_cast<std::int64_t>(
            static_cast<double>(backoff.count()) *
            kResumeRetryMultiplier)));
  }
}

util::Status SocketController::do_resume_once(const SessionPtr& session) {
  ConnState st = session->state();
  if (st == ConnState::kResAcked) {
    // Resume glare: the peer's RESUME is mid-attach on our redirector and
    // will establish this connection for us. Wait for it to finish.
    auto settled = session->wait_state(
        [](ConnState s) { return s != ConnState::kResAcked; },
        config_.resume_timeout);
    if (!settled) {
      return util::Timeout("peer resume not completed for conn " +
                           std::to_string(session->conn_id()));
    }
    st = *settled;
  }
  if (st == ConnState::kEstablished) return util::OkStatus();
  if (st == ConnState::kResumeWait) {
    // Parked resume: the peer owes us the reconnect (paper Fig. 4(b)) —
    // unless it begins another suspension first, which supersedes the
    // parked resume and leaves us passively SUSPENDED (also success: the
    // peer reconnects after its own migration).
    auto final_state = session->wait_state(
        [](ConnState s) {
          return s == ConnState::kEstablished || !is_live(s) ||
                 s == ConnState::kSuspended;
        },
        config_.resume_timeout);
    if (final_state && (*final_state == ConnState::kEstablished ||
                        (*final_state == ConnState::kSuspended &&
                         session->flags().remote_suspended))) {
      return util::OkStatus();
    }
    return util::Timeout("parked resume not completed for conn " +
                         std::to_string(session->conn_id()));
  }
  if (st != ConnState::kSuspended) {
    return util::FailedPrecondition(
        "cannot resume from state " + std::string(to_string(st)));
  }

  if (!session->advance(ConnEvent::kAppResume).ok()) {
    // The peer's RESUME landed since the read above; nothing was sent.
    return do_resume_once(session);
  }
  const std::int64_t deadline = now_us() + config_.resume_timeout.count();

  // Escalating retry pacing: the common first failure is the peer still
  // settling (its passive suspend draining, or a location entry one step
  // stale), which resolves within a few ms. Start small and escalate to
  // the old fixed 20ms only if the peer stays unreachable.
  // Pauses wait on stop_event_ so a controller shutdown interrupts the
  // retry loop instead of letting it run out its deadline.
  util::Duration retry_pause = std::chrono::milliseconds(2);
  const auto pause_and_escalate = [&retry_pause, this] {
    const bool stopping = stop_event_.wait_for(retry_pause);
    retry_pause = std::min(kRetrySleep, retry_pause * 2);
    return stopping;
  };

  while (now_us() < deadline) {
    // A glare resume from the peer may have established us already.
    const ConnState current = session->state();
    if (current == ConnState::kEstablished) return util::OkStatus();
    if (current == ConnState::kResumeWait) {
      auto final_state = session->wait_state(
          [](ConnState s) {
            return s == ConnState::kEstablished || !is_live(s);
          },
          util::us(std::max<std::int64_t>(1, deadline - now_us())));
      if (final_state && *final_state == ConnState::kEstablished) {
        return util::OkStatus();
      }
      break;
    }
    if (!is_live(current)) return util::Aborted("connection closed");

    const agent::NodeInfo peer_node = session->peer_node();
    util::Stopwatch handoff_sw(util::RealClock::instance());
    auto stream = server_.network().connect(peer_node.redirector,
                                            std::chrono::seconds(1));
    if (!stream.ok()) {
      // Stale address (the peer may itself be migrating): refresh via the
      // location service and retry.
      auto fresh = server_.locations().try_lookup(session->peer_agent());
      if (fresh) session->set_peer_node(*fresh);
      if (pause_and_escalate()) return util::Cancelled("controller stopping");
      continue;
    }
    std::shared_ptr<net::Stream> data_socket(std::move(*stream));

    HandoffMsg req;
    req.type = HandoffType::kResume;
    req.conn_id = session->conn_id();
    req.trace_id = session->trace_id();
    req.verifier = session->verifier();
    req.sent_seq = session->sent_seq();
    req.recv_seq = session->highest_rx_seq();
    req.agent = session->local_agent().name();
    req.node = self_node();
    session->recorder().record(obs::FlightRecorder::Kind::kCtrlSend,
                               static_cast<std::uint8_t>(req.type), 1, 0);
    if (auto st2 = reply_handoff(*data_socket, req,
                                 util::ByteSpan(session->session_key().data(),
                                                session->session_key().size()));
        !st2.ok()) {
      data_socket->close();
      if (pause_and_escalate()) return util::Cancelled("controller stopping");
      continue;
    }
    auto reply_frame = net::read_frame(*data_socket);
    if (!reply_frame.ok()) {
      data_socket->close();
      if (pause_and_escalate()) return util::Cancelled("controller stopping");
      continue;
    }
    auto reply = HandoffMsg::decode(
        util::ByteSpan(reply_frame->data(), reply_frame->size()));
    if (!reply.ok()) {
      data_socket->close();
      return reply.status();
    }
    hist_handoff_us_.record(obs::ms_to_us(handoff_sw.elapsed_ms()));

    switch (reply->type) {
      case HandoffType::kResumeOk: {
        // Reliability invariant: every frame the peer sent before its
        // suspension must already be in our buffer — unless the
        // fault-tolerance extension can replay it from the peer's history
        // (the peer replays frames > our declared recv_seq itself).
        if (!config_.failure_recovery.enabled &&
            session->highest_rx_seq() < reply->sent_seq) {
          data_socket->close();
          return util::ProtocolError(
              "resume would lose data: have " +
              std::to_string(session->highest_rx_seq()) + ", peer sent " +
              std::to_string(reply->sent_seq));
        }
        session->set_peer_node(reply->node);
        session->close_stream();  // a glare may have installed the peer's
                                  // (now superseded) socket
        session->attach_stream(std::move(data_socket));
        // Fault-tolerance extension: replay anything the peer missed
        // (uncoordinated loss) before unblocking writers.
        if (config_.failure_recovery.enabled) {
          if (auto rp = session->retransmit_after(reply->recv_seq); !rp.ok()) {
            NAPLET_LOG(kWarn, "recovery")
                << "conn " << session->conn_id()
                << ": replay failed: " << rp.to_string();
          }
        }
        span(session->trace_id(), obs::SpanKind::kReplayDone, *session,
             "mover");
        if (auto adv = session->advance(ConnEvent::kRecvResumeOk);
            !adv.ok()) {
          // Glare tail: the peer's own attempt already established us (or
          // is finishing its attach here, RES_ACKED); its OK to our attempt
          // means both sides now hold THIS stream.
          (void)session->wait_state(
              [](ConnState s) { return s != ConnState::kResAcked; },
              util::us(std::max<std::int64_t>(1, deadline - now_us())));
          if (session->state() != ConnState::kEstablished) return adv;
        }
        session->update_flags([](Session::Flags& f) {
          f.remote_suspended = false;
        });
        journal_commit(recovery::CommitPoint::kResumeCommitted, session);
        span(session->trace_id(), obs::SpanKind::kResumeCommitted, *session,
             "mover");
        return util::OkStatus();
      }
      case HandoffType::kResumeWait: {
        // Peer has a parked suspend (paper Fig. 4(b)); it will reconnect
        // to us after its own migration.
        data_socket->close();
        if (auto adv = session->advance(ConnEvent::kRecvResumeWait);
            !adv.ok()) {
          // The peer's own RESUME may already have re-established us (or
          // be finishing its attach here, RES_ACKED) while this stale reply
          // was in flight; that is success, not an error.
          (void)session->wait_state(
              [](ConnState s) { return s != ConnState::kResAcked; },
              util::us(std::max<std::int64_t>(1, deadline - now_us())));
          if (session->state() == ConnState::kEstablished) {
            return util::OkStatus();
          }
          return adv;
        }
        auto final_state = session->wait_state(
            [](ConnState s) {
              return s == ConnState::kEstablished || !is_live(s) ||
                     s == ConnState::kSuspended;
            },
            util::us(std::max<std::int64_t>(1, deadline - now_us())));
        if (final_state && (*final_state == ConnState::kEstablished ||
                            (*final_state == ConnState::kSuspended &&
                             session->flags().remote_suspended))) {
          // Established, or superseded by the peer's new suspension (it
          // reconnects to us after its migration).
          return util::OkStatus();
        }
        return util::Timeout("RESUME_WAIT not released for conn " +
                             std::to_string(session->conn_id()));
      }
      case HandoffType::kError:
      default: {
        // Peer in transit or glare rejection: refresh location and retry.
        data_socket->close();
        auto fresh = server_.locations().try_lookup(session->peer_agent());
        if (fresh) session->set_peer_node(*fresh);
        if (pause_and_escalate()) {
          return util::Cancelled("controller stopping");
        }
        continue;
      }
    }
  }

  (void)session->advance(ConnEvent::kTimeout);  // RES_SENT -> SUSPENDED
  return util::Timeout("resume timed out for conn " +
                       std::to_string(session->conn_id()));
}

void SocketController::handle_resume_request(
    std::shared_ptr<net::Stream> stream, HandoffMsg msg) {
  auto fail = [&](const std::string& reason) {
    HandoffMsg err;
    err.type = HandoffType::kError;
    err.conn_id = msg.conn_id;
    err.reason = reason;
    (void)reply_handoff(*stream, err, {});
    stream->close();
  };

  SessionPtr session = find_session_from(msg.conn_id, msg.agent);
  if (session == nullptr) {
    fail("unknown connection");
    return;
  }
  if (msg.verifier != session->verifier()) {
    fail("verifier mismatch");
    return;
  }
  if (!msg.verify(session->session_key())) {
    mac_rejections_.add(1);
    fail("MAC verification failed");
    return;
  }
  // A RESUME rides a freshly established stream, so it cannot itself be a
  // pre-crash leftover; record the (possibly bumped) sender epoch so stale
  // control datagrams from its previous incarnation are fenced from now on.
  (void)session->admit_peer_epoch(msg.epoch);
  if (msg.trace_id != 0) session->set_peer_trace_id(msg.trace_id);
  session->set_peer_node(msg.node);
  const util::ByteSpan key(session->session_key().data(),
                           session->session_key().size());

  // If this agent is itself migrating (or has a parked suspend), delay the
  // peer's resume and let our suspension finish (paper Fig. 4(b), Fig. 5).
  const bool parked = session->flags().local_suspend_parked;
  if (parked || agent_is_migrating(session->local_agent())) {
    HandoffMsg wait;
    wait.type = HandoffType::kResumeWait;
    wait.conn_id = msg.conn_id;
    (void)reply_handoff(*stream, wait, key);
    stream->close();
    session->update_flags([](Session::Flags& f) {
      f.peer_waiting_resume = true;
      f.remote_suspended = false;  // the peer has finished its migration
    });
    if (session->state() == ConnState::kSuspendWait) {
      (void)session->advance(ConnEvent::kRecvResume);  // -> SUSPENDED
    }
    session->park_event().set();
    return;
  }

  ConnState st = session->state();
  if (st == ConnState::kSusAcked) {
    // The passive suspension that produced our SUS_ACK is still draining
    // (finish_passive_suspend runs after the ACK is on the wire), and the
    // mover's RESUME routinely beats it here. Settling the drain before
    // the state check below turns a fail-reply-and-client-retry round
    // trip into a sub-millisecond wait -- the dominant term in zero-loss
    // resume latency.
    if (auto settled = session->wait_state(
            [](ConnState s) { return s != ConnState::kSusAcked; },
            std::chrono::milliseconds(250))) {
      st = *settled;
    }
  }
  if (st == ConnState::kEstablished) {
    // Either the peer lost our previous RESUME_OK and is retrying, or it
    // detected a link failure we have not noticed yet (our end may look
    // healthy until we next touch the socket). A MAC-verified RESUME from
    // the legitimate peer is itself evidence the old stream is dead:
    // accept the re-attach. (Simultaneous-resume glare is confined to the
    // RES_SENT state, which keeps its priority guard below — if we were
    // resuming ourselves we would not be in ESTABLISHED.)
    NAPLET_LOG(kDebug, "controller")
        << "conn " << msg.conn_id << ": re-attach on established connection";
    session->close_stream();
  } else if (st == ConnState::kResSent) {
    // Resume glare: the higher-priority side's attempt wins.
    if (session->local_has_priority()) {
      fail("resume glare: retry");
      return;
    }
    (void)session->advance(ConnEvent::kRecvResume);  // -> RES_ACKED
  } else if (st == ConnState::kSuspended || st == ConnState::kResumeWait) {
    (void)session->advance(ConnEvent::kRecvResume);  // -> RES_ACKED
  } else {
    fail("RESUME in state " + std::string(to_string(st)));
    return;
  }

  if (!config_.failure_recovery.enabled &&
      session->highest_rx_seq() < msg.sent_seq) {
    fail("resume would lose data");
    return;
  }

  session->attach_stream(stream);
  HandoffMsg ok;
  ok.type = HandoffType::kResumeOk;
  ok.conn_id = msg.conn_id;
  ok.trace_id = msg.trace_id;  // the mover's migration trace
  ok.sent_seq = session->sent_seq();
  ok.recv_seq = session->highest_rx_seq();
  session->recorder().record(obs::FlightRecorder::Kind::kCtrlSend,
                             static_cast<std::uint8_t>(ok.type), 1, 0);
  // Reply BEFORE advancing: advancing wakes writers blocked on the state
  // cell, and their data frames must not interleave ahead of the
  // RESUME_OK handshake frame on this same stream.
  if (auto st2 = reply_handoff(*stream, ok, key); !st2.ok()) {
    session->close_stream();
    return;
  }
  // Fault-tolerance extension: replay frames the mover missed, before
  // advancing (writers stay blocked until the state change, so replayed
  // frames keep their position ahead of new traffic).
  if (config_.failure_recovery.enabled) {
    if (auto rp = session->retransmit_after(msg.recv_seq); !rp.ok()) {
      NAPLET_LOG(kWarn, "recovery")
          << "conn " << session->conn_id()
          << ": replay failed: " << rp.to_string();
    }
  }
  span(msg.trace_id, obs::SpanKind::kReplayDone, *session, "receiver");
  if (session->state() == ConnState::kResAcked) {
    (void)session->advance(ConnEvent::kExecResumed);  // -> ESTABLISHED
  }
  // The connection is live again: any prior suspension bookkeeping is
  // obsolete (otherwise a later migration of this side would wrongly
  // conclude the peer still owes a reconnect).
  session->update_flags([](Session::Flags& f) {
    f.remote_suspended = false;
  });
  journal_commit(recovery::CommitPoint::kResumeCommitted, session);
  span(msg.trace_id, obs::SpanKind::kResumeCommitted, *session, "receiver");
  session->resume_event().set();
}

// ===========================================================================
// Close

util::Status SocketController::close(const SessionPtr& session) {
  if (session == nullptr) return util::InvalidArgument("null session");
  const ConnState st = session->state();
  if (!is_live(st)) return util::OkStatus();  // idempotent
  if (st != ConnState::kEstablished && st != ConnState::kSuspended) {
    return util::FailedPrecondition(
        "cannot close from state " + std::string(to_string(st)));
  }

  NAPLET_RETURN_IF_ERROR(session->advance(ConnEvent::kAppClose));
  CtrlMsg cls;
  cls.type = CtrlType::kCls;
  cls.conn_id = session->conn_id();
  // Like suspend, close declares the sender's data high-water mark so the
  // peer can flush everything in transmission before tearing down.
  cls.sent_seq = session->freeze_writes_and_mark();
  (void)send_session_ctrl(session->peer_node().control, cls, *session);

  // Same draining discipline as suspension while waiting for the ACK (the
  // peer's freeze may be stuck behind a backpressured writer).
  std::optional<Session::CtrlResponse> resp;
  {
    const std::int64_t deadline =
        util::RealClock::instance().now_us() +
        config_.ctrl_response_timeout.count();
    while (util::RealClock::instance().now_us() < deadline) {
      resp = wait_response(*session, {CtrlType::kClsAck},
                           std::chrono::milliseconds(20));
      if (resp) break;
      session->pump_available(std::chrono::milliseconds(20));
    }
  }
  if (resp) {
    // Pull the peer's final frames into the buffer; they remain readable
    // by the application even after the state reaches CLOSED.
    (void)session->drain_to_mark(resp->sent_seq, config_.drain_timeout);
  }
  session->close_stream();
  (void)session->advance(resp ? ConnEvent::kRecvClsAck : ConnEvent::kTimeout);
  remove_session(session);
  journal_remove(recovery::CommitPoint::kClosed, session->conn_id());
  session->park_event().set();
  session->resume_event().set();
  return util::OkStatus();
}

void SocketController::handle_cls(CtrlMsg msg) {
  SessionPtr session = find_session_from(msg.conn_id, msg.client_agent);
  CtrlMsg ack;
  ack.conn_id = msg.conn_id;
  if (session == nullptr) {
    // Already closed (duplicate CLS): re-ACK so the peer can finish.
    ack.type = CtrlType::kClsAck;
    (void)send_ctrl(msg.node.control, ack, {});
    return;
  }
  if (!msg.verify(session->session_key())) {
    mac_rejections_.add(1);
    ack.type = CtrlType::kReject;
    ack.reason = "MAC verification failed";
    (void)send_session_ctrl(msg.node.control, ack, *session);
    return;
  }
  if (!admit_epoch(*session, msg)) return;

  const ConnState st = session->state();
  if (st == ConnState::kEstablished || st == ConnState::kSuspended) {
    (void)session->advance(ConnEvent::kRecvCls);  // -> CLOSE_ACKED
  }
  ack.type = CtrlType::kClsAck;
  ack.sent_seq = session->freeze_writes_and_mark();
  (void)send_session_ctrl(msg.node.control, ack, *session);
  // Flush the closer's in-flight frames into the buffer before teardown;
  // the application can still read them after CLOSED.
  (void)session->drain_to_mark(msg.sent_seq, config_.drain_timeout);
  session->close_stream();
  if (session->state() == ConnState::kCloseAcked) {
    (void)session->advance(ConnEvent::kExecClosed);  // -> CLOSED
  }
  remove_session(session);
  journal_remove(recovery::CommitPoint::kClosed, session->conn_id());
  session->park_event().set();
  session->resume_event().set();
}

// ===========================================================================
// ConnectionMigrator (docking-system hooks)

util::Status SocketController::prepare_migration(const agent::AgentId& id) {
  // Atomic whole-agent sweep: every established connection suspends
  // behind one barrier with a two-phase journal commit, instead of the
  // serial one-at-a-time walk below.
  if (config_.group_suspend) return group_suspend(id);
  {
    util::MutexLock lock(mu_);
    migrating_agents_.insert(id);
  }
  for (const SessionPtr& session : sessions_of(id)) {
    auto status = suspend_for_migration(session, id);
    if (!status.ok()) {
      util::MutexLock lock(mu_);
      migrating_agents_.erase(id);
      return status;
    }
  }
  return util::OkStatus();
}

util::Status SocketController::suspend_for_migration(
    const SessionPtr& session, const agent::AgentId& id) {
  const std::int64_t deadline = now_us() + kParkTimeout.count();
  for (;;) {
    const ConnState st = session->state();
    switch (st) {
      case ConnState::kEstablished:
        if (!session->advance(ConnEvent::kAppSuspend, st).ok()) {
          continue;  // the peer's SUS landed since the read; re-read
        }
        return active_suspend(session);

      case ConnState::kSuspended:
      case ConnState::kSuspendWait: {
        const Session::Flags f = session->flags();
        if (!f.remote_suspended) return util::OkStatus();  // ours already

        // Remotely suspended: the peer agent is migrating. Decide by
        // priority (paper §3.2): the high-priority side may proceed when it
        // also holds a local suspension against the same peer on another
        // connection (which guarantees the peer's own sweep will park);
        // otherwise it must wait its turn.
        if (session->local_has_priority()) {
          bool holds_local = false;
          for (const SessionPtr& other : sessions_of(id)) {
            if (other == session) continue;
            if (other->peer_agent() != session->peer_agent()) continue;
            const ConnState ost = other->state();
            if ((ost == ConnState::kSuspended ||
                 ost == ConnState::kSusSent) &&
                !other->flags().remote_suspended) {
              holds_local = true;
              break;
            }
          }
          if (holds_local) return util::OkStatus();
        }

        // Park (SUSPEND_WAIT) until the peer finishes migrating. If the
        // peer's RESUME landed since the read, nobody would release the
        // park: re-read the state instead.
        if (st == ConnState::kSuspended &&
            !session->advance(ConnEvent::kAppSuspend, st).ok()) {
          continue;
        }
        session->update_flags([](Session::Flags& f2) {
          f2.local_suspend_parked = true;
        });
        const bool released =
            session->park_event().wait_for(kParkTimeout);
        session->park_event().reset();
        session->update_flags([](Session::Flags& f2) {
          f2.local_suspend_parked = false;
        });
        if (!released) {
          return util::Timeout("parked suspend not released for conn " +
                               std::to_string(session->conn_id()));
        }
        if (!is_live(session->state())) return util::OkStatus();
        return util::OkStatus();
      }

      case ConnState::kSusAcked:
      case ConnState::kSusSent:
      case ConnState::kResSent:
      case ConnState::kResAcked:
      case ConnState::kResumeWait:
        // A transition is in flight on another thread; let it settle.
        if (now_us() >= deadline) {
          return util::Timeout("connection stuck in " +
                               std::string(to_string(st)));
        }
        session->wait_state(
            [st](ConnState s) { return s != st; }, kStatePollSlice);
        continue;

      case ConnState::kClosed:
      case ConnState::kCloseSent:
      case ConnState::kCloseAcked:
        return util::OkStatus();  // nothing to migrate

      case ConnState::kListen:
      case ConnState::kConnectSent:
      case ConnState::kConnectAcked:
        // Connection setup mid-flight during migration: treat as settled
        // enough — wait briefly, then give up gracefully.
        if (now_us() >= deadline) {
          return util::Timeout("connection stuck in " +
                               std::string(to_string(st)));
        }
        session->wait_state(
            [st](ConnState s) { return s != st; }, kStatePollSlice);
        continue;
    }
  }
}

util::Bytes SocketController::export_sessions(const agent::AgentId& id) {
  const std::vector<SessionPtr> sessions = sessions_.extract_agent(id);
  {
    util::MutexLock lock(mu_);
    migrating_agents_.erase(id);
  }

  util::BytesWriter w;
  w.u32(static_cast<std::uint32_t>(sessions.size()));
  for (const SessionPtr& session : sessions) {
    // Seal first: a recv() racing this export must not pop a frame that
    // the snapshot below also captures (the clone would replay it — a
    // duplicate delivery). After the seal every pop fails; pops that won
    // the race are already absent from the buffer we serialize.
    session->seal_buffer_for_export();
    const util::Bytes blob = session->export_state();
    w.bytes(util::ByteSpan(blob.data(), blob.size()));
    // The live state now travels in the blob; kill the original so stale
    // handles cannot double-deliver its buffered frames.
    session->mark_moved();
    // Departed: this controller is no longer responsible for the
    // connection. (If the migration later fails the destination's own
    // journal has it from kImported on.)
    journal_remove(recovery::CommitPoint::kDeparted, session->conn_id());
    if (redirector_) redirector_->release_lease(session->conn_id());
  }
  return std::move(w).take();
}

util::Status SocketController::import_sessions(const agent::AgentId& id,
                                               util::ByteSpan data) {
  if (data.empty()) return util::OkStatus();
  util::BytesReader r(data);
  auto count = r.u32();
  if (!count.ok()) return count.status();
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto blob = r.bytes();
    if (!blob.ok()) return blob.status();
    auto session = Session::import_state(
        util::ByteSpan(blob->data(), blob->size()));
    if (!session.ok()) return session.status();
    if ((*session)->local_agent() != id) {
      return util::ProtocolError("imported session belongs to '" +
                                 (*session)->local_agent().name() + "'");
    }
    if (config_.failure_recovery.enabled) {
      (*session)->enable_history(config_.failure_recovery.history_bytes);
    }
    insert_session(*session);
    journal_commit(recovery::CommitPoint::kImported, *session);
  }
  return util::OkStatus();
}

util::Status SocketController::complete_migration(const agent::AgentId& id) {
  {
    util::MutexLock lock(mu_);
    migrating_agents_.erase(id);
  }
  util::Status first_error = util::OkStatus();
  for (const SessionPtr& session : sessions_of(id)) {
    const Session::Flags f = session->flags();

    if (f.peer_parked) {
      // Overlapped winner (paper Fig. 4(a)): tell the parked peer we are
      // done; stay SUSPENDED — the peer migrates next and reconnects to us.
      CtrlMsg sus_res;
      sus_res.type = CtrlType::kSusRes;
      sus_res.conn_id = session->conn_id();
      (void)send_session_ctrl(session->peer_node().control, sus_res,
                              *session);
      auto resp = wait_response(*session, {CtrlType::kSusResAck},
                                config_.ctrl_response_timeout);
      if (!resp) {
        NAPLET_LOG(kWarn, "controller")
            << "conn " << session->conn_id() << ": no SUS_RES_ACK";
      }
      session->update_flags([](Session::Flags& f2) {
        f2.peer_parked = false;
      });
      continue;
    }

    if (f.peer_waiting_resume) {
      // Non-overlapped tail (paper Fig. 4(b)/Fig. 5): the peer's resume was
      // delayed by our RESUME_WAIT; we owe the reconnect.
      session->update_flags([](Session::Flags& f2) {
        f2.peer_waiting_resume = false;
      });
      auto status = do_resume(session);
      if (!status.ok() && first_error.ok()) first_error = status;
      continue;
    }

    if (f.remote_suspended) {
      // The peer is mid-migration; it reconnects to us when it lands.
      continue;
    }

    auto status = do_resume(session);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

void SocketController::close_all(const agent::AgentId& id) {
  for (const SessionPtr& session : sessions_of(id)) {
    if (session->state() == ConnState::kEstablished ||
        session->state() == ConnState::kSuspended) {
      (void)close(session);
    } else {
      session->close_stream();
      remove_session(session);
    }
  }
  if (is_listening(id)) (void)unlisten(id);
}

}  // namespace naplet::nsock
