#include "tcp/sender.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "check/hook.h"

namespace dtdctcp::tcp {

TcpSender::TcpSender(sim::Simulator& sim, sim::Host& local,
                     sim::NodeId remote, sim::FlowId flow,
                     const TcpConfig& cfg, std::int64_t total_segments)
    : sim_(sim), local_(local), remote_(remote), flow_(flow), cfg_(cfg),
      total_segments_(total_segments),
      cwnd_(cfg.init_cwnd),
      ssthresh_(cfg.init_ssthresh),
      rto_(cfg.init_rto),
      alpha_(cfg.dctcp_init_alpha) {
  local_.bind_flow(flow_, this);
}

TcpSender::~TcpSender() {
  DTDCTCP_CHECK_HOOK(tcp_sender_destroyed(this));
  sim_.cancel(start_timer_);
  sim_.cancel(pace_timer_);
  cancel_rto();
  local_.unbind_flow(flow_);
}

void TcpSender::start_at(SimTime t) {
  assert(!started_);
  started_ = true;
  auto fire = [this] {
    start_time_ = sim_.now();
    dctcp_window_end_ = 0;
    try_send();
  };
  static_assert(sim::EventClosure::kFitsInline<decltype(fire)>,
                "start timer must not allocate");
  start_timer_ = sim_.timer_at(t, fire);
}

void TcpSender::extend(std::int64_t extra) {
  assert(total_segments_ > 0 && "extend() is for finite flows");
  assert(extra > 0);
  total_segments_ += extra;
  completed_ = false;
  try_send();
}

void TcpSender::deliver(sim::Packet pkt) {
  assert(pkt.is_ack && "sender got data; flow ids crossed");
  if (completed_) return;
  if (DTDCTCP_CHECK_INJECT(kAlphaRange)) alpha_ = 1.5;
  handle_ack(pkt);
  DTDCTCP_CHECK_HOOK(tcp_sender_state(this));
}

void TcpSender::handle_ack(const sim::Packet& ack) {
  if (ack.ece) ++ece_acks_;
  update_rtt(ack);
  if (cfg_.sack_enabled) sack_update(ack);

  if (ack.seq > snd_una_) {
    const std::int64_t newly = ack.seq - snd_una_;
    on_new_ack(ack, newly);
  } else {
    on_dup_ack(ack);
  }

  if (!completed_ && total_segments_ > 0 && snd_una_ >= total_segments_) {
    completed_ = true;
    completion_time_ = sim_.now();
    cancel_rto();
    if (on_complete_) on_complete_(completion_time_);
    return;
  }
  try_send();
}

void TcpSender::on_new_ack(const sim::Packet& ack, std::int64_t newly_acked) {
  if (first_ack_time_ < 0.0) first_ack_time_ = sim_.now();
  snd_una_ = ack.seq;
  backoff_ = 0;
  // Scoreboard entries below the new cumulative ACK are history.
  if (cfg_.sack_enabled) {
    sacked_.erase(sacked_.begin(), sacked_.lower_bound(snd_una_));
    sack_rtx_.erase(sack_rtx_.begin(), sack_rtx_.lower_bound(snd_una_));
  }

  dctcp_account(ack, newly_acked);

  if (in_recovery_) {
    if (snd_una_ >= recover_) {
      // Full ACK: leave recovery, deflate to ssthresh.
      in_recovery_ = false;
      dup_acks_ = 0;
      sack_rtx_.clear();
      set_cwnd(ssthresh_);
    } else if (cfg_.sack_enabled) {
      // Partial ACK under SACK: the scoreboard says exactly which holes
      // remain; always refill the first (NewReno-style self clocking),
      // more as the pipe allows.
      sack_retransmit_holes(/*force_first=*/true);
    } else {
      // Partial ACK (NewReno): retransmit the next hole, stay in
      // recovery, deflate by the amount acked then inflate by one.
      send_segment(snd_una_, /*retransmit=*/true);
      set_cwnd(std::max(cfg_.min_cwnd,
                        cwnd_ - static_cast<double>(newly_acked) + 1.0));
    }
  } else {
    dup_acks_ = 0;
    maybe_ecn_reduce(ack);
    grow_cwnd(newly_acked);
  }

  if (snd_una_ < snd_nxt_) {
    arm_rto();  // restart for the remaining outstanding data
  } else {
    cancel_rto();
  }
}

void TcpSender::on_dup_ack(const sim::Packet& ack) {
  // Duplicate ACKs still carry ECN echo; account them with zero
  // newly-acked segments so alpha sees the marks.
  dctcp_account(ack, 0);

  if (in_recovery_) {
    if (cfg_.sack_enabled) {
      // The scoreboard (not window inflation) governs what may be sent.
      sack_retransmit_holes();
    } else {
      set_cwnd(cwnd_ + 1.0);  // window inflation per extra dup ACK
    }
    return;
  }
  ++dup_acks_;
  if (dup_acks_ >= cfg_.dupack_threshold && snd_una_ < snd_nxt_) {
    enter_fast_recovery(ack);
  }
}

void TcpSender::enter_fast_recovery(const sim::Packet& ack) {
  (void)ack;
  ++fast_retransmits_;
  in_recovery_ = true;
  recover_ = snd_nxt_;
  if (cfg_.mode == CcMode::kCubic) {
    // Fast convergence: release bandwidth faster when w_max shrinks.
    cubic_wmax_ = cwnd_ < cubic_wmax_
                      ? cwnd_ * (2.0 - cfg_.cubic_beta) / 2.0
                      : cwnd_;
    cubic_epoch_ = -1.0;
    ssthresh_ = std::max(cwnd_ * cfg_.cubic_beta, 2.0);
  } else {
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  }
  if (cfg_.sack_enabled) {
    set_cwnd(ssthresh_);
    sack_rtx_.clear();
    sack_retransmit_holes(/*force_first=*/true);
  } else {
    set_cwnd(ssthresh_ + static_cast<double>(cfg_.dupack_threshold));
    send_segment(snd_una_, /*retransmit=*/true);
  }
  arm_rto();
}

void TcpSender::sack_update(const sim::Packet& ack) {
  for (int i = 0; i < ack.sack_count; ++i) {
    const std::int64_t end = ack.sack_end(i);
    for (std::int64_t seq = std::max(ack.sack_begin(i), snd_una_); seq < end;
         ++seq) {
      sacked_.insert(seq);
    }
  }
}

std::int64_t TcpSender::sack_pipe() const {
  // Conservative estimate of segments in flight: everything outstanding
  // minus what the receiver reports holding, plus retransmissions of
  // holes that are themselves still unacknowledged.
  std::int64_t rtx_outstanding = 0;
  for (std::int64_t seq : sack_rtx_) {
    if (seq >= snd_una_ && sacked_.count(seq) == 0) ++rtx_outstanding;
  }
  return inflight() - static_cast<std::int64_t>(sacked_.size()) +
         rtx_outstanding;
}

bool TcpSender::next_hole(std::int64_t* seq) const {
  for (std::int64_t s = snd_una_; s < recover_; ++s) {
    if (sacked_.count(s) == 0 && sack_rtx_.count(s) == 0) {
      *seq = s;
      return true;
    }
  }
  return false;
}

void TcpSender::sack_retransmit_holes(bool force_first) {
  const auto window = static_cast<std::int64_t>(std::floor(cwnd_));
  std::int64_t hole = 0;
  // RFC 6675 sends the first retransmission regardless of the pipe —
  // without it, a recovery entered with a full (soon-to-drain) pipe can
  // stall with no feedback to shrink it and fall back to an RTO.
  if (force_first && next_hole(&hole)) {
    send_segment(hole, /*retransmit=*/true);
    sack_rtx_.insert(hole);
  }
  while (sack_pipe() < window && next_hole(&hole)) {
    send_segment(hole, /*retransmit=*/true);
    sack_rtx_.insert(hole);
  }
}

void TcpSender::update_rtt(const sim::Packet& ack) {
  if (ack.retransmit) return;  // Karn's rule
  const SimTime sample = sim_.now() - ack.ts_echo;
  if (sample <= 0.0) return;
  if (!rtt_valid_) {
    srtt_ = sample;
    rttvar_ = sample / 2.0;
    rtt_valid_ = true;
  } else {
    constexpr double kAlpha = 1.0 / 8.0;
    constexpr double kBeta = 1.0 / 4.0;
    rttvar_ = (1.0 - kBeta) * rttvar_ + kBeta * std::abs(srtt_ - sample);
    srtt_ = (1.0 - kAlpha) * srtt_ + kAlpha * sample;
  }
  rto_ = std::clamp(srtt_ + 4.0 * rttvar_, cfg_.min_rto, cfg_.max_rto);
}

void TcpSender::dctcp_account(const sim::Packet& ack,
                              std::int64_t newly_acked) {
  if (cfg_.mode != CcMode::kDctcp && cfg_.mode != CcMode::kD2tcp) return;
  // Count segments covered by this ACK. A dup ACK advances nothing, so
  // it contributes symmetrically: weight one in *both* terms when it
  // carries the echo (marks seen during loss episodes are not lost),
  // and in neither term otherwise — an ece-less dup ACK that inflated
  // only the denominator would dilute the marked fraction and bias
  // alpha low exactly when the network is most congested.
  const std::int64_t weight =
      newly_acked > 0 ? newly_acked : (ack.ece ? 1 : 0);
  acked_in_window_ += weight;
  if (ack.ece) marked_in_window_ += weight;

  if (snd_una_ >= dctcp_window_end_) {
    // One window of data acknowledged: fold the observed fraction into
    // alpha (Eq. 2's discrete form) and open the next window.
    const double fraction =
        acked_in_window_ > 0
            ? static_cast<double>(marked_in_window_) /
                  static_cast<double>(acked_in_window_)
            : 0.0;
    alpha_ = (1.0 - cfg_.dctcp_g) * alpha_ + cfg_.dctcp_g * fraction;
    acked_in_window_ = 0;
    marked_in_window_ = 0;
    dctcp_window_end_ = snd_nxt_;
  }
}

void TcpSender::maybe_ecn_reduce(const sim::Packet& ack) {
  if (!ack.ece) return;
  if (snd_una_ <= ecn_reduce_until_) return;  // once per window of data

  if (cfg_.mode == CcMode::kDctcp || cfg_.mode == CcMode::kD2tcp) {
    // DCTCP cuts by alpha/2; D2TCP gamma-corrects the penalty with the
    // deadline-urgency exponent d (p = alpha^d): far-deadline flows
    // (d < 1) back off more, near-deadline flows (d > 1) back off less.
    const double penalty =
        cfg_.mode == CcMode::kD2tcp ? std::pow(alpha_, d2tcp_urgency())
                                    : alpha_;
    ++ecn_reductions_;
    set_cwnd(cwnd_ * (1.0 - penalty / 2.0));
    ssthresh_ = cwnd_;
    ecn_reduce_until_ = snd_nxt_;
  } else if (cfg_.mode == CcMode::kEcnReno) {
    ++ecn_reductions_;
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
    set_cwnd(ssthresh_);
    cwr_pending_ = true;  // echo CWR to the receiver on the next segment
    ecn_reduce_until_ = snd_nxt_;
  }
}

double TcpSender::d2tcp_urgency() const {
  // d = Tc / D: time-to-complete at the current rate over time-to-
  // deadline, clamped to [min_d, max_d] (D2TCP Sec. 3). No deadline or
  // a long-lived flow means d = 1 (plain DCTCP). A missed/immediate
  // deadline pins d at the aggressive end.
  if (cfg_.deadline <= 0.0 || total_segments_ == 0) return 1.0;
  const double remaining =
      static_cast<double>(total_segments_ - snd_una_);
  if (remaining <= 0.0) return 1.0;
  const double until_deadline = cfg_.deadline - sim_.now();
  if (until_deadline <= 0.0) return cfg_.d2tcp_max_d;
  const SimTime rtt = rtt_valid_ ? srtt_ : cfg_.init_rto;
  const double rate = std::max(cwnd_, cfg_.min_cwnd) / std::max(rtt, 1e-9);
  const double to_complete = remaining / rate;
  return std::clamp(to_complete / until_deadline, cfg_.d2tcp_min_d,
                    cfg_.d2tcp_max_d);
}

void TcpSender::grow_cwnd(std::int64_t newly_acked) {
  double credit = static_cast<double>(newly_acked);
  if (cwnd_ < ssthresh_) {
    // Slow start: one segment per newly-acked segment. The ACK that
    // crosses ssthresh keeps its excess as congestion-avoidance credit
    // (RFC 5681 §3.1) instead of discarding it at the clamp.
    const double room = ssthresh_ - cwnd_;
    if (credit <= room) {
      set_cwnd(cwnd_ + credit);
      return;
    }
    set_cwnd(ssthresh_);
    credit -= room;
  }
  if (cfg_.mode == CcMode::kCubic) {
    cubic_grow(credit);
    return;
  }
  // Congestion avoidance: ~one segment per RTT.
  set_cwnd(cwnd_ + credit / std::max(1.0, cwnd_));
}

void TcpSender::cubic_grow(double newly_acked) {
  // RFC 8312: W_cubic(t) = C*(t - K)^3 + w_max around the last loss
  // event, with the TCP-friendly region as a floor.
  const SimTime now = sim_.now();
  const SimTime rtt = rtt_valid_ ? srtt_ : cfg_.init_rto;
  if (cubic_epoch_ < 0.0) {
    cubic_epoch_ = now;
    if (cubic_wmax_ < cwnd_) cubic_wmax_ = cwnd_;
    cubic_k_ = std::cbrt(cubic_wmax_ * (1.0 - cfg_.cubic_beta) /
                         cfg_.cubic_c);
  }
  const double t = (now - cubic_epoch_) + rtt;
  const double target =
      cfg_.cubic_c * (t - cubic_k_) * (t - cubic_k_) * (t - cubic_k_) +
      cubic_wmax_;
  // TCP-friendly window estimate (standard AIMD tracking).
  const double w_tcp = cubic_wmax_ * cfg_.cubic_beta +
                       3.0 * (1.0 - cfg_.cubic_beta) /
                           (1.0 + cfg_.cubic_beta) *
                           ((now - cubic_epoch_) / std::max(rtt, 1e-9));
  const double goal = std::max(target, w_tcp);
  if (goal > cwnd_) {
    set_cwnd(cwnd_ + newly_acked * (goal - cwnd_) / std::max(1.0, cwnd_));
  } else {
    // In the concave plateau: creep forward slowly.
    set_cwnd(cwnd_ + newly_acked * 0.01 / std::max(1.0, cwnd_));
  }
}

void TcpSender::try_send() {
  if (completed_) return;
  const auto window = static_cast<std::int64_t>(std::floor(cwnd_));
  const bool sack_recovery = cfg_.sack_enabled && in_recovery_;
  while ((sack_recovery ? sack_pipe() : inflight()) < window &&
         has_data_to_send()) {
    if (cfg_.pacing && rtt_valid_) {
      const SimTime now = sim_.now();
      if (now < pace_next_) {
        arm_pace_timer();
        return;  // the timer resumes this loop at the paced instant
      }
      const double interval = srtt_ / std::max(cwnd_, 1.0);
      pace_next_ = std::max(pace_next_, now) + interval;
    }
    send_segment(snd_nxt_, /*retransmit=*/false);
    ++snd_nxt_;
    if (dctcp_window_end_ == 0) dctcp_window_end_ = snd_nxt_;
  }
}

void TcpSender::arm_pace_timer() {
  sim_.cancel(pace_timer_);
  auto fire = [this] { try_send(); };
  static_assert(sim::EventClosure::kFitsInline<decltype(fire)>,
                "pace timer must not allocate");
  pace_timer_ = sim_.timer_at(pace_next_, fire);
}

void TcpSender::send_segment(std::int64_t seq, bool retransmit) {
  sim::Packet pkt;
  pkt.flow = flow_;
  pkt.src = local_.id();
  pkt.dst = remote_;
  pkt.size_bytes = cfg_.mss_bytes;
  pkt.seq = seq;
  pkt.is_ack = false;
  pkt.ect = cfg_.mode == CcMode::kEcnReno || cfg_.mode == CcMode::kDctcp ||
            cfg_.mode == CcMode::kD2tcp;
  pkt.ts_echo = sim_.now();
  pkt.retransmit = retransmit;
  pkt.prio = cfg_.priority <= 3 ? cfg_.priority : 3;
  if (cwr_pending_) {
    pkt.cwr = true;
    cwr_pending_ = false;
  }
  ++segments_sent_;
  if (retransmit) ++retransmissions_;
  local_.send(std::move(pkt));
  if (seq == snd_una_) arm_rto();
}

void TcpSender::arm_rto() {
  // Rearming cancels the predecessor: the queue holds one RTO entry per
  // flow no matter how many times ACKs restart the timer.
  sim_.cancel(rto_timer_);
  const SimTime timeout =
      std::min(cfg_.max_rto, rto_ * static_cast<double>(1u << std::min(backoff_, 16u)));
  auto fire = [this] { on_rto_fired(); };
  static_assert(sim::EventClosure::kFitsInline<decltype(fire)>,
                "RTO timer must not allocate");
  rto_timer_ = sim_.timer_after(timeout, fire);
}

void TcpSender::on_rto_fired() {
  if (completed_ || snd_una_ >= snd_nxt_) return;
  ++timeouts_;
  ++backoff_;
  if (cfg_.mode == CcMode::kCubic) {
    cubic_wmax_ = cwnd_;
    cubic_epoch_ = -1.0;
    ssthresh_ = std::max(cwnd_ * cfg_.cubic_beta, 2.0);
  } else {
    ssthresh_ = std::max(cwnd_ / 2.0, 2.0);
  }
  set_cwnd(cfg_.min_cwnd);
  in_recovery_ = false;
  dup_acks_ = 0;
  // Discard the scoreboard (the receiver may renege; RFC 2018 requires
  // timeout-based recovery to ignore SACKed state).
  sacked_.clear();
  sack_rtx_.clear();
  // Go-back-N from the hole; the rest of the outstanding window will be
  // resent as the window re-opens (snd_nxt_ rolls back).
  snd_nxt_ = snd_una_;
  send_segment(snd_una_, /*retransmit=*/true);
  snd_nxt_ = snd_una_ + 1;
  arm_rto();
  DTDCTCP_CHECK_HOOK(tcp_sender_state(this));
}

void TcpSender::set_cwnd(double w) {
  cwnd_ = std::clamp(w, cfg_.min_cwnd, cfg_.max_cwnd);
}

}  // namespace dtdctcp::tcp
