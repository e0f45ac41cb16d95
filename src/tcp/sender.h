// TCP sender with Reno / classic-ECN / DCTCP congestion control.
//
// Segment-granularity model (sequence numbers count MSS-sized segments,
// as in ns-2's TCP agents): slow start, AIMD congestion avoidance,
// NewReno fast retransmit/recovery, RTO with exponential backoff and a
// configurable minimum (the paper-era 200 ms min-RTO drives the Incast
// experiments), Karn-compliant RTT sampling via receiver timestamp echo.
//
// DCTCP (Alizadeh et al., SIGCOMM'10): the receiver echoes per-segment
// CE; the sender counts marked vs. acked segments per window of data,
// maintains alpha with EWMA gain g, and on the first ECE of a window
// applies W <- W * (1 - alpha/2). Loss handling is unchanged from Reno.
// DT-DCTCP uses this same sender; the difference is entirely in the
// switch marking discipline.
#pragma once

#include <cstdint>
#include <functional>
#include <set>

#include "sim/host.h"
#include "sim/simulator.h"
#include "tcp/config.h"

namespace dtdctcp::tcp {

class TcpSender final : public sim::PacketSink {
 public:
  /// `total_segments` == 0 makes the flow long-lived (never completes).
  TcpSender(sim::Simulator& sim, sim::Host& local, sim::NodeId remote,
            sim::FlowId flow, const TcpConfig& cfg,
            std::int64_t total_segments = 0);

  ~TcpSender() override;
  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Begins transmission at absolute time `t` (>= now).
  void start_at(SimTime t);

  /// Appends `extra` segments to a finite flow (application writes more
  /// data on a persistent connection). Clears the completed state; the
  /// completion callback fires again when the new tail is acknowledged.
  /// Congestion state (cwnd, alpha, RTT) carries over — no slow-start
  /// restart, matching a warm connection reused across request rounds.
  void extend(std::int64_t extra);

  /// Handles an incoming ACK.
  void deliver(sim::Packet pkt) override;

  /// Invoked once when every segment of a finite flow has been
  /// cumulatively acknowledged; argument is the completion time.
  void set_on_complete(std::function<void(SimTime)> cb) {
    on_complete_ = std::move(cb);
  }

  // --- observability --------------------------------------------------
  sim::FlowId flow() const { return flow_; }
  const TcpConfig& config() const { return cfg_; }
  double cwnd() const { return cwnd_; }
  double ssthresh() const { return ssthresh_; }
  double alpha() const { return alpha_; }
  SimTime srtt() const { return srtt_; }
  SimTime rto() const { return rto_; }
  std::int64_t snd_una() const { return snd_una_; }
  std::int64_t snd_nxt() const { return snd_nxt_; }
  bool completed() const { return completed_; }
  SimTime start_time() const { return start_time_; }
  SimTime completion_time() const { return completion_time_; }
  std::int64_t total_segments() const { return total_segments_; }
  /// Time the first cumulative ACK arrived (first byte known delivered);
  /// negative until then.
  SimTime first_ack_time() const { return first_ack_time_; }
  /// Deadline verdict (D2TCP accounting): met when the flow completed
  /// by `cfg.deadline`; a flow with no deadline always counts as met.
  bool deadline_met() const {
    return completed_ &&
           (cfg_.deadline <= 0.0 || completion_time_ <= cfg_.deadline);
  }
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t retransmissions() const { return retransmissions_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t fast_retransmits() const { return fast_retransmits_; }
  std::uint64_t ecn_reductions() const { return ecn_reductions_; }
  /// ACKs that carried the ECN echo — the congestion marks this flow
  /// actually saw, as opposed to the reductions it took.
  std::uint64_t ece_acks() const { return ece_acks_; }
  std::size_t sacked_segments() const { return sacked_.size(); }

 private:
  void handle_ack(const sim::Packet& ack);
  void on_new_ack(const sim::Packet& ack, std::int64_t newly_acked);
  void on_dup_ack(const sim::Packet& ack);
  void update_rtt(const sim::Packet& ack);
  void dctcp_account(const sim::Packet& ack, std::int64_t newly_acked);
  void maybe_ecn_reduce(const sim::Packet& ack);
  double d2tcp_urgency() const;
  void grow_cwnd(std::int64_t newly_acked);
  void cubic_grow(double newly_acked);
  void try_send();
  void send_segment(std::int64_t seq, bool retransmit);
  void enter_fast_recovery(const sim::Packet& ack);
  void sack_update(const sim::Packet& ack);
  void sack_retransmit_holes(bool force_first = false);
  std::int64_t sack_pipe() const;
  bool next_hole(std::int64_t* seq) const;
  void arm_pace_timer();
  void arm_rto();
  void cancel_rto() { sim_.cancel(rto_timer_); }
  void on_rto_fired();
  void set_cwnd(double w);
  std::int64_t inflight() const { return snd_nxt_ - snd_una_; }
  bool has_data_to_send() const {
    return total_segments_ == 0 || snd_nxt_ < total_segments_;
  }

  sim::Simulator& sim_;
  sim::Host& local_;
  sim::NodeId remote_;
  sim::FlowId flow_;
  TcpConfig cfg_;
  std::int64_t total_segments_;

  // Sequence state (segments).
  std::int64_t snd_una_ = 0;  ///< lowest unacknowledged
  std::int64_t snd_nxt_ = 0;  ///< next new segment to send

  // Congestion control.
  double cwnd_;
  double ssthresh_;
  std::uint32_t dup_acks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;  ///< NewReno recovery point

  // SACK scoreboard (cfg.sack_enabled): segments above snd_una reported
  // received, and holes already retransmitted this recovery episode.
  std::set<std::int64_t> sacked_;
  std::set<std::int64_t> sack_rtx_;

  // RTT estimation (RFC 6298).
  bool rtt_valid_ = false;
  SimTime srtt_ = 0.0;
  SimTime rttvar_ = 0.0;
  SimTime rto_;
  std::uint32_t backoff_ = 0;

  // DCTCP estimator.
  double alpha_;
  std::int64_t dctcp_window_end_ = 0;
  std::int64_t acked_in_window_ = 0;
  std::int64_t marked_in_window_ = 0;
  std::int64_t ecn_reduce_until_ = -1;  ///< one reduction per window of data

  // Classic ECN.
  bool cwr_pending_ = false;

  // CUBIC state: window at the last loss event and the epoch it opened.
  double cubic_wmax_ = 0.0;
  SimTime cubic_epoch_ = -1.0;
  double cubic_k_ = 0.0;

  // Pacing (cfg.pacing): earliest time the next new segment may leave.
  SimTime pace_next_ = 0.0;

  bool started_ = false;
  bool completed_ = false;
  SimTime start_time_ = 0.0;
  SimTime completion_time_ = 0.0;
  SimTime first_ack_time_ = -1.0;  ///< < 0 until the first cumulative ACK

  std::uint64_t segments_sent_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::uint64_t ecn_reductions_ = 0;
  std::uint64_t ece_acks_ = 0;

  std::function<void(SimTime)> on_complete_;

  // Cancellable kernel timers. Rearming cancels the predecessor, so the
  // event queue holds at most one entry per timer; the destructor
  // cancels all three, so a sender destroyed mid-run (e.g. between
  // Incast query rounds) leaves no closure behind that could fire into
  // freed memory.
  sim::TimerHandle start_timer_;
  sim::TimerHandle rto_timer_;
  sim::TimerHandle pace_timer_;
};

}  // namespace dtdctcp::tcp
