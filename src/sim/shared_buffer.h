// Shared-memory switch buffering with dynamic-threshold allocation.
//
// Commodity shallow-buffered switches (the hardware the DCTCP line of
// work targets) share one memory pool across all ports: traffic on one
// port shrinks the headroom available to every other port ("buffer
// pressure"). Queue disciplines charge their bytes against a
// SharedBufferPool on admission and release them on departure;
// admission fails when the pool says so even if the port's own limit is
// not exceeded.
//
// Allocation policy (Choudhury–Hahne dynamic thresholds, the scheme
// commodity shared-memory ASICs implement):
//
//  * every registered port may claim up to `headroom_bytes` of
//    guaranteed reserve that no other port can consume;
//  * the remaining shared region (capacity - sum of headrooms) is
//    contended: a port with `alpha > 0` may only hold
//    `alpha * free_pool_bytes` of it, so the per-port cap shrinks as
//    the pool fills and a hot port cannot starve the others;
//  * `alpha <= 0` disables the dynamic cap for that port (first come,
//    first served within the shared region — the pre-DT behavior);
//  * `capacity == 0` means an unlimited pool: every reservation is
//    admitted, making a pooled configuration byte-identical to an
//    unpooled one (the no-op recovery guarantee the tests pin).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

namespace dtdctcp::sim {

/// Per-port allocation parameters for a SharedBufferPool.
struct PortShare {
  /// Dynamic-threshold coefficient: the port may hold at most
  /// `alpha * (capacity - used)` bytes of the shared region. <= 0
  /// disables the cap.
  double alpha = 0.0;
  /// Guaranteed private reserve; admission into it never fails while
  /// the pool physically fits the packet.
  std::size_t headroom_bytes = 0;
};

class SharedBufferPool {
 public:
  /// `capacity_bytes == 0` means unlimited (every reservation admits).
  explicit SharedBufferPool(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  SharedBufferPool(const SharedBufferPool&) = delete;
  SharedBufferPool& operator=(const SharedBufferPool&) = delete;

  /// Registers a port and returns its id. Total headroom must fit the
  /// capacity (a guarantee that cannot be honoured is a config bug).
  std::size_t add_port(PortShare share = {}) {
    ports_.push_back(PortState{share, 0});
    total_headroom_ += share.headroom_bytes;
    assert((capacity_ == 0 || total_headroom_ <= capacity_) &&
           "sum of port headrooms exceeds the pool capacity");
    return ports_.size() - 1;
  }

  /// Would a reservation of `bytes` for `port` be admitted right now?
  /// Pure predicate; the commit path (try_reserve) uses it verbatim.
  bool would_admit(std::size_t port, std::size_t bytes) const {
    if (capacity_ == 0) return true;  // unlimited pool
    if (bytes > capacity_ - used_) return false;  // does not fit at all
    const PortState& p = ports_[port];
    const std::size_t hr = p.share.headroom_bytes;
    // Shared-region fit: usage beyond the per-port guarantees must fit
    // in capacity - total_headroom, so one port's burst can never eat
    // another port's unused reserve.
    const std::size_t in_reserve_before = std::min(p.used, hr);
    const std::size_t in_reserve_after = std::min(p.used + bytes, hr);
    const std::size_t guaranteed_after =
        guaranteed_used_ - in_reserve_before + in_reserve_after;
    if (used_ + bytes - guaranteed_after > shared_capacity()) return false;
    if (p.used + bytes <= hr) return true;  // entirely inside own reserve
    if (p.share.alpha > 0.0) {
      // Dynamic threshold on the shared portion of this port's usage:
      // admit only while it is under alpha * free_pool_bytes.
      const std::size_t port_shared = p.used - in_reserve_before;
      if (static_cast<double>(port_shared) >=
          p.share.alpha * static_cast<double>(capacity_ - used_)) {
        return false;
      }
    }
    return true;
  }

  /// Reserves `bytes` for `port` if the DT policy admits them; false
  /// means the caller must drop.
  bool try_reserve(std::size_t port, std::size_t bytes) {
    if (!would_admit(port, bytes)) return false;
    commit(port, bytes);
    return true;
  }

  /// Charges `bytes` to `port` unconditionally, bypassing the admission
  /// policy. Fault-injection and boundary tests only — never a data
  /// path; the DT-legality invariant check exists to catch exactly this.
  void force_reserve(std::size_t port, std::size_t bytes) {
    commit(port, bytes);
  }

  void release(std::size_t port, std::size_t bytes) {
    PortState& p = ports_[port];
    assert(bytes <= p.used && "releasing more than the port reserved");
    const std::size_t hr = p.share.headroom_bytes;
    guaranteed_used_ -= std::min(p.used, hr) - std::min(p.used - bytes, hr);
    p.used -= bytes;
    used_ -= bytes;
  }

  std::size_t capacity() const { return capacity_; }
  bool unlimited() const { return capacity_ == 0; }
  std::size_t used() const { return used_; }
  std::size_t available() const {
    return capacity_ == 0 ? static_cast<std::size_t>(-1) : capacity_ - used_;
  }
  std::size_t peak_used() const { return peak_used_; }
  std::size_t ports() const { return ports_.size(); }
  PortShare share(std::size_t port) const { return ports_[port].share; }
  std::size_t port_used(std::size_t port) const { return ports_[port].used; }
  /// Sum of all registered ports' guaranteed headroom.
  std::size_t reserved_headroom() const { return total_headroom_; }

 private:
  struct PortState {
    PortShare share;
    std::size_t used = 0;
  };

  /// Bytes available to usage beyond the per-port guarantees. Saturates
  /// at 0 when the configured headrooms oversubscribe the capacity (the
  /// add_port assert catches that in asserting builds; release builds
  /// degrade to headroom-only admission instead of underflowing).
  std::size_t shared_capacity() const {
    return capacity_ > total_headroom_ ? capacity_ - total_headroom_ : 0;
  }

  void commit(std::size_t port, std::size_t bytes) {
    PortState& p = ports_[port];
    const std::size_t hr = p.share.headroom_bytes;
    guaranteed_used_ += std::min(p.used + bytes, hr) - std::min(p.used, hr);
    p.used += bytes;
    used_ += bytes;
    peak_used_ = std::max(peak_used_, used_);
  }

  std::size_t capacity_;
  std::size_t used_ = 0;
  std::size_t peak_used_ = 0;
  std::size_t total_headroom_ = 0;
  /// Sum over ports of min(used, headroom): the occupied part of the
  /// guaranteed reserves, maintained incrementally.
  std::size_t guaranteed_used_ = 0;
  std::vector<PortState> ports_;
};

/// Implemented by queue disciplines that charge a SharedBufferPool, so
/// generic code (the invariant checker, factory wiring) can discover
/// the pool binding with one cast regardless of the discipline's base.
class SharedBufferClient {
 public:
  virtual ~SharedBufferClient() = default;
  virtual SharedBufferPool* shared_pool() const = 0;
  virtual std::size_t pool_port() const = 0;
};

}  // namespace dtdctcp::sim
