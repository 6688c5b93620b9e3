// One-sided request descriptors.
//
// Contiguous put/get are fully one-sided on the (simulated) NIC — they
// never enter a CHT and never consume request buffers, mirroring ARMCI
// on Portals. Everything else — accumulate, vectored/strided transfers,
// read-modify-write atomics, lock/unlock — is a CHT-mediated request
// that travels the *virtual topology* (possibly forwarded) and occupies
// a request buffer at every hop.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/coords.hpp"
#include "armci/memory.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/validate.hpp"

namespace vtopo::armci {

/// Element type of an accumulate (ARMCI_ACC_DBL / _LNG / _FLT).
enum class AccType : std::uint8_t { kF64, kI64, kF32 };

enum class OpCode : std::uint8_t {
  kAcc,       ///< dst[i] += scale * src[i] (typed accumulate)
  kPutV,      ///< vectored (noncontiguous) put
  kGetV,      ///< vectored (noncontiguous) get
  kPutS,      ///< strided put (compact descriptor, expanded at target)
  kGetS,      ///< strided get (compact descriptor)
  kFetchAdd,  ///< atomic int64 fetch-&-add
  kSwap,      ///< atomic int64 swap
  kLock,      ///< acquire a remote mutex
  kUnlock,    ///< release a remote mutex
};

[[nodiscard]] const char* to_string(OpCode op);

/// Criticality class of a request. Atomics (fetch-&-add, swap) and lock
/// traffic default to kCritical — they gate a rank's next task — while
/// bulk data movement defaults to kBulk; everything else is kNormal.
/// With QoS disabled (ArmciParams::qos.enabled == false) the class is
/// carried but never consulted, so the default path stays byte-identical
/// to the pre-QoS FIFO.
enum class Priority : std::uint8_t {
  kBulk = 0,
  kNormal = 1,
  kCritical = 2,
};
inline constexpr int kNumPriorities = 3;

[[nodiscard]] const char* to_string(Priority cls);

/// Default class for an op when the caller does not override it.
[[nodiscard]] constexpr Priority default_priority(OpCode op) {
  switch (op) {
    case OpCode::kFetchAdd:
    case OpCode::kSwap:
    case OpCode::kLock:
    case OpCode::kUnlock:
      return Priority::kCritical;
    case OpCode::kPutV:
    case OpCode::kGetV:
    case OpCode::kPutS:
    case OpCode::kGetS:
      return Priority::kBulk;
    case OpCode::kAcc:
      return Priority::kNormal;
  }
  return Priority::kNormal;
}

/// One segment of a vectored transfer, target side. Data for puts rides
/// in Request::data in segment order; data for gets rides back in
/// Response::data.
struct VecSeg {
  std::int64_t target_offset = 0;
  std::int64_t bytes = 0;
};

/// Odometer over an N-level strided layout (ARMCI's convention: level 0
/// varies fastest, `counts[l]` repetitions at level l). Walks the
/// contiguous blocks in order without allocating; a() and b() are the
/// current block's offset under two stride sets — e.g. the local and
/// the remote side of a transfer:
///   StridedOdometer o(counts, local_strides, remote_strides);
///   do { copy(o.a(), o.b()); } while (o.next());
class StridedOdometer {
 public:
  StridedOdometer(std::span<const std::int64_t> counts,
                  std::span<const std::int64_t> strides_a,
                  std::span<const std::int64_t> strides_b)
      : counts_(counts), strides_a_(strides_a), strides_b_(strides_b) {
    assert(counts.size() <= idx_.size() &&
           strides_a.size() == counts.size() &&
           strides_b.size() == counts.size());
  }

  [[nodiscard]] std::int64_t a() const { return a_; }
  [[nodiscard]] std::int64_t b() const { return b_; }

  /// Step to the next block; false once every block has been visited.
  bool next() {
    for (std::size_t l = 0; l < counts_.size(); ++l) {
      if (++idx_[l] < counts_[l]) {
        a_ += strides_a_[l];
        b_ += strides_b_[l];
        return true;
      }
      a_ -= (idx_[l] - 1) * strides_a_[l];
      b_ -= (idx_[l] - 1) * strides_b_[l];
      idx_[l] = 0;
    }
    return false;
  }

 private:
  std::span<const std::int64_t> counts_;
  std::span<const std::int64_t> strides_a_;
  std::span<const std::int64_t> strides_b_;
  std::array<std::int64_t, 7> idx_{};
  std::int64_t a_ = 0;
  std::int64_t b_ = 0;
};

/// Compact N-level strided descriptor (ARMCI_PutS wire format): the
/// target expands it instead of shipping one VecSeg per block, so the
/// wire overhead is one fixed-size descriptor regardless of block count.
struct StridedDesc {
  std::int64_t base_offset = 0;
  std::int64_t block_bytes = 0;               ///< contiguous bytes
  int levels = 0;                             ///< 0..7
  std::array<std::int64_t, 7> strides{};      ///< target-side strides
  std::array<std::int64_t, 7> counts{};       ///< repetitions per level

  [[nodiscard]] std::int64_t total_blocks() const {
    std::int64_t n = 1;
    for (int l = 0; l < levels; ++l) n *= counts[static_cast<std::size_t>(l)];
    return n;
  }
  [[nodiscard]] std::int64_t total_bytes() const {
    return total_blocks() * block_bytes;
  }
  /// The blocks in payload order; a() is a block's offset from
  /// base_offset on the target.
  [[nodiscard]] StridedOdometer blocks() const {
    const auto n = static_cast<std::size_t>(levels);
    return {{counts.data(), n}, {strides.data(), n}, {strides.data(), n}};
  }
  /// Wire size of the descriptor itself.
  static constexpr std::int64_t kWireBytes = 128;
};

/// What the target sends back to the origin process.
struct Response {
  std::int64_t value = 0;            ///< fetch-&-add / swap result
  /// Servicing CHT's queue depth when the response left — the congestion
  /// feedback the origin's per-target AIMD window shrinks on. Always
  /// populated (pure data, no extra event), only acted on when
  /// ArmciParams::qos.congestion is enabled.
  std::int32_t queue_backlog = 0;
  std::vector<std::uint8_t> data;    ///< gathered data for kGetV
};

class RequestPool;

/// A CHT-mediated request in flight. Intrusively refcounted (RequestPtr)
/// so the origin, the network events, and the servicing CHT can all
/// reference it without a control-block allocation; requests drawn from
/// a RequestPool return there on last release, keeping their vector
/// capacities for the next op. The "wire" cost is modeled separately
/// (wire_bytes).
struct Request {
  std::uint64_t id = 0;
  OpCode op = OpCode::kFetchAdd;

  ProcId origin_proc = 0;
  core::NodeId origin_node = 0;
  ProcId target_proc = 0;
  core::NodeId target_node = 0;

  /// Node the current copy of the request was sent from (the origin node
  /// initially, then each intermediate). The handler acknowledges this
  /// node to release the buffer credit the hop consumed.
  core::NodeId upstream_node = 0;
  /// False for the first hop (ack releases the origin process's credit),
  /// true once an intermediate CHT has forwarded it.
  bool upstream_is_cht = false;
  /// True when the latest hop consumed a buffer credit (always, except
  /// intra-node deliveries which bypass flow control).
  bool hop_credit_taken = false;
  /// Number of CHT forwarding steps taken so far (diagnostics).
  int forwards = 0;
  /// Retry attempt this copy belongs to: 0 for the original issue, n for
  /// the n-th watchdog re-issue. All attempts share `id` — the sequence
  /// number the target CHT dedups on — and the origin's response future.
  int attempt = 0;
  /// Criticality class; see default_priority(). Travels with the request
  /// so every hop's CHT dequeues and every credit acquire lanes by it.
  Priority cls = Priority::kNormal;
  /// Simulated time this copy entered the current CHT queue (per-class
  /// queue-wait accounting + aging). Reset on every submit.
  std::int64_t enqueued_ns = 0;
  /// True when the origin's per-target congestion window charged a slot
  /// for this op; the (dedup-gated) completion returns exactly one slot.
  bool window_slot_taken = false;

  GAddr addr{};                      ///< target address (atomic/acc/lock id base)
  AccType acc_type = AccType::kF64;  ///< accumulate element type
  double scale = 1.0;                ///< accumulate scale factor
  std::int64_t imm = 0;              ///< fetch-&-add delta / swap value
  std::int32_t mutex_id = 0;         ///< lock/unlock mutex index
  std::vector<VecSeg> segs;          ///< vectored segments
  StridedDesc strided;               ///< kPutS/kGetS descriptor
  std::vector<std::uint8_t> data;    ///< put/acc payload (real bytes)

  /// Payload bytes carried by the request on the wire.
  [[nodiscard]] std::int64_t payload_bytes() const {
    std::int64_t desc =
        static_cast<std::int64_t>(segs.size()) * 16;
    if (op == OpCode::kPutS || op == OpCode::kGetS) {
      desc = StridedDesc::kWireBytes;
    }
    return static_cast<std::int64_t>(data.size()) + desc;
  }
  /// Data bytes the response will carry back.
  [[nodiscard]] std::int64_t response_data_bytes() const;

  /// Fulfilled (via the event queue) when the response reaches origin.
  /// Typed future instead of a type-erased callback: attaching a
  /// completion no longer risks a std::function heap allocation, and the
  /// future's shared state itself is pooled (sim::RecycleAlloc).
  std::optional<sim::Future<Response>> response_future;

 private:
  friend class RequestPtr;
  friend class RequestPool;
  /// Atomic: under the threads backend the origin, an intermediate CHT,
  /// and the target CHT may hold RequestPtr copies on different worker
  /// threads. Contention is nil (a handful of refs per request), so the
  /// relaxed increments cost what the plain ones did.
  std::atomic<std::uint32_t> refs_{0};
  RequestPool* pool_ = nullptr;   ///< owner; null => plain heap object
  Request* free_next_ = nullptr;  ///< freelist link while parked
};

/// Intrusive refcounted handle to a Request. One pointer wide, so event
/// callbacks holding one stay inside InlineFn's inline storage, and
/// copy/release touch only the object's own counter — no control block,
/// no allocator.
class RequestPtr {
 public:
  RequestPtr() noexcept = default;
  RequestPtr(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  /// Adopts a reference (the pool hands out refcount-0 objects).
  explicit RequestPtr(Request* r) noexcept : p_(r) {
    if (p_ != nullptr) p_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  RequestPtr(const RequestPtr& other) noexcept : p_(other.p_) {
    if (p_ != nullptr) p_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  RequestPtr(RequestPtr&& other) noexcept
      : p_(std::exchange(other.p_, nullptr)) {}
  RequestPtr& operator=(const RequestPtr& other) noexcept {
    RequestPtr tmp(other);
    std::swap(p_, tmp.p_);
    return *this;
  }
  RequestPtr& operator=(RequestPtr&& other) noexcept {
    RequestPtr tmp(std::move(other));
    std::swap(p_, tmp.p_);
    return *this;
  }
  ~RequestPtr() { reset(); }

  void reset() noexcept;

  [[nodiscard]] Request* get() const noexcept { return p_; }
  Request& operator*() const noexcept { return *p_; }
  Request* operator->() const noexcept { return p_; }
  explicit operator bool() const noexcept { return p_ != nullptr; }
  friend bool operator==(const RequestPtr& a, const RequestPtr& b) {
    return a.p_ == b.p_;
  }

 private:
  Request* p_ = nullptr;
};

/// Recycling pool of Request objects, one per Runtime. acquire() pops a
/// parked request (vector capacities intact) or heap-allocates on a cold
/// start; the last RequestPtr release scrubs the request back to its
/// default-constructed field values and parks it. Steady state issues
/// requests with zero allocator traffic.
class RequestPool {
 public:
  RequestPool() = default;
  RequestPool(const RequestPool&) = delete;
  RequestPool& operator=(const RequestPool&) = delete;

  /// Declare this pool node-homed under the threads backend: a last
  /// release observed on another node's worker posts the recycle back to
  /// the home node's queue (at due 0, via the home facade's hook), so
  /// the freelist is only ever touched by its owner. The driver thread
  /// (node -1) recycles directly — it only drops references while every
  /// worker is quiescent.
  void bind_realtime(sim::Engine* home_eng, int home_node) {
    home_eng_ = home_eng;
    home_node_ = home_node;
  }
  ~RequestPool() {
    Request* r = free_;
    while (r != nullptr) {
      Request* next = r->free_next_;
      delete r;
      r = next;
    }
  }

  [[nodiscard]] RequestPtr acquire() {
    Request* r = free_;
    if (r != nullptr) {
      free_ = r->free_next_;
      r->free_next_ = nullptr;
      --parked_;
      ++reused_;
    } else {
      r = new Request();
      r->pool_ = this;
      ++created_;
    }
    return RequestPtr(r);
  }

  /// Requests currently parked on the freelist.
  [[nodiscard]] std::size_t parked() const { return parked_; }
  /// Heap constructions (cold starts) / freelist reuses so far.
  [[nodiscard]] std::uint64_t created() const { return created_; }
  [[nodiscard]] std::uint64_t reused() const { return reused_; }

  /// Requests handed out and not yet recycled. Every created request is
  /// either parked or live, so after a clean run this is zero; a nonzero
  /// value at quiescence means a RequestPtr cycle or a dropped response.
  [[nodiscard]] std::uint64_t live() const {
    return created_ - static_cast<std::uint64_t>(parked_);
  }
  /// Abort (via validate_fail) unless every request returned to the
  /// pool. Compiled into every build; call only at quiescence — a
  /// mid-run call would report in-flight requests as leaks.
  void check_drained(const char* what) const {
    VTOPO_CHECK_ALWAYS(live() == 0, what);
  }

 private:
  friend class RequestPtr;

  void recycle(Request* r) noexcept {
    if (home_eng_ != nullptr) {
      const int node = sim::current_node();
      if (node >= 0 && node != home_node_) {
        home_eng_->schedule_on_node(home_node_, 0,
                                    [this, r] { recycle_local(r); });
        return;
      }
      recycle_local(r);
      return;
    }
    recycle_local(r);
  }

  void recycle_local(Request* r) noexcept {
    assert(r->refs_.load(std::memory_order_relaxed) == 0 &&
           r->pool_ == this);
    r->id = 0;
    r->op = OpCode::kFetchAdd;
    r->origin_proc = 0;
    r->origin_node = 0;
    r->target_proc = 0;
    r->target_node = 0;
    r->upstream_node = 0;
    r->upstream_is_cht = false;
    r->hop_credit_taken = false;
    r->forwards = 0;
    r->attempt = 0;
    r->cls = Priority::kNormal;
    r->enqueued_ns = 0;
    r->window_slot_taken = false;
    r->addr = GAddr{};
    r->acc_type = AccType::kF64;
    r->scale = 1.0;
    r->imm = 0;
    r->mutex_id = 0;
    r->segs.clear();       // keeps capacity
    r->strided = StridedDesc{};
    r->data.clear();       // keeps capacity
    r->response_future.reset();
    r->free_next_ = free_;
    free_ = r;
    ++parked_;
  }

  Request* free_ = nullptr;
  std::size_t parked_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t reused_ = 0;
  sim::Engine* home_eng_ = nullptr;  ///< threads backend: home facade
  int home_node_ = -1;
};

inline void RequestPtr::reset() noexcept {
  if (p_ != nullptr &&
      p_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (p_->pool_ != nullptr) {
      p_->pool_->recycle(p_);
    } else {
      delete p_;
    }
  }
  p_ = nullptr;
}

}  // namespace vtopo::armci
