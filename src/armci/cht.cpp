#include "armci/cht.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "armci/runtime.hpp"
#include "sim/validate.hpp"

namespace vtopo::armci {

Cht::Cht(Runtime& rt, core::NodeId node)
    : rt_(&rt), node_(node), queue_(rt.engine(), &rt.params().qos) {}

void Cht::start() { rt_->spawn_task(run_loop()); }

void Cht::stop() { queue_.poison(); }

void Cht::submit(RequestPtr r) {
  r->enqueued_ns = rt_->engine().now();
  queue_.push(std::move(r));
  RuntimeStats& stats = rt_->stats();
  stats.max_backlog = std::max<std::uint64_t>(stats.max_backlog,
                                              queue_.size());
}

sim::Co<void> Cht::run_loop() {
  for (;;) {
    RequestPtr r = co_await queue_.pop();
    if (!r) break;  // poison: shut down
    if (rt_->tracer().enabled()) {
      rt_->tracer().record(queue_wait_kind(r->cls), r->origin_proc,
                           r->enqueued_ns,
                           rt_->engine().now() - r->enqueued_ns);
    }
    // Aging promotions happen inside the queue's dequeue pick; sync the
    // monotone counter into the (node-local) stats slot here.
    const std::uint64_t aged = queue_.aged_promotions();
    if (aged != last_aged_) {
      rt_->stats().aged_promotions += aged - last_aged_;
      last_aged_ = aged;
    }
    // Polling model: a CHT that went idle longer than the polling window
    // blocked in the network wait and pays a wake-up penalty; an actively
    // busy/forwarding CHT is already polling and reacts immediately.
    const ArmciParams& p = rt_->params();
    if (rt_->engine().now() - last_active_ > p.cht_poll_window) {
      ++rt_->stats().cht_wakeups;
      co_await sim::Sleep(rt_->engine(), p.cht_wakeup);
    }
    co_await handle(std::move(r));
    last_active_ = rt_->engine().now();
  }
}

sim::TimeNs Cht::handle_cost(const Request& r) const {
  const ArmciParams& p = rt_->params();
  sim::TimeNs cost = p.cht_service;
  const std::int64_t touched =
      r.payload_bytes() + (r.target_node == node_
                               ? r.response_data_bytes()
                               : 0);
  cost += static_cast<sim::TimeNs>(static_cast<double>(touched) * 1e9 /
                                   p.cht_copy_bandwidth);
  if (r.target_node == node_ &&
      (r.op == OpCode::kFetchAdd || r.op == OpCode::kSwap)) {
    cost += p.atomic_exec;
  }
  return cost;
}

sim::Co<void> Cht::handle(RequestPtr r) {
  ++handled_;
  sim::TimeNs cost = handle_cost(*r);
  if (rt_->faults_armed()) {
    const double slow = rt_->node_slow_factor(node_);
    if (slow > 1.0) {
      cost = static_cast<sim::TimeNs>(static_cast<double>(cost) * slow);
    }
  }
  busy_ns_ += cost;
  co_await sim::Sleep(rt_->engine(), cost);
  if (r->target_node == node_) {
    execute(r);
  } else {
    // Forwarding may block on a downstream buffer credit. That wait
    // must NOT stall the service loop: a serial CHT that blocks
    // head-of-line couples otherwise-independent buffer classes and
    // deadlocks even under LDF (the Dally–Seitz argument requires each
    // resource class to drain independently). Park the forward as its
    // own task; the receive buffer it occupies stays held until the
    // forward actually goes out.
    rt_->spawn_task(forward(std::move(r)));
  }
}

sim::Co<void> Cht::forward(RequestPtr r) {
  const ArmciParams& p = rt_->params();
  const core::NodeId next = rt_->next_hop_for(node_, r->target_node);
  assert(next != node_);

  // Acquire a buffer credit at the next hop. While blocked here the
  // request still occupies this node's receive buffer (hold-and-wait).
  CreditBank& bank = rt_->credits(node_);
  const sim::TimeNs t0 = rt_->engine().now();
  co_await bank.acquire(next, r->cls);
  const sim::TimeNs blocked = rt_->engine().now() - t0;
  bank.add_blocked(blocked);
  rt_->stats().credit_blocked_ns += blocked;

  co_await sim::Sleep(rt_->engine(), p.cht_forward_extra);

  // The buffer here is free once the copy has been pushed out: ack the
  // upstream node, then send the request onward.
  release_upstream(*r);
  r->upstream_node = node_;
  r->upstream_is_cht = true;
  r->hop_credit_taken = true;
  ++r->forwards;
  RuntimeStats& stats = rt_->stats();
  ++stats.forwards;
  stats.max_forwards_seen =
      std::max(stats.max_forwards_seen,
               static_cast<std::uint64_t>(r->forwards));
  // Every hop fixes one more coordinate toward the target, so no route
  // can exceed the topology's rank-1 forwarding bound (any policy).
  VTOPO_CHECK(r->forwards <= rt_->topology().max_forwards(),
              "request forwarded past the topology's max-forwards bound");

  const std::int64_t wire =
      p.request_header_bytes + r->payload_bytes();
  rt_->send_request_msg(std::move(r), node_, next, wire,
                        rt_->cht_stream(node_));
}

void Cht::release_upstream(const Request& r) {
  if (!r.hop_credit_taken) return;  // intra-node delivery took no credit
  rt_->send_ack_msg(node_, r.upstream_node, r.cls);
}

void Cht::execute(const RequestPtr& r) {
  GlobalMemory& mem = rt_->memory();
  Response resp;
  bool respond_now = true;

  // Idempotent sequence numbers: duplicates of a mutating request
  // (retries of an op whose response was lost, or wire-duplicated
  // copies) must not re-apply their side effect — accumulates and
  // atomics would double-apply, and a late duplicate put could undo a
  // newer write to the same location. The dedup cache remembers
  // executed (origin, id) pairs with their result; a hit absorbs the
  // effect and resends the remembered response. Reads (kGetV/kGetS)
  // skip the cache: re-execution cannot disturb memory, and the
  // origin-side gate discards the extra response.
  const bool dedupable =
      rt_->faults_armed() &&
      (r->op == OpCode::kAcc || r->op == OpCode::kFetchAdd ||
       r->op == OpCode::kSwap || r->op == OpCode::kPutV ||
       r->op == OpCode::kPutS);
  if (dedupable) {
    if (const DedupEntry* e = find_dedup(r->origin_proc, r->id)) {
      ++rt_->stats().dup_suppressed;
      release_upstream(*r);
      Response cached;
      cached.value = e->value;
      send_response(r, std::move(cached));
      return;
    }
  }

  switch (r->op) {
    case OpCode::kPutV: {
      std::int64_t off = 0;
      for (const auto& seg : r->segs) {
        mem.write(GAddr{r->target_proc, seg.target_offset},
                  std::span<const std::uint8_t>(r->data).subspan(
                      static_cast<std::size_t>(off),
                      static_cast<std::size_t>(seg.bytes)));
        off += seg.bytes;
      }
      break;
    }
    case OpCode::kAcc: {
      // Accumulate straight from the payload bytes: no staging copy.
      const std::span<const std::uint8_t> data(r->data);
      std::int64_t off = 0;
      for (const auto& seg : r->segs) {
        const GAddr dst{r->target_proc, seg.target_offset};
        const auto bytes = data.subspan(static_cast<std::size_t>(off),
                                        static_cast<std::size_t>(seg.bytes));
        switch (r->acc_type) {
          case AccType::kF64:
            mem.accumulate_f64(dst, bytes, r->scale);
            break;
          case AccType::kI64:
            mem.accumulate_i64(dst, bytes,
                               static_cast<std::int64_t>(r->scale));
            break;
          case AccType::kF32:
            mem.accumulate_f32(dst, bytes, static_cast<float>(r->scale));
            break;
        }
        off += seg.bytes;
      }
      break;
    }
    case OpCode::kPutS: {
      const StridedDesc& d = r->strided;
      const std::span<const std::uint8_t> data(r->data);
      const auto block = static_cast<std::size_t>(d.block_bytes);
      std::size_t src_off = 0;
      StridedOdometer o = d.blocks();
      do {
        mem.write(GAddr{r->target_proc, d.base_offset + o.a()},
                  data.subspan(src_off, block));
        src_off += block;
      } while (o.next());
      break;
    }
    case OpCode::kGetS: {
      const StridedDesc& d = r->strided;
      resp.data.reserve(static_cast<std::size_t>(d.total_bytes()));
      StridedOdometer o = d.blocks();
      do {
        const auto v = mem.view(GAddr{r->target_proc, d.base_offset + o.a()},
                                d.block_bytes);
        resp.data.insert(resp.data.end(), v.begin(), v.end());
      } while (o.next());
      break;
    }
    case OpCode::kGetV: {
      resp.data.reserve(
          static_cast<std::size_t>(r->response_data_bytes()));
      for (const auto& seg : r->segs) {
        const auto v =
            mem.view(GAddr{r->target_proc, seg.target_offset}, seg.bytes);
        resp.data.insert(resp.data.end(), v.begin(), v.end());
      }
      break;
    }
    case OpCode::kFetchAdd:
      resp.value = mem.fetch_add_i64(r->addr, r->imm);
      break;
    case OpCode::kSwap:
      resp.value = mem.swap_i64(r->addr, r->imm);
      break;
    case OpCode::kLock: {
      LockState& ls = locks_.get(r->target_proc, r->mutex_id);
      if (ls.held) {
        // Absorb into the waiter queue; the buffer is still released
        // below, and the grant response is sent at unlock time.
        ls.waiters.push_back(r);
        rt_->stats().lock_queue_max =
            std::max<std::uint64_t>(rt_->stats().lock_queue_max,
                                    ls.waiters.size());
        respond_now = false;
      } else {
        ls.held = true;
        ls.holder = r->origin_proc;
      }
      break;
    }
    case OpCode::kUnlock: {
      LockState& ls = locks_.get(r->target_proc, r->mutex_id);
      assert(ls.held && ls.holder == r->origin_proc &&
             "unlock by non-holder");
      if (!ls.waiters.empty()) {
        RequestPtr next = std::move(ls.waiters.front());
        ls.waiters.pop_front();
        ls.holder = next->origin_proc;
        send_response(next, Response{});  // grant to the next waiter
      } else {
        ls.held = false;
        ls.holder = -1;
      }
      break;
    }
  }

  if (dedupable && respond_now) {
    remember_dedup(r->origin_proc, r->id, resp.value);
  }
  release_upstream(*r);
  if (respond_now) send_response(r, std::move(resp));
}

void Cht::send_response(const RequestPtr& r, Response resp) {
  const ArmciParams& p = rt_->params();
  // Piggyback this CHT's queue depth: the congestion feedback the
  // origin's per-target AIMD window reacts to. Pure data on an existing
  // message — populated whether or not QoS is on.
  resp.queue_backlog = static_cast<std::int32_t>(backlog());
  const std::int64_t wire = p.response_header_bytes +
                            static_cast<std::int64_t>(resp.data.size());
  // Response rides inside the arrival callback by move (InlineFn holds
  // move-only captures), and the future fulfilment is a typed member —
  // no shared_ptr<Response>, no std::function allocation. The runtime
  // wrapper gates completion at the origin (exactly-once under faults)
  // and lets the reconfigure quiesce proceed once every issued request
  // has completed and the credit acks have drained.
  rt_->send_response_msg(r, std::move(resp), node_, wire);
}

const Cht::DedupEntry* Cht::find_dedup(ProcId origin,
                                       std::uint64_t id) const {
  for (const DedupEntry& e : dedup_) {
    if (e.id == id && e.origin == origin) return &e;
  }
  return nullptr;
}

void Cht::remember_dedup(ProcId origin, std::uint64_t id,
                         std::int64_t value) {
  const std::size_t cap = rt_->params().dedup_cache_entries;
  if (cap == 0) return;
  if (dedup_.size() < cap) {
    dedup_.push_back(DedupEntry{origin, id, value});
  } else {
    // FIFO ring: overwrite the oldest remembered completion.
    dedup_[dedup_next_ % cap] = DedupEntry{origin, id, value};
    ++dedup_next_;
  }
}

}  // namespace vtopo::armci
