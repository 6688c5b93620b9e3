#include "armci/proc.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <utility>

#include "armci/arena.hpp"
#include "armci/cht.hpp"
#include "armci/runtime.hpp"

namespace vtopo::armci {

Proc::Proc(Runtime& rt, ProcId id)
    : rt_(&rt),
      id_(id),
      node_(rt.node_of(id)),
      rng_(sim::derive_seed(rt.config().seed,
                            static_cast<std::uint64_t>(id))) {}

bool Proc::is_master() const {
  return id_ % rt_->procs_per_node() == 0;
}

// --------------------------------------------------------------------
// Direct contiguous transfers (bypass the CHT entirely).
// --------------------------------------------------------------------

sim::Co<void> Proc::put(GAddr dst, std::span<const std::uint8_t> src) {
  sim::Engine& eng = rt_->engine();
  const ArmciParams& p = rt_->params();
  const sim::TimeNs t0 = eng.now();
  ++rt_->stats().direct_ops;
  co_await sim::Sleep(eng, p.proc_op_overhead);

  const core::NodeId tnode = rt_->node_of(dst.proc);
  if (rt_->is_threads()) {
    // Real shared-memory transfer: the target's worker copies straight
    // out of the caller's buffer into its own segment (no staging, no
    // modeled wire). The source span stays valid — and unmutated — while
    // this frame is suspended on the completion future.
    GlobalMemory& mem = rt_->memory();
    const std::uint8_t* sp = src.data();
    const std::size_t nbytes = src.size();
    sim::Future<int> done(eng);
    rt_->transport().post(static_cast<int>(tnode),
                          // vtopo-lint: allow(suspension-lifetime) -- mem aliases the runtime-owned GlobalMemory; the frame stays suspended until done.set
                          [&mem, dst, sp, nbytes, done]() mutable {
      mem.write(dst, {sp, nbytes});
      done.set(0);
    });
    co_await done;
    rt_->tracer().record(TraceKind::kPut, id_, t0, eng.now() - t0);
    co_return;
  }
  // Data lands at the simulated arrival instant; the blocking call
  // conservatively returns at remote completion. The staging buffer is a
  // recycled arena chunk moved into the arrival event.
  PayloadArena::Ref data = rt_->payload_arena().acquire(src.size());
  std::memcpy(data.data(), src.data(), src.size());
  const std::int64_t wire =
      p.rdma_header_bytes + static_cast<std::int64_t>(src.size());
  GlobalMemory& mem = rt_->memory();
  const sim::TimeNs arrival =
      rt_->network().send(node_, tnode, wire, rt_->proc_stream(id_));
  eng.schedule_at(arrival,
                  // vtopo-lint: allow(suspension-lifetime) -- mem aliases the runtime-owned GlobalMemory, not a frame local
                  [&mem, dst, data = std::move(data)]() mutable {
    mem.write(dst, data.view());
  });
  co_await sim::Sleep(eng, arrival - eng.now());
  rt_->tracer().record(TraceKind::kPut, id_, t0, eng.now() - t0);
}

sim::Co<void> Proc::get(std::span<std::uint8_t> dst, GAddr src) {
  sim::Engine& eng = rt_->engine();
  const ArmciParams& p = rt_->params();
  const sim::TimeNs t0 = eng.now();
  ++rt_->stats().direct_ops;
  co_await sim::Sleep(eng, p.proc_op_overhead);

  const core::NodeId tnode = rt_->node_of(src.proc);
  if (rt_->is_threads()) {
    // Real shared-memory read: the owner's worker snapshots its segment
    // into the caller's destination buffer, which no one else touches
    // until this frame resumes.
    GlobalMemory& mem = rt_->memory();
    std::uint8_t* out = dst.data();
    const std::size_t nbytes = dst.size();
    sim::Future<int> done(eng);
    rt_->transport().post(static_cast<int>(tnode),
                          // vtopo-lint: allow(suspension-lifetime) -- mem aliases the runtime-owned GlobalMemory; the frame stays suspended until done.set
                          [&mem, out, nbytes, src, done]() mutable {
      mem.read({out, nbytes}, src);
      done.set(0);
    });
    co_await done;
    rt_->tracer().record(TraceKind::kGet, id_, t0, eng.now() - t0);
    co_return;
  }
  // RDMA read: descriptor travels to the target NIC, data streams back.
  co_await rt_->network().transfer(node_, tnode, p.rdma_header_bytes,
                                   rt_->proc_stream(id_));
  PayloadArena::Ref data = rt_->payload_arena().acquire(dst.size());
  rt_->memory().read(data.mutable_view(), src);
  co_await rt_->network().transfer(
      tnode, node_,
      p.rdma_header_bytes + static_cast<std::int64_t>(dst.size()),
      rt_->proc_stream(id_));
  std::memcpy(dst.data(), data.data(), dst.size());
  rt_->tracer().record(TraceKind::kGet, id_, t0, eng.now() - t0);
}

// --------------------------------------------------------------------
// CHT-mediated request plumbing.
// --------------------------------------------------------------------

RequestPtr Proc::make_request(OpCode op, ProcId target) {
  RequestPtr r = rt_->request_pool().acquire();
  r->id = rt_->next_request_id();
  r->op = op;
  r->origin_proc = id_;
  r->origin_node = node_;
  r->target_proc = target;
  r->target_node = rt_->node_of(target);
  r->cls = cls_override_ ? *cls_override_ : default_priority(op);
  return r;
}

sim::Future<Response> Proc::make_future(const RequestPtr& r) {
  sim::Future<Response> fut(rt_->engine());
  r->response_future = fut;  // copies share the pooled state
  return fut;
}

sim::Co<void> Proc::issue_send(RequestPtr r) {
  // Reconfiguration fence: new CHT-mediated ops park here while a live
  // topology remap quiesces the request path. Unlock must bypass the
  // fence — a parked lock waiter's request can only drain through its
  // holder's unlock. Ready (zero events, zero time) when inactive.
  while (rt_->reconfig_active() && r->op != OpCode::kUnlock) {
    co_await rt_->reconfig_fence();
  }
  rt_->note_request_issued();
  sim::Engine& eng = rt_->engine();
  const ArmciParams& p = rt_->params();
  ++rt_->stats().requests;
  // Endpoint congestion window: gated classes charge one slot toward
  // the target before anything else is paid, so a full window delays
  // the whole issue path (overhead, credits, wire). Intra-node ops
  // never hit a CHT queue remotely and are exempt, like credits.
  if (r->target_node != node_) {
    CongestionControl& cc = rt_->congestion(node_);
    if (cc.gates(r->cls)) {
      r->window_slot_taken = true;
      auto gate = cc.acquire(r->target_node, r->cls);
      const sim::TimeNs w0 = eng.now();
      co_await gate;
      if (gate.suspended) {
        ++rt_->stats().congestion_stalls;
        rt_->stats().congestion_stall_ns += eng.now() - w0;
      }
    }
  }
  // Self-healing request path: arm the per-request timeout/retry
  // watchdog before paying overhead or credits, so the timeout clock
  // covers the whole issue path. Locks are exempt (lock traffic is
  // modeled reliable — a replayed lock would re-queue), as are
  // intra-node ops (shared memory, never on the wire).
  if (rt_->faults_armed() && r->target_node != node_ &&
      r->op != OpCode::kLock && r->op != OpCode::kUnlock &&
      r->response_future.has_value()) {
    rt_->arm_retry_watchdog(r);
  }
  co_await sim::Sleep(eng, p.proc_op_overhead);

  const std::int64_t wire = p.request_header_bytes + r->payload_bytes();
  if (r->target_node == node_) {
    // Intra-node: handed to the local CHT through shared memory; no
    // buffer credit involved.
    r->upstream_node = node_;
    r->upstream_is_cht = false;
    r->hop_credit_taken = false;
    rt_->send_request_msg(std::move(r), node_, node_, wire,
                          rt_->proc_stream(id_));
    co_return;
  }

  const core::NodeId hop = rt_->next_hop_for(node_, r->target_node);
  CreditBank& bank = rt_->credits(node_);
  const sim::TimeNs t0 = eng.now();
  co_await bank.acquire(hop, r->cls);
  const sim::TimeNs blocked = eng.now() - t0;
  bank.add_blocked(blocked);
  rt_->stats().credit_blocked_ns += blocked;

  r->upstream_node = node_;
  r->upstream_is_cht = false;
  r->hop_credit_taken = true;
  rt_->send_request_msg(std::move(r), node_, hop, wire,
                        rt_->proc_stream(id_));
}

sim::Co<Response> Proc::roundtrip(RequestPtr r) {
  const Priority cls = r->cls;
  const sim::TimeNs t0 = rt_->engine().now();
  sim::Future<Response> fut = make_future(r);
  co_await issue_send(std::move(r));
  Response resp = co_await fut;
  rt_->tracer().record(class_latency_kind(cls), id_, t0,
                       rt_->engine().now() - t0);
  co_return resp;
}

// --------------------------------------------------------------------
// Vectored / strided / accumulate operations.
// --------------------------------------------------------------------

namespace {

/// Greatest payload a single request may carry.
std::int64_t max_chunk_payload(const ArmciParams& p) {
  // Leave room for the header and one segment descriptor.
  return p.buffer_bytes - p.request_header_bytes - 16;
}

}  // namespace

std::vector<RequestPtr> Proc::chunk_put(ProcId target, OpCode op,
                                        std::span<const PutSeg> segs,
                                        double scale, AccType acc_type) {
  const std::int64_t limit = max_chunk_payload(rt_->params());
  std::vector<RequestPtr> reqs;
  RequestPtr cur;
  std::int64_t cur_bytes = 0;
  auto flush = [&] {
    if (cur && !cur->segs.empty()) reqs.push_back(std::move(cur));
    cur = nullptr;
    cur_bytes = 0;
  };
  auto ensure = [&] {
    if (!cur) {
      cur = make_request(op, target);
      cur->scale = scale;
      cur->acc_type = acc_type;
    }
  };
  for (const PutSeg& seg : segs) {
    std::int64_t off = 0;
    const auto total = static_cast<std::int64_t>(seg.src.size());
    while (off < total) {
      ensure();
      const std::int64_t room = limit - cur_bytes - 16;
      if (room <= 0) {
        flush();
        continue;
      }
      const std::int64_t take = std::min(total - off, room);
      cur->segs.push_back(VecSeg{seg.target_offset + off, take});
      const auto* base = seg.src.data() + off;
      cur->data.insert(cur->data.end(), base, base + take);
      cur_bytes += take + 16;
      off += take;
    }
  }
  flush();
  return reqs;
}

std::vector<RequestPtr> Proc::chunk_get(ProcId target,
                                        std::span<const GetSeg> segs) {
  const std::int64_t limit = max_chunk_payload(rt_->params());
  std::vector<RequestPtr> reqs;
  RequestPtr cur;
  std::int64_t cur_bytes = 0;
  auto flush = [&] {
    if (cur && !cur->segs.empty()) reqs.push_back(std::move(cur));
    cur = nullptr;
    cur_bytes = 0;
  };
  for (const GetSeg& seg : segs) {
    std::int64_t off = 0;
    const auto total = static_cast<std::int64_t>(seg.dst.size());
    while (off < total) {
      if (!cur) cur = make_request(OpCode::kGetV, target);
      const std::int64_t room = limit - cur_bytes - 16;
      if (room <= 0) {
        flush();
        continue;
      }
      const std::int64_t take = std::min(total - off, room);
      cur->segs.push_back(VecSeg{seg.source_offset + off, take});
      cur_bytes += take + 16;
      off += take;
    }
  }
  flush();
  return reqs;
}

sim::Co<void> Proc::vector_op(OpCode /*op*/, ProcId /*target*/,
                              std::vector<RequestPtr> reqs) {
  // Pipeline: issue every chunk (each taking its own buffer credit),
  // then await all completions. The whole group shares one class, so
  // one class-latency sample covers the call.
  const Priority cls =
      reqs.empty() ? Priority::kNormal : reqs.front()->cls;
  const sim::TimeNs t0 = rt_->engine().now();
  std::vector<sim::Future<Response>> futs;
  futs.reserve(reqs.size());
  for (auto& r : reqs) futs.push_back(make_future(r));
  for (auto& r : reqs) co_await issue_send(std::move(r));
  for (auto& f : futs) co_await f;
  if (!futs.empty()) {
    rt_->tracer().record(class_latency_kind(cls), id_, t0,
                         rt_->engine().now() - t0);
  }
}

sim::Co<void> Proc::put_v(ProcId target, std::span<const PutSeg> segs) {
  const sim::TimeNs t0 = rt_->engine().now();
  co_await vector_op(OpCode::kPutV, target,
                     chunk_put(target, OpCode::kPutV, segs, 1.0));
  rt_->tracer().record(TraceKind::kPutV, id_, t0,
                       rt_->engine().now() - t0);
}

sim::Co<void> Proc::get_v(ProcId target, std::span<const GetSeg> segs) {
  const sim::TimeNs t0 = rt_->engine().now();
  co_await scatter_get(target,
                       std::vector<GetSeg>(segs.begin(), segs.end()));
  rt_->tracer().record(TraceKind::kGetV, id_, t0,
                       rt_->engine().now() - t0);
}

sim::Co<void> Proc::scatter_get(ProcId target, std::vector<GetSeg> segs) {
  std::vector<RequestPtr> reqs = chunk_get(target, segs);
  const Priority cls =
      reqs.empty() ? Priority::kNormal : reqs.front()->cls;
  const sim::TimeNs t0 = rt_->engine().now();
  // Remember local scatter layout: chunks partition the segment list in
  // order, so replay the same walk when responses arrive.
  std::vector<sim::Future<Response>> futs;
  futs.reserve(reqs.size());
  for (auto& r : reqs) futs.push_back(make_future(r));
  for (auto& r : reqs) co_await issue_send(std::move(r));

  // Collect responses, then scatter bytes into the local spans.
  std::vector<Response> resps;
  resps.reserve(futs.size());
  for (auto& f : futs) resps.push_back(co_await f);
  if (!futs.empty()) {
    rt_->tracer().record(class_latency_kind(cls), id_, t0,
                         rt_->engine().now() - t0);
  }

  std::size_t chunk = 0;
  std::size_t within = 0;  // byte offset within current response
  for (const GetSeg& seg : segs) {
    std::size_t off = 0;
    while (off < seg.dst.size()) {
      assert(chunk < resps.size());
      const std::vector<std::uint8_t>& data = resps[chunk].data;
      const std::size_t avail = data.size() - within;
      const std::size_t take = std::min(avail, seg.dst.size() - off);
      std::memcpy(seg.dst.data() + off, data.data() + within, take);
      off += take;
      within += take;
      if (within == data.size()) {
        ++chunk;
        within = 0;
      }
    }
  }
}

sim::Co<void> Proc::acc_bytes(GAddr dst,
                              std::span<const std::uint8_t> raw,
                              double scale, AccType type) {
  const sim::TimeNs t0 = rt_->engine().now();
  const PutSeg seg{raw, dst.offset};
  co_await vector_op(
      OpCode::kAcc, dst.proc,
      chunk_put(dst.proc, OpCode::kAcc, {&seg, 1}, scale, type));
  rt_->tracer().record(TraceKind::kAcc, id_, t0,
                       rt_->engine().now() - t0);
}

sim::Co<void> Proc::acc_f64(GAddr dst, std::span<const double> src,
                            double scale) {
  co_await acc_bytes(
      dst,
      {reinterpret_cast<const std::uint8_t*>(src.data()),
       src.size() * sizeof(double)},
      scale, AccType::kF64);
}

sim::Co<void> Proc::acc_i64(GAddr dst, std::span<const std::int64_t> src,
                            std::int64_t scale) {
  co_await acc_bytes(
      dst,
      {reinterpret_cast<const std::uint8_t*>(src.data()),
       src.size() * sizeof(std::int64_t)},
      static_cast<double>(scale), AccType::kI64);
}

sim::Co<void> Proc::acc_f32(GAddr dst, std::span<const float> src,
                            float scale) {
  co_await acc_bytes(
      dst,
      {reinterpret_cast<const std::uint8_t*>(src.data()),
       src.size() * sizeof(float)},
      static_cast<double>(scale), AccType::kF32);
}

sim::Co<void> Proc::put_strided(GAddr dst, std::int64_t dst_stride,
                                const std::uint8_t* src,
                                std::int64_t src_stride,
                                std::int64_t block_bytes,
                                std::int64_t count) {
  // Sugar over the N-level path (one stride level).
  const std::int64_t dst_strides[] = {dst_stride};
  const std::int64_t src_strides[] = {src_stride};
  const std::int64_t counts[] = {block_bytes, count};
  co_await put_strided_n(dst, dst_strides, src, src_strides, counts);
}

sim::Co<void> Proc::get_strided(std::uint8_t* dst, std::int64_t dst_stride,
                                GAddr src, std::int64_t src_stride,
                                std::int64_t block_bytes,
                                std::int64_t count) {
  const std::int64_t dst_strides[] = {dst_stride};
  const std::int64_t src_strides[] = {src_stride};
  const std::int64_t counts[] = {block_bytes, count};
  co_await get_strided_n(dst, dst_strides, src, src_strides, counts);
}

// --------------------------------------------------------------------
// Atomics and locks.
// --------------------------------------------------------------------

sim::Co<std::int64_t> Proc::fetch_add(GAddr counter, std::int64_t delta) {
  const sim::TimeNs t0 = rt_->engine().now();
  RequestPtr r = make_request(OpCode::kFetchAdd, counter.proc);
  r->addr = counter;
  r->imm = delta;
  Response resp = co_await roundtrip(std::move(r));
  rt_->tracer().record(TraceKind::kFetchAdd, id_, t0,
                       rt_->engine().now() - t0);
  co_return resp.value;
}

sim::Co<std::int64_t> Proc::swap(GAddr cell, std::int64_t value) {
  const sim::TimeNs t0 = rt_->engine().now();
  RequestPtr r = make_request(OpCode::kSwap, cell.proc);
  r->addr = cell;
  r->imm = value;
  Response resp = co_await roundtrip(std::move(r));
  rt_->tracer().record(TraceKind::kSwap, id_, t0,
                       rt_->engine().now() - t0);
  co_return resp.value;
}

sim::Co<void> Proc::lock(ProcId owner, std::int32_t mutex_id) {
  const sim::TimeNs t0 = rt_->engine().now();
  RequestPtr r = make_request(OpCode::kLock, owner);
  r->mutex_id = mutex_id;
  co_await roundtrip(std::move(r));
  rt_->tracer().record(TraceKind::kLock, id_, t0,
                       rt_->engine().now() - t0);
}

sim::Co<void> Proc::unlock(ProcId owner, std::int32_t mutex_id) {
  const sim::TimeNs t0 = rt_->engine().now();
  RequestPtr r = make_request(OpCode::kUnlock, owner);
  r->mutex_id = mutex_id;
  co_await roundtrip(std::move(r));
  rt_->tracer().record(TraceKind::kUnlock, id_, t0,
                       rt_->engine().now() - t0);
}

// --------------------------------------------------------------------
// Non-blocking variants.
// --------------------------------------------------------------------

namespace {

sim::Co<void> drive_requests(Proc* self, std::vector<RequestPtr> reqs,
                             std::vector<sim::Future<Response>> futs,
                             sim::Future<int> done) {
  for (auto& r : reqs) co_await self->nb_issue(std::move(r));
  for (auto& f : futs) co_await f;
  done.set(0);
}

}  // namespace

sim::Future<int> Proc::nb_put_v(ProcId target,
                                std::span<const PutSeg> segs) {
  std::vector<RequestPtr> reqs =
      chunk_put(target, OpCode::kPutV, segs, 1.0);
  std::vector<sim::Future<Response>> futs;
  futs.reserve(reqs.size());
  for (auto& r : reqs) futs.push_back(make_future(r));
  sim::Future<int> done(rt_->engine());
  rt_->spawn_task(
      drive_requests(this, std::move(reqs), std::move(futs), done));
  return done;
}

sim::Future<int> Proc::nb_acc_f64(GAddr dst, std::span<const double> src,
                                  double scale) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(src.data());
  const PutSeg seg{
      std::span<const std::uint8_t>(bytes, src.size() * sizeof(double)),
      dst.offset};
  std::vector<RequestPtr> reqs =
      chunk_put(dst.proc, OpCode::kAcc, {&seg, 1}, scale);
  std::vector<sim::Future<Response>> futs;
  futs.reserve(reqs.size());
  for (auto& r : reqs) futs.push_back(make_future(r));
  sim::Future<int> done(rt_->engine());
  rt_->spawn_task(
      drive_requests(this, std::move(reqs), std::move(futs), done));
  return done;
}


namespace {

sim::Co<void> drive_get(Proc* self, ProcId target,
                        std::vector<GetSeg> segs, sim::Future<int> done) {
  co_await self->scatter_get(target, std::move(segs));
  done.set(0);
}

}  // namespace

sim::Future<int> Proc::nb_get_v(ProcId target,
                                std::span<const GetSeg> segs) {
  sim::Future<int> done(rt_->engine());
  rt_->spawn_task(drive_get(
      this, target, std::vector<GetSeg>(segs.begin(), segs.end()), done));
  return done;
}

sim::Co<void> Proc::nb_issue(RequestPtr r) {
  co_await issue_send(std::move(r));
}


// --------------------------------------------------------------------
// N-level strided transfers (ARMCI_PutS/GetS/AccS).
// --------------------------------------------------------------------

namespace {

/// Fill a compact descriptor from strided-op arguments; target-side
/// strides go on the wire.
StridedDesc make_desc(std::int64_t base,
                      std::span<const std::int64_t> target_strides,
                      std::span<const std::int64_t> counts) {
  StridedDesc d;
  d.base_offset = base;
  d.block_bytes = counts[0];
  d.levels = static_cast<int>(counts.size()) - 1;
  for (int l = 0; l < d.levels; ++l) {
    d.strides[static_cast<std::size_t>(l)] =
        target_strides[static_cast<std::size_t>(l)];
    d.counts[static_cast<std::size_t>(l)] =
        counts[static_cast<std::size_t>(l) + 1];
  }
  return d;
}

}  // namespace

sim::Co<void> Proc::put_strided_n(
    GAddr dst, std::span<const std::int64_t> dst_strides,
    const std::uint8_t* src, std::span<const std::int64_t> src_strides,
    std::span<const std::int64_t> counts) {
  const StridedDesc desc = make_desc(dst.offset, dst_strides, counts);
  const std::int64_t fits_limit = rt_->params().buffer_bytes -
                                  rt_->params().request_header_bytes -
                                  StridedDesc::kWireBytes;
  if (desc.levels <= 7 && desc.total_bytes() <= fits_limit) {
    // Fast path: one compact ARMCI_PutS request; the target expands the
    // descriptor. Payload packed in odometer order (level 0 innermost).
    RequestPtr r = make_request(OpCode::kPutS, dst.proc);
    r->strided = desc;
    r->data.reserve(static_cast<std::size_t>(desc.total_bytes()));
    StridedOdometer o(counts.subspan(1), src_strides, dst_strides);
    do {
      r->data.insert(r->data.end(), src + o.a(), src + o.a() + counts[0]);
    } while (o.next());
    co_await roundtrip(std::move(r));
    co_return;
  }
  // Oversized: fall back to buffer-chunked vectored segments.
  std::vector<PutSeg> segs;
  segs.reserve(static_cast<std::size_t>(desc.total_blocks()));
  StridedOdometer o(counts.subspan(1), src_strides, dst_strides);
  do {
    segs.push_back(PutSeg{
        std::span<const std::uint8_t>(src + o.a(),
                                      static_cast<std::size_t>(counts[0])),
        dst.offset + o.b()});
  } while (o.next());
  co_await put_v(dst.proc, segs);
}

sim::Co<void> Proc::get_strided_n(
    std::uint8_t* dst, std::span<const std::int64_t> dst_strides,
    GAddr src, std::span<const std::int64_t> src_strides,
    std::span<const std::int64_t> counts) {
  // Note the argument roles flip: for a get, the REMOTE side is `src`.
  const StridedDesc desc = make_desc(src.offset, src_strides, counts);
  if (desc.levels <= 7) {
    // Compact ARMCI_GetS: a fixed-size descriptor goes out; the gathered
    // bytes come back in one response (responses are not buffer-bound).
    RequestPtr r = make_request(OpCode::kGetS, src.proc);
    r->strided = desc;
    Response resp = co_await roundtrip(std::move(r));
    // Scatter in the same odometer order the target gathered.
    std::int64_t off = 0;
    StridedOdometer o(counts.subspan(1), dst_strides, src_strides);
    do {
      std::memcpy(dst + o.a(), resp.data.data() + off,
                  static_cast<std::size_t>(counts[0]));
      off += counts[0];
    } while (o.next());
    co_return;
  }
  std::vector<GetSeg> segs;
  segs.reserve(static_cast<std::size_t>(desc.total_blocks()));
  StridedOdometer o(counts.subspan(1), dst_strides, src_strides);
  do {
    segs.push_back(GetSeg{
        std::span<std::uint8_t>(dst + o.a(),
                                static_cast<std::size_t>(counts[0])),
        src.offset + o.b()});
  } while (o.next());
  co_await get_v(src.proc, segs);
}

sim::Co<void> Proc::acc_strided_f64(
    GAddr dst, std::span<const std::int64_t> dst_strides,
    const double* src, std::span<const std::int64_t> src_strides,
    std::span<const std::int64_t> counts, double scale) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(src);
  std::vector<PutSeg> segs;
  StridedOdometer o(counts.subspan(1), src_strides, dst_strides);
  do {
    segs.push_back(PutSeg{
        std::span<const std::uint8_t>(bytes + o.a(),
                                      static_cast<std::size_t>(counts[0])),
        dst.offset + o.b()});
  } while (o.next());
  co_await vector_op(
      OpCode::kAcc, dst.proc,
      chunk_put(dst.proc, OpCode::kAcc, segs, scale, AccType::kF64));
}

// --------------------------------------------------------------------
// Synchronization.
// --------------------------------------------------------------------

sim::Co<void> Proc::barrier() {
  const sim::TimeNs t0 = rt_->engine().now();
  co_await rt_->barrier_wait();
  rt_->tracer().record(TraceKind::kBarrier, id_, t0,
                       rt_->engine().now() - t0);
}

sim::Co<void> Proc::compute(sim::TimeNs d) {
  co_await sim::Sleep(rt_->engine(), d);
}

sim::Co<void> Proc::fence() {
  co_await sim::Sleep(rt_->engine(), rt_->params().proc_op_overhead);
}

}  // namespace vtopo::armci
