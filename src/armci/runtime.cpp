#include "armci/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <utility>

#include "armci/backend_threads.hpp"
#include "armci/cht.hpp"
#include "armci/proc.hpp"
#include "core/coords.hpp"
#include "core/remap.hpp"
#include "sim/validate.hpp"

namespace vtopo::armci {

namespace {

/// Standalone private fabric (the historical path), or attachment to a
/// shared machine fabric when Config::fabric is set (tenant mode).
net::Network make_network(sim::Engine& eng, const Runtime::Config& cfg) {
  if (cfg.fabric != nullptr) {
    if (static_cast<std::int64_t>(cfg.fabric_slots.size()) !=
        cfg.num_nodes) {
      throw std::invalid_argument(
          "Config::fabric_slots must have one machine slot per node");
    }
    return net::Network(eng, cfg.fabric, cfg.fabric_slots, cfg.net);
  }
  return net::Network(eng, cfg.num_nodes, cfg.net, cfg.placement, cfg.seed);
}

}  // namespace

Runtime::Runtime(sim::Engine& eng, Config cfg)
    : transport_(std::make_unique<SimTransport>(eng)),
      eng_(&eng),
      cfg_(cfg),
      memory_(cfg.num_nodes * cfg.procs_per_node, cfg.segment_bytes),
      topo_mgr_(cfg.custom_shape
                    ? core::VirtualTopology::custom(
                          cfg.topology, *cfg.custom_shape, cfg.num_nodes,
                          cfg.policy)
                    : core::VirtualTopology::make(cfg.topology,
                                                  cfg.num_nodes,
                                                  cfg.policy)),
      network_(make_network(eng, cfg)) {
  init();
}

Runtime::Runtime(Config cfg)
    : owned_engine_(cfg.backend == Backend::kSim
                        // vtopo-lint: allow(backend-seam) -- the Runtime ctor IS the seam: it owns the sim backend's engine
                        ? std::make_unique<sim::Engine>()
                        : nullptr),
      transport_(cfg.backend == Backend::kThreads
                     ? std::unique_ptr<Transport>(
                           std::make_unique<ThreadsTransport>(
                               static_cast<int>(cfg.num_nodes)))
                     : std::unique_ptr<Transport>(
                           std::make_unique<SimTransport>(*owned_engine_))),
      threads_(cfg.backend == Backend::kThreads
                   ? static_cast<ThreadsTransport*>(transport_.get())
                   : nullptr),
      eng_(threads_ != nullptr ? &threads_->global_engine()
                               : owned_engine_.get()),
      cfg_(cfg),
      memory_(cfg.num_nodes * cfg.procs_per_node, cfg.segment_bytes),
      topo_mgr_(cfg.custom_shape
                    ? core::VirtualTopology::custom(
                          cfg.topology, *cfg.custom_shape, cfg.num_nodes,
                          cfg.policy)
                    : core::VirtualTopology::make(cfg.topology,
                                                  cfg.num_nodes,
                                                  cfg.policy)),
      network_(*eng_, cfg.num_nodes, cfg.net, cfg.placement, cfg.seed) {
  if (cfg_.fabric != nullptr) {
    // Tenant coupling shares one link-occupancy horizon across
    // runtimes, which only a shared engine serializes; a private engine
    // or wall-clock threads have no cross-runtime ordering story. The
    // cluster service uses the external-engine constructor for coupled
    // tenants.
    throw std::invalid_argument(
        "fabric attachment requires a caller-owned engine");
  }
  if (threads_ != nullptr && cfg_.faults && cfg_.faults->armed()) {
    // The fault/retry/heal machinery is deterministic-replay tooling
    // (seeded draws, replayable overlays); on wall-clock threads it has
    // no meaning. Refuse rather than silently ignore.
    throw std::invalid_argument(
        "threads backend does not support fault injection");
  }
  init();
}

void Runtime::init() {
  const auto nn = static_cast<std::size_t>(cfg_.num_nodes);
  if (threads_ != nullptr) {
    // One slot per node plus the global pseudo-node: each worker touches
    // only its own slot; the driver folds them while workers are
    // quiescent. Pools home foreign frees through the owner's queue.
    for (int n = 0; n <= threads_->num_nodes(); ++n) {
      node_slots_.emplace_back();
      node_slots_.back().pool.bind_realtime(&threads_->engine_for_node(n),
                                            n);
    }
    req_seq_.assign(nn, 0);
  }
  chts_.reserve(nn);
  credit_banks_.reserve(nn);
  congestion_.reserve(nn);
  const QosParams* qos = &cfg_.armci.qos;
  for (core::NodeId n = 0; n < cfg_.num_nodes; ++n) {
    if (threads_ != nullptr) {
      // Every engine reference these actors capture must be the owning
      // node's wall-clock facade, and only that node's worker drives
      // them afterwards.
      sim::ScopedNode scope(static_cast<int>(n));
      chts_.push_back(std::make_unique<Cht>(*this, n));
      credit_banks_.emplace_back(
          threads_->engine_for_node(static_cast<int>(n)),
          credits_per_edge(), &topology(), n, qos);
      congestion_.emplace_back(
          threads_->engine_for_node(static_cast<int>(n)), qos);
    } else {
      chts_.push_back(std::make_unique<Cht>(*this, n));
      credit_banks_.emplace_back(*eng_, credits_per_edge(), &topology(), n,
                                 qos);
      congestion_.emplace_back(*eng_, qos);
    }
  }
  procs_.reserve(static_cast<std::size_t>(num_procs()));
  for (ProcId p = 0; p < num_procs(); ++p) {
    procs_.push_back(std::make_unique<Proc>(*this, p));
  }
  for (core::NodeId n = 0; n < cfg_.num_nodes; ++n) {
    if (threads_ != nullptr) {
      // Workers have not started yet: the service loop's first segment
      // runs inline here and parks on its queue; the std::thread
      // constructors in drive() order all of this before any worker.
      sim::ScopedNode scope(static_cast<int>(n));
      chts_[static_cast<std::size_t>(n)]->start();
    } else {
      chts_[static_cast<std::size_t>(n)]->start();
    }
  }
  if (cfg_.faults && cfg_.faults->armed()) {
    injector_ = std::make_unique<sim::FaultInjector>(*eng_, *cfg_.faults);
    node_down_.assign(nn, 0);
    node_slow_.assign(nn, 1.0);
    healed_.assign(nn, 0);
    first_hop_timeouts_.assign(nn, 0);
    injector_->arm([this](const sim::FaultEvent& e, bool begin) {
      apply_fault(e, begin);
    });
  }
}

Runtime::~Runtime() {
  // Let CHT loops exit so their coroutine frames are reclaimed; safe
  // even after run_all() (stop is idempotent via the poison drain).
  if (!chts_stopped_) {
    stop_chts();
  }
}

void Runtime::stop_chts() {
  for (core::NodeId n = 0; n < cfg_.num_nodes; ++n) {
    if (threads_ != nullptr) {
      // Workers are quiescent here (drive() settled); the poison push
      // posts a wakeup through the node's queue, which re-orders the
      // worker behind this write.
      sim::ScopedNode scope(static_cast<int>(n));
      chts_[static_cast<std::size_t>(n)]->stop();
    } else {
      chts_[static_cast<std::size_t>(n)]->stop();
    }
  }
  run_engine();
  chts_stopped_ = true;
}

void Runtime::run_engine() {
  if (threads_ != nullptr) {
    sync_slot_tracers();
    transport_->drive();
    fold_slot_counters();
  } else {
    eng_->run();
  }
  // Reserved-lane grants live as monotone counters inside the banks
  // (they have no stats access); snapshot the total whenever a run
  // settles so stats_ reads stay consistent with the other counters.
  std::uint64_t grants = 0;
  for (const CreditBank& bank : credit_banks_) {
    grants += bank.reserved_grants();
  }
  stats_.reserved_grants = grants;
}

void Runtime::sync_slot_tracers() {
  for (NodeSlot& s : node_slots_) s.tracer.configure_from(tracer_);
}

void Runtime::fold_slot_counters() {
  for (NodeSlot& s : node_slots_) {
    RuntimeStats& a = stats_;
    const RuntimeStats& b = s.stats;
    a.requests += b.requests;
    a.forwards += b.forwards;
    a.max_forwards_seen =
        std::max(a.max_forwards_seen, b.max_forwards_seen);
    a.acks += b.acks;
    a.responses += b.responses;
    a.direct_ops += b.direct_ops;
    a.cht_wakeups += b.cht_wakeups;
    a.lock_queue_max = std::max(a.lock_queue_max, b.lock_queue_max);
    a.max_backlog = std::max(a.max_backlog, b.max_backlog);
    a.credit_blocked_ns += b.credit_blocked_ns;
    a.aged_promotions += b.aged_promotions;
    a.congestion_stalls += b.congestion_stalls;
    a.congestion_stall_ns += b.congestion_stall_ns;
    a.window_shrinks += b.window_shrinks;
    a.reconfigurations += b.reconfigurations;
    a.reconfig_quiesce_ns += b.reconfig_quiesce_ns;
    a.reconfig_remap_ns += b.reconfig_remap_ns;
    a.retries += b.retries;
    a.msgs_dropped += b.msgs_dropped;
    a.msgs_duplicated += b.msgs_duplicated;
    a.msgs_delayed += b.msgs_delayed;
    a.dup_suppressed += b.dup_suppressed;
    a.credits_reclaimed += b.credits_reclaimed;
    a.heals += b.heals;
    a.healed_reroutes += b.healed_reroutes;
    s.stats = RuntimeStats{};
    tracer_.merge_from(s.tracer);
  }
  // Sorting restores an order that does not depend on which node slot
  // recorded which sample, so percentiles and float sums of the folded
  // series do not depend on host interleaving.
  if (tracer_.enabled()) tracer_.canonicalize();
}

Proc& Runtime::proc(ProcId p) {
  assert(p >= 0 && p < num_procs());
  return *procs_[static_cast<std::size_t>(p)];
}

Cht& Runtime::cht(core::NodeId n) {
  assert(n >= 0 && n < num_nodes());
  return *chts_[static_cast<std::size_t>(n)];
}

CreditBank& Runtime::credits(core::NodeId n) {
  assert(n >= 0 && n < num_nodes());
  return credit_banks_[static_cast<std::size_t>(n)];
}

CongestionControl& Runtime::congestion(core::NodeId n) {
  assert(n >= 0 && n < num_nodes());
  return congestion_[static_cast<std::size_t>(n)];
}

void Runtime::spawn(ProcId p, std::function<sim::Co<void>(Proc&)> program) {
  programs_.push_back(std::move(program));
  if (threads_ != nullptr) {
    // The first segment runs inline on the driver (workers not yet, or
    // no longer, running); once suspended, the coroutine only ever
    // resumes on its node's worker, which owns the slot's live counter.
    const int node = static_cast<int>(node_of(p));
    sim::ScopedNode scope(node);
    sim::spawn(programs_.back()(proc(p)),
               &node_slots_[static_cast<std::size_t>(node)].live);
    return;
  }
  sim::spawn(programs_.back()(proc(p)), &live_);
}

void Runtime::spawn_all(const std::function<sim::Co<void>(Proc&)>& program) {
  for (ProcId p = 0; p < num_procs(); ++p) spawn(p, program);
}

void Runtime::spawn_task(sim::Co<void> task) {
  if (threads_ != nullptr && sim::current_node() < 0) {
    // Auxiliary tasks spawned from the driver thread (monitors) live on
    // the global pseudo-node's worker.
    sim::ScopedNode scope(threads_->global_node());
    sim::spawn(std::move(task), nullptr);
    return;
  }
  sim::spawn(std::move(task), nullptr);
}

void Runtime::run_all() {
  run_engine();
  if (live_tasks() != 0) throw DeadlockError(live_tasks());
  stop_chts();
#if VTOPO_VALIDATE_ENABLED
  validate_quiescent();
#endif
}

void Runtime::validate_quiescent() {
  for (const CreditBank& bank : credit_banks_) {
    bank.check_quiescent("credit bank not quiescent after run");
  }
  request_pool_.check_drained("request leaked past shutdown");
  for (const NodeSlot& s : node_slots_) {
    s.pool.check_drained("request leaked past shutdown (node pool)");
  }
  VTOPO_CHECK_ALWAYS(inflight_requests() == 0,
                     "issued request never completed at its origin");
  for (const CongestionControl& cc : congestion_) {
    VTOPO_CHECK_ALWAYS(cc.idle(),
                       "congestion window slot held past shutdown");
  }
  // Check the cumulative forwarding depth against the loosest bound of
  // any topology generation installed during the run: after a live
  // reconfiguration to a shallower topology, hops that were legal under
  // the earlier generation remain in the counter.
  VTOPO_CHECK_ALWAYS(
      stats_.max_forwards_seen <=
          static_cast<std::uint64_t>(topo_mgr_.max_forwards_bound()),
      "request forwarded past the topology's max-forwards bound");
}

bool Runtime::request_path_quiescent() const {
  if (inflight_requests() != 0) return false;
  for (const CreditBank& bank : credit_banks_) {
    if (!bank.idle()) return false;
  }
  return true;
}

// --------------------------------------------------------------------
// Fault injection and the self-healing request path.
//
// Everything below is dormant unless a FaultPlan is armed: the message
// wrappers then reduce to the exact Network::deliver calls the protocol
// made before this subsystem existed, so fault-free runs schedule the
// same events in the same order (byte-identical figures).
// --------------------------------------------------------------------

void Runtime::apply_fault(const sim::FaultEvent& e, bool begin) {
  const auto a = static_cast<core::NodeId>(e.a);
  const auto b = static_cast<core::NodeId>(e.b);
  const bool a_ok = a >= 0 && a < num_nodes();
  const bool b_ok = b >= 0 && b < num_nodes();
  switch (e.kind) {
    case sim::FaultKind::kLinkSever:
    case sim::FaultKind::kLinkDegrade: {
      if (!a_ok || !b_ok || a == b) return;
      const bool sever = e.kind == sim::FaultKind::kLinkSever;
      const double slow = sever ? 1.0 : e.magnitude;
      if (begin) {
        // A physical link outage hits both directions of the pair.
        network_.fault_edge(a, b, sever, slow);
        network_.fault_edge(b, a, sever, slow);
      } else {
        network_.clear_edge_fault(a, b);
        network_.clear_edge_fault(b, a);
      }
      return;
    }
    case sim::FaultKind::kNodeCrash: {
      if (!a_ok) return;
      node_down_[static_cast<std::size_t>(a)] = begin ? 1 : 0;
      if (begin) {
        if (cfg_.armci.self_heal) heal_around(a);
      } else {
        unheal(a);
      }
      return;
    }
    case sim::FaultKind::kNodeSlow: {
      if (!a_ok) return;
      node_slow_[static_cast<std::size_t>(a)] =
          begin ? std::max(1.0, e.magnitude) : 1.0;
      return;
    }
    case sim::FaultKind::kBufferExhaust: {
      if (!a_ok || !b_ok) return;
      if (begin) {
        if (!credits(a).has_edge(b)) return;
        seized_.push_back(SeizedCredits{a, b, credits(a).seize(b)});
      } else {
        for (std::size_t i = 0; i < seized_.size(); ++i) {
          if (seized_[i].bank == a && seized_[i].edge == b) {
            const std::int64_t n = seized_[i].count;
            seized_.erase(seized_.begin() +
                          static_cast<std::ptrdiff_t>(i));
            credits(a).restore(b, n);
            return;
          }
        }
      }
      return;
    }
  }
}

void Runtime::heal_around(core::NodeId dead) {
  if (injector_ == nullptr || dead < 0 || dead >= num_nodes()) return;
  char& flag = healed_[static_cast<std::size_t>(dead)];
  if (flag != 0) return;
  flag = 1;
  any_healed_ = true;
  ++stats_.heals;
}

void Runtime::unheal(core::NodeId node) {
  if (injector_ == nullptr || node < 0 || node >= num_nodes()) return;
  healed_[static_cast<std::size_t>(node)] = 0;
  first_hop_timeouts_[static_cast<std::size_t>(node)] = 0;
  any_healed_ = false;
  for (const char h : healed_) {
    if (h != 0) {
      any_healed_ = true;
      break;
    }
  }
}

core::NodeId Runtime::next_hop_for(core::NodeId src, core::NodeId dst) {
  const core::NodeId hop = topology().next_hop(src, dst);
  if (!any_healed_ || hop == dst ||
      healed_[static_cast<std::size_t>(hop)] == 0) {
    return hop;
  }
  // The dimension-order hop is routed around: dedicate direct buffers to
  // the final target instead. The target executes without forwarding, so
  // the overlay introduces no hold-and-wait edge (deadlock freedom) and
  // strictly fewer forwards than the severed route (bound preserved).
  credits(src).ensure_edge(dst);
  ++stats().healed_reroutes;
  return dst;
}

void Runtime::note_first_hop_timeout(core::NodeId hop) {
  if (hop < 0 || hop >= num_nodes()) return;
  int& n = first_hop_timeouts_[static_cast<std::size_t>(hop)];
  if (++n >= cfg_.armci.heal_timeout_threshold && cfg_.armci.self_heal) {
    heal_around(hop);
  }
}

void Runtime::note_first_hop_ok(core::NodeId hop) {
  if (hop < 0 || hop >= num_nodes()) return;
  first_hop_timeouts_[static_cast<std::size_t>(hop)] = 0;
}

void Runtime::reclaim_lease(core::NodeId holder, core::NodeId receiver,
                            Priority cls) {
  if (!cfg_.armci.lease_reclaim) return;  // chaos knob: leak instead
  CreditBank* bank = &credit_banks_[static_cast<std::size_t>(holder)];
  Runtime* rt = this;
  auto release = [rt, bank, receiver, cls] {
    bank->release(receiver, cls);
    ++rt->stats().credits_reclaimed;
  };
  // The bank belongs to `holder`, which may live on another worker
  // thread than the caller: route the delayed release through the
  // transport to its node. On the sim backend this reduces to a plain
  // schedule_after.
  transport_->post_after(static_cast<int>(holder),
                         cfg_.armci.lease_reclaim_delay,
                         std::move(release));
}

RequestPtr Runtime::clone_request(const Request& r) {
  RequestPtr c = request_pool().acquire();
  c->id = r.id;  // shared sequence number: the dedup key
  c->op = r.op;
  c->origin_proc = r.origin_proc;
  c->origin_node = r.origin_node;
  c->target_proc = r.target_proc;
  c->target_node = r.target_node;
  c->attempt = r.attempt;
  c->cls = r.cls;
  // The flag marks "this logical op holds a window slot"; every copy
  // carries it so whichever response completes first frees the slot.
  c->window_slot_taken = r.window_slot_taken;
  c->addr = r.addr;
  c->acc_type = r.acc_type;
  c->scale = r.scale;
  c->imm = r.imm;
  c->mutex_id = r.mutex_id;
  c->segs = r.segs;
  c->strided = r.strided;
  c->data = r.data;
  c->response_future = r.response_future;  // shared completion state
  return c;
}

void Runtime::send_request_msg(RequestPtr r, core::NodeId src,
                               core::NodeId dst, std::int64_t wire_bytes,
                               net::Network::StreamKey stream) {
  Cht& cht_dst = cht(dst);
  if (threads_ != nullptr) {
    // Real thread hand-off: the request crosses as a posted closure and
    // the target's worker submits it to its own CHT. Wire latency is
    // whatever the host's queues make it (wall-clock, not modeled).
    RequestPtr rr = std::move(r);
    transport_->post(static_cast<int>(dst), [&cht_dst, rr]() mutable {
      cht_dst.submit(std::move(rr));
    });
    return;
  }
  // Locks are exempt from faults end to end (lock traffic is modeled
  // reliable: a replayed grant would corrupt the waiter queue), as are
  // intra-node deliveries (shared memory, not the wire).
  if (!faults_armed() || src == dst || r->op == OpCode::kLock ||
      r->op == OpCode::kUnlock) {
    RequestPtr rr = std::move(r);
    network_.deliver(src, dst, wire_bytes, stream,
                     [&cht_dst, rr]() mutable {
      cht_dst.submit(std::move(rr));
    });
    return;
  }
  const bool forced = network_.edge_severed(src, dst) || node_down(dst);
  sim::FaultInjector::MsgFault f{};
  if (!forced) {
    f = injector_->sample_message(sim::FaultInjector::MsgClass::kRequest);
  }
  if (forced || f.drop) {
    ++stats().msgs_dropped;
    // The hop's buffer-credit lease dies with the message; reclaim it so
    // flow control recovers. The op itself is recovered by the origin's
    // retry watchdog (its RequestPtr copy keeps the request alive).
    if (r->hop_credit_taken) reclaim_lease(src, dst, r->cls);
    return;
  }
  if (f.duplicate) {
    ++stats().msgs_duplicated;
    RequestPtr dup = clone_request(*r);
    dup->upstream_node = r->upstream_node;
    dup->upstream_is_cht = r->upstream_is_cht;
    dup->forwards = r->forwards;
    dup->hop_credit_taken = false;  // ghost copy holds no lease
    RequestPtr dd = std::move(dup);
    network_.deliver(src, dst, wire_bytes, stream,
                     [&cht_dst, dd]() mutable {
      cht_dst.submit(std::move(dd));
    });
  }
  if (f.delay > 0) ++stats().msgs_delayed;
  RequestPtr rr = std::move(r);
  network_.deliver_delayed(src, dst, wire_bytes, stream, f.delay,
                           [&cht_dst, rr]() mutable {
    cht_dst.submit(std::move(rr));
  });
}

void Runtime::send_ack_msg(core::NodeId from, core::NodeId upstream,
                           Priority cls) {
  const ArmciParams& p = cfg_.armci;
  CreditBank& bank = credits(upstream);
  const core::NodeId self = from;
  ++stats().acks;
  if (threads_ != nullptr) {
    // The credit returns on the upstream holder's own worker — the bank
    // (and any parked acquire waiter it resumes) is confined there.
    transport_->post(static_cast<int>(upstream),
                     [&bank, self, cls] { bank.release(self, cls); });
    return;
  }
  if (!faults_armed()) {
    network_.deliver(from, upstream, p.ack_bytes, cht_stream(from),
                     [&bank, self, cls] { bank.release(self, cls); });
    return;
  }
  const bool forced =
      network_.edge_severed(from, upstream) || node_down(upstream);
  sim::FaultInjector::MsgFault f{};
  if (!forced) {
    f = injector_->sample_message(sim::FaultInjector::MsgClass::kAck);
  }
  if (forced || f.drop) {
    ++stats().msgs_dropped;
    // A lost ack strands the lease at the upstream holder; reclaim it
    // (or, with lease_reclaim off, leak it — the validate death test).
    reclaim_lease(upstream, from, cls);
    return;
  }
  if (f.delay > 0) ++stats().msgs_delayed;
  network_.deliver_delayed(from, upstream, p.ack_bytes, cht_stream(from),
                           f.delay,
                           [&bank, self, cls] { bank.release(self, cls); });
}

void Runtime::send_response_msg(RequestPtr req, Response resp,
                                core::NodeId from,
                                std::int64_t wire_bytes) {
  ++stats().responses;
  const core::NodeId dst = req->origin_node;
  const OpCode op = req->op;
  Runtime* rt = this;
  auto complete = [rt, req = std::move(req),
                   resp = std::move(resp)]() mutable {
    // Origin-side completion gate: the first response fulfils the op
    // (and lets the reconfigure quiesce proceed); late duplicates —
    // from retries or duplicated requests — are absorbed here. Runs at
    // the origin node, the same context that issued the op, so the
    // in-flight counter moves within one node slot.
    if (req->response_future->ready()) {
      ++rt->stats().dup_suppressed;
      return;
    }
    rt->note_request_completed();
    // Endpoint congestion: the logical op's window slot (taken at issue,
    // carried by every retry/duplicate copy) frees exactly once, here at
    // the first completion, feeding the piggybacked queue depth into the
    // per-target AIMD window.
    if (req->window_slot_taken &&
        rt->congestion(req->origin_node)
            .complete(req->target_node, resp.queue_backlog)) {
      ++rt->stats().window_shrinks;
    }
    req->response_future->set(std::move(resp));
  };
  if (threads_ != nullptr) {
    // Completion runs at the origin's worker: the future, congestion
    // window, and in-flight counter it touches all live there.
    transport_->post(static_cast<int>(dst), std::move(complete));
    return;
  }
  if (!faults_armed() || from == dst || op == OpCode::kLock ||
      op == OpCode::kUnlock) {
    network_.deliver(from, dst, wire_bytes, cht_stream(from),
                     std::move(complete));
    return;
  }
  const bool forced = network_.edge_severed(from, dst) || node_down(dst);
  sim::FaultInjector::MsgFault f{};
  if (!forced) {
    f = injector_->sample_message(sim::FaultInjector::MsgClass::kResponse);
  }
  if (forced || f.drop) {
    ++stats().msgs_dropped;  // the origin's watchdog re-issues
    return;
  }
  if (f.delay > 0) ++stats().msgs_delayed;
  network_.deliver_delayed(from, dst, wire_bytes, cht_stream(from),
                           f.delay, std::move(complete));
}

void Runtime::arm_retry_watchdog(const RequestPtr& r) {
  const core::NodeId first_hop =
      next_hop_for(r->origin_node, r->target_node);
  spawn_task(retry_watchdog(r, *r->response_future, first_hop));
}

sim::Co<void> Runtime::retry_watchdog(RequestPtr r,
                                      sim::Future<Response> fut,
                                      core::NodeId first_hop) {
  const ArmciParams& p = cfg_.armci;
  sim::TimeNs timeout = p.retry_timeout;
  for (int attempt = 1; attempt <= p.retry_max_attempts; ++attempt) {
    co_await sim::Sleep(engine(), timeout);
    if (fut.ready()) {
      note_first_hop_ok(first_hop);
      co_return;
    }
    ++stats().retries;
    tracer().record(TraceKind::kRetry, r->origin_proc,
                    engine().now() - timeout, timeout);
    note_first_hop_timeout(first_hop);
    RequestPtr copy = clone_request(*r);
    copy->attempt = attempt;
    spawn_task(reissue(std::move(copy)));
    timeout = std::min(
        static_cast<sim::TimeNs>(static_cast<double>(timeout) *
                                 p.retry_backoff),
        p.retry_backoff_cap);
  }
  co_await sim::Sleep(engine(), timeout);
  if (fut.ready()) {
    note_first_hop_ok(first_hop);
    co_return;
  }
  VTOPO_CHECK_ALWAYS(false,
                     "retry attempts exhausted: request completion lost");
}

sim::Co<void> Runtime::reissue(RequestPtr r) {
  const ArmciParams& p = cfg_.armci;
  // Note: no reconfiguration fence here. The logical op was admitted on
  // its first issue and the quiesce loop is waiting for its completion;
  // parking the retry at the fence would deadlock the quiesce.
  co_await sim::Sleep(engine(), p.proc_op_overhead);
  if (r->response_future->ready()) co_return;  // completed while asleep
  const core::NodeId origin = r->origin_node;
  const net::Network::StreamKey stream = proc_stream(r->origin_proc);
  const std::int64_t wire = p.request_header_bytes + r->payload_bytes();
  const core::NodeId hop = next_hop_for(origin, r->target_node);
  CreditBank& bank = credits(origin);
  const sim::TimeNs t0 = engine().now();
  co_await bank.acquire(hop, r->cls);
  const sim::TimeNs blocked = engine().now() - t0;
  bank.add_blocked(blocked);
  stats().credit_blocked_ns += blocked;
  if (r->response_future->ready()) {
    bank.release(hop, r->cls);  // raced with a late response: hand it back
    co_return;
  }
  r->upstream_node = origin;
  r->upstream_is_cht = false;
  r->hop_credit_taken = true;
  send_request_msg(std::move(r), origin, hop, wire, stream);
}

sim::Co<bool> Runtime::reconfigure(core::TopologyKind to,
                                   ReconfigMode mode) {
  VTOPO_CHECK_ALWAYS(!reconfig_active_,
                     "reentrant reconfigure(): one at a time");
  // The remap mutates every node's credit bank and the shared topology;
  // on real threads there is no quiescent point where that is
  // safe. Refuse (same contract as an impossible target shape).
  if (threads_ != nullptr) co_return false;
  if (to == topology().kind()) co_return false;
  // Refuse instead of throwing: Co promises terminate on an escaped
  // exception (sim actors have no one to rethrow to).
  if (to == core::TopologyKind::kHypercube &&
      !core::is_power_of_two(cfg_.num_nodes)) {
    co_return false;
  }
  const ArmciParams& p = cfg_.armci;
  const sim::TimeNs t0 = eng_->now();
  ReconfigReport rep;
  rep.from = topology().kind();
  rep.to = to;
  rep.mode = mode;

  // ---- Quiesce: fence new CHT-mediated ops, drain in-flight ones
  // (requests, forwards, credit acks, credit waiters). A bounded poll
  // count turns the one pathological non-draining pattern (a lock
  // holder parked at the fence while its waiter's request sits in the
  // target's lock queue) into a diagnosable abort instead of a hang.
  constexpr std::int64_t kMaxQuiescePolls = 10'000'000;
  reconfig_active_ = true;
  while (!request_path_quiescent()) {
    ++rep.quiesce_polls;
    VTOPO_CHECK_ALWAYS(rep.quiesce_polls <= kMaxQuiescePolls,
                       "reconfigure quiesce did not drain (CHT-mediated "
                       "op issued while holding a lock?)");
    co_await sim::Sleep(*eng_, p.reconfig_poll);
  }
  for (const CreditBank& bank : credit_banks_) {
    bank.check_quiescent("credit bank not quiescent at reconfiguration");
  }
  VTOPO_CHECK_ALWAYS(inflight_requests() == 0,
                     "request in flight at reconfiguration");
  const sim::TimeNs t_quiesced = eng_->now();

  // ---- Plan the transition; under VTOPO_VALIDATE, verify the ordered
  // build -> switch -> teardown schedule keeps every intermediate
  // buffer-dependency graph acyclic before touching any bank.
  // Heap-held so its address survives install(): the banks are remapped
  // onto this object and keep reading adjacency from it.
  auto next = std::make_unique<const core::VirtualTopology>(
      core::VirtualTopology::make(to, cfg_.num_nodes, cfg_.policy));
  const core::RemapPlan plan = core::plan_remap(topology(), *next);
  [[maybe_unused]] const core::RemapSchedule sched =
      core::plan_schedule(plan);
#if VTOPO_VALIDATE_ENABLED
  {
    const core::TransitionCheck check =
        core::verify_transition(topology(), *next, sched);
    VTOPO_CHECK_ALWAYS(check.ok(), "unsafe topology transition schedule");
  }
#endif

  // ---- Execute: remap every node's credit bank from the delta.
  std::int64_t built = 0;
  std::int64_t torn = 0;
  for (core::NodeId n = 0; n < cfg_.num_nodes; ++n) {
    CreditBank& bank = credit_banks_[static_cast<std::size_t>(n)];
    const CreditBank::RemapStats rs =
        mode == ReconfigMode::kIncremental
            ? bank.apply_remap(*next)
            : bank.rebuild(*next);
    rep.pools_kept += rs.kept;
    built += rs.added;
    torn += rs.removed;
  }
  rep.pools_added = built;
  rep.pools_removed = torn;
  const std::int64_t bytes_per_pool = credits_per_edge() * p.buffer_bytes;
  rep.bytes_allocated = built * bytes_per_pool;
  rep.bytes_released = torn * bytes_per_pool;
  co_await sim::Sleep(*eng_, p.reconfig_admin +
                                 p.reconfig_edge_build * built +
                                 p.reconfig_edge_teardown * torn);
  topo_mgr_.install(std::move(next), eng_->now());

  rep.epoch = topo_mgr_.epoch();
  rep.quiesce_ns = t_quiesced - t0;
  rep.remap_ns = eng_->now() - t_quiesced;
  ++stats_.reconfigurations;
  stats_.reconfig_quiesce_ns += rep.quiesce_ns;
  stats_.reconfig_remap_ns += rep.remap_ns;
  tracer_.record(TraceKind::kReconfigure, /*proc=*/-1, t0,
                 eng_->now() - t0);

  // ---- Resume ops parked at the fence, in FIFO issue order (via the
  // event queue, which is FIFO at equal timestamps — deterministic).
  reconfig_active_ = false;
  rep.waiters_resumed =
      static_cast<std::int64_t>(reconfig_waiters_.size());
  std::vector<std::coroutine_handle<>> waiters;
  waiters.swap(reconfig_waiters_);
  for (const std::coroutine_handle<> h : waiters) {
    eng_->schedule_after(0, [h] { h.resume(); });
  }
  last_reconfig_ = rep;
  co_return true;
}

void Runtime::park_at_fence(std::coroutine_handle<> h) {
  reconfig_waiters_.push_back(h);
}

bool Runtime::run_for(sim::TimeNs deadline) {
  if (threads_ != nullptr) {
    // Wall-clock workers have no replayable notion of "stop at t":
    // drive to quiescence instead (deadline ignored by design).
    sync_slot_tracers();
    transport_->drive();
    fold_slot_counters();
  } else {
    eng_->run_until(deadline);
  }
  return live_tasks() == 0;
}

sim::Co<void> Runtime::barrier_wait() {
  const ArmciParams& p = cfg_.armci;
  if (threads_ != nullptr) {
    // Real-thread rendezvous: arrivals from every worker meet under one
    // mutex; the last arrival fulfils all futures outside the lock (a
    // realtime set() posts each resume to its awaiting node — including
    // the last arrival's own, which it then consumes without
    // suspending). No modeled tree latency: the barrier costs whatever
    // the host threads cost.
    sim::Future<int> fut(engine());
    std::vector<sim::Future<int>> futs;
    bool last = false;
    {
      std::lock_guard<std::mutex> g(threads_->coll_mu());
      barrier_futures_.push_back(fut);
      if (++barrier_arrived_ == num_procs()) {
        futs = std::move(barrier_futures_);
        barrier_futures_.clear();
        barrier_arrived_ = 0;
        last = true;
      }
    }
    if (last) {
      for (auto& f : futs) f.set(0);
    }
    co_await fut;
    co_return;
  }
  barrier_futures_.emplace_back(*eng_);
  sim::Future<int> fut = barrier_futures_.back();
  if (++barrier_arrived_ == num_procs()) {
    const int levels = static_cast<int>(
        std::ceil(std::log2(static_cast<double>(num_procs()))));
    const sim::TimeNs latency =
        p.barrier_base + p.barrier_per_level * std::max(levels, 1);
    std::vector<sim::Future<int>> futs = std::move(barrier_futures_);
    barrier_futures_.clear();
    barrier_arrived_ = 0;
    for (auto& f : futs) {
      eng_->schedule_after(latency, [f]() mutable { f.set(0); });
    }
  }
  co_await fut;
}

sim::Co<double> Runtime::allreduce_sum(double value) {
  const ArmciParams& p = cfg_.armci;
  if (threads_ != nullptr) {
    // Like barrier_wait; the summation order is arrival order, which is
    // nondeterministic here — float totals can differ between runs by
    // rounding (callers compare with a tolerance, not bytes).
    sim::Future<double> fut(engine());
    std::vector<sim::Future<double>> futs;
    double total = 0.0;
    bool last = false;
    {
      std::lock_guard<std::mutex> g(threads_->coll_mu());
      reduce_sum_ += value;
      reduce_futures_.push_back(fut);
      if (++reduce_arrived_ == num_procs()) {
        total = reduce_sum_;
        futs = std::move(reduce_futures_);
        reduce_futures_.clear();
        reduce_arrived_ = 0;
        reduce_sum_ = 0.0;
        last = true;
      }
    }
    if (last) {
      for (auto& f : futs) f.set(total);
    }
    const double res = co_await fut;
    co_return res;
  }
  reduce_sum_ += value;
  reduce_futures_.emplace_back(*eng_);
  sim::Future<double> fut = reduce_futures_.back();
  if (++reduce_arrived_ == num_procs()) {
    const int levels = static_cast<int>(
        std::ceil(std::log2(static_cast<double>(num_procs()))));
    // Reduction + broadcast: two tree traversals.
    const sim::TimeNs latency =
        p.barrier_base + 2 * p.barrier_per_level * std::max(levels, 1);
    const double total = reduce_sum_;
    std::vector<sim::Future<double>> futs = std::move(reduce_futures_);
    reduce_futures_.clear();
    reduce_arrived_ = 0;
    reduce_sum_ = 0.0;
    for (auto& f : futs) {
      eng_->schedule_after(latency,
                           [f, total]() mutable { f.set(total); });
    }
  }
  const double result = co_await fut;
  co_return result;
}

}  // namespace vtopo::armci
