// Weak-scaling sweep of the Figure-7 hot-spot workload: N processes
// (1k -> 64k) each issue K fetch-&-adds on one counter owned by rank 0,
// across the four virtual topologies, plus one larger MFCG scale-ceiling
// point. Reports wall-clock, simulated time, protocol counters, and
// peak RSS per point, plus the allocation-free runtime-path throughput
// numbers, into BENCH_runtime.json.
//
// Unlike the figure benches this is a *flood* (no turn-taking barrier
// between ranks): host-side work is O(N * K), which is what makes the
// large points tractable. Every topology, FCG included, runs at every
// size: a credit bank reads adjacency from the topology and records only
// the edges that carry traffic, so even FCG's all-to-all graph costs no
// per-peer host state.
//
// --backend threads runs the sweep on the real std::thread transport
// instead of the simulator: one OS thread per node, wall-clock
// latencies, sweep capped at 1024 processes (each node is a real
// thread), scale ceiling skipped, output to
// BENCH_realtime_scaling.json. The sim_ms
// column then reports *real* elapsed milliseconds — host-dependent and
// not comparable to simulated numbers (see docs/performance.md).
//
// vtopo-lint: allow-file(nondeterminism) -- wall-clock throughput timing only; never feeds simulated results
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "armci/proc.hpp"
#include "armci/runtime.hpp"
#include "armci/trace.hpp"
#include "core/topology.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/frame_pool.hpp"
#include "sim/rng.hpp"

namespace {

using vtopo::armci::GAddr;
using vtopo::armci::Proc;
using vtopo::armci::Runtime;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB -> MB
}

struct Point {
  std::string topology;
  std::int64_t procs = 0;
  std::int64_t nodes = 0;
  std::int64_t ops = 0;
  double wallclock_ms = 0;
  double sim_ms = 0;
  std::uint64_t requests = 0;
  std::uint64_t forwards = 0;
  std::uint64_t msgs = 0;
  double rss_mb = 0;
};

/// One sweep point: `procs` ranks flooding fetch-&-adds at rank 0 on a
/// self-hosted runtime (the sim engine, or with `use_threads` the real
/// std::thread transport: one worker thread per node).
Point run_point(vtopo::core::TopologyKind kind, std::int64_t procs,
                int ops_per_proc, bool use_threads = false) {
  const auto start = std::chrono::steady_clock::now();
  Runtime::Config cfg;
  cfg.procs_per_node = 4;
  cfg.num_nodes = procs / cfg.procs_per_node;
  cfg.topology = kind;
  if (use_threads) cfg.backend = vtopo::armci::Backend::kThreads;
  Runtime rt(cfg);
  const auto off = rt.memory().alloc_all(8);
  rt.spawn_all([off, ops_per_proc](Proc& p) -> vtopo::sim::Co<void> {
    for (int k = 0; k < ops_per_proc; ++k) {
      co_await p.fetch_add(GAddr{0, off}, 1);
    }
  });
  rt.run_all();

  Point pt;
  pt.topology = vtopo::core::to_string(kind);
  pt.procs = procs;
  pt.nodes = cfg.num_nodes;
  pt.ops = procs * ops_per_proc;
  pt.wallclock_ms = seconds_since(start) * 1e3;
  // Via the transport seam: simulated ns on the sim backend, wall-clock
  // ns since transport start on the threads backend.
  pt.sim_ms = static_cast<double>(rt.now()) / 1e6;
  pt.requests = rt.stats().requests;
  pt.forwards = rt.stats().forwards;
  pt.msgs = rt.network().messages_sent();
  pt.rss_mb = peak_rss_mb();
  return pt;
}

/// Network::send throughput — the same loop hotpath_bench measures, so
/// the number is directly comparable against BENCH_hotpath.json.
double measure_msgs_per_sec(std::int64_t total_msgs) {
  vtopo::sim::Engine eng; // vtopo-lint: allow(backend-seam) -- engine microbench measures the sim backend itself
  vtopo::net::Network net(eng, 256);
  vtopo::sim::Rng rng(7);
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < total_msgs; ++i) {
    const auto s = static_cast<vtopo::core::NodeId>(rng.uniform(256));
    const auto d = static_cast<vtopo::core::NodeId>(rng.uniform(256));
    net.send(s, d, 1024, s);
  }
  return static_cast<double>(total_msgs) / seconds_since(start);
}

struct RuntimePath {
  double ops_per_sec = 0;
  std::uint64_t req_created = 0;
  std::uint64_t req_reused = 0;
  std::uint64_t frames_created = 0;
  std::uint64_t frames_reused = 0;
};

/// Full-ARMCI-path fetch-&-add throughput on a fixed 16-node MFCG
/// cluster, with the pool hit counters that show the path running
/// allocation-free once warm.
RuntimePath measure_runtime_path(std::int64_t total_ops) {
  vtopo::sim::Engine eng; // vtopo-lint: allow(backend-seam) -- engine microbench measures the sim backend itself
  Runtime::Config cfg;
  cfg.num_nodes = 16;
  cfg.procs_per_node = 4;
  cfg.topology = vtopo::core::TopologyKind::kMfcg;
  Runtime rt(eng, cfg);
  const auto off = rt.memory().alloc_all(8);
  const int per_proc =
      static_cast<int>(total_ops / rt.num_procs());
  const std::uint64_t frames_created0 = vtopo::sim::FramePool::created();
  const std::uint64_t frames_reused0 = vtopo::sim::FramePool::reused();
  const auto start = std::chrono::steady_clock::now();
  rt.spawn_all([off, per_proc](Proc& p) -> vtopo::sim::Co<void> {
    for (int k = 0; k < per_proc; ++k) {
      co_await p.fetch_add(GAddr{0, off}, 1);
    }
  });
  rt.run_all();
  RuntimePath r;
  r.ops_per_sec = static_cast<double>(per_proc * rt.num_procs()) /
                  seconds_since(start);
  r.req_created = rt.request_pool().created();
  r.req_reused = rt.request_pool().reused();
  r.frames_created = vtopo::sim::FramePool::created() - frames_created0;
  r.frames_reused = vtopo::sim::FramePool::reused() - frames_reused0;
  return r;
}

void print_point(const Point& pt) {
  std::printf("%-7s %8lld %7lld %9lld %12.1f %12.3f %10llu %9.1f\n",
              pt.topology.c_str(), static_cast<long long>(pt.procs),
              static_cast<long long>(pt.nodes),
              static_cast<long long>(pt.ops), pt.wallclock_ms, pt.sim_ms,
              static_cast<unsigned long long>(pt.requests), pt.rss_mb);
}

/// Criticality-aware QoS before/after on the CHT path: a contended
/// mixed-class storm (bulk puts + critical fetch-&-adds at rank 0) with
/// the class-aware path off and on, returning the critical p99 in
/// simulated microseconds (deterministic, unlike the wall-clock rows).
double measure_qos_critical_p99_us(bool qos) {
  vtopo::sim::Engine eng; // vtopo-lint: allow(backend-seam) -- engine microbench measures the sim backend itself
  Runtime::Config cfg;
  cfg.num_nodes = 16;
  cfg.procs_per_node = 2;
  cfg.topology = vtopo::core::TopologyKind::kMfcg;
  // Slow CHT service makes the rank-0 queue (what QoS reorders) the
  // bottleneck instead of the NIC wire.
  cfg.armci.cht_service = vtopo::sim::us(5.0);
  cfg.armci.qos.enabled = qos;
  Runtime rt(eng, cfg);
  rt.tracer().enable();
  const auto off =
      rt.memory().alloc_all(64 + 1024 * (rt.num_procs() + 1));
  rt.spawn_all([off](Proc& p) -> vtopo::sim::Co<void> {
    if (p.node() == 0) co_return;
    if (p.id() % 4 == 0) {
      for (int i = 0; i < 10; ++i) {
        co_await p.fetch_add(GAddr{0, off}, 1);
      }
    } else {
      const std::vector<std::uint8_t> buf(1024, 0x5a);
      const vtopo::armci::PutSeg seg{buf, off + 64 + p.id() * 1024};
      for (int i = 0; i < 25; ++i) {
        co_await p.put_v(0, {&seg, 1});
      }
    }
  });
  rt.run_all();
  vtopo::bench::Percentiles pct;
  pct.add_all(rt.tracer()
                  .series(vtopo::armci::class_latency_kind(
                      vtopo::armci::Priority::kCritical))
                  .samples());
  return pct.p99();
}

}  // namespace

int main(int argc, char** argv) {
  const vtopo::bench::Args args(argc, argv);
  const bool quick = args.has("--quick");
  const std::int64_t max_procs =
      args.get_int("--max-procs", quick ? 1024 : 65536);
  const int ops_per_proc =
      static_cast<int>(args.get_int("--ops", quick ? 2 : 8));
  const std::int64_t msgs =
      args.get_int("--msgs", quick ? 100'000 : 2'000'000);
  const std::int64_t path_ops =
      args.get_int("--path-ops", quick ? 6'400 : 64'000);
  // The paper-scale point: 1,048,576 processes (262,144 nodes) peak near
  // 3.3 GB, ~3.2 KB per process; --big-procs lowers it on a smaller host.
  const std::int64_t big_procs =
      args.get_int("--big-procs", quick ? 16384 : 1048576);
  const int big_ops =
      static_cast<int>(args.get_int("--big-ops", quick ? 1 : 2));
  const std::string backend_name = args.get_string("--backend", "sim");
  const bool threads = backend_name == "threads";
  // The threads run must not clobber the simulator's golden-adjacent
  // artifact, so it defaults to its own output file.
  const std::string out_path = args.get_string(
      "--out",
      threads ? "BENCH_realtime_scaling.json" : "BENCH_runtime.json");
  const unsigned host_cores = std::thread::hardware_concurrency();

  vtopo::bench::print_header(
      "weak_scaling",
      threads
          ? "hot-spot fetch-add flood on the std::thread backend "
            "(real wall-clock, <= 1024 processes)"
          : "hot-spot fetch-add flood, 1k -> 64k processes + scale "
            "ceiling");

  const double mps = measure_msgs_per_sec(msgs);
  const RuntimePath path = measure_runtime_path(path_ops);
  const double qos_p99_before = measure_qos_critical_p99_us(false);
  const double qos_p99_after = measure_qos_critical_p99_us(true);
  std::printf("host_cores            %u\n", host_cores);
  std::printf("msgs_per_sec          %.3e\n", mps);
  std::printf("fetchadd_ops_per_sec  %.3e\n", path.ops_per_sec);
  std::printf("qos_critical_p99_us   %.1f -> %.1f (storm, fifo -> qos)\n",
              qos_p99_before, qos_p99_after);
  std::printf("request_pool          created=%llu reused=%llu\n",
              static_cast<unsigned long long>(path.req_created),
              static_cast<unsigned long long>(path.req_reused));
  std::printf("frame_pool            created=%llu reused=%llu\n",
              static_cast<unsigned long long>(path.frames_created),
              static_cast<unsigned long long>(path.frames_reused));
  vtopo::bench::print_rule();

  // Sweep ascending so each point's peak-RSS reading is dominated by its
  // own footprint (ru_maxrss is monotone over the process lifetime).
  const vtopo::core::TopologyKind kinds[] = {
      vtopo::core::TopologyKind::kFcg, vtopo::core::TopologyKind::kMfcg,
      vtopo::core::TopologyKind::kCfcg,
      vtopo::core::TopologyKind::kHypercube};
  // One OS thread per node on the real backend: past 1024 processes
  // (256 worker threads) the sweep measures the host scheduler, not the
  // transport — those points print an explicit "skipped" marker.
  constexpr std::int64_t kThreadsMaxProcs = 1024;

  std::vector<Point> points;
  std::printf("# %-5s %8s %7s %9s %12s %12s %10s %9s\n", "topo", "procs",
              "nodes", "ops", "wallclock_ms", "sim_ms", "requests",
              "rss_mb");
  if (threads) {
    std::printf("# backend=threads: sim_ms column is REAL elapsed ms "
                "(host-dependent)\n");
  }
  for (std::int64_t procs = 1024; procs <= max_procs; procs *= 4) {
    for (const auto kind : kinds) {
      if (threads && procs > kThreadsMaxProcs) {
        std::printf("%-7s %8lld %7lld  skipped (threads backend: one OS "
                    "thread per node)\n",
                    vtopo::core::to_string(kind),
                    static_cast<long long>(procs),
                    static_cast<long long>(procs / 4));
        continue;
      }
      points.push_back(run_point(kind, procs, ops_per_proc, threads));
      print_point(points.back());
    }
  }

  // ---- Scale ceiling: sim backend only (the threads backend runs one
  // OS thread per node) ----
  Point big;
  vtopo::bench::print_rule();
  if (!threads) {
    std::printf("# scale ceiling: MFCG %lld procs, %d ops/proc\n",
                static_cast<long long>(big_procs), big_ops);
    big = run_point(vtopo::core::TopologyKind::kMfcg, big_procs, big_ops);
    print_point(big);
  } else {
    std::printf("# scale ceiling skipped: threads backend (one OS thread "
                "per node)\n");
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"backend\": \"%s\",\n"
               "  \"host_cores\": %u,\n"
               "  \"msgs_per_sec\": %.1f,\n"
               "  \"fetchadd_ops_per_sec\": %.1f,\n"
               "  \"request_pool\": {\"created\": %llu, \"reused\": %llu},\n"
               "  \"frame_pool\": {\"created\": %llu, \"reused\": %llu},\n"
               "  \"weak_scaling\": [\n",
               backend_name.c_str(), host_cores, mps, path.ops_per_sec,
               static_cast<unsigned long long>(path.req_created),
               static_cast<unsigned long long>(path.req_reused),
               static_cast<unsigned long long>(path.frames_created),
               static_cast<unsigned long long>(path.frames_reused));
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& pt = points[i];
    std::fprintf(f,
                 "    {\"topology\": \"%s\", \"procs\": %lld, \"nodes\": "
                 "%lld, \"ops\": %lld, \"wallclock_ms\": %.3f, "
                 "\"sim_ms\": %.3f, \"requests\": %llu, \"forwards\": "
                 "%llu, \"msgs\": %llu, \"peak_rss_mb\": %.1f}%s\n",
                 pt.topology.c_str(), static_cast<long long>(pt.procs),
                 static_cast<long long>(pt.nodes),
                 static_cast<long long>(pt.ops), pt.wallclock_ms,
                 pt.sim_ms, static_cast<unsigned long long>(pt.requests),
                 static_cast<unsigned long long>(pt.forwards),
                 static_cast<unsigned long long>(pt.msgs), pt.rss_mb,
                 i + 1 < points.size() ? "," : "");
  }
  if (threads) {
    std::fprintf(
        f,
        "  ],\n"
        "  \"threads_note\": \"sim_ms fields are REAL elapsed ms on the "
        "std::thread backend — host-dependent, not comparable to "
        "simulated numbers\",\n"
        "  \"scale_ceiling\": null,\n");
  } else {
    std::fprintf(
        f,
        "  ],\n"
        "  \"scale_ceiling\": {\"topology\": \"%s\", \"procs\": %lld, "
        "\"nodes\": %lld, \"ops\": %lld, \"wallclock_ms\": %.3f, "
        "\"sim_ms\": %.3f, \"requests\": %llu, \"peak_rss_mb\": %.1f, "
        "\"completed\": true},\n",
        big.topology.c_str(), static_cast<long long>(big.procs),
        static_cast<long long>(big.nodes), static_cast<long long>(big.ops),
        big.wallclock_ms, big.sim_ms,
        static_cast<unsigned long long>(big.requests), big.rss_mb);
  }
  std::fprintf(f, "  \"qos_critical_p99_us\": "
               "{\"before\": %.1f, \"after\": %.1f}\n",
               qos_p99_before, qos_p99_after);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", out_path.c_str());
  return 0;
}
