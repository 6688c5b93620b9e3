#!/usr/bin/env bash
# Sanitizer sweep over the suites where lifetime and threading bugs
# would hide.
#
#   1. ASan+UBSan over the sim + armci suites (the pooling/recycling
#      layers are exactly where lifetime bugs sit), including the
#      lazy credit-pool, QosQueue FIFO and Runtime pool-count tests of
#      tests/armci/lazy_state_test.cpp and the topology-backed
#      credit-bank tests of tests/armci/topology_bank_test.cpp.
#   2. TSan (+VTOPO_VALIDATE) over the parallel paths: the --jobs sweep
#      harness and the hotpath bench worker threads, plus a byte-diff of
#      --jobs 4 against --jobs 1 output — determinism under threads, not
#      just race-freedom.
#   3. TSan over the QoS battery (ctest -L qos): the class-aware queue,
#      reserved credit lanes and congestion windows, with the race
#      detector watching.
#   4. TSan over the threads transport backend (ctest -L threads): one
#      real worker thread per node, cross-thread request/ack/response
#      posts, shared-memory payload copies and the realtime Future
#      handshake — the differential oracle with the race detector on —
#      plus lazy_state_threads_suite and topology_bank_threads_suite:
#      credit pools and edge records materialized on the owning node's
#      worker while acks post releases across threads.
#   5. TSan over the multi-tenant service battery (ctest -L svc): the
#      uncoupled scheduler's one-host-thread-per-running-job path plus
#      a byte-diff of the canonical report at jobs 4 vs 1 — the service
#      must be race-free AND deterministic under host parallelism.
#
# Any sanitizer report aborts the run (-fno-sanitize-recover=all) and
# fails the script.
#
# Usage: tools/check_sanitize.sh [extra ctest args...]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== ASan+UBSan =="
cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
ctest --preset asan -j "$(nproc)" "$@"

echo "== TSan =="
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)"
ctest --test-dir build-tsan -j "$(nproc)" -L "sim|bench" \
  --output-on-failure "$@"

tsan_out=$(mktemp -d)
trap 'rm -rf "$tsan_out"' EXIT

# The figure drivers thread their sweeps with --jobs N; the parallel run
# must be race-free AND byte-identical to the serial one.
./build-tsan/bench/fig5_memory --max-procs 3072 --jobs 1 \
  >"$tsan_out/fig5_serial.txt"
./build-tsan/bench/fig5_memory --max-procs 3072 --jobs 4 \
  >"$tsan_out/fig5_jobs4.txt"
diff -u "$tsan_out/fig5_serial.txt" "$tsan_out/fig5_jobs4.txt"

./build-tsan/bench/fig7_fetchadd_contention --quick --nodes 32 --ppn 2 \
  --iters 2 --jobs 1 >"$tsan_out/fig7_serial.txt"
./build-tsan/bench/fig7_fetchadd_contention --quick --nodes 32 --ppn 2 \
  --iters 2 --jobs 4 >"$tsan_out/fig7_jobs4.txt"
diff -u "$tsan_out/fig7_serial.txt" "$tsan_out/fig7_jobs4.txt"

# Criticality-aware QoS battery: queue scheduling, reserved lanes and
# congestion windows.
ctest --test-dir build-tsan -L qos -j "$(nproc)" --output-on-failure

# Threads transport backend: per-node worker threads with real MPSC
# queues and shared-memory copies. The differential oracle, the
# quiescence battery and the lazy and topology-backed credit-bank suites
# run with the race detector watching every cross-thread post and
# payload copy.
ctest --test-dir build-tsan -L threads -j "$(nproc)" --output-on-failure

# Multi-tenant service battery: admission/partitioner units, tenant
# isolation, tenant properties and the service smoke, then the
# host-parallel scheduler (one std::thread per running job) byte-diffed
# against its serial run with the race detector watching.
ctest --test-dir build-tsan -L svc -j "$(nproc)" --output-on-failure
svc_mix="dft:nodes=4,ops=24;synthetic:nodes=4,at=20000,ops=4;ccsd:nodes=8,at=40000,ops=16"
./build-tsan/tools/vtopo_run service="$svc_mix" slots=16 coupled=0 \
  jobs=1 canonical=1 >"$tsan_out/svc_j1.txt"
./build-tsan/tools/vtopo_run service="$svc_mix" slots=16 coupled=0 \
  jobs=4 canonical=1 >"$tsan_out/svc_j4.txt"
diff -u "$tsan_out/svc_j1.txt" "$tsan_out/svc_j4.txt"

echo "sanitize: ASan+UBSan suites, TSan suites, --jobs byte-diffs, qos, threads-backend and svc batteries clean"
