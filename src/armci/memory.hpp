// The simulated partitioned global address space.
//
// Every process owns one byte segment; a GAddr names (process, offset).
// Data semantics (put/get/accumulate/fetch-&-add/locks) are executed for
// real on these segments — at the simulated instant the operation is
// serviced — so tests can check both timing AND value correctness
// (atomicity, ordering) of the runtime protocols.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace vtopo::armci {

/// Application process rank.
using ProcId = std::int32_t;

/// Global address: a byte offset within one process's segment.
struct GAddr {
  ProcId proc = 0;
  std::int64_t offset = 0;

  friend bool operator==(const GAddr&, const GAddr&) = default;
};

class GlobalMemory {
 public:
  GlobalMemory(std::int64_t num_procs, std::int64_t segment_bytes);

  [[nodiscard]] std::int64_t num_procs() const {
    return static_cast<std::int64_t>(segments_.size());
  }
  [[nodiscard]] std::int64_t segment_bytes() const { return segment_bytes_; }

  /// Collective allocation: reserves `bytes` (8-byte aligned) at the same
  /// offset in every segment; returns that offset. Mirrors ARMCI_Malloc.
  std::int64_t alloc_all(std::int64_t bytes);

  /// Raw access for op execution.
  void write(GAddr dst, std::span<const std::uint8_t> src);
  void read(std::span<std::uint8_t> dst, GAddr src) const;
  /// The `bytes` bytes at `src`, in place; valid until the next call
  /// that may touch the segment.
  [[nodiscard]] std::span<const std::uint8_t> view(GAddr src,
                                                   std::int64_t bytes) const;

  /// dst[i] += scale * src[i] over doubles (ARMCI_Acc with ARMCI_ACC_DBL).
  void accumulate_f64(GAddr dst, std::span<const double> src, double scale);

  /// The accumulates over a raw payload (a request's data, no alignment
  /// guarantee) of src.size() / sizeof(element) elements: doubles,
  /// integers (ARMCI_ACC_LNG) and single precision (ARMCI_ACC_FLT).
  void accumulate_f64(GAddr dst, std::span<const std::uint8_t> src,
                      double scale);
  void accumulate_i64(GAddr dst, std::span<const std::uint8_t> src,
                      std::int64_t scale);
  void accumulate_f32(GAddr dst, std::span<const std::uint8_t> src,
                      float scale);

  /// Atomic read-modify-write on an int64 cell.
  std::int64_t fetch_add_i64(GAddr addr, std::int64_t delta);
  std::int64_t swap_i64(GAddr addr, std::int64_t value);

  [[nodiscard]] std::int64_t read_i64(GAddr addr) const;
  void write_i64(GAddr addr, std::int64_t value);
  [[nodiscard]] double read_f64(GAddr addr) const;
  void write_f64(GAddr addr, double value);

  /// Direct view of one process's segment (tests, workload setup).
  [[nodiscard]] std::span<std::uint8_t> segment(ProcId proc);

 private:
  void check(GAddr a, std::int64_t bytes) const;
  /// dst[i] += scale * src[i] over `n` elements of T read from `src`.
  template <typename T>
  void accumulate(GAddr dst, const std::uint8_t* src, std::size_t n,
                  T scale);
  /// Segments materialize lazily on first touch: simulations with many
  /// thousands of processes typically access only a handful of remote
  /// segments, and eager allocation of nprocs * segment_bytes would
  /// dwarf the host's memory.
  std::vector<std::uint8_t>& ensure(ProcId proc);
  [[nodiscard]] const std::vector<std::uint8_t>& ensure(ProcId proc) const;

  std::int64_t segment_bytes_;
  std::int64_t next_offset_ = 0;
  mutable std::vector<std::vector<std::uint8_t>> segments_;
};

}  // namespace vtopo::armci
