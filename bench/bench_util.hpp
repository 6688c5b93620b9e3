// Shared helpers for the figure-reproduction benches.
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace vtopo::bench {

/// Tail-percentile summary of a sample set (p50/p99/p999 and friends).
/// Accumulate with add()/add_all(), query with percentile(). Uses the
/// exact linear-interpolation formula of sim::Series::percentile, so a
/// bench that mixes Series-derived numbers with its own stays
/// consistent: sort ascending, pos = p/100 * (n-1), interpolate between
/// floor(pos) and the next sample. Empty set reports 0.
class Percentiles {
 public:
  void reserve(std::size_t n) { samples_.reserve(n); }
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void add_all(const std::vector<double>& xs) {
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sorted_ = false;
  }
  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  [[nodiscard]] double percentile(double p) {
    if (samples_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    if (samples_.size() == 1) return samples_.front();
    const double clamped = std::min(std::max(p, 0.0), 100.0);
    const double pos =
        clamped / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
  }
  [[nodiscard]] double p50() { return percentile(50.0); }
  [[nodiscard]] double p99() { return percentile(99.0); }
  [[nodiscard]] double p999() { return percentile(99.9); }
  [[nodiscard]] double max() {
    return samples_.empty() ? 0.0 : percentile(100.0);
  }

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

/// Wall-clock section timer for real-execution benches (the threads
/// backend runs in real time, so its latencies are measured with
/// steady_clock rather than read off the simulated clock). lap()
/// returns the nanoseconds since construction or the previous lap and
/// feeds them into an optional Percentiles accumulator, so a bench can
/// mix wall-clock laps with Series-derived numbers consistently.
// vtopo-lint: allow-file(nondeterminism) -- wall-clock measurement is this helper's entire purpose; it never feeds simulated state
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()), last_(start_) {}

  /// Nanoseconds since construction.
  [[nodiscard]] double elapsed_ns() const {
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  [[nodiscard]] double elapsed_sec() const { return elapsed_ns() * 1e-9; }

  /// Nanoseconds since the previous lap (or construction), optionally
  /// recorded into `sink`.
  double lap(Percentiles* sink = nullptr) {
    const auto now = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(now - last_).count();
    last_ = now;
    if (sink != nullptr) sink->add(ns);
    return ns;
  }

 private:
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point last_;
};

/// Minimal flag parser: --key value / --flag.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  /// True when `flag` was passed as a flag token. Tokens sitting in the
  /// value position of a preceding `--key` are not considered flags, so
  /// `--label quick` does not make has("quick") true.
  [[nodiscard]] bool has(const std::string& flag) const {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (is_value_position(i)) continue;
      if (args_[i] == flag) return true;
    }
    return false;
  }

  /// Integer value of `--key`, or `fallback` when absent. A malformed or
  /// out-of-range value is a usage error: it names the key and the value
  /// and exits 2 rather than running with a silent default.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const {
    const char* raw = find_value(key);
    if (raw == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(raw, &end, 10);
    if (end == raw || *end != '\0' || errno == ERANGE) {
      bad_value(key, "an integer", raw);
    }
    return v;
  }

  /// Floating-point value of `--key`; same error contract as get_int().
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const char* raw = find_value(key);
    if (raw == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(raw, &end);
    if (end == raw || *end != '\0' || errno == ERANGE) {
      bad_value(key, "a number", raw);
    }
    return v;
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback) const {
    const char* raw = find_value(key);
    return raw == nullptr ? fallback : std::string(raw);
  }

 private:
  [[noreturn]] static void bad_value(const std::string& key,
                                     const char* expected, const char* raw) {
    std::fprintf(stderr, "error: %s expects %s, got \"%s\"\n", key.c_str(),
                 expected, raw);
    std::exit(2);
  }

  static bool looks_like_key(const std::string& tok) {
    return tok.size() > 2 && tok[0] == '-' && tok[1] == '-';
  }

  /// args_[i] is the value of a preceding --key (and so not a flag).
  [[nodiscard]] bool is_value_position(std::size_t i) const {
    return i > 0 && looks_like_key(args_[i - 1]) &&
           !looks_like_key(args_[i]);
  }

  /// Value token following `key`, or nullptr when absent or when the
  /// next token is itself a --key (i.e. `key` was passed as a bare flag).
  [[nodiscard]] const char* find_value(const std::string& key) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == key && !looks_like_key(args_[i + 1])) {
        return args_[i + 1].c_str();
      }
    }
    return nullptr;
  }

  std::vector<std::string> args_;
};

/// printf into a growing string — lets sweep points format output into
/// per-point buffers that the harness prints in deterministic order.
inline void append_format(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

inline void append_format(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + old, static_cast<std::size_t>(n) + 1, fmt,
                   ap2);
    out.resize(old + static_cast<std::size_t>(n));
  }
  va_end(ap2);
}

inline void print_header(const char* figure, const char* what) {
  std::printf("# %s — %s\n", figure, what);
  std::printf(
      "# Reproduction of ICPP'11 \"Virtual Topologies for Scalable "
      "Resource Management and Contention Attenuation\" (simulated Cray "
      "XT5 substrate)\n");
}

inline void print_rule() {
  std::printf(
      "#------------------------------------------------------------\n");
}

}  // namespace vtopo::bench
