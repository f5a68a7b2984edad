// Set-associative tag-array cache model with true-LRU replacement.
//
// Caches here are *timing* models: they track presence (hit/miss) only.
// Functional data always lives in GlobalMemory, so tag-only caches keep the
// simulator fast while producing the traffic filtering that matters — a
// line fetched remotely once and re-read from L1 does not hit the fabric
// again. Writes are modeled write-through/no-allocate-on-write-miss... see
// `access` flags.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace mgcomp {

/// Statistics one cache keeps about itself.
struct CacheStats {
  std::uint64_t read_hits{0};
  std::uint64_t read_misses{0};
  std::uint64_t write_hits{0};
  std::uint64_t write_misses{0};

  [[nodiscard]] std::uint64_t accesses() const noexcept {
    return read_hits + read_misses + write_hits + write_misses;
  }
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(read_hits + write_hits) / static_cast<double>(a);
  }
};

/// Tags and LRU stamps live in two parallel arrays (16 B per way). A way is
/// valid iff its stamp is newer than the last flush, so `invalidate_all`
/// is O(1) and an invalid way always carries the smallest stamp in its
/// set: the argmin-stamp victim fills an invalid way before evicting the
/// true-LRU valid one.
class Cache {
 public:
  /// `size_bytes` must be a multiple of `ways * kLineBytes`.
  Cache(std::size_t size_bytes, std::uint32_t ways)
      : ways_(ways), num_sets_(size_bytes / (static_cast<std::size_t>(ways) * kLineBytes)) {
    MGCOMP_CHECK(ways_ > 0 && num_sets_ > 0);
    MGCOMP_CHECK_MSG(size_bytes == num_sets_ * ways_ * kLineBytes,
                     "cache size must be sets*ways*64");
    tags_.resize(num_sets_ * ways_);
    stamps_.resize(num_sets_ * ways_);
  }

  /// Looks up the line containing `addr`; on miss, allocates it (evicting
  /// LRU). Returns true on hit. `is_write` only affects the stats split;
  /// both reads and writes allocate (write-allocate, matching GPU L1/L2
  /// sector behavior closely enough for traffic purposes).
  bool access(Addr addr, bool is_write) {
    const Addr tag = line_base(addr);
    const std::size_t first = set_of(tag) * ways_;
    Addr* tags = &tags_[first];
    std::uint64_t* stamps = &stamps_[first];

    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags[w] == tag && stamps[w] > flushed_at_) {
        stamps[w] = ++clock_;
        if (is_write) {
          ++stats_.write_hits;
        } else {
          ++stats_.read_hits;
        }
        return true;
      }
    }

    // Miss: evict LRU (an invalid way, if any, has the smallest stamp).
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < ways_; ++w) {
      if (stamps[w] < stamps[victim]) victim = w;
    }
    tags[victim] = tag;
    stamps[victim] = ++clock_;
    if (is_write) {
      ++stats_.write_misses;
    } else {
      ++stats_.read_misses;
    }
    return false;
  }

  /// True if the line is present (no state change).
  [[nodiscard]] bool probe(Addr addr) const noexcept {
    const Addr tag = line_base(addr);
    const std::size_t first = set_of(tag) * ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (tags_[first + w] == tag && stamps_[first + w] > flushed_at_) return true;
    }
    return false;
  }

  /// Drops every line. GPUs flush caches at kernel boundaries, which is
  /// also what makes inter-kernel producer/consumer data visible remotely.
  void invalidate_all() noexcept { flushed_at_ = clock_; }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint32_t ways() const noexcept { return ways_; }
  [[nodiscard]] std::size_t num_sets() const noexcept { return num_sets_; }

 private:
  [[nodiscard]] std::size_t set_of(Addr tag) const noexcept {
    return static_cast<std::size_t>((tag / kLineBytes) % num_sets_);
  }

  std::uint32_t ways_;
  std::size_t num_sets_;
  std::vector<Addr> tags_;
  std::vector<std::uint64_t> stamps_;  ///< last-use clock per way; valid iff > flushed_at_
  std::uint64_t clock_{0};
  std::uint64_t flushed_at_{0};
  CacheStats stats_;
};

}  // namespace mgcomp
