// Collective communication on the simulated fabric.
//
// Four chunked ring collectives — all-reduce (reduce-scatter + all-gather
// phases), all-gather, reduce-scatter, and broadcast — built entirely out
// of the cache-line RDMA path every other workload uses. Each rank is one
// GPU; each rank's buffer lives in its own DRAM (RankSpace); every hop of
// every chunk's ring schedule is a batch of RdmaEngine::remote_read line
// pulls, so collective traffic flows through the per-link compression
// policy, CRC/retransmission protocol, and fault injector unchanged.
//
// Transfers are pull-based on purpose: a Data-Ready response carries the
// owner's *current* functional line, so the payloads crossing the wire
// during a reduce chain are the real partial sums — exactly the data the
// adaptive policy must size up. Reductions use wrapping u32 sum / u32 max,
// which are associative and commutative, so results are bit-exact no
// matter how chunks interleave.
//
// Fail-stop recovery: when the system runs with fault episodes, an attempt
// whose pull hard-fails or whose peer is believed DOWN aborts with a
// structured CollectiveError instead of limping along with stale data.
// run_collective then retries — after a flap heals, the full ring repeats
// from refilled inputs and produces the bit-exact reference digest — or,
// when a GPU is fail-stopped and the caller opted in via `allow_shrink`,
// completes a shrunk ring over the survivors with the result flagged
// partial. Every outcome is classified completed/degraded/failed.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "analysis/collective_error.h"
#include "analysis/run_stats.h"
#include "core/system.h"

namespace mgcomp {

enum class CollectiveKind : std::uint8_t { kAllReduce, kAllGather, kReduceScatter, kBroadcast };
inline constexpr std::size_t kNumCollectiveKinds = 4;

/// Schedule family. kFlat is the original single-ring schedule over all
/// ranks. kHier is the topology-aware all-reduce (intra-node
/// reduce-scatter, inter-node exchange among node leaders, intra-node
/// all-gather) that keeps the bulk of the traffic off the oversubscribed
/// trunks. kAuto picks kHier exactly when it helps: an all-reduce on a
/// multi-node hierarchical fabric; everything else stays flat.
enum class CollectiveAlgo : std::uint8_t { kAuto, kFlat, kHier };

enum class ReduceOp : std::uint8_t { kSum, kMax };

/// Initial buffer contents, chosen to span the compressibility range:
/// kZero (degenerate), kLowRange (small deltas, BDI/FPC-friendly — the
/// default benchmark pattern), kRamp (structured words), kRandom
/// (incompressible). u32 element e of rank r's buffer starts as
///   kZero:     0
///   kLowRange: 0x1000 + ((7e + 13r) & 0x3F)
///   kRamp:     r * 0x01000000 + e            (mod 2^32)
///   kRandom:   low 32 bits of splitmix64(seed ^ (r << 40) ^ e)
enum class CollectiveFill : std::uint8_t { kZero, kLowRange, kRamp, kRandom };

struct CollectiveConfig {
  CollectiveKind kind{CollectiveKind::kAllReduce};
  /// Buffer length per rank, in 64-byte lines (u32 elements = 16x this).
  std::size_t lines_per_rank{256};
  ReduceOp op{ReduceOp::kSum};
  CollectiveFill fill{CollectiveFill::kLowRange};
  /// Source rank for broadcast; ignored by the other collectives.
  std::uint32_t root{0};
  /// Max in-flight line reads per chunk hop (the receiver's pull window).
  std::uint32_t window{16};
  /// Bulk fast path: lines pulled per ring-hop request. 1 (the default)
  /// keeps the original per-line pulls bit-exactly; larger values issue
  /// page-clamped remote_read_bulk blocks behind the same pull window
  /// (a k-line block occupies k window slots). Capped at one page (64).
  std::uint32_t lines_per_block{1};
  /// Schedule family; kAuto adapts to the system's resolved topology.
  CollectiveAlgo algo{CollectiveAlgo::kAuto};
  /// Pull granularity of the hierarchical schedule's inter-node phase. The
  /// trunk level defaults to full-page bulk blocks (0 resolves to 64
  /// lines) so trunk traffic flows through the chunked block codec, while
  /// the intra-node phases keep `lines_per_block` (default 1: line
  /// codecs) — the per-level compression split of the hier schedule.
  /// Ignored by the flat schedule. Capped at one page.
  std::uint32_t trunk_lines_per_block{0};
  /// Seeds the kRandom fill (and salts the others' element values).
  std::uint64_t seed{0x6d67636f6d70ULL};
  /// Permits completing on a shrunk ring of survivors (>= kMinGpus) when a
  /// rank's GPU is declared DOWN; the result is then flagged `partial`.
  bool allow_shrink{false};
  /// Total attempt budget (first try + retries). Retries re-fill the input
  /// buffers, so a clean retry reproduces the reference digest bit-exactly.
  std::uint32_t max_attempts{3};
};

struct CollectiveOutcome {
  RunResult run;
  /// True when every defined output region matched the host-side reference.
  bool verified{false};
  /// FNV-1a over the defined output words — the cross-backend identity
  /// anchor (compression on/off, scalar/SIMD must all agree). Words fold
  /// as u64 (FingerprintHasher::add_u64), member by member in ascending
  /// rank order, each member's defined words in element order.
  std::uint64_t data_digest{0};
  /// kCompleted: first attempt, full ring. kDegraded: verified, but only
  /// after retry and/or ring shrink. kFailed: no verified result.
  CollectiveStatus status{CollectiveStatus::kCompleted};
  /// First fault of the last aborted attempt (kind kNone when clean).
  CollectiveError error{};
  std::uint32_t attempts{0};
  /// True when the result covers a shrunk ring, not all ranks.
  bool partial{false};
  /// Ranks participating in the final attempt (all ranks unless shrunk).
  std::vector<std::uint32_t> surviving_ranks{};
};

/// Runs one collective on `sys` (which must be freshly constructed: the
/// collective owns the event timeline from tick 0). Fills the rank
/// buffers, executes the ring schedule to completion, verifies the result
/// against a single-node reference, and returns measurements with
/// RunResult::collective populated.
CollectiveOutcome run_collective(MultiGpuSystem& sys, const CollectiveConfig& cfg);

/// NCCL-convention bus-bandwidth factor: multiplying algorithm bandwidth
/// by this yields per-link wire pressure comparable across collectives.
[[nodiscard]] double collective_bus_factor(CollectiveKind kind, std::uint32_t ranks) noexcept;

[[nodiscard]] std::string_view to_string(CollectiveKind kind) noexcept;
[[nodiscard]] std::string_view to_string(CollectiveFill fill) noexcept;
[[nodiscard]] std::string_view to_string(ReduceOp op) noexcept;
[[nodiscard]] std::string_view to_string(CollectiveAlgo algo) noexcept;

/// Parses "allreduce" / "allgather" / "reducescatter" / "broadcast".
[[nodiscard]] bool parse_collective_kind(std::string_view s, CollectiveKind* out) noexcept;
/// Parses "zero" / "lowrange" / "ramp" / "random".
[[nodiscard]] bool parse_collective_fill(std::string_view s, CollectiveFill* out) noexcept;
/// Parses "auto" / "flat" / "hier".
[[nodiscard]] bool parse_collective_algo(std::string_view s, CollectiveAlgo* out) noexcept;

/// Digest of a collective run: data digest + verification + the collective
/// counters + the timing-relevant RunResult core. Separate from
/// run_fingerprint so the 42 recorded workload goldens stay valid.
[[nodiscard]] std::uint64_t collective_fingerprint(const CollectiveOutcome& o);

}  // namespace mgcomp
