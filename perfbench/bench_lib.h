// The benchmark's workloads, cells, span tracing and statistics.
//
// A cell is one simulation: a freshly built MultiGpuSystem running either
// the seven paper kernels one at a time (paper-suite) or one all-reduce
// (the two collective workloads). A pass is the fixed list of cells a
// workload runs for one (seed, pass index); the first passes are the
// reference passes whose modelled totals the benchmark reports. Every input of every cell
// is derived from the benchmark seed and the pass index, so the same seed
// always yields the same cells.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adaptive/policy.h"
#include "analysis/run_stats.h"
#include "collective/collective.h"
#include "core/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class WorkloadId : std::uint8_t { kPaperSuite, kHierBulk, kLossySwitch };

[[nodiscard]] std::optional<WorkloadId> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(WorkloadId w);

/// splitmix64 over (seed, pass, salt): the only source of cell inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t pass,
                                        std::uint64_t salt) noexcept;

/// Everything a cell's simulation depends on besides the fixed workload
/// shape.
struct CellSpec {
  WorkloadId workload{WorkloadId::kPaperSuite};
  /// Kernel abbreviation (paper-suite) or fill name (collectives).
  std::string label;
  /// Kernel Params::seed (paper-suite) or CollectiveConfig::seed.
  std::uint64_t input_seed{0};
  /// FaultParams::seed (allreduce-lossy-switch only).
  std::uint64_t fault_seed{0};
  mgcomp::CollectiveFill fill{mgcomp::CollectiveFill::kLowRange};
};

/// The cells of pass `pass` of workload `w` under benchmark seed `seed`.
[[nodiscard]] std::vector<CellSpec> pass_cells(WorkloadId w, std::uint64_t seed,
                                               std::uint64_t pass);

/// Passes 0 .. reference_passes(w) - 1 form the reference set whose modelled
/// totals the run reports.
[[nodiscard]] std::uint64_t reference_passes(WorkloadId w);

/// Kinds of span the traced run records, in the benchmark's own files
/// around each call into a layer.
enum class SpanKind : std::uint8_t {
  kCell,         ///< the whole cell: construction to teardown
  kConstruct,    ///< MultiGpuSystem construction
  kSetup,        ///< Workload::setup
  kGenerate,     ///< Workload::generate_kernel
  kDecide,       ///< CompressionPolicy::decide (aggregated, see LeafTotals)
  kDecideBlock,  ///< CompressionPolicy::decide_block (aggregated)
};
inline constexpr std::size_t kNumSpanKinds = 6;
[[nodiscard]] std::string_view span_name(SpanKind k);

struct Span {
  SpanKind kind{SpanKind::kCell};
  std::uint32_t cell{0};
  std::int32_t parent{-1};  ///< index of the enclosing span, -1 for a cell
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
};

/// decide/decide_block run once per transfer (up to millions per cell), so
/// their spans are kept as per-cell sums rather than one record each. They
/// have no children, so their self time is their total.
struct LeafTotals {
  std::uint64_t count{0};
  std::int64_t ns{0};
  std::uint64_t bytes{0};
};

/// In-memory span store for the traced run; written out when the run ends.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens span `kind` under the innermost open span; returns its index.
  std::size_t open(SpanKind kind);
  void close(std::size_t index);
  void add_leaf(SpanKind kind, std::int64_t ns, std::uint64_t bytes);

  /// Starts a new cell id; spans and leaf totals recorded afterwards
  /// belong to it.
  void begin_cell(std::uint32_t cell);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const LeafTotals& leaf(std::uint32_t cell, SpanKind kind) const;

  /// Per-cell self time of `kind`: span time minus the time of its child
  /// spans (leaf totals count as children of the innermost span open when
  /// they were recorded).
  [[nodiscard]] std::vector<double> self_seconds(SpanKind kind) const;

  /// JSON array of every span plus the per-cell leaf totals.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  /// Leaf time charged to each span as child time.
  std::vector<std::int64_t> leaf_child_ns_;
  std::vector<std::size_t> stack_;
  std::uint32_t cell_{0};
  std::vector<std::vector<LeafTotals>> leaves_;  ///< [cell][kind]
};

/// Forwards every call to `inner`. setup/generate_kernel are recorded as
/// spans when a recorder is given; verify() records the inner verdict and
/// reports success to the system, so a failing kernel check marks the cell
/// failed instead of aborting the whole benchmark.
class SpannedWorkload final : public mgcomp::Workload {
 public:
  SpannedWorkload(mgcomp::Workload& inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] std::string_view name() const noexcept override { return inner_.name(); }
  [[nodiscard]] std::string_view abbrev() const noexcept override { return inner_.abbrev(); }
  void setup(mgcomp::GlobalMemory& mem) override;
  [[nodiscard]] std::size_t kernel_count() const override { return inner_.kernel_count(); }
  mgcomp::KernelTrace generate_kernel(std::size_t k, mgcomp::GlobalMemory& mem) override;
  [[nodiscard]] bool verify(const mgcomp::GlobalMemory& mem) const override;

  /// The inner workload's own verify() verdict (nullopt before the run).
  [[nodiscard]] std::optional<bool> verdict() const noexcept { return verdict_; }
  /// When setup() returned: the first simulated event follows.
  [[nodiscard]] Clock::time_point setup_done() const noexcept { return setup_done_; }
  /// Memory operations in every generated kernel trace.
  [[nodiscard]] std::uint64_t trace_ops() const noexcept { return trace_ops_; }

 private:
  mgcomp::Workload& inner_;
  SpanRecorder* recorder_;
  Clock::time_point setup_done_{};
  std::uint64_t trace_ops_{0};
  mutable std::optional<bool> verdict_;
};

/// Wraps `inner` so that every policy it creates records decide and
/// decide_block time into `recorder`. The wrapper forwards every virtual
/// and mirrors the inner policy's stats(), so the run fingerprint (which
/// includes the policy name and its stats) is unchanged.
[[nodiscard]] mgcomp::PolicyFactory spanned_policy(mgcomp::PolicyFactory inner,
                                                   SpanRecorder& recorder);

/// What one cell produced.
struct CellOutcome {
  CellSpec spec;
  /// False when a check failed; `cause` says which.
  bool ok{true};
  std::string cause;
  /// True when the only failed check was the kernel's own verify().
  bool verify_failed{false};
  double host_s{0.0};   ///< construction to teardown
  double setup_s{0.0};  ///< construction (+ Workload::setup) before the first event
  mgcomp::RunResult run;
  std::uint64_t fingerprint{0};
  std::uint64_t trace_ops{0};
  std::uint32_t attempts{0};  ///< collective attempts (0 for paper-suite cells)
};

/// The host-side reference digest of an all-ranks all-reduce (sum) with
/// the given fill: the value run_collective's data_digest must equal.
[[nodiscard]] std::uint64_t reference_allreduce_digest(mgcomp::CollectiveFill fill,
                                                       std::uint64_t seed, std::uint32_t ranks,
                                                       std::size_t lines_per_rank);

/// Runs one cell. `recorder` null runs it untraced. `expected_digest` is
/// the collective reference digest (ignored by paper-suite cells).
[[nodiscard]] CellOutcome run_cell(const CellSpec& spec, SpanRecorder* recorder,
                                   std::uint32_t cell_id, std::uint64_t expected_digest);

/// Checks a finished collective against its reference; empty when it
/// passes, else the cause.
[[nodiscard]] std::string check_collective(const mgcomp::CollectiveOutcome& out,
                                           std::uint64_t expected_digest, bool faults_expected);

/// Collective shape of a workload: ranks and lines per rank.
struct CollectiveShape {
  std::uint32_t ranks{0};
  std::size_t lines_per_rank{0};
};
[[nodiscard]] CollectiveShape collective_shape(WorkloadId w);

[[nodiscard]] double median(std::vector<double> v);

/// The mean over cell kinds of each kind's median: `values[i]` belongs to
/// kind `kinds[i]` (one kernel or fill; cells with the same label). Every
/// pass holds the same kinds, so this weighs each kernel equally. A plain
/// median over a mix of kernels of different sizes sits on the boundary
/// between two kernels and jumps between them from run to run.
[[nodiscard]] double kind_median(const std::vector<double>& values,
                                 const std::vector<std::size_t>& kinds);

/// The tail of a run's cell times: p75 (nearest rank) when at least
/// `min_beyond` samples lie above it, else the median. A benchmark run
/// holds about 60 to 120 cells: enough for p75, not always for p90. The
/// percentile is fixed rather than chosen from the sample count so
/// that a faster build, which fits more cells into the run, is compared at
/// the same percentile as its parent.
struct TailStat {
  double value{0.0};
  int percentile{50};
  std::size_t samples{0};
  std::size_t beyond{0};
};
[[nodiscard]] TailStat tail_percentile(std::vector<double> v, std::size_t min_beyond = 10);

}  // namespace perfbench
