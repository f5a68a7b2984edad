#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "analysis/fingerprint.h"
#include "common/assert.h"
#include "core/system.h"
#include "fault/episodes.h"
#include "workloads/aes.h"
#include "workloads/bitonic_sort.h"
#include "workloads/convolution.h"
#include "workloads/fir.h"
#include "workloads/gradient_descent.h"
#include "workloads/kmeans.h"
#include "workloads/matrix_transpose.h"

namespace perfbench {

using mgcomp::CollectiveFill;

namespace {

// Workload shapes. paper-suite: the paper's Table VII machine (4 GPUs on
// the 20 B/cycle bus). allreduce-hier-bulk: 8 nodes x 4 GPUs on a 4:1
// fat-tree, 256 KB per rank pulled a page at a time at every level.
// allreduce-lossy-switch: 8 GPUs on the switch, 512 KB per rank pulled a
// line at a time, BER 1e-5 plus one link-down episode mid-run.
constexpr std::uint32_t kSuiteGpus = 4;
constexpr std::uint32_t kHierRanks = 32;
constexpr std::uint32_t kHierGpusPerNode = 4;
constexpr std::uint32_t kHierTrunkRatio = 4;
constexpr std::size_t kHierLinesPerRank = 256 * 1024 / 64;
constexpr std::uint32_t kPageLines = 64;
constexpr std::uint32_t kLossyRanks = 8;
constexpr std::size_t kLossyLinesPerRank = 512 * 1024 / 64;
constexpr double kLossyBer = 1e-5;
constexpr const char* kLossyEpisodes = "down:1-2@20000+30000";
constexpr std::uint64_t kLossyCellsPerPass = 4;

constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(ns_between(a, b)) * 1e-9;
}

/// Opens a span on construction and closes it on destruction; a no-op
/// without a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, SpanKind kind)
      : recorder_(recorder), index_(recorder != nullptr ? recorder->open(kind) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

template <typename W>
std::unique_ptr<mgcomp::Workload> with_seed(std::uint64_t seed) {
  typename W::Params p;
  p.seed = seed;
  return std::make_unique<W>(p);
}

/// The paper-suite kernel `abbrev` at scale 1 (default Params) with its
/// data seed replaced.
std::unique_ptr<mgcomp::Workload> make_kernel(std::string_view abbrev, std::uint64_t seed) {
  if (abbrev == "AES") return with_seed<mgcomp::AesWorkload>(seed);
  if (abbrev == "BS") return with_seed<mgcomp::BitonicSortWorkload>(seed);
  if (abbrev == "FIR") return with_seed<mgcomp::FirWorkload>(seed);
  if (abbrev == "GD") return with_seed<mgcomp::GradientDescentWorkload>(seed);
  if (abbrev == "KM") return with_seed<mgcomp::KMeansWorkload>(seed);
  if (abbrev == "MT") return with_seed<mgcomp::MatrixTransposeWorkload>(seed);
  if (abbrev == "SC") return with_seed<mgcomp::ConvolutionWorkload>(seed);
  MGCOMP_CHECK_MSG(false, "unknown paper-suite kernel");
  return nullptr;
}

class SpannedPolicy final : public mgcomp::CompressionPolicy {
 public:
  SpannedPolicy(std::unique_ptr<mgcomp::CompressionPolicy> inner, SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {
    stats_ = inner_->stats();
  }

  mgcomp::CompressionDecision decide(mgcomp::LineView line) override {
    const auto t0 = Clock::now();
    const mgcomp::CompressionDecision d = inner_->decide(line);
    recorder_.add_leaf(SpanKind::kDecide, ns_between(t0, Clock::now()), mgcomp::kLineBytes);
    stats_ = inner_->stats();
    return d;
  }

  mgcomp::BlockDecision decide_block(const std::uint8_t* data, std::size_t size) override {
    const auto t0 = Clock::now();
    const mgcomp::BlockDecision d = inner_->decide_block(data, size);
    recorder_.add_leaf(SpanKind::kDecideBlock, ns_between(t0, Clock::now()), size);
    stats_ = inner_->stats();
    return d;
  }

  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
  void set_pressure_probe(mgcomp::PressureProbe probe) override {
    inner_->set_pressure_probe(std::move(probe));
  }
  void set_payload_pool(mgcomp::PayloadPool* pool) override { inner_->set_payload_pool(pool); }
  void on_link_feedback(mgcomp::LinkEvent ev) override {
    inner_->on_link_feedback(ev);
    stats_ = inner_->stats();
  }
  void set_tracer(mgcomp::Tracer* tracer, std::uint32_t track) override {
    inner_->set_tracer(tracer, track);
  }
  void trace_flush() override {
    inner_->trace_flush();
    stats_ = inner_->stats();
  }

 private:
  std::unique_ptr<mgcomp::CompressionPolicy> inner_;
  SpanRecorder& recorder_;
};

mgcomp::PolicyFactory paper_adaptive_policy(SpanRecorder* recorder) {
  mgcomp::PolicyFactory f = mgcomp::make_adaptive_policy(mgcomp::AdaptiveParams{});
  return recorder != nullptr ? spanned_policy(std::move(f), *recorder) : f;
}

/// System configuration of a workload. Fabric, topology and shard count
/// are pinned so MGCOMP_TOPOLOGY, MGCOMP_GPUS_PER_NODE and MGCOMP_SHARDS
/// cannot change what is measured.
mgcomp::SystemConfig system_config(const CellSpec& spec, SpanRecorder* recorder) {
  mgcomp::SystemConfig cfg;
  cfg.shards = 1;
  cfg.policy = paper_adaptive_policy(recorder);
  switch (spec.workload) {
    case WorkloadId::kPaperSuite:
      cfg.num_gpus = kSuiteGpus;
      cfg.fabric = mgcomp::FabricKind::kBus;
      break;
    case WorkloadId::kHierBulk:
      cfg.num_gpus = kHierRanks;
      cfg.fabric = mgcomp::FabricKind::kHier;
      cfg.hier = mgcomp::HierTopology{.gpus_per_node = kHierGpusPerNode,
                                      .internode_bw_ratio = kHierTrunkRatio,
                                      .graph = mgcomp::HierGraph::kFatTree};
      break;
    case WorkloadId::kLossySwitch: {
      cfg.num_gpus = kLossyRanks;
      cfg.fabric = mgcomp::FabricKind::kSwitch;
      cfg.fault.bit_error_rate = kLossyBer;
      cfg.fault.seed = spec.fault_seed;
      std::string error;
      MGCOMP_CHECK_MSG(mgcomp::parse_fault_episodes(kLossyEpisodes, &cfg.episodes, &error),
                       "bad link-down episode spec");
      break;
    }
  }
  return cfg;
}

mgcomp::CollectiveConfig collective_config(const CellSpec& spec) {
  mgcomp::CollectiveConfig c;
  c.kind = mgcomp::CollectiveKind::kAllReduce;
  c.op = mgcomp::ReduceOp::kSum;
  c.fill = spec.fill;
  c.seed = spec.input_seed;
  const CollectiveShape shape = collective_shape(spec.workload);
  c.lines_per_rank = shape.lines_per_rank;
  if (spec.workload == WorkloadId::kHierBulk) {
    c.algo = mgcomp::CollectiveAlgo::kHier;
    c.lines_per_block = kPageLines;
    c.trunk_lines_per_block = kPageLines;
  } else {
    c.algo = mgcomp::CollectiveAlgo::kFlat;
    c.lines_per_block = 1;
  }
  return c;
}

std::string gd_cause(const mgcomp::Workload& w) {
  const auto* gd = dynamic_cast<const mgcomp::GradientDescentWorkload*>(&w);
  if (gd == nullptr || gd->losses().empty()) return std::string(w.abbrev()) + " verify() failed";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "GD verify() failed: final/first-iteration loss %.4f is not below 0.5",
                gd->losses().back() / gd->losses().front());
  return buf;
}

CellOutcome run_suite_cell(const CellSpec& spec, SpanRecorder* recorder) {
  CellOutcome out;
  out.spec = spec;
  const auto t0 = Clock::now();
  {
    std::unique_ptr<mgcomp::Workload> kernel = make_kernel(spec.label, spec.input_seed);
    SpannedWorkload wrapped(*kernel, recorder);
    std::unique_ptr<mgcomp::MultiGpuSystem> sys;
    {
      ScopedSpan span(recorder, SpanKind::kConstruct);
      sys = std::make_unique<mgcomp::MultiGpuSystem>(system_config(spec, recorder));
    }
    out.run = sys->run(wrapped);
    out.setup_s = seconds_between(t0, wrapped.setup_done());
    out.trace_ops = wrapped.trace_ops();
    if (wrapped.verdict() != true) {
      out.ok = false;
      out.verify_failed = true;
      out.cause = gd_cause(*kernel);
    }
  }
  out.host_s = seconds_between(t0, Clock::now());
  out.fingerprint = mgcomp::run_fingerprint(out.run);
  if (out.run.link.hard_failures != 0) {
    out.ok = false;
    out.verify_failed = false;
    out.cause = "hard failures on a lossless bus";
  }
  return out;
}

CellOutcome run_collective_cell(const CellSpec& spec, SpanRecorder* recorder,
                                std::uint64_t expected_digest) {
  CellOutcome out;
  out.spec = spec;
  const auto t0 = Clock::now();
  mgcomp::CollectiveOutcome coll;
  {
    std::unique_ptr<mgcomp::MultiGpuSystem> sys;
    {
      ScopedSpan span(recorder, SpanKind::kConstruct);
      sys = std::make_unique<mgcomp::MultiGpuSystem>(system_config(spec, recorder));
    }
    out.setup_s = seconds_between(t0, Clock::now());
    coll = mgcomp::run_collective(*sys, collective_config(spec));
  }
  out.host_s = seconds_between(t0, Clock::now());
  out.fingerprint = mgcomp::collective_fingerprint(coll);
  out.cause = check_collective(coll, expected_digest,
                               spec.workload == WorkloadId::kLossySwitch);
  out.ok = out.cause.empty();
  out.attempts = coll.attempts;
  out.run = std::move(coll.run);
  return out;
}

}  // namespace

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (const WorkloadId w :
       {WorkloadId::kPaperSuite, WorkloadId::kHierBulk, WorkloadId::kLossySwitch}) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

std::string_view workload_name(WorkloadId w) {
  switch (w) {
    case WorkloadId::kPaperSuite: return "paper-suite";
    case WorkloadId::kHierBulk: return "allreduce-hier-bulk";
    case WorkloadId::kLossySwitch: return "allreduce-lossy-switch";
  }
  return "?";
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t pass, std::uint64_t salt) noexcept {
  return mix64(mix64(mix64(seed) ^ pass) ^ salt);
}

std::vector<CellSpec> pass_cells(WorkloadId w, std::uint64_t seed, std::uint64_t pass) {
  std::vector<CellSpec> cells;
  switch (w) {
    case WorkloadId::kPaperSuite: {
      static constexpr const char* kKernels[] = {"AES", "BS", "FIR", "GD", "KM", "MT", "SC"};
      std::uint64_t salt = 0;
      for (const char* k : kKernels) {
        cells.push_back(CellSpec{.workload = w,
                                 .label = k,
                                 .input_seed = derive_seed(seed, pass, ++salt)});
      }
      break;
    }
    case WorkloadId::kHierBulk:
      // Both fills in every pass: the block codec's compress path
      // (lowrange) and its probe-then-send-raw path (random).
      cells.push_back(CellSpec{.workload = w,
                               .label = "lowrange",
                               .input_seed = derive_seed(seed, pass, 1),
                               .fill = CollectiveFill::kLowRange});
      cells.push_back(CellSpec{.workload = w,
                               .label = "random",
                               .input_seed = derive_seed(seed, pass, 2),
                               .fill = CollectiveFill::kRandom});
      break;
    case WorkloadId::kLossySwitch:
      for (std::uint64_t i = 0; i < kLossyCellsPerPass; ++i) {
        cells.push_back(CellSpec{.workload = w,
                                 .label = "lowrange",
                                 .input_seed = derive_seed(seed, pass, 2 * i + 1),
                                 .fault_seed = derive_seed(seed, pass, 2 * i + 2),
                                 .fill = CollectiveFill::kLowRange});
      }
      break;
  }
  return cells;
}

std::uint64_t reference_passes(WorkloadId w) {
  // A retransmission timeout is several percent of a lossy cell's cycles,
  // so the lossy reference set needs many cells (8) before its modelled
  // totals stop swinging from seed to seed.
  return w == WorkloadId::kLossySwitch ? 2 : 1;
}

CollectiveShape collective_shape(WorkloadId w) {
  switch (w) {
    case WorkloadId::kHierBulk: return {kHierRanks, kHierLinesPerRank};
    case WorkloadId::kLossySwitch: return {kLossyRanks, kLossyLinesPerRank};
    case WorkloadId::kPaperSuite: break;
  }
  return {};
}

std::string_view span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kCell: return "cell";
    case SpanKind::kConstruct: return "construct";
    case SpanKind::kSetup: return "workload.setup";
    case SpanKind::kGenerate: return "workload.generate_kernel";
    case SpanKind::kDecide: return "policy.decide";
    case SpanKind::kDecideBlock: return "policy.decide_block";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// SpanRecorder

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

void SpanRecorder::begin_cell(std::uint32_t cell) {
  cell_ = cell;
  if (leaves_.size() <= cell) leaves_.resize(cell + 1, std::vector<LeafTotals>(kNumSpanKinds));
}

std::size_t SpanRecorder::open(SpanKind kind) {
  const std::int32_t parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  spans_.push_back(Span{.kind = kind, .cell = cell_, .parent = parent, .start_ns = now_ns()});
  leaf_child_ns_.push_back(0);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  MGCOMP_CHECK_MSG(!stack_.empty() && stack_.back() == index, "spans must nest");
  spans_[index].end_ns = now_ns();
  stack_.pop_back();
}

void SpanRecorder::add_leaf(SpanKind kind, std::int64_t ns, std::uint64_t bytes) {
  LeafTotals& t = leaves_.at(cell_)[static_cast<std::size_t>(kind)];
  ++t.count;
  t.ns += ns;
  t.bytes += bytes;
  if (!stack_.empty()) leaf_child_ns_[stack_.back()] += ns;
}

const LeafTotals& SpanRecorder::leaf(std::uint32_t cell, SpanKind kind) const {
  return leaves_.at(cell)[static_cast<std::size_t>(kind)];
}

std::vector<double> SpanRecorder::self_seconds(SpanKind kind) const {
  std::vector<std::int64_t> self(leaves_.size(), 0);
  if (kind == SpanKind::kDecide || kind == SpanKind::kDecideBlock) {
    for (std::size_t c = 0; c < leaves_.size(); ++c) self[c] = leaf(c, kind).ns;
  } else {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        child[static_cast<std::size_t>(spans_[i].parent)] += spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].kind != kind) continue;
      self[spans_[i].cell] +=
          spans_[i].end_ns - spans_[i].start_ns - child[i] - leaf_child_ns_[i];
    }
  }
  std::vector<double> out;
  out.reserve(self.size());
  for (const std::int64_t ns : self) out.push_back(static_cast<double>(ns) * 1e-9);
  return out;
}

std::string SpanRecorder::to_json() const {
  std::string s = "{\"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& sp = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\": %zu, \"name\": \"%s\", \"cell\": %u, \"parent\": %d, "
                  "\"start_ns\": %lld, \"end_ns\": %lld}",
                  i == 0 ? "" : ",", i, std::string(span_name(sp.kind)).c_str(), sp.cell,
                  sp.parent, static_cast<long long>(sp.start_ns),
                  static_cast<long long>(sp.end_ns));
    s += buf;
  }
  s += "],\n\"leaf_totals\": [";
  bool first = true;
  for (std::size_t c = 0; c < leaves_.size(); ++c) {
    for (const SpanKind k : {SpanKind::kDecide, SpanKind::kDecideBlock}) {
      const LeafTotals& t = leaf(c, k);
      if (t.count == 0) continue;
      std::snprintf(buf, sizeof buf,
                    "%s\n{\"cell\": %zu, \"name\": \"%s\", \"count\": %llu, \"ns\": %lld, "
                    "\"bytes\": %llu}",
                    first ? "" : ",", c, std::string(span_name(k)).c_str(),
                    static_cast<unsigned long long>(t.count), static_cast<long long>(t.ns),
                    static_cast<unsigned long long>(t.bytes));
      s += buf;
      first = false;
    }
  }
  s += "]}\n";
  return s;
}

// ---------------------------------------------------------------------------
// Wrappers

void SpannedWorkload::setup(mgcomp::GlobalMemory& mem) {
  {
    ScopedSpan span(recorder_, SpanKind::kSetup);
    inner_.setup(mem);
  }
  setup_done_ = Clock::now();
}

mgcomp::KernelTrace SpannedWorkload::generate_kernel(std::size_t k, mgcomp::GlobalMemory& mem) {
  ScopedSpan span(recorder_, SpanKind::kGenerate);
  mgcomp::KernelTrace trace = inner_.generate_kernel(k, mem);
  trace_ops_ += trace.total_ops();
  return trace;
}

bool SpannedWorkload::verify(const mgcomp::GlobalMemory& mem) const {
  verdict_ = inner_.verify(mem);
  return true;
}

mgcomp::PolicyFactory spanned_policy(mgcomp::PolicyFactory inner, SpanRecorder& recorder) {
  return [inner = std::move(inner), &recorder](const mgcomp::CodecSet& codecs) {
    return std::unique_ptr<mgcomp::CompressionPolicy>(
        std::make_unique<SpannedPolicy>(inner(codecs), recorder));
  };
}

// ---------------------------------------------------------------------------
// Cells

std::uint64_t reference_allreduce_digest(CollectiveFill fill, std::uint64_t seed,
                                         std::uint32_t ranks, std::size_t lines_per_rank) {
  // The documented fills of CollectiveFill, summed over every rank with
  // wrapping u32 arithmetic; every rank ends with the same buffer, folded
  // into the digest rank by rank, word by word.
  const std::size_t words = lines_per_rank * 16;
  std::vector<std::uint32_t> sum(words, 0);
  for (std::uint32_t r = 0; r < ranks; ++r) {
    for (std::size_t e = 0; e < words; ++e) {
      std::uint32_t v = 0;
      switch (fill) {
        case CollectiveFill::kZero: v = 0; break;
        case CollectiveFill::kLowRange:
          v = 0x1000 + static_cast<std::uint32_t>((e * 7 + r * 13) & 0x3F);
          break;
        case CollectiveFill::kRamp: v = r * 0x01000000u + static_cast<std::uint32_t>(e); break;
        case CollectiveFill::kRandom:
          v = static_cast<std::uint32_t>(mix64(seed ^ (static_cast<std::uint64_t>(r) << 40) ^ e));
          break;
      }
      sum[e] += v;
    }
  }
  mgcomp::FingerprintHasher h;
  for (std::uint32_t r = 0; r < ranks; ++r) {
    for (const std::uint32_t v : sum) h.add_u64(v);
  }
  return h.value();
}

std::string check_collective(const mgcomp::CollectiveOutcome& out, std::uint64_t expected_digest,
                             bool faults_expected) {
  if (!out.verified) return "collective output differs from the host reference";
  if (out.status == mgcomp::CollectiveStatus::kFailed) return "collective status failed";
  if (out.data_digest != expected_digest) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "data digest %016llx != reference %016llx",
                  static_cast<unsigned long long>(out.data_digest),
                  static_cast<unsigned long long>(expected_digest));
    return buf;
  }
  if (!faults_expected && out.run.link.hard_failures != 0) {
    return "hard failures on a fault-free fabric";
  }
  return {};
}

CellOutcome run_cell(const CellSpec& spec, SpanRecorder* recorder, std::uint32_t cell_id,
                     std::uint64_t expected_digest) {
  if (recorder != nullptr) recorder->begin_cell(cell_id);
  ScopedSpan span(recorder, SpanKind::kCell);
  return spec.workload == WorkloadId::kPaperSuite
             ? run_suite_cell(spec, recorder)
             : run_collective_cell(spec, recorder, expected_digest);
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double kind_median(const std::vector<double>& values, const std::vector<std::size_t>& kinds) {
  MGCOMP_CHECK(values.size() == kinds.size());
  std::vector<std::vector<double>> by_kind;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (by_kind.size() <= kinds[i]) by_kind.resize(kinds[i] + 1);
    by_kind[kinds[i]].push_back(values[i]);
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (std::vector<double>& v : by_kind) {
    if (v.empty()) continue;
    sum += median(std::move(v));
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

TailStat tail_percentile(std::vector<double> v, std::size_t min_beyond) {
  TailStat t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (const int p : {75, 50}) {
    // Nearest rank: the smallest sample with at least p% of samples at or
    // below it.
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    const std::size_t k = std::max<std::size_t>(rank, 1);
    t.percentile = p;
    t.value = v[k - 1];
    t.beyond = n - k;
    if (t.beyond >= min_beyond) break;
  }
  return t;
}

}  // namespace perfbench
