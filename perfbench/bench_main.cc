// perfbench: the repository's benchmark.
//
//   perfbench --workload paper-suite|allreduce-hier-bulk|allreduce-lossy-switch
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Single-threaded. Runs the workload's reference passes (traced, not timed:
// they warm the host and yield the modelled totals), then repeats those
// same passes untraced, timed, until S seconds have gone. With --trace 1
// each pass runs untraced and then again traced, and the per-module
// metrics come from the traced runs. Every repeat of a cell must reproduce
// the fingerprint and verdict of its reference run, so `attempted` and
// `failed` count the reference cells and depend only on the seed. The last
// line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Lines before it starting with '#' describe the run.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "compression/simd/dispatch.h"

namespace perfbench {
namespace {

struct Args {
  WorkloadId workload{WorkloadId::kPaperSuite};
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper-suite|allreduce-hier-bulk|"
               "allreduce-lossy-switch --seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) usage("unknown workload");
      a.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') usage("--seed takes a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        usage("--seconds takes a number in (0, 3600]");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace takes 0 or 1");
      a.trace = v[0] == '1';
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown option " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  return a;
}

/// Timing of one timed cell; the full CellOutcome is kept only for the
/// reference passes.
struct Timed {
  std::size_t kind{0};  ///< first position in the pass of a cell with this label
  double host_s{0.0};
  double setup_s{0.0};
  double cycles{0.0};  ///< RunResult::exec_ticks
  double events{0.0};
};

class Runner {
 public:
  explicit Runner(const Args& args) : args_(args) {}

  /// Runs the reference passes traced, keeping their full outcomes.
  void run_reference() {
    SpanRecorder warmup;
    std::uint32_t cell_id = 0;
    for (std::uint64_t pass = 0; pass < reference_passes(args_.workload); ++pass) {
      run_pass(pass, &warmup, cell_id, nullptr);
    }
  }

  /// Repeats the reference passes, whole sets at a time, until `budget_s`
  /// has gone (at least one set). With `recorder`, each pass runs untraced
  /// and then again traced, so both halves see the same host conditions.
  void run_timed(double budget_s, std::vector<Timed>* untraced, SpanRecorder* recorder,
                 std::vector<Timed>* traced) {
    const std::uint64_t set = reference_passes(args_.workload);
    std::uint32_t untraced_id = 0;
    std::uint32_t traced_id = 0;
    const auto start = Clock::now();
    for (std::uint64_t round = 0;; ++round) {
      const std::uint64_t pass = round % set;
      if (round > 0 && pass == 0 &&
          std::chrono::duration<double>(Clock::now() - start).count() >= budget_s) {
        break;
      }
      run_pass(pass, nullptr, untraced_id, untraced);
      if (recorder != nullptr) run_pass(pass, recorder, traced_id, traced);
    }
  }

  [[nodiscard]] const std::vector<CellOutcome>& reference() const noexcept { return reference_; }
  /// Distinct cells run: the cells of the reference passes.
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  /// Distinct cells that failed a check.
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// True when every failed cell failed only its kernel's own verify() and
  /// every repeat reproduced its cell's fingerprint and verdict.
  [[nodiscard]] bool correct() const noexcept { return correct_; }

 private:
  /// Runs one pass; timings go to `timed`, or, when it is null, the full
  /// outcomes become the reference. Every cell is checked against its
  /// first run.
  void run_pass(std::uint64_t pass, SpanRecorder* recorder, std::uint32_t& cell_id,
                std::vector<Timed>* timed) {
    const std::vector<CellSpec> cells = pass_cells(args_.workload, args_.seed, pass);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::uint64_t digest = expected_digest(cells[i]);
      CellOutcome out = run_cell(cells[i], recorder, cell_id++, digest);
      check(pass, i, out);
      if (timed != nullptr) {
        std::size_t kind = 0;
        while (cells[kind].label != cells[i].label) ++kind;
        timed->push_back(Timed{kind, out.host_s, out.setup_s,
                               static_cast<double>(out.run.exec_ticks),
                               static_cast<double>(out.run.events_executed)});
      } else {
        reference_.push_back(std::move(out));
      }
    }
  }

  std::uint64_t expected_digest(const CellSpec& spec) {
    if (spec.workload == WorkloadId::kPaperSuite) return 0;
    // Only the random fill depends on the seed.
    const std::uint64_t seed = spec.fill == mgcomp::CollectiveFill::kRandom ? spec.input_seed : 0;
    const auto key = std::make_pair(static_cast<int>(spec.fill), seed);
    auto it = digests_.find(key);
    if (it == digests_.end()) {
      const CollectiveShape shape = collective_shape(spec.workload);
      it = digests_
               .emplace(key, reference_allreduce_digest(spec.fill, spec.input_seed, shape.ranks,
                                                        shape.lines_per_rank))
               .first;
    }
    return it->second;
  }

  /// The first run of a cell is counted and its checks decide it; a repeat
  /// must reproduce the first run's fingerprint and verdict.
  void check(std::uint64_t pass, std::size_t index, const CellOutcome& out) {
    const auto key = std::make_pair(pass, index);
    const auto [it, inserted] = first_runs_.emplace(key, FirstRun{out.fingerprint, out.ok});
    if (inserted) {
      ++attempted_;
      if (!out.ok) {
        ++failed_;
        if (!out.verify_failed) correct_ = false;
        std::printf("# failed cell: pass %llu %s: %s\n", static_cast<unsigned long long>(pass),
                    out.spec.label.c_str(), out.cause.c_str());
      }
      return;
    }
    if (it->second.fingerprint != out.fingerprint || it->second.ok != out.ok) {
      correct_ = false;
      std::printf("# repeat differs: pass %llu %s: fingerprint %016llx != %016llx, ok %d != %d\n",
                  static_cast<unsigned long long>(pass), out.spec.label.c_str(),
                  static_cast<unsigned long long>(out.fingerprint),
                  static_cast<unsigned long long>(it->second.fingerprint), out.ok ? 1 : 0,
                  it->second.ok ? 1 : 0);
    }
  }

  struct FirstRun {
    std::uint64_t fingerprint;
    bool ok;
  };

  const Args& args_;
  std::vector<CellOutcome> reference_;
  std::map<std::pair<std::uint64_t, std::size_t>, FirstRun> first_runs_;
  std::map<std::pair<int, std::uint64_t>, std::uint64_t> digests_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  bool correct_{true};
};

class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
  }
  [[nodiscard]] const std::string& json() const noexcept { return body_; }

 private:
  std::string body_;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<double> field(const std::vector<Timed>& t, double Timed::*f) {
  std::vector<double> v;
  v.reserve(t.size());
  for (const Timed& x : t) v.push_back(x.*f);
  return v;
}

std::vector<std::size_t> kinds(const std::vector<Timed>& t) {
  std::vector<std::size_t> v;
  v.reserve(t.size());
  for (const Timed& x : t) v.push_back(x.kind);
  return v;
}

double kind_median_of(const std::vector<Timed>& t, double Timed::*f) {
  return kind_median(field(t, f), kinds(t));
}

void end_to_end(Metrics& m, const std::vector<Timed>& timed,
                const std::vector<CellOutcome>& reference) {
  const TailStat tail = tail_percentile(field(timed, &Timed::host_s));
  std::printf("# cell_s_tail is p%d of %zu timed cells (%zu beyond it)\n", tail.percentile,
              tail.samples, tail.beyond);
  double ref_cycles = 0.0;
  double ref_wire = 0.0;
  double ref_energy_pj = 0.0;
  for (const CellOutcome& c : reference) {
    ref_cycles += static_cast<double>(c.run.exec_ticks);
    ref_wire += static_cast<double>(c.run.bus.inter_gpu_wire_bytes);
    ref_energy_pj += c.run.total_link_energy_pj();
  }
  m.add("cell_s_p50", kind_median_of(timed, &Timed::host_s), "s");
  m.add("cell_s_tail", tail.value, "s");
  m.add("sim_cycles_per_s",
        ratio(kind_median_of(timed, &Timed::cycles), kind_median_of(timed, &Timed::host_s)),
        "cycles/s");
  m.add("setup_s", kind_median_of(timed, &Timed::setup_s), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("modelled_cycles", ref_cycles, "cycles");
  m.add("modelled_wire_bytes", ref_wire, "bytes");
  m.add("modelled_link_energy_uj", ref_energy_pj * 1e-6, "uJ");
}

void per_layer(Metrics& m, WorkloadId w, const std::vector<Timed>& untraced,
               const std::vector<Timed>& traced, const SpanRecorder& rec,
               const std::vector<CellOutcome>& reference) {
  // Host time, from the traced timed cells.
  const std::vector<double> cell = rec.self_seconds(SpanKind::kCell);
  const std::vector<double> construct = rec.self_seconds(SpanKind::kConstruct);
  const std::vector<double> setup = rec.self_seconds(SpanKind::kSetup);
  const std::vector<double> gen = rec.self_seconds(SpanKind::kGenerate);
  std::vector<double> gen_cell(cell.size());
  std::vector<double> decide_cell(cell.size());
  double self_sum = 0.0;
  double gen_sum = 0.0;
  double host_sum = 0.0;
  double events = 0.0;
  LeafTotals line{};
  LeafTotals block{};
  for (std::size_t c = 0; c < cell.size(); ++c) {
    const LeafTotals& l = rec.leaf(static_cast<std::uint32_t>(c), SpanKind::kDecide);
    const LeafTotals& b = rec.leaf(static_cast<std::uint32_t>(c), SpanKind::kDecideBlock);
    line.count += l.count;
    line.ns += l.ns;
    block.count += b.count;
    block.ns += b.ns;
    block.bytes += b.bytes;
    gen_cell[c] = setup[c] + gen[c];
    decide_cell[c] = static_cast<double>(l.ns + b.ns) * 1e-9;
    self_sum += cell[c];
    gen_sum += gen_cell[c];
    host_sum += traced[c].host_s;
    events += traced[c].events;
  }
  const std::vector<std::size_t> kind = kinds(traced);
  m.add("core.self_s", kind_median(cell, kind), "s");
  m.add("core.self_ns_per_event", ratio(self_sum * 1e9, events), "ns");
  m.add("core.construct_s", kind_median(construct, kind), "s");
  m.add("workloads.gen_s", kind_median(gen_cell, kind), "s");
  m.add("workloads.gen_share", ratio(gen_sum, host_sum), "share");
  m.add("adaptive.decide_s", kind_median(decide_cell, kind), "s");
  m.add("adaptive.line_decide_ns", ratio(static_cast<double>(line.ns), line.count), "ns");
  m.add("adaptive.block_decide_ns_per_kb",
        ratio(static_cast<double>(block.ns), static_cast<double>(block.bytes) / 1024.0),
        "ns/KB");
  m.add("bench.trace_overhead",
        ratio(kind_median_of(traced, &Timed::host_s), kind_median_of(untraced, &Timed::host_s)),
        "ratio");

  // Counts and ratios, from the reference passes (identical on every run of
  // a seed).
  double trace_ops = 0, line_transfers = 0, bulk_transfers = 0, sampled = 0, degraded = 0;
  double line_raw_bits = 0, line_wire_bits = 0, bulk_raw = 0, bulk_wire = 0, bulk_raw_sent = 0;
  double ref_events = 0, messages = 0, busy = 0, ticks = 0, trunk_busy = 0, trunk_capacity = 0;
  double rerouted = 0, remote_ops = 0, retrans = 0, crc = 0, hard = 0;
  double l1v_hits = 0, l1v_all = 0, l2_hits = 0, l2_all = 0;
  double injected = 0, transitions = 0, link_down = 0;
  double coll_bytes = 0, coll_cycles = 0, attempts = 0, block_xfers = 0;
  double pool_hits = 0, pool_all = 0;
  mgcomp::LatencyHistogram reads;
  for (const CellOutcome& c : reference) {
    const mgcomp::RunResult& r = c.run;
    const mgcomp::PolicyStats& ps = r.policy_stats;
    trace_ops += static_cast<double>(c.trace_ops);
    line_transfers += static_cast<double>(ps.total_transfers());
    bulk_transfers += static_cast<double>(ps.bulk_transfers);
    sampled += static_cast<double>(ps.sampled_transfers);
    degraded += static_cast<double>(ps.degraded_transfers);
    bulk_raw_sent += static_cast<double>(
        ps.block_wire_counts[static_cast<std::size_t>(mgcomp::BlockCodecId::kRaw)]);
    bulk_raw += static_cast<double>(r.bulk_raw_bytes);
    bulk_wire += static_cast<double>(r.bulk_wire_payload_bytes);
    line_raw_bits += static_cast<double>(r.bus.inter_gpu_payload_raw_bits - r.bulk_raw_bytes * 8);
    line_wire_bits +=
        static_cast<double>(r.bus.inter_gpu_payload_wire_bits - r.bulk_wire_payload_bytes * 8);
    ref_events += static_cast<double>(r.events_executed);
    messages += static_cast<double>(r.bus.total_messages());
    busy += static_cast<double>(r.bus.busy_cycles);
    ticks += static_cast<double>(r.exec_ticks);
    trunk_busy += static_cast<double>(r.bus.trunk_busy_cycles);
    // Fat-tree: one up and one down trunk link per node.
    if (w == WorkloadId::kHierBulk) {
      trunk_capacity += static_cast<double>(r.exec_ticks) * 2.0 * r.collective.nodes;
    }
    rerouted += static_cast<double>(r.bus.rerouted_messages);
    remote_ops += static_cast<double>(r.remote_reads() + r.remote_writes());
    retrans += static_cast<double>(r.link.retransmissions());
    crc += static_cast<double>(r.link.crc_failures);
    hard += static_cast<double>(r.link.hard_failures);
    l1v_hits += static_cast<double>(r.l1v.read_hits + r.l1v.write_hits);
    l1v_all += static_cast<double>(r.l1v.read_hits + r.l1v.write_hits + r.l1v.read_misses +
                                   r.l1v.write_misses);
    l2_hits += static_cast<double>(r.l2.read_hits + r.l2.write_hits);
    l2_all += static_cast<double>(r.l2.read_hits + r.l2.write_hits + r.l2.read_misses +
                                  r.l2.write_misses);
    injected += static_cast<double>(r.faults.bit_errors + r.faults.drops + r.faults.duplicates +
                                    r.faults.delays);
    transitions += static_cast<double>(r.health.transitions());
    link_down += static_cast<double>(r.health.link_down);
    coll_bytes += static_cast<double>(r.collective.bytes_per_rank);
    coll_cycles += static_cast<double>(r.collective.duration);
    attempts += c.attempts;
    block_xfers += static_cast<double>(r.collective.block_transfers);
    pool_hits += static_cast<double>(r.pool_hits);
    pool_all += static_cast<double>(r.pool_hits + r.pool_misses);
    reads.merge(r.remote_read_latency);
    reads.merge(r.bulk_read_latency);
  }
  m.add("workloads.trace_lines", trace_ops, "count");
  m.add("adaptive.decisions", line_transfers, "count");
  m.add("adaptive.block_decisions", bulk_transfers, "count");
  m.add("adaptive.sampled_share", ratio(sampled, line_transfers), "share");
  m.add("adaptive.degraded_share", ratio(degraded, line_transfers + bulk_transfers), "share");
  m.add("compression.line_ratio", ratio(line_raw_bits, line_wire_bits), "x");
  m.add("compression.block_ratio", ratio(bulk_raw, bulk_wire), "x");
  m.add("compression.block_raw_share", ratio(bulk_raw_sent, bulk_transfers), "share");
  m.add("sim.events", ratio(ref_events, static_cast<double>(reference.size())), "count");
  m.add("sim.events_per_message", ratio(ref_events, messages), "ratio");
  m.add("fabric.messages", messages, "count");
  m.add("fabric.busy_share", ratio(busy, ticks), "ratio");
  m.add("fabric.trunk_busy_share", ratio(trunk_busy, trunk_capacity), "share");
  m.add("fabric.rerouted_messages", rerouted, "count");
  m.add("gpu.remote_ops", remote_ops, "count");
  m.add("gpu.read_p50_cycles", reads.percentile(0.50), "cycles");
  m.add("gpu.read_p99_cycles", reads.percentile(0.99), "cycles");
  m.add("gpu.retransmissions", retrans, "count");
  m.add("gpu.crc_failures", crc, "count");
  m.add("gpu.first_try_share", remote_ops == 0 ? 0.0 : std::max(0.0, 1.0 - retrans / remote_ops),
        "share");
  m.add("gpu.hard_failures", hard, "count");
  m.add("memory.l1v_hit_rate", ratio(l1v_hits, l1v_all), "share");
  m.add("memory.l2_hit_rate", ratio(l2_hits, l2_all), "share");
  m.add("fault.injected", injected, "count");
  m.add("fault.health_transitions", transitions, "count");
  m.add("fault.link_down", link_down, "count");
  m.add("collective.alg_bw", ratio(coll_bytes, coll_cycles), "B/cycle");
  m.add("collective.attempts", attempts, "count");
  m.add("collective.block_transfers", block_xfers, "count");
  m.add("common.pool_hit_rate", ratio(pool_hits, pool_all), "share");
}

int run(const Args& args) {
  const char* simd_env = std::getenv("MGCOMP_SIMD");
  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
              std::string(workload_name(args.workload)).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("# simd=%s (MGCOMP_SIMD=%s) nproc=%u build=%s\n",
              std::string(mgcomp::simd::backend_name(mgcomp::simd::active_backend())).c_str(),
              simd_env != nullptr ? simd_env : "unset", std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE);

  Runner runner(args);
  runner.run_reference();
  Metrics m;
  std::vector<Timed> untraced;
  if (!args.trace) {
    runner.run_timed(args.seconds, &untraced, nullptr, nullptr);
    end_to_end(m, untraced, runner.reference());
  } else {
    SpanRecorder rec;
    std::vector<Timed> traced;
    runner.run_timed(args.seconds, &untraced, &rec, &traced);
    per_layer(m, args.workload, untraced, traced, rec, runner.reference());
    if (!args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      f << rec.to_json();
      if (!f) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              runner.correct() ? "true" : "false",
              static_cast<unsigned long long>(runner.attempted()),
              static_cast<unsigned long long>(runner.failed()), m.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
