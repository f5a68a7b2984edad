// Unit tests of perfbench's own code.
#include <gtest/gtest.h>

#include "bench_lib.h"
#include "core/system.h"

namespace perfbench {
namespace {

bool same_inputs(const std::vector<CellSpec>& a, const std::vector<CellSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].input_seed != b[i].input_seed ||
        a[i].fault_seed != b[i].fault_seed || a[i].fill != b[i].fill) {
      return false;
    }
  }
  return true;
}

constexpr WorkloadId kAll[] = {WorkloadId::kPaperSuite, WorkloadId::kHierBulk,
                               WorkloadId::kLossySwitch};

TEST(PerfbenchInputs, SameSeedGivesSameCells) {
  for (const WorkloadId w : kAll) {
    for (std::uint64_t pass = 0; pass < 3; ++pass) {
      EXPECT_TRUE(same_inputs(pass_cells(w, 42, pass), pass_cells(w, 42, pass)));
    }
  }
}

TEST(PerfbenchInputs, DifferentSeedsOrPassesGiveDifferentCells) {
  for (const WorkloadId w : kAll) {
    EXPECT_FALSE(same_inputs(pass_cells(w, 1, 0), pass_cells(w, 2, 0)));
    EXPECT_FALSE(same_inputs(pass_cells(w, 1, 0), pass_cells(w, 1, 1)));
  }
  // The seeds reach the data, not just the spec: the random fill's
  // reference result moves with the seed.
  EXPECT_NE(reference_allreduce_digest(mgcomp::CollectiveFill::kRandom, 1, 4, 8),
            reference_allreduce_digest(mgcomp::CollectiveFill::kRandom, 2, 4, 8));
}

TEST(PerfbenchInputs, PaperSuiteRunsEveryKernelOncePerPass) {
  const std::vector<CellSpec> cells = pass_cells(WorkloadId::kPaperSuite, 9, 0);
  ASSERT_EQ(cells.size(), 7u);
  EXPECT_EQ(cells[3].label, "GD");
}

TEST(PerfbenchWorkloads, NamesRoundTrip) {
  for (const WorkloadId w : kAll) EXPECT_EQ(parse_workload(workload_name(w)), w);
  EXPECT_FALSE(parse_workload("hit").has_value());
}

// The traced run must measure the same program: the span wrappers may not
// change a single counter the fingerprint covers.
TEST(PerfbenchSpans, WrappersLeaveFingerprintsUnchanged) {
  for (const WorkloadId w : {WorkloadId::kPaperSuite, WorkloadId::kLossySwitch}) {
    const CellSpec spec = pass_cells(w, 5, 0).back();
    const std::uint64_t digest =
        w == WorkloadId::kPaperSuite
            ? 0
            : reference_allreduce_digest(spec.fill, spec.input_seed,
                                         collective_shape(w).ranks,
                                         collective_shape(w).lines_per_rank);
    const CellOutcome plain = run_cell(spec, nullptr, 0, digest);
    SpanRecorder rec;
    const CellOutcome traced = run_cell(spec, &rec, 0, digest);
    EXPECT_TRUE(plain.ok) << plain.cause;
    EXPECT_EQ(plain.fingerprint, traced.fingerprint) << workload_name(w);
    EXPECT_EQ(plain.run.policy, traced.run.policy);
    EXPECT_GT(rec.leaf(0, SpanKind::kDecide).count, 0u);
    const std::vector<double> self = rec.self_seconds(SpanKind::kCell);
    ASSERT_EQ(self.size(), 1u);
    EXPECT_GT(self[0], 0.0);
    EXPECT_LT(self[0], traced.host_s * 1.01);
  }
}

TEST(PerfbenchSpans, SelfTimeExcludesChildren) {
  SpanRecorder rec;
  rec.begin_cell(0);
  const std::size_t cell = rec.open(SpanKind::kCell);
  const std::size_t child = rec.open(SpanKind::kConstruct);
  rec.add_leaf(SpanKind::kDecide, 1000, 64);
  rec.close(child);
  rec.add_leaf(SpanKind::kDecide, 500, 64);
  rec.close(cell);
  const Span& c = rec.spans()[cell];
  const Span& k = rec.spans()[child];
  const double cell_self = rec.self_seconds(SpanKind::kCell)[0];
  const double child_self = rec.self_seconds(SpanKind::kConstruct)[0];
  EXPECT_NEAR(cell_self, static_cast<double>((c.end_ns - c.start_ns) - (k.end_ns - k.start_ns) - 500) * 1e-9, 1e-12);
  EXPECT_NEAR(child_self, static_cast<double>((k.end_ns - k.start_ns) - 1000) * 1e-9, 1e-12);
  EXPECT_EQ(rec.leaf(0, SpanKind::kDecide).count, 2u);
  EXPECT_NEAR(rec.self_seconds(SpanKind::kDecide)[0], 1500e-9, 1e-15);
}

TEST(PerfbenchStats, TailReportsPercentileAndSampleCount) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  TailStat t = tail_percentile(v);  // p75 stays fixed when more cells fit
  EXPECT_EQ(t.samples, 100u);
  EXPECT_EQ(t.percentile, 75);
  EXPECT_EQ(t.beyond, 25u);
  EXPECT_DOUBLE_EQ(t.value, 75.0);

  v.resize(40);  // the fewest cells that leave 10 beyond p75
  t = tail_percentile(v);
  EXPECT_EQ(t.samples, 40u);
  EXPECT_EQ(t.percentile, 75);
  EXPECT_EQ(t.beyond, 10u);

  v.resize(39);  // one fewer: the median
  t = tail_percentile(v);
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.beyond, 19u);

  v.resize(5);  // too few even for the median: flagged by `beyond`
  t = tail_percentile(v);
  EXPECT_EQ(t.samples, 5u);
  EXPECT_EQ(t.percentile, 50);
  EXPECT_LT(t.beyond, 10u);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(PerfbenchStats, KindMedianWeighsEveryKindEqually) {
  // Two kernels, one fast (kind 0) and one slow (kind 1): the plain median
  // of the mix sits between them, the kind median is their medians' mean.
  const std::vector<double> v = {1.0, 10.0, 1.2, 10.5, 0.9, 9.0, 50.0};
  const std::vector<std::size_t> kind = {0, 1, 0, 1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(kind_median(v, kind), (1.1 + 10.0) / 2);
  EXPECT_DOUBLE_EQ(kind_median({}, {}), 0.0);
}

TEST(PerfbenchChecks, WrongExpectedDigestIsCaught) {
  mgcomp::SystemConfig sc;
  sc.num_gpus = 4;
  sc.fabric = mgcomp::FabricKind::kBus;
  sc.shards = 1;
  mgcomp::MultiGpuSystem sys(sc);
  mgcomp::CollectiveConfig cc;
  cc.lines_per_rank = 64;
  cc.fill = mgcomp::CollectiveFill::kRandom;
  cc.seed = 77;
  const mgcomp::CollectiveOutcome out = mgcomp::run_collective(sys, cc);
  const std::uint64_t expected =
      reference_allreduce_digest(mgcomp::CollectiveFill::kRandom, 77, 4, 64);
  EXPECT_EQ(check_collective(out, expected, false), "");
  EXPECT_NE(check_collective(out, expected ^ 1, false), "");

  mgcomp::CollectiveOutcome bad = out;
  bad.run.link.hard_failures = 1;
  EXPECT_NE(check_collective(bad, expected, false), "");
  EXPECT_EQ(check_collective(bad, expected, true), "");
  bad = out;
  bad.status = mgcomp::CollectiveStatus::kFailed;
  EXPECT_NE(check_collective(bad, expected, true), "");
}

}  // namespace
}  // namespace perfbench
