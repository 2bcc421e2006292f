// Tests: observability subsystem — JSON escaper/parser, metrics registry,
// trace recorder + Chrome trace schema, span FLOP attribution against the
// legacy FlopCounter, SimCluster virtual-time fault timelines, and the run
// report document.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/flops.h"
#include "common/rng.h"
#include "common/timer.h"
#include "la/gemm.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/trace_check.h"
#include "runtime/simcluster.h"
#include "sched/run_items.h"

namespace xgw {
namespace {

ZMatrix random_matrix(idx r, idx c, std::uint64_t seed) {
  Rng rng(seed);
  ZMatrix m(r, c);
  for (idx i = 0; i < m.size(); ++i) m.data()[i] = rng.normal_cplx();
  return m;
}

// ---------------------------------------------------------------- json --

TEST(ObsJson, EscapeHandlesSpecials) {
  EXPECT_EQ(obs::json::escape("plain"), "plain");
  EXPECT_EQ(obs::json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(obs::json::escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(obs::json::quote("x"), "\"x\"");
}

TEST(ObsJson, ParseRoundTripsEscapedStrings) {
  const std::string doc =
      "{\"k\": " + obs::json::quote("line1\nline2\t\"quoted\"\\") + "}";
  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(doc, v, err)) << err;
  const obs::json::Value* k = v.find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->str, "line1\nline2\t\"quoted\"\\");
}

TEST(ObsJson, ParseAcceptsNestedDocument) {
  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(
      "{\"a\": [1, 2.5, -3e2], \"b\": {\"c\": true, \"d\": null}}", v, err))
      << err;
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->arr.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("a")->arr[1].number, 2.5);
  ASSERT_NE(v.find("b"), nullptr);
  EXPECT_TRUE(v.find("b")->find("c")->boolean);
}

TEST(ObsJson, ParseRejectsMalformedInput) {
  obs::json::Value v;
  std::string err;
  EXPECT_FALSE(obs::json::parse("{", v, err));
  EXPECT_FALSE(obs::json::parse("{\"a\": }", v, err));
  EXPECT_FALSE(obs::json::parse("[1,]", v, err));
  EXPECT_FALSE(obs::json::parse("01x", v, err));
  EXPECT_FALSE(obs::json::parse("{} trailing", v, err));
  EXPECT_FALSE(obs::json::parse("\"unterminated", v, err));
}

// ------------------------------------------------------------- metrics --

TEST(ObsMetrics, SnapshotJsonRoundTrips) {
  obs::MetricsRegistry reg;
  reg.counter("test.count").add(42);
  reg.gauge("test.gauge").set(2.75);
  reg.histogram("test.hist").observe(3);
  reg.histogram("test.hist").observe(5);

  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(reg.snapshot_json(), v, err)) << err;

  const obs::json::Value* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("test.count"), nullptr);
  EXPECT_DOUBLE_EQ(counters->find("test.count")->number, 42.0);

  const obs::json::Value* gauges = v.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->find("test.gauge")->number, 2.75);

  const obs::json::Value* hists = v.find("histograms");
  ASSERT_NE(hists, nullptr);
  const obs::json::Value* h = hists->find("test.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(h->find("sum")->number, 8.0);
}

TEST(ObsMetrics, CounterValueAndClear) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.counter_value("absent"), 0u);
  reg.counter("c").inc();
  reg.counter("c").inc();
  EXPECT_EQ(reg.counter_value("c"), 2u);
  reg.clear();
  EXPECT_EQ(reg.counter_value("c"), 0u);
}

TEST(ObsMetrics, HistogramBucketsArePowersOfTwo) {
  obs::Histogram h;
  h.observe(1);    // bucket 0: [1, 2)
  h.observe(7);    // bucket 2: [4, 8)
  h.observe(8);    // bucket 3: [8, 16)
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 16u);
}

// ---------------------------------------------------------------- trace --

TEST(ObsTrace, NestedSpansProduceSchemaValidChromeTrace) {
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kFine);
  {
    obs::Span outer("outer", "test");
    outer.add_flops(100);
    {
      obs::Span inner("inner", "test", obs::detail_level::kFine);
      inner.add_flops(50);
      inner.arg("shape", "2x2");
    }
    rec.record_instant("marker", "test", "\"n\":1");
  }
  rec.disable();

  const std::string doc = rec.chrome_trace_json();
  EXPECT_EQ(obs::check_chrome_trace(doc), "");
  EXPECT_NE(doc.find("\"outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"inner\""), std::string::npos);
  EXPECT_NE(doc.find("\"marker\""), std::string::npos);
  EXPECT_NE(doc.find("\"flops\":50"), std::string::npos);
  EXPECT_NE(doc.find("\"shape\":\"2x2\""), std::string::npos);

  // Aggregate view subsumes the TimerRegistry report: both spans appear.
  const auto agg = rec.aggregate();
  ASSERT_TRUE(agg.count("test/outer"));
  ASSERT_TRUE(agg.count("test/inner"));
  EXPECT_EQ(agg.at("test/inner").flops, 50u);
}

TEST(ObsTrace, DetailLevelGatesSpans) {
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kKernel);
  {
    obs::Span stage("stage_span", "test", obs::detail_level::kStage);
    obs::Span kernel("kernel_span", "test", obs::detail_level::kKernel);
    obs::Span fine("fine_span", "test", obs::detail_level::kFine);
    EXPECT_TRUE(stage.active());
    EXPECT_TRUE(kernel.active());
    EXPECT_FALSE(fine.active());
  }
  rec.disable();
  const auto agg = rec.aggregate();
  EXPECT_TRUE(agg.count("test/stage_span"));
  EXPECT_TRUE(agg.count("test/kernel_span"));
  EXPECT_FALSE(agg.count("test/fine_span"));
}

TEST(ObsTrace, CheckRejectsBrokenTraces) {
  EXPECT_NE(obs::check_chrome_trace("not json"), "");
  EXPECT_NE(obs::check_chrome_trace("{}"), "");
  EXPECT_NE(obs::check_chrome_trace("{\"traceEvents\": 3}"), "");
  // Missing required field.
  EXPECT_NE(obs::check_chrome_trace(
                "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                "\"ts\":0,\"dur\":1}]}"),
            "");
  // Non-monotonic timestamps on one track.
  EXPECT_NE(obs::check_chrome_trace(
                "{\"traceEvents\":["
                "{\"name\":\"a\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":5},"
                "{\"name\":\"b\",\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":2}"
                "]}"),
            "");
  // Unmatched B/E.
  EXPECT_NE(obs::check_chrome_trace(
                "{\"traceEvents\":["
                "{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1}"
                "]}"),
            "");
  // A good trace with B/E nesting passes.
  EXPECT_EQ(obs::check_chrome_trace(
                "{\"traceEvents\":["
                "{\"name\":\"a\",\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1},"
                "{\"name\":\"a\",\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2}"
                "]}"),
            "");
}

TEST(ObsTrace, DisabledSpanIsCheap) {
  obs::recorder().disable();
  Stopwatch sw;
  for (int i = 0; i < 1000000; ++i) {
    obs::Span span("cheap", "test");
    (void)span;
  }
  // 1e6 disabled spans in well under a second: the disabled path is one
  // relaxed atomic load + branch (bench_kernels_micro measures the <1%
  // bound on a real kernel).
  EXPECT_LT(sw.elapsed(), 0.5);
}

// ---------------------------------------------------- span attribution --

TEST(ObsSpan, FlopAttributionMatchesLegacyCounterExactly) {
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kFine);
  FlopCounter fc;
  {
    obs::Span outer("kernels", "test");
    const idx n = 24;
    const ZMatrix a = random_matrix(n, n, 1);
    const ZMatrix b = random_matrix(n, n, 2);
    ZMatrix c(n, n);
    zgemm(Op::kNone, Op::kNone, cplx{1, 0}, a, b, cplx{}, c,
          GemmVariant::kSimd, &fc);
    zherk_update(a, b, c, GemmVariant::kSimd, &fc);
    std::vector<cplx> x(static_cast<std::size_t>(n), cplx{1.0, 0.0});
    std::vector<cplx> y(static_cast<std::size_t>(n), cplx{});
    zgemv(Op::kNone, cplx{1, 0}, a, x, cplx{}, y, &fc);
  }
  rec.disable();
  ASSERT_GT(fc.total(), 0u);
  EXPECT_EQ(rec.total_flops(), fc.total());
}

TEST(ObsSpan, OrphanAttributionKeepsTotalsExact) {
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kKernel);
  // No span open: the count must land in the orphan counter, not vanish.
  obs::attribute_flops(123);
  rec.disable();
  EXPECT_EQ(rec.orphan_flops(), 123u);
  EXPECT_EQ(rec.total_flops(), 123u);
}

TEST(ObsSpan, AttributionIsNoOpWhenDisabled) {
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kKernel);
  rec.disable();
  rec.clear();
  obs::attribute_flops(55);  // recorder off, no span: dropped by design
  EXPECT_EQ(rec.total_flops(), 0u);
}

TEST(ObsSpan, TimerRegistryShimAccumulatesWithTracingOff) {
  obs::recorder().disable();
  TimerRegistry reg;
  {
    obs::Span scope(reg, "legacy_region");
    volatile double x = 0.0;
    for (int i = 0; i < 1000; ++i) x = x + 1.0;
  }
  EXPECT_EQ(reg.calls("legacy_region"), 1);
  EXPECT_GT(reg.seconds("legacy_region"), 0.0);
  EXPECT_NE(reg.report().find("legacy_region"), std::string::npos);
}

TEST(ObsSpan, TimerRegistryShimAlsoTracesWhenEnabled) {
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kKernel);
  TimerRegistry reg;
  { obs::Span scope(reg, "shimmed"); }
  rec.disable();
  EXPECT_EQ(reg.calls("shimmed"), 1);
  EXPECT_TRUE(rec.aggregate().count("kernel/shimmed"));
}

TEST(ObsSpan, MoveTransfersThePendingRecord) {
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kKernel);
  {
    obs::Span a("moved_span", "test");
    a.add_flops(7);
    obs::Span b(std::move(a));
    b.add_flops(3);
  }
  rec.disable();
  const auto agg = rec.aggregate();
  ASSERT_TRUE(agg.count("test/moved_span"));
  EXPECT_EQ(agg.at("test/moved_span").calls, 1);
  EXPECT_EQ(agg.at("test/moved_span").flops, 10u);
}

// ------------------------------------------------- simcluster timeline --

TEST(ObsTrace, SimClusterFaultTimelinePutsEventsOnTheRightTracks) {
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kKernel);

  SimCluster cluster(3);
  SimCluster::FtOptions opt;
  opt.faults.kill_ranks = {1};
  opt.faults.seed = 7;
  opt.max_attempts = 2;
  opt.straggler_deadline = 0.0;  // keep the timeline to the kill story
  std::vector<cplx> out(6, cplx{});
  const auto report = cluster.run_items_ft(6, [&](idx item, RankContext& ctx) {
    out[static_cast<std::size_t>(item)] = cplx{1.0, 0.0};
    ctx.expose(std::span<cplx>(&out[static_cast<std::size_t>(item)], 1));
  }, opt);
  rec.disable();

  ASSERT_EQ(report.failed_ranks, std::vector<idx>{1});

  // The whole document — real spans plus virtual rank tracks — validates.
  EXPECT_EQ(obs::check_chrome_trace(rec.chrome_trace_json()), "");

  int crashes = 0, retries = 0, deaths = 0, recovers = 0, redists = 0;
  std::uint32_t vpid = 0;
  for (const obs::TraceEvent& e : rec.snapshot()) {
    if (e.pid < 100) continue;  // virtual tracks only
    vpid = e.pid;
    if (e.name == "fault:crash") {
      EXPECT_EQ(e.tid, 1u) << "crash event on wrong rank track";
      ++crashes;
    } else if (e.name == "retry") {
      EXPECT_EQ(e.tid, 1u);
      ++retries;
    } else if (e.name == "rank_dead") {
      EXPECT_EQ(e.tid, 1u);
      ++deaths;
    } else if (e.name == "recover") {
      EXPECT_TRUE(e.tid == 0u || e.tid == 2u)
          << "recovery must run on survivors";
      ++recovers;
    } else if (e.name == "redistribute") {
      EXPECT_EQ(e.tid, 1u);
      ++redists;
    }
  }
  EXPECT_GE(vpid, 100u);
  EXPECT_EQ(crashes, 2);  // both attempts of rank 1 crash
  EXPECT_EQ(retries, 2);
  EXPECT_EQ(deaths, 1);
  EXPECT_EQ(redists, 1);
  EXPECT_EQ(recovers, 2);  // rank 1's two items split over ranks 0 and 2

  // The rank tracks are named in the trace metadata.
  const std::string doc = rec.chrome_trace_json();
  EXPECT_NE(doc.find("\"rank 1\""), std::string::npos);
  EXPECT_EQ(cluster.run_items_ft(6, [&](idx item, RankContext& ctx) {
    out[static_cast<std::size_t>(item)] = cplx{1.0, 0.0};
    ctx.expose(std::span<cplx>(&out[static_cast<std::size_t>(item)], 1));
  }).retries, 0);
}

// ------------------------------------------------------------- report --

TEST(ObsReport, Fnv1aKnownAnswers) {
  EXPECT_EQ(obs::fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(obs::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(obs::fnv1a_hex(""), "cbf29ce484222325");
}

TEST(ObsReport, Fnv1aSeedContinuesTheHash) {
  EXPECT_EQ(obs::fnv1a("b", obs::fnv1a("a")), obs::fnv1a("ab"));
  EXPECT_EQ(obs::fnv1a("", 42u), 42u);
  EXPECT_EQ(obs::fnv1a("ab"), 0x089c4407b545986aull);
}

TEST(ObsReport, BuildsFromRecorderAndSerializes) {
  auto& rec = obs::recorder();
  rec.enable(obs::detail_level::kKernel);
  {
    obs::Span span("stage_a", "test");
    span.add_flops(1000);
    span.add_bytes(100);
  }
  rec.disable();

  const obs::RunReportDoc doc =
      obs::build_run_report(rec, "unit", "cfg text", 100.0, 50.0);
  EXPECT_EQ(doc.job, "unit");
  EXPECT_EQ(doc.config_hash, obs::fnv1a_hex("cfg text"));
  ASSERT_FALSE(doc.stages.empty());
  EXPECT_EQ(doc.total_flops, 1000u);
  bool found = false;
  for (const auto& s : doc.stages)
    if (s.name == "test/stage_a") {
      found = true;
      EXPECT_EQ(s.flops, 1000u);
      // Roofline annotated: AI = 10 FLOP/B, min(100, 10*50) = 100 GF/s.
      EXPECT_DOUBLE_EQ(s.roofline_gflops, 100.0);
    }
  EXPECT_TRUE(found);

  obs::json::Value v;
  std::string err;
  ASSERT_TRUE(obs::json::parse(doc.to_json(), v, err)) << err;
  EXPECT_EQ(v.find("job")->str, "unit");
  EXPECT_DOUBLE_EQ(v.find("total_flops")->number, 1000.0);
}

// ----------------------------------------------- scheduler concurrency --

// Hammer the metrics registry and the trace recorder from scheduler worker
// teams: registration races, concurrent increments, real spans on worker
// threads, and many tasks writing virtual tracks at once. The counters must
// come out exact and the trace schema-valid — this is the safety contract
// the concurrent SimCluster rank execution relies on.
TEST(ObsConcurrency, MetricsAndRecorderSurviveWorkerTeams) {
  auto& rec = obs::recorder();
  auto& reg = obs::metrics();
  rec.enable(obs::detail_level::kFine);
  reg.counter("obs.stress.total");  // pre-exists; tasks race on lookup only

  const idx kItems = 64;
  const std::uint32_t pid = rec.new_virtual_process("stress cluster");
  sched::run_items(
      kItems,
      [&](idx i) {
        const auto tid = static_cast<std::uint32_t>(i);
        rec.name_virtual_track(pid, tid, "rank " + std::to_string(i));
        reg.counter("obs.stress.total").add(3);
        reg.counter("obs.stress.rank" + std::to_string(i % 4)).inc();
        reg.gauge("obs.stress.gauge").set(static_cast<double>(i));
        reg.histogram("obs.stress.hist").observe(
            static_cast<std::uint64_t>(i) + 1);
        obs::Span span("stress_item", "test");
        span.add_flops(10);
        for (int k = 0; k < 3; ++k)
          rec.virtual_complete(pid, tid, "work", "stress",
                               static_cast<double>(k), 0.5);
        rec.virtual_instant(pid, tid, "done", "stress", 3.0);
      },
      4, "obs.stress");
  rec.disable();

  EXPECT_EQ(reg.counter_value("obs.stress.total"),
            static_cast<std::uint64_t>(kItems) * 3);
  std::uint64_t per_rank = 0;
  for (int r = 0; r < 4; ++r)
    per_rank += reg.counter_value("obs.stress.rank" + std::to_string(r));
  EXPECT_EQ(per_rank, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(reg.histogram("obs.stress.hist").count(),
            static_cast<std::uint64_t>(kItems));

  EXPECT_EQ(obs::check_chrome_trace(rec.chrome_trace_json()), "");
  const auto agg = rec.aggregate();
  ASSERT_TRUE(agg.count("test/stress_item"));
  EXPECT_EQ(agg.at("test/stress_item").calls, static_cast<long>(kItems));
  EXPECT_EQ(agg.at("test/stress_item").flops,
            static_cast<std::uint64_t>(kItems) * 10);
  ASSERT_TRUE(agg.count("stress/work"));
  EXPECT_EQ(agg.at("stress/work").calls, static_cast<long>(kItems) * 3);
}

// Virtual-track exports must be byte-identical no matter how many workers
// interleaved the appends: per-track sequence numbers restore program order
// and track metadata is sorted by id at export.
TEST(ObsConcurrency, VirtualTrackExportIsDeterministicAcrossWorkerCounts) {
  auto emit = [](int workers) {
    auto& rec = obs::recorder();
    rec.enable(obs::detail_level::kKernel);
    const std::uint32_t pid = rec.new_virtual_process("determinism cluster");
    sched::run_items(
        16,
        [&](idx i) {
          const auto tid = static_cast<std::uint32_t>(i);
          rec.name_virtual_track(pid, tid, "rank " + std::to_string(i));
          // Same-timestamp events on one track: seq must keep program order.
          rec.virtual_complete(pid, tid, "attempt", "ft", 0.0, 1.0,
                               "\"try\":1");
          rec.virtual_instant(pid, tid, "fault", "ft", 1.0);
          rec.virtual_complete(pid, tid, "attempt", "ft", 1.0, 1.0,
                               "\"try\":2");
        },
        workers, "det");
    rec.disable();
    const std::string doc = rec.chrome_trace_json();
    rec.clear();
    return doc;
  };
  const std::string serial = emit(1);
  EXPECT_EQ(obs::check_chrome_trace(serial), "");
  EXPECT_EQ(emit(2), serial);
  EXPECT_EQ(emit(4), serial);
}

}  // namespace
}  // namespace xgw
