// Tests for the flow-level observability layer: the metrics registry
// primitives (counters, gauges, log-linear histograms), the export
// hooks on queue monitors and switch counters, and per-flow
// lifecycle records harvested from real simulations.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "queue/factory.h"
#include "sim/counters.h"
#include "sim/network.h"
#include "sim/queue_monitor.h"
#include "stats/metrics.h"
#include "tcp/connection.h"
#include "tcp/flow_metrics.h"
#include "util/units.h"

namespace dtdctcp {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  stats::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, LastWriteWins) {
  stats::Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), -1.25);
}

TEST(Histogram, EmptyIsZero) {
  stats::LogLinearHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_TRUE(h.nonzero_buckets().empty());
}

TEST(Histogram, SingleValueAllPercentiles) {
  stats::LogLinearHistogram h;
  h.add(0.004);
  // Percentiles clamp to the exact observed [min, max], so a single
  // sample is reported exactly at every p.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.004);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.004);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.004);
  EXPECT_DOUBLE_EQ(h.min(), 0.004);
  EXPECT_DOUBLE_EQ(h.max(), 0.004);
  EXPECT_DOUBLE_EQ(h.mean(), 0.004);
}

TEST(Histogram, QuantilesWithinBucketResolution) {
  stats::LogLinearHistogram h(1e-6, 8);
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) * 1e-3);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.mean(), 0.5005, 1e-9);  // exact: mean tracks the sum
  // Log-linear resolution: relative error bounded by ~1/sub_buckets.
  EXPECT_NEAR(h.percentile(50.0), 0.5, 0.5 / 8.0);
  EXPECT_NEAR(h.percentile(99.0), 0.99, 0.99 / 8.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1.0);  // clamped to observed max
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1e-3);   // clamped to observed min
}

TEST(Histogram, UnderflowBucketCatchesTinyValues) {
  stats::LogLinearHistogram h(1e-6, 8);
  h.add(0.0);
  h.add(1e-9);
  const auto buckets = h.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_DOUBLE_EQ(buckets[0].lower, 0.0);
  EXPECT_DOUBLE_EQ(buckets[0].upper, 1e-6);
  EXPECT_EQ(buckets[0].count, 2u);
}

TEST(Histogram, BucketsCoverValuesContiguously) {
  stats::LogLinearHistogram h(1e-6, 8);
  for (double v : {2e-6, 5e-5, 1e-3, 0.5, 7.0}) h.add(v);
  for (const auto& b : h.nonzero_buckets()) {
    EXPECT_LT(b.lower, b.upper);
  }
  // Every added value lies inside some occupied bucket (buckets are
  // half-open [lower, upper); compare inclusively to sidestep the
  // rounding in the reconstructed bounds).
  for (double v : {2e-6, 5e-5, 1e-3, 0.5, 7.0}) {
    bool covered = false;
    for (const auto& b : h.nonzero_buckets()) {
      if (v >= b.lower && v <= b.upper) covered = true;
    }
    EXPECT_TRUE(covered) << "value " << v << " not covered";
  }
}

TEST(Registry, SameNameReturnsSameMetric) {
  stats::MetricsRegistry reg;
  reg.counter("a.events").add(3);
  reg.counter("a.events").add(4);
  EXPECT_EQ(reg.counter("a.events").value(), 7u);
  reg.gauge("a.level").set(1.0);
  reg.gauge("a.level").set(2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("a.level").value(), 2.0);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, JsonExportIsDeterministicAndSorted) {
  stats::MetricsRegistry reg;
  reg.counter("z.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("mid.value").set(1.5);
  reg.histogram("h.fct").add(0.25);
  std::ostringstream out;
  reg.write_json(out);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"a.count\": 1,\n"
      "    \"z.count\": 2\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"mid.value\": 1.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"h.fct\": {\"count\": 1, \"sum\": 0.25, \"min\": 0.25, "
      "\"max\": 0.25, \"mean\": 0.25, \"p50\": 0.25, \"p99\": 0.25, "
      "\"buckets\": [[0.24575999999999998, 0.262144, 1]]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST(Registry, CsvExportListsEveryScalar) {
  stats::MetricsRegistry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(0.5);
  std::ostringstream out;
  reg.write_csv(out);
  EXPECT_EQ(out.str(),
            "kind,name,field,value\n"
            "counter,c,value,5\n"
            "gauge,g,value,0.5\n");
}

TEST(Registry, MaybeExportRespectsEnvConvention) {
  stats::MetricsRegistry reg;
  reg.counter("x").add(1);
  ::unsetenv("DTDCTCP_CSV_DIR");
  EXPECT_FALSE(reg.maybe_export("unit"));  // unset -> silently off
  ::setenv("DTDCTCP_CSV_DIR", "/tmp", 1);
  EXPECT_TRUE(reg.maybe_export("metrics_test_export"));
  std::ifstream json("/tmp/metrics_test_export.metrics.json");
  EXPECT_TRUE(json.is_open());
  std::ifstream csv("/tmp/metrics_test_export.metrics.csv");
  EXPECT_TRUE(csv.is_open());
  ::unsetenv("DTDCTCP_CSV_DIR");
}

TEST(CountersExport, EveryFieldRegistered) {
  sim::Counters c;
  c.offered = 10;
  c.enqueued = 8;
  c.dequeued = 7;
  c.bypassed = 2;
  c.dropped = 1;
  c.marked = 3;
  c.sent_packets = 9;
  c.sent_bytes = 13500;
  c.unrouted_dropped = 1;
  c.unbound_dropped = 0;
  stats::MetricsRegistry reg;
  sim::export_counters(reg, "sw", c);
  EXPECT_EQ(reg.counter("sw.offered").value(), 10u);
  EXPECT_EQ(reg.counter("sw.enqueued").value(), 8u);
  EXPECT_EQ(reg.counter("sw.dequeued").value(), 7u);
  EXPECT_EQ(reg.counter("sw.bypassed").value(), 2u);
  EXPECT_EQ(reg.counter("sw.dropped").value(), 1u);
  EXPECT_EQ(reg.counter("sw.marked").value(), 3u);
  EXPECT_EQ(reg.counter("sw.sent_packets").value(), 9u);
  EXPECT_EQ(reg.counter("sw.sent_bytes").value(), 13500u);
  EXPECT_EQ(reg.counter("sw.unrouted_dropped").value(), 1u);
  EXPECT_EQ(reg.counter("sw.unbound_dropped").value(), 0u);
  EXPECT_EQ(reg.size(), 10u);
}

TEST(QueueMonitorExport, GaugesMatchTrackerValues) {
  sim::QueueMonitor mon;
  mon.on_queue_change(0.0, 10, 15000);
  mon.on_queue_change(1.0, 20, 30000);
  mon.finish(2.0);
  stats::MetricsRegistry reg;
  mon.export_to(reg, "bneck");
  EXPECT_DOUBLE_EQ(reg.gauge("bneck.pkts.mean").value(), 15.0);
  EXPECT_DOUBLE_EQ(reg.gauge("bneck.pkts.min").value(), 10.0);
  EXPECT_DOUBLE_EQ(reg.gauge("bneck.pkts.max").value(), 20.0);
  EXPECT_DOUBLE_EQ(reg.gauge("bneck.bytes.mean").value(), 22500.0);
  EXPECT_DOUBLE_EQ(reg.gauge("bneck.pkts.stddev").value(), 5.0);
}

// --- Per-flow lifecycle records from real simulations ---------------

// Sender a and sink b on one switch, built in place (a Network never
// moves).
struct Path {
  explicit Path(sim::QueueFactory bneck = queue::drop_tail(0, 0)) {
    sw = &net.add_switch("sw");
    a = &net.add_host("a");
    b = &net.add_host("b");
    const auto q = queue::drop_tail(0, 0);
    net.attach_host(*a, *sw, units::gbps(1), 25e-6, q, q);
    net.attach_host(*b, *sw, units::mbps(100), 25e-6, q, bneck);
    net.build_routes();
  }

  sim::Network net;
  sim::Switch* sw = nullptr;
  sim::Host* a = nullptr;
  sim::Host* b = nullptr;
};

tcp::TcpConfig dctcp_config() {
  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;
  return cfg;
}

TEST(FlowRecord, LifecycleTimestampsAreOrdered) {
  Path p;
  tcp::Connection conn(p.net, *p.a, *p.b, dctcp_config(), 200);
  conn.start_at(0.001);
  p.net.sim().run();
  const tcp::FlowRecord r = conn.flow_record();
  EXPECT_EQ(r.size_segments, 200);
  EXPECT_DOUBLE_EQ(r.start, 0.001);
  EXPECT_GT(r.first_byte, r.start);      // one propagation leg later
  EXPECT_GT(r.completion, r.first_byte); // 200 segments take a while
  EXPECT_GT(r.fct(), 0.0);
  EXPECT_DOUBLE_EQ(r.fct(), r.completion - r.start);
  EXPECT_GT(r.first_byte_latency(), 0.0);
  EXPECT_EQ(r.retransmissions, 0u);  // unlimited buffers: no loss
  EXPECT_EQ(r.timeouts, 0u);
  EXPECT_DOUBLE_EQ(r.deadline, 0.0);
  EXPECT_TRUE(r.deadline_met);  // no deadline -> vacuously met
}

TEST(FlowRecord, MarksSeenCountsEcnEchoes) {
  // A tight marking threshold on the bottleneck forces CE marks, which
  // come back to the sender as ECE acks.
  Path p(queue::ecn_threshold(0, 0, 5.0, queue::ThresholdUnit::kPackets));
  tcp::Connection conn(p.net, *p.a, *p.b, dctcp_config(), 500);
  conn.start_at(0.0);
  p.net.sim().run();
  const tcp::FlowRecord r = conn.flow_record();
  EXPECT_TRUE(conn.sender().completed());
  EXPECT_GT(r.marks_seen, 0u);
}

TEST(FlowRecord, DeadlineVerdicts) {
  // Generous deadline: met. Impossible deadline: missed.
  Path met_path;
  auto cfg = dctcp_config();
  cfg.mode = tcp::CcMode::kD2tcp;
  cfg.deadline = 10.0;
  tcp::Connection met(met_path.net, *met_path.a, *met_path.b, cfg, 50);
  met.start_at(0.0);
  met_path.net.sim().run();
  EXPECT_TRUE(met.flow_record().deadline_met);
  EXPECT_DOUBLE_EQ(met.flow_record().deadline, 10.0);

  Path miss_path;
  cfg.deadline = 1e-6;  // shorter than one propagation leg
  tcp::Connection miss(miss_path.net, *miss_path.a, *miss_path.b, cfg, 50);
  miss.start_at(0.0);
  miss_path.net.sim().run();
  EXPECT_TRUE(miss.sender().completed());
  EXPECT_FALSE(miss.flow_record().deadline_met);
}

TEST(FlowMetricsCollector, SizeClassesAndDeadlineAccounting) {
  tcp::FlowMetricsCollector col(70, 670);
  tcp::FlowRecord small;
  small.size_segments = 10;
  small.start = 0.0;
  small.first_byte = 0.001;
  small.completion = 0.002;
  small.deadline = 0.01;
  small.deadline_met = true;
  tcp::FlowRecord medium = small;
  medium.size_segments = 100;
  medium.completion = 0.02;
  medium.retransmissions = 2;
  tcp::FlowRecord large = small;
  large.size_segments = 1000;
  large.completion = 0.2;
  large.deadline_met = false;
  col.record(small);
  col.record(medium);
  col.record(large);
  EXPECT_EQ(col.flows(), 3u);
  EXPECT_EQ(col.fct_small().count(), 1u);
  EXPECT_EQ(col.fct_medium().count(), 1u);
  EXPECT_EQ(col.fct_large().count(), 1u);
  EXPECT_EQ(col.retransmissions(), 2u);
  EXPECT_EQ(col.deadline_flows(), 3u);
  EXPECT_EQ(col.deadline_missed(), 1u);
  EXPECT_EQ(col.deadline_met(), 2u);

  stats::MetricsRegistry reg;
  col.export_to(reg, "fct");
  EXPECT_EQ(reg.counter("fct.flows").value(), 3u);
  EXPECT_EQ(reg.counter("fct.deadline.missed").value(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("fct.fct.max").value(), 0.2);
  EXPECT_EQ(reg.histogram("fct.fct_hist").count(), 3u);
}

}  // namespace
}  // namespace dtdctcp
