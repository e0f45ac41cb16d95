// Extension: buffer pressure on a shared-memory switch (DCTCP SIGCOMM
// §5.3). Elephants congest one output port; synchronized bursts arrive
// at another. With a shared pool, the elephants' standing queue eats
// the burst's headroom — unless the marking scheme keeps that standing
// queue small. Compares drop-tail, DCTCP, and DT-DCTCP elephants.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/bench_common.h"
#include "queue/factory.h"
#include "sim/network.h"
#include "sim/shared_buffer.h"
#include "stats/percentile.h"
#include "tcp/connection.h"

using namespace dtdctcp;

namespace {

struct Result {
  double burst_fct_mean_ms = 0.0;
  double burst_fct_max_ms = 0.0;
  std::uint64_t burst_drops = 0;
  double elephant_queue = 0.0;
};

Result run_kind(const queue::MarkingRule& elephant_marking) {
  sim::SharedBufferPool pool(96 * 1500);  // ~144 KB shared memory
  sim::Network net;
  auto& sw = net.add_switch("sw");
  auto& burst_client = net.add_host("burst_client");
  auto& eleph_client = net.add_host("eleph_client");
  const auto q = queue::drop_tail(0, 0);

  const auto burst_disc = queue::pooled(queue::drop_tail(0, 0), pool);
  const auto eleph_disc =
      queue::pooled(elephant_marking.queue_factory(0, 0), pool);

  const std::size_t burst_port = net.attach_host(
      burst_client, sw, units::mbps(100), 25e-6, q, burst_disc);
  const std::size_t eleph_port = net.attach_host(
      eleph_client, sw, units::mbps(100), 25e-6, q, eleph_disc);

  std::vector<sim::Host*> hosts;
  for (int i = 0; i < 8; ++i) {
    auto& h = net.add_host(sim::numbered("h", i));
    net.attach_host(h, sw, units::gbps(1), 25e-6, q, q);
    hosts.push_back(&h);
  }
  net.build_routes();

  tcp::TcpConfig cfg;
  cfg.mode = tcp::CcMode::kDctcp;
  cfg.min_rto = 0.01;
  cfg.init_rto = 0.01;

  // Two elephants into the elephant port.
  tcp::Connection e1(net, *hosts[0], eleph_client, cfg, 0);
  tcp::Connection e2(net, *hosts[1], eleph_client, cfg, 0);
  e1.start_at(0.0);
  e2.start_at(0.0);
  net.sim().run_until(0.1);

  // Repeated synchronized bursts (6 workers x 30 KB) into the other port.
  stats::PercentileTracker fct;
  std::vector<std::unique_ptr<tcp::Connection>> bursts;
  const int rounds = static_cast<int>(bench::scaled(20, 4));
  double t = 0.1;
  for (int r = 0; r < rounds; ++r) {
    for (int i = 2; i < 8; ++i) {
      bursts.push_back(std::make_unique<tcp::Connection>(
          net, *hosts[i], burst_client, cfg, 20));
      const SimTime begin = t;
      bursts.back()->set_on_complete(
          [&fct, begin](SimTime done) { fct.add(done - begin); });
      bursts.back()->start_at(t);
    }
    t += 0.025;
  }
  net.sim().run_until(t + 0.3);

  // Elephant-port standing occupancy at the end of the run.
  Result res;
  res.burst_fct_mean_ms = fct.mean() * 1e3;
  res.burst_fct_max_ms = fct.max() * 1e3;
  res.burst_drops = sw.port(burst_port).disc().drops();
  res.elephant_queue =
      static_cast<double>(sw.port(eleph_port).disc().packets());
  return res;
}

}  // namespace

int main() {
  bench::header("Extension",
                "buffer pressure on a shared-memory switch (144 KB pool)");
  std::printf("2 elephants on port B vs synchronized 6x30 KB bursts on "
              "port A; the elephants' discipline decides the shared "
              "headroom\n\n");
  std::printf("%-22s %14s %14s %12s %12s\n", "elephant discipline",
              "burst_mean", "burst_max", "burst_drops", "eleph_queue");
  std::printf("%-22s %14s %14s %12s %12s\n", "", "(ms)", "(ms)", "",
              "(pkts)");
  const struct {
    const char* name;
    queue::MarkingRule marking;
  } kinds[] = {
      {"DropTail", queue::MarkingRule::drop_tail()},
      {"DCTCP(K=20)", queue::MarkingRule::dctcp(20.0)},
      {"DT-DCTCP(15,25)", queue::MarkingRule::dt_dctcp(15.0, 25.0)},
  };
  for (const auto& kind : kinds) {
    const auto r = run_kind(kind.marking);
    std::printf("%-22s %14.2f %14.2f %12llu %12.0f\n", kind.name,
                r.burst_fct_mean_ms, r.burst_fct_max_ms,
                static_cast<unsigned long long>(r.burst_drops),
                r.elephant_queue);
    std::fflush(stdout);
  }
  bench::expectation(
      "Drop-tail elephants fill the shared pool, so the bursts on the "
      "other port drop and pay RTOs (large mean/max completion). "
      "DCTCP/DT-DCTCP elephants hold a ~20-packet queue, the pool stays "
      "empty, and the bursts complete an order of magnitude faster — "
      "the buffer-pressure benefit the DCTCP line of work claims.");
  return 0;
}
