// dtdctcp command-line tool: run the library's experiments without
// writing C++.
//
//   dtdctcp_cli dumbbell --flows 60 --marking dt:30,50 --measure 0.3
//   dtdctcp_cli incast   --flows 36 --marking dctcp:32768,unit=bytes
//   dtdctcp_cli nyquist  --rtt-ms 1 --flows 80 --marking dt:30,50
//   dtdctcp_cli fluid    --flows 80 --rtt-ms 1 --marking dctcp:40
//   dtdctcp_cli fct      --load 0.6 --marking dt:15,25 --duration 0.5
//   dtdctcp_cli sweep    --from 10 --to 100 --marking dt:30,50 --jobs 8
//
// Marking syntax: one queue::MarkingRule label (queue/marking_rule.h),
// e.g. "dt:30,50,variant=half-band"; --unit bytes appends ",unit=bytes".
//
// --jobs N applies to any command that runs a grid of simulations (the
// sweep): N worker threads, 1 = serial. It overrides the DTDCTCP_JOBS
// environment variable; the default is the hardware concurrency.
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/dtdctcp.h"
#include "runner/runner.h"
#include "util/args.h"
#include "util/rng.h"
#include "workload/fct_workloads.h"

using namespace dtdctcp;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dtdctcp_cli <dumbbell|incast|nyquist|fluid|fct|"
               "hybrid|sweep|atlas> [options]\n"
               "common options:\n"
               "  --flows N            number of flows (default 10)\n"
               "  --marking RULE       droptail | dctcp:K | dt:K1,K2 | "
               "red:MIN,MAX | pie[:Tus] |\n"
               "                       codel[:Tus], then key=value fields "
               "(default dctcp:40;\n"
               "                       hybrid dctcp:20)\n"
               "  --unit packets|bytes threshold unit (default packets)\n"
               "  --jobs N             worker threads for simulation "
               "grids (1 = serial;\n"
               "                       default DTDCTCP_JOBS or hardware "
               "concurrency)\n"
               "dumbbell: --rate-gbps R --rtt-us T --buffer-pkts B "
               "--measure S --warmup S --seed S\n"
               "incast:   --bytes B --reps R --min-rto-ms M\n"
               "nyquist:  --rtt-ms T --g G\n"
               "fluid:    --rtt-ms T --g G --duration S\n"
               "fct:      --load L --duration S --sack --pacing "
               "--spines N --leaves N --hosts-per-leaf N\n"
               "hybrid:   --bg-flows N --bg-mode fluid|packet --load L "
               "--duration S\n"
               "          --rate-gbps R --buffer-pkts B --seed S "
               "(CSV via DTDCTCP_CSV_DIR)\n"
               "sweep:    --from N --to N --step N plus the dumbbell "
               "options\n"
               "atlas:    --markings \"dctcp:40;dt:20,40;red:30,90;pie\" "
               "(';'-separated RULEs)\n"
               "          --cc dctcp,ecn-reno,d2tcp\n"
               "          --rtts-us L --rates-gbps L --buffers L "
               "--nlo N --nhi N --g G\n"
               "          --d2tcp-d D --csv PATH --gnuplot PATH\n");
  return 2;
}

core::DumbbellConfig dumbbell_config(const Args& args,
                                     const queue::MarkingRule& marking) {
  core::DumbbellConfig cfg;
  cfg.flows = static_cast<std::size_t>(args.get_int("flows", 10));
  cfg.bottleneck_bps = units::gbps(args.get_double("rate-gbps", 10.0));
  cfg.edge_bps = cfg.bottleneck_bps;
  cfg.rtt = units::microseconds(args.get_double("rtt-us", 100.0));
  cfg.marking = marking;
  cfg.switch_buffer_packets =
      static_cast<std::size_t>(args.get_int("buffer-pkts", 100));
  cfg.warmup = args.get_double("warmup", 0.1);
  cfg.measure = args.get_double("measure", 0.3);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  return cfg;
}

int run_dumbbell_cmd(const Args& args, const queue::MarkingRule& marking) {
  const auto cfg = dumbbell_config(args, marking);
  const auto r = core::run_dumbbell(cfg);
  std::printf("flows        %zu\n", cfg.flows);
  std::printf("queue_mean   %.2f pkts\n", r.queue_mean);
  std::printf("queue_stddev %.2f pkts\n", r.queue_stddev);
  std::printf("queue_range  [%.0f, %.0f] pkts\n", r.queue_min, r.queue_max);
  std::printf("alpha_mean   %.3f\n", r.alpha_mean);
  std::printf("utilization  %.3f\n", r.utilization);
  std::printf("marks        %llu\n",
              static_cast<unsigned long long>(r.marks));
  std::printf("drops        %llu\n",
              static_cast<unsigned long long>(r.drops));
  std::printf("timeouts     %llu\n",
              static_cast<unsigned long long>(r.timeouts));
  return 0;
}

int run_incast_cmd(const Args& args, const queue::MarkingRule& marking) {
  core::IncastExperimentConfig cfg;
  cfg.flows = static_cast<std::size_t>(args.get_int("flows", 9));
  cfg.bytes_per_worker =
      static_cast<std::size_t>(args.get_int("bytes", 64 * 1024));
  cfg.repetitions = static_cast<std::size_t>(args.get_int("reps", 20));
  cfg.tcp.mode = tcp::CcMode::kDctcp;
  cfg.tcp.min_rto = args.get_double("min-rto-ms", 200.0) * 1e-3;
  cfg.tcp.init_rto = cfg.tcp.min_rto;
  cfg.testbed.marking = marking;
  const auto r = core::run_incast(cfg);
  std::printf("flows            %zu\n", cfg.flows);
  std::printf("goodput_mean     %.1f Mbps\n", r.goodput_mean_bps / 1e6);
  std::printf("completion_mean  %.2f ms\n", r.completion_mean_s * 1e3);
  std::printf("completion_p99   %.2f ms\n", r.completion_p99_s * 1e3);
  std::printf("completion_max   %.2f ms\n", r.completion_max_s * 1e3);
  std::printf("timeouts         %llu\n",
              static_cast<unsigned long long>(r.timeouts));
  std::printf("drops            %llu\n",
              static_cast<unsigned long long>(r.drops));
  return 0;
}

int run_nyquist_cmd(const Args& args, const queue::MarkingRule& marking) {
  analysis::PlantParams plant;
  plant.capacity_pps = units::packets_per_second(
      units::gbps(args.get_double("rate-gbps", 10.0)), 1500);
  plant.flows = args.get_double("flows", 60.0);
  plant.rtt = args.get_double("rtt-ms", 1.0) * 1e-3;
  plant.g = args.get_double("g", 1.0 / 16.0);
  const auto spec = marking.in_packets(1500);
  const auto report = analysis::analyze(plant, spec);
  std::printf("crossing_real      %.4f at w=%.1f rad/s\n",
              report.crossing_real, report.crossing_omega);
  std::printf("max_re_neg_recip   %.4f\n", report.max_real_neg_recip);
  std::printf("verdict            %s\n",
              report.intersects ? "LIMIT CYCLE PREDICTED" : "stable");
  for (const auto& c : report.cycles) {
    std::printf("cycle              X=%.1f pkts f=%.1f Hz (%s)\n",
                c.amplitude, c.omega / (2.0 * M_PI),
                c.stable ? "sustained" : "unstable");
  }
  const int crit = analysis::critical_flows(plant, spec, 2, 400);
  std::printf("critical_flows     %d\n", crit);
  return 0;
}

int run_fct_cmd(const Args& args, const queue::MarkingRule& marking) {
  sim::LeafSpineConfig fab_cfg;
  fab_cfg.spines = static_cast<std::size_t>(args.get_int("spines", 2));
  fab_cfg.leaves = static_cast<std::size_t>(args.get_int("leaves", 4));
  fab_cfg.hosts_per_leaf =
      static_cast<std::size_t>(args.get_int("hosts-per-leaf", 4));
  fab_cfg.host_link_bps = units::gbps(args.get_double("host-gbps", 1.0));
  fab_cfg.fabric_link_bps =
      units::gbps(args.get_double("fabric-gbps", 4.0));
  auto fab = sim::build_leaf_spine(
      fab_cfg, marking.queue_factory(0, 250, fab_cfg.host_link_bps));

  tcp::TcpConfig tcp_cfg;
  tcp_cfg.mode = tcp::CcMode::kDctcp;
  tcp_cfg.sack_enabled = args.has("sack");
  tcp_cfg.pacing = args.has("pacing");
  tcp_cfg.min_rto = 0.01;
  tcp_cfg.init_rto = 0.01;

  workload::PoissonConfig wl;
  wl.sizes = workload::FlowSizeDist::websearch();
  const double load = args.get_double("load", 0.5);
  const double capacity = static_cast<double>(fab.hosts.size()) *
                          fab_cfg.host_link_bps / 2.0;
  wl.arrivals_per_sec =
      workload::arrival_rate_for_load(load, capacity, wl.sizes, 1500);
  wl.duration = args.get_double("duration", 1.0);
  wl.seed = static_cast<std::uint64_t>(args.get_int("seed", 11));

  tcp::FlowMetricsCollector collector(wl.small_cutoff_segments,
                                      wl.large_cutoff_segments);
  workload::PoissonFlowGenerator gen(*fab.net, fab.hosts, fab.hosts,
                                     tcp_cfg, wl);
  gen.set_collector(&collector);
  gen.start(0.0);
  fab.net->sim().run();

  std::printf("load             %.2f (%.0f flows/s)\n", load,
              wl.arrivals_per_sec);
  std::printf("flows            %zu completed of %zu started\n",
              gen.flows_completed(), gen.flows_started());
  auto row = [](const char* label, stats::PercentileTracker& t) {
    std::printf("%s mean/p99  %.2f / %.2f ms (%zu flows)\n", label,
                t.mean() * 1e3, t.p99() * 1e3, t.count());
  };
  row("small ", collector.fct_small());
  row("medium", collector.fct_medium());
  row("large ", collector.fct_large());
  std::printf("timeouts         %llu\n",
              static_cast<unsigned long long>(collector.timeouts()));
  return 0;
}

int run_sweep_cmd(const Args& args, const queue::MarkingRule& marking) {
  const auto from = static_cast<std::size_t>(args.get_int("from", 10));
  const auto to = static_cast<std::size_t>(args.get_int("to", 100));
  const auto step = static_cast<std::size_t>(args.get_int("step", 5));
  if (step == 0 || to < from) {
    std::fprintf(stderr, "bad sweep range\n");
    return usage();
  }
  std::vector<std::size_t> flow_counts;
  for (std::size_t n = from; n <= to; n += step) flow_counts.push_back(n);

  const auto base = dumbbell_config(args, marking);
  const auto results =
      runner::sweep("sweep", flow_counts.size(), [&](std::size_t i) {
        auto cfg = base;
        cfg.flows = flow_counts[i];
        cfg.seed = derive_seed(base.seed, i);
        return core::run_dumbbell(cfg);
      });

  std::printf("%6s %10s %10s %10s %8s %10s %8s %8s\n", "flows",
              "queue_mean", "queue_sd", "alpha", "util", "marks", "drops",
              "timeouts");
  for (std::size_t i = 0; i < flow_counts.size(); ++i) {
    const auto& r = results[i];
    std::printf("%6zu %10.2f %10.2f %10.3f %8.3f %10llu %8llu %8llu\n",
                flow_counts[i], r.queue_mean, r.queue_stddev, r.alpha_mean,
                r.utilization, static_cast<unsigned long long>(r.marks),
                static_cast<unsigned long long>(r.drops),
                static_cast<unsigned long long>(r.timeouts));
  }
  return 0;
}

int run_fluid_cmd(const Args& args, const queue::MarkingRule& marking) {
  fluid::FluidParams p;
  p.capacity_pps = units::packets_per_second(
      units::gbps(args.get_double("rate-gbps", 10.0)), 1500);
  p.flows = args.get_double("flows", 60.0);
  p.rtt = args.get_double("rtt-ms", 1.0) * 1e-3;
  p.g = args.get_double("g", 1.0 / 16.0);
  p.marking = marking.in_packets(1500);
  p.dynamic_rtt = args.has("dynamic-rtt");
  const double duration = args.get_double("duration", 2.0);

  fluid::FluidModel m(p);
  auto s = fluid::operating_point(p);
  s.q += 5.0;
  m.set_state(s);
  m.run(duration / 2.0);
  stats::TimeSeries trace;
  m.run(duration / 2.0, &trace, p.rtt);
  const auto sum = trace.summarize(0);
  std::printf("operating_point  W0=%.2f alpha0=%.3f\n",
              fluid::operating_point(p).w, fluid::operating_point(p).alpha);
  std::printf("queue_mean       %.1f pkts\n", sum.mean());
  std::printf("queue_stddev     %.1f pkts\n", sum.stddev());
  std::printf("amplitude        %.1f pkts\n",
              fluid::oscillation_amplitude(trace, 0.0));
  std::printf("final            W=%.2f alpha=%.3f q=%.1f\n", m.state().w,
              m.state().alpha, m.state().q);
  return 0;
}

// Hybrid co-simulation: Poisson foreground FCT workload plus a
// background share of long-lived flows, realized either as one fluid
// aggregate (src/hybrid, O(1) in N) or as real packet connections (the
// cross-validation baseline). The bottleneck and the fluid aggregate
// both run --marking.
int run_hybrid_cmd(const Args& args, const queue::MarkingRule& marking) {
  workload::FctWorkloadConfig cfg;
  cfg.scheme = marking;
  const std::string kind = args.get("workload", "websearch");
  cfg.kind = kind == "datamining" ? workload::FctWorkloadKind::kDataMining
             : kind == "querybg"  ? workload::FctWorkloadKind::kQueryBackground
                                  : workload::FctWorkloadKind::kWebSearch;
  cfg.load = args.get_double("load", 0.5);
  cfg.duration = args.get_double("duration", 0.2);
  cfg.link_bps = units::gbps(args.get_double("rate-gbps", 1.0));
  cfg.buffer_pkts =
      static_cast<std::size_t>(args.get_int("buffer-pkts", 250));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 11));
  cfg.background_flows =
      static_cast<std::size_t>(args.get_int("bg-flows", 1000));
  const std::string mode = args.get("bg-mode", "fluid");
  if (mode != "fluid" && mode != "packet") {
    std::fprintf(stderr, "--bg-mode must be fluid or packet\n");
    return usage();
  }
  cfg.background_mode = mode == "packet"
                            ? workload::FctBackgroundMode::kPacket
                            : workload::FctBackgroundMode::kFluid;
  cfg.background_rtt = args.get_double("bg-rtt-us", 100.0) * 1e-6;

  const auto r = workload::run_fct_workload(cfg);
  std::printf("%s\n%s\n", workload::fct_row_header().c_str(),
              workload::format_fct_row(cfg, r).c_str());
  std::printf("background       %zu flows (%s)\n", cfg.background_flows,
              mode.c_str());
  if (cfg.background_mode == workload::FctBackgroundMode::kFluid) {
    std::printf("bg_share_mean    %.3f of link\n", r.bg_share_mean);
    std::printf("bg_queue_mean    %.1f pkts\n", r.bg_queue_mean_pkts);
    std::printf("bg_ticks         %llu coupling samples\n",
                static_cast<unsigned long long>(r.bg_ticks));
  } else {
    std::printf("bg_acked         %lld segments\n",
                static_cast<long long>(r.bg_acked_segments));
  }
  if (r.metrics.maybe_export("hybrid_" + mode)) {
    std::printf("csv              written to $DTDCTCP_CSV_DIR\n");
  }
  return 0;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (start <= s.size()) {
    const auto end = s.find(sep, start);
    if (end == std::string::npos) {
      if (start < s.size()) out.push_back(s.substr(start));
      break;
    }
    if (end > start) out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Stability atlas: the DF/bifurcation grid over marking rules, CC
// variants, RTTs, rates, and buffers (analysis::run_stability_atlas).
//
//   dtdctcp_cli atlas --markings "dctcp:40;dt:20,40;red:30,90;pie"
//       --cc dctcp,ecn-reno --rtts-us 100,500,1000 --rates-gbps 10
//       --buffers 250 --csv atlas.csv --gnuplot atlas.gp --jobs 8
int run_atlas_cmd(const Args& args) {
  analysis::AtlasConfig cfg;
  for (const auto& label :
       split(args.get("markings", "dctcp:40;dt:20,40"), ';')) {
    const auto marking = queue::MarkingRule::parse(label);
    if (!marking || !analysis::MarkingModel::supports(*marking)) {
      std::fprintf(stderr, "bad or unmodeled marking '%s'\n", label.c_str());
      return usage();
    }
    cfg.markings.push_back(marking->in_packets(cfg.mss_bytes));
  }
  cfg.ccs.clear();
  for (const auto& cc : split(args.get("cc", "dctcp"), ',')) {
    if (cc == "dctcp") {
      cfg.ccs.push_back(analysis::CcVariant::kDctcp);
    } else if (cc == "ecn-reno") {
      cfg.ccs.push_back(analysis::CcVariant::kEcnReno);
    } else if (cc == "d2tcp") {
      cfg.ccs.push_back(analysis::CcVariant::kD2tcp);
    } else {
      std::fprintf(stderr, "bad --cc '%s'\n", cc.c_str());
      return usage();
    }
  }
  cfg.rtts.clear();
  for (const auto& t : split(args.get("rtts-us", "1000"), ',')) {
    cfg.rtts.push_back(std::atof(t.c_str()) * 1e-6);
  }
  cfg.rates_bps.clear();
  for (const auto& r : split(args.get("rates-gbps", "10"), ',')) {
    cfg.rates_bps.push_back(units::gbps(std::atof(r.c_str())));
  }
  cfg.buffers_pkts.clear();
  for (const auto& b : split(args.get("buffers", "250"), ',')) {
    cfg.buffers_pkts.push_back(std::atof(b.c_str()));
  }
  cfg.g = args.get_double("g", 1.0 / 16.0);
  cfg.d2tcp_d = args.get_double("d2tcp-d", 1.5);
  cfg.n_lo = args.get_int("nlo", 2);
  cfg.n_hi = args.get_int("nhi", 512);
  if (cfg.markings.empty() || cfg.ccs.empty() || cfg.rtts.empty() ||
      cfg.rates_bps.empty() || cfg.buffers_pkts.empty() ||
      cfg.n_lo < 1 || cfg.n_hi < cfg.n_lo) {
    std::fprintf(stderr, "empty atlas axis or bad --nlo/--nhi\n");
    return usage();
  }

  const auto atlas =
      analysis::run_stability_atlas(cfg, runner::stderr_progress("atlas"));
  runner::print_telemetry("atlas", atlas.telemetry);

  std::printf("%-12s %-9s %8s %6s %6s | %5s %5s | %9s %9s %4s %8s\n",
              "marking", "cc", "rtt_us", "gbps", "buf", "N*", "N_ok",
              "amp_pkts", "freq_hz", "clip", "gm_db");
  for (const auto& c : atlas.cells) {
    std::printf(
        "%-12s %-9s %8.0f %6.1f %6.0f | %5d %5d | %9.2f %9.1f %4s %8.2f\n",
        c.marking.label().c_str(), analysis::cc_label(c.cc),
        c.rtt * 1e6, c.rate_bps / 1e9, c.buffer_pkts, c.onset.critical_n,
        c.onset.stable_n, c.amplitude_pkts, c.frequency_hz,
        c.clipped ? "yes" : "no", c.gain_margin_db);
  }

  const std::string csv_path = args.get("csv", "");
  if (!csv_path.empty()) {
    auto out = open_csv(csv_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "could not open %s\n", csv_path.c_str());
      return 1;
    }
    analysis::write_atlas_csv(atlas, out);
    std::fprintf(stderr, "wrote %s\n", csv_path.c_str());
  }
  const std::string gp_path = args.get("gnuplot", "");
  if (!gp_path.empty()) {
    auto out = open_csv(gp_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "could not open %s\n", gp_path.c_str());
      return 1;
    }
    const auto slash = csv_path.find_last_of('/');
    analysis::write_atlas_gnuplot(
        atlas,
        csv_path.empty()
            ? "atlas.csv"
            : (slash == std::string::npos ? csv_path
                                          : csv_path.substr(slash + 1)),
        out);
    std::fprintf(stderr, "wrote %s\n", gp_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = Args::parse(argc, argv);
  if (!parsed || parsed->positional().empty()) return usage();
  const Args& args = *parsed;
  const std::string cmd = args.positional().front();

  // --unit bytes is shorthand for the label's own unit=bytes field.
  std::string label = args.get("marking", cmd == "hybrid" ? "dctcp:20"
                                                          : "dctcp:40");
  if (args.get("unit", "packets") == "bytes") label += ",unit=bytes";
  const auto marking = queue::MarkingRule::parse(label);
  // The fluid model and the DF analysis take only rules they can model.
  if (!marking ||
      (cmd == "fluid" && !fluid::MarkingAutomaton::models(*marking)) ||
      (cmd == "nyquist" && !analysis::MarkingModel::supports(*marking))) {
    std::fprintf(stderr, "bad or unmodeled --marking '%s'\n", label.c_str());
    return usage();
  }

  const auto jobs = args.get_int("jobs", 0);
  if (args.has("jobs") && jobs < 1) {
    std::fprintf(stderr, "--jobs must be a number >= 1\n");
    return usage();
  }
  if (jobs > 0) runner::set_jobs_override(static_cast<std::size_t>(jobs));

  if (cmd == "dumbbell") return run_dumbbell_cmd(args, *marking);
  if (cmd == "incast") return run_incast_cmd(args, *marking);
  if (cmd == "nyquist") return run_nyquist_cmd(args, *marking);
  if (cmd == "fluid") return run_fluid_cmd(args, *marking);
  if (cmd == "fct") return run_fct_cmd(args, *marking);
  if (cmd == "hybrid") return run_hybrid_cmd(args, *marking);
  if (cmd == "sweep") return run_sweep_cmd(args, *marking);
  if (cmd == "atlas") return run_atlas_cmd(args);
  return usage();
}
