// perfbench: the simulator's end-to-end benchmark. One process runs one
// workload: spec text -> spec_io -> spec::build_scenario -> run_until, for
// every sweep point, repeated until the time budget is spent.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--pin HEX] [--trace-out FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 reports the per-layer metrics (see README.md).

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "layer_trace.hpp"
#include "observe.hpp"
#include "scenario/spec_cli.hpp"
#include "scenario/spec_io.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace spec = rss::scenario::spec;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- phase spans ------------------------------------------------------------

struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0 = root
  std::string name;
  std::string detail;
  double start_s{0};
  double end_s{0};
};

/// Phase spans (pass, parse, build and run per point), kept in memory and
/// written out when the benchmark ends. Disabled when `on` is false.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_{on}, origin_{Clock::now()} {}

  std::uint64_t open(std::string name, std::string detail, std::uint64_t parent) {
    if (!on_) return 0;
    const double t = since(origin_);
    spans_.push_back({spans_.size() + 1, parent, std::move(name), std::move(detail), t, t});
    return spans_.size();
  }
  void close(std::uint64_t id) {
    if (id != 0) spans_[id - 1].end_s = since(origin_);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- one pass over a workload -----------------------------------------------

enum class Variant { kAuto, kTraced, kBinaryHeap, kCalendarQueue };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kAuto: return "untraced";
    case Variant::kTraced: return "traced";
    case Variant::kBinaryHeap: return "binary_heap";
    case Variant::kCalendarQueue: return "calendar_queue";
  }
  return "?";
}

/// One pass over every sweep point of the workload.
struct Pass {
  Variant variant{Variant::kAuto};
  bool threw{false};
  std::string error;
  double parse_s{0};  ///< spec text -> sweep points (parse + expansion)
  double build_s{0};  ///< build_scenario, summed over points
  double run_s{0};    ///< wall time inside run_until, summed over points
  double sim_s{0};    ///< simulated seconds advanced, summed over points
  /// run_s x engine worker threads: the thread-seconds the spans divide up.
  double thread_run_s{0};
  /// Reference-host seconds per host second while this pass ran (see
  /// HostProbe); scales the pass's end-to-end times.
  double host_factor{1};
  std::uint64_t fingerprint{0};
  Counters counters;
  LayerTime forward;
  LayerTime endpoint;
  std::vector<LayerTracer::NodeTotal> nodes;

  /// Spec text -> built scenarios, once per set-up made in this pass.
  std::vector<double> setups;
  [[nodiscard]] double wall_per_sim_s() const { return run_s / sim_s * host_factor; }
  [[nodiscard]] double raw_wall_per_sim_s() const { return run_s / sim_s; }
};

/// Set-ups per untraced pass: the one whose scenarios run plus extra ones
/// that are built and dropped, so setup_s is a median over many samples.
constexpr int kSetupsPerPass = 3;

/// Parse, expand and build every point of the workload without running it.
double setup_only(const std::string& text) {
  const auto t0 = Clock::now();
  for (const auto& point : spec::expand_scenario_spec(text)) {
    auto scenario = spec::build_scenario(point.spec);
  }
  return since(t0);
}

/// One pass; `extra_setups` more set-ups are built and dropped first.
Pass run_pass(const std::string& text, Variant variant, int extra_setups, SpanLog& log) {
  Pass pass;
  pass.variant = variant;
  const std::uint64_t pass_span = log.open("pass", variant_name(variant), 0);
  try {
    for (int i = 0; i < extra_setups; ++i) pass.setups.push_back(setup_only(text));
    const std::uint64_t parse_span = log.open("parse", "", pass_span);
    auto t0 = Clock::now();
    std::vector<spec::SweepPoint> points = spec::expand_scenario_spec(text);
    pass.parse_s = since(t0);
    log.close(parse_span);

    Fnv64 digest;
    for (std::size_t i = 0; i < points.size(); ++i) {
      auto& point = points[i].spec;
      if (variant == Variant::kBinaryHeap) {
        point.topology.execution.backend = rss::sim::QueueBackend::kBinaryHeap;
      } else if (variant == Variant::kCalendarQueue) {
        point.topology.execution.backend = rss::sim::QueueBackend::kCalendarQueue;
      }
      const std::string label = "point " + std::to_string(i);
      const std::uint64_t build_span = log.open("build", label, pass_span);
      t0 = Clock::now();
      auto scenario = spec::build_scenario(point);
      pass.build_s += since(t0);
      log.close(build_span);

      std::unique_ptr<LayerTracer> tracer;
      if (variant == Variant::kTraced) tracer = std::make_unique<LayerTracer>(*scenario);

      const std::uint64_t run_span = log.open("run", label, pass_span);
      t0 = Clock::now();
      scenario->run_until(point.run.duration);
      const double run_s = since(t0);
      log.close(run_span);

      const Counters c = observe(*scenario);
      pass.run_s += run_s;
      const auto threads = std::max<std::uint64_t>(1, c.engine_workers);
      pass.thread_run_s += run_s * static_cast<double>(threads);
      pass.sim_s += point.run.duration.to_seconds();
      pass.counters.add(c);
      digest.add(fingerprint(*scenario));
      if (tracer) {
        const LayerTime fwd = tracer->forward();
        const LayerTime ep = tracer->endpoint();
        pass.forward.calls += fwd.calls;
        pass.forward.seconds += fwd.seconds;
        pass.endpoint.calls += ep.calls;
        pass.endpoint.seconds += ep.seconds;
        for (auto& n : tracer->node_totals()) {
          n.name = label + "/" + n.name;
          pass.nodes.push_back(std::move(n));
        }
        tracer.reset();
      }
    }
    pass.fingerprint = digest.value();
    pass.setups.push_back(pass.parse_s + pass.build_s);
  } catch (const std::exception& e) {
    pass.threw = true;
    pass.error = e.what();
  }
  log.close(pass_span);
  return pass;
}

// --- host speed ----------------------------------------------------------------

/// Host-speed probe: a fixed number of random read-modify-writes over a
/// 32 MiB table, timed around every pass. On a shared machine the
/// simulator's speed swings by a quarter within tens of seconds as other
/// tenants load the shared cache and memory; this probe swings with it
/// (about 0.8 of its log-change shows in the simulator's), while code
/// changes under src/ cannot move it. End-to-end times are scaled by
/// kReferenceSeconds / probe time, i.e. reported in seconds of a host
/// whose probe takes kReferenceSeconds.
class HostProbe {
 public:
  /// Median probe time on the 4-core Xeon VM the benchmark was tuned on.
  static constexpr double kReferenceSeconds = 0.018;

  HostProbe() : table_(kWords, 1) {}

  /// kReferenceSeconds / this probe's time.
  double factor() {
    const auto t0 = Clock::now();
    std::uint64_t x = state_;
    std::uint64_t sum = 0;
    for (int i = 0; i < kAccesses; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sum += table_[x & (kWords - 1)]++;
    }
    state_ = x + sum;  // keeps the loop's work observable
    return kReferenceSeconds / since(t0);
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 22;
  static constexpr int kAccesses = 1'000'000;
  std::vector<std::uint64_t> table_;
  std::uint64_t state_{0x9e3779b97f4a7c15ull};
};

// --- statistics and output ---------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename Fn>
std::vector<double> collect(const std::vector<const Pass*>& passes, Fn fn) {
  std::vector<double> out;
  for (const Pass* r : passes) out.push_back(fn(*r));
  return out;
}

/// Peak resident memory of this process so far (VmHWM), in MB. Not
/// getrusage: its ru_maxrss keeps the pre-exec high-water mark of the
/// process that launched this one.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

void write_trace_file(const std::string& path, const std::string& workload, std::uint64_t seed,
                      const SpanLog& log, const Pass* traced) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ",\n \"spans\": [";
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n  " : "\n  ") << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"detail\": \"" << s.detail
        << "\", \"start_s\": " << number(s.start_s) << ", \"end_s\": " << number(s.end_s)
        << "}";
  }
  out << "],\n \"nodes\": [";
  if (traced != nullptr) {
    for (std::size_t i = 0; i < traced->nodes.size(); ++i) {
      const auto& n = traced->nodes[i];
      out << (i ? ",\n  " : "\n  ") << "{\"node\": \"" << n.name << "\", \"layer\": \""
          << (n.router ? "net" : "tcp") << "\", \"calls\": " << n.time.calls
          << ", \"self_s\": " << number(n.time.seconds) << "}";
    }
  }
  out << "]}\n";
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::optional<std::uint64_t> pin;
  std::string trace_out;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value);
    } else if (arg == "--trace") {
      o.trace = value == "1";
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
    } else if (arg == "--pin") {
      o.pin = std::stoull(value, nullptr, 16);
    } else if (arg == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

int run(const Options& opt) {
  const std::string text = workload_spec_text(opt.workload, opt.seed);
  SpanLog log{opt.trace};
  std::vector<Pass> passes;
  double first_pass_peak_mb = 0;
  const auto deadline = Clock::now() + std::chrono::duration<double>(opt.seconds);
  // Allocated after the first pass, so its table stays out of peak_rss_mb.
  // A pass is bracketed by probes (the first only by the one after it), and
  // its factor is their geometric mean.
  std::unique_ptr<HostProbe> probe;
  const auto measure = [&](Variant variant) {
    const double before = probe ? probe->factor() : 0.0;
    Pass r = run_pass(text, variant, opt.trace ? 0 : kSetupsPerPass - 1, log);
    if (passes.empty()) first_pass_peak_mb = peak_rss_mb();
    if (!probe) probe = std::make_unique<HostProbe>();
    const double after = probe->factor();
    r.host_factor = before > 0 ? std::sqrt(before * after) : after;
    for (double& setup : r.setups) setup *= r.host_factor;
    passes.push_back(std::move(r));
  };
  if (opt.trace) {
    // Untraced and traced passes alternate, and so does which of the two
    // goes first, so host drift and warm-up hit both alike; then one pass
    // on each forced queue backend.
    bool traced_first = false;
    do {
      measure(traced_first ? Variant::kTraced : Variant::kAuto);
      measure(traced_first ? Variant::kAuto : Variant::kTraced);
      traced_first = !traced_first;
    } while (Clock::now() < deadline);
    measure(Variant::kBinaryHeap);
    measure(Variant::kCalendarQueue);
  } else {
    do {
      measure(Variant::kAuto);
    } while (Clock::now() < deadline);
  }

  // Every pass must reproduce the pinned fingerprint, or, with no pin for
  // this seed, the first successful pass's.
  std::optional<std::uint64_t> expected = opt.pin;
  for (const Pass& r : passes) {
    if (!expected && !r.threw) expected = r.fingerprint;
  }
  std::uint64_t failed = 0;
  std::vector<const Pass*> ok_by[4];
  for (const Pass& r : passes) {
    const bool bad = r.threw || !expected || r.fingerprint != *expected;
    if (bad) {
      ++failed;
      std::cout << "FAILED " << variant_name(r.variant) << " pass: "
                << (r.threw ? r.error : "fingerprint " + hex(r.fingerprint) + " != " +
                                            hex(*expected))
                << "\n";
      continue;
    }
    ok_by[static_cast<int>(r.variant)].push_back(&r);
  }
  const auto& plain = ok_by[static_cast<int>(Variant::kAuto)];
  const auto& traced = ok_by[static_cast<int>(Variant::kTraced)];
  const std::uint64_t attempted = passes.size();
  std::vector<Metric> metrics;
  const bool correct = failed == 0 && !plain.empty() && (!opt.trace || !traced.empty());
  // The traced pass with the median run time supplies every span time.
  const Pass* spans = nullptr;
  if (!traced.empty()) {
    std::vector<const Pass*> by_run = traced;
    std::sort(by_run.begin(), by_run.end(),
              [](const Pass* a, const Pass* b) { return a->thread_run_s < b->thread_run_s; });
    spans = by_run[by_run.size() / 2];
  }

  std::cout << "workload " << opt.workload << " seed " << opt.seed << " trace " << opt.trace
            << " fingerprint " << (expected ? hex(*expected) : "none") << "\n";
  if (correct && !opt.trace) {
    metrics.push_back({"wall_per_sim_s",
                       median(collect(plain, [](const Pass& r) { return r.wall_per_sim_s(); })),
                       "s/s"});
    std::vector<double> setups;
    for (const Pass* r : plain) setups.insert(setups.end(), r->setups.begin(), r->setups.end());
    metrics.push_back({"setup_s", median(setups), "s"});
    metrics.push_back({"peak_rss_mb", first_pass_peak_mb, "MB"});
  } else if (correct) {
    std::vector<const Pass*> all;
    for (const auto& group : ok_by) all.insert(all.end(), group.begin(), group.end());
    const Pass& m = *spans;
    const Counters& c = plain.front()->counters;
    const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const double self_s = m.thread_run_s - m.forward.seconds - m.endpoint.seconds;
    const auto run_median = [&](const std::vector<const Pass*>& group) {
      return median(collect(group, [](const Pass& r) { return r.run_s; }));
    };
    const auto wps_median = [&](Variant v) {
      return median(collect(ok_by[static_cast<int>(v)],
                            [](const Pass& r) { return r.wall_per_sim_s(); }));
    };
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    metrics = {
        {"spec_io.parse_s", median(collect(all, [](const Pass& r) { return r.parse_s; })), "s"},
        {"spec_io.bytes", u(text.size()), "B"},
        {"builder.build_s", median(collect(all, [](const Pass& r) { return r.build_s; })), "s"},
        {"builder.flows", u(c.flows), "count"},
        {"builder.partitions", u(c.partitions), "count"},
        {"builder.calendar_selected", u(c.calendar_partitions), "count"},
        {"sim.events", u(c.events), "count"},
        {"sim.run_s", m.thread_run_s, "s"},
        {"sim.ns_per_event", per(m.thread_run_s * 1e9, u(c.events)), "ns"},
        {"sim.self_s", self_s, "s"},
        {"sim.self_share", per(self_s, m.thread_run_s), "ratio"},
        {"sim.arena_slots", u(c.arena_slots), "count"},
        {"sim.windows", u(c.windows), "count"},
        {"sim.handoffs", u(c.handoffs), "count"},
        {"sim.wall_per_sim_s.binary_heap", wps_median(Variant::kBinaryHeap), "s/s"},
        {"sim.wall_per_sim_s.calendar_queue", wps_median(Variant::kCalendarQueue), "s/s"},
        {"net.forward_s", m.forward.seconds, "s"},
        {"net.forward_ns_per_pkt", per(m.forward.seconds * 1e9, u(m.forward.calls)), "ns"},
        {"net.forwarded", u(c.forwarded), "count"},
        {"net.forward_drops", u(c.forward_drops), "count"},
        {"net.queue_drops", u(c.queue_drops), "count"},
        {"net.ce_marked", u(c.ce_marked), "count"},
        {"net.tx_packets", u(c.tx_packets), "count"},
        {"net.send_stalls", u(c.send_stalls), "count"},
        {"net.fluid_shed_share", per(c.fluid_shed_bytes, c.fluid_offered_bytes), "ratio"},
        {"tcp.endpoint_s", m.endpoint.seconds, "s"},
        {"tcp.endpoint_ns_per_pkt", per(m.endpoint.seconds * 1e9, u(m.endpoint.calls)), "ns"},
        {"tcp.bytes_acked", u(c.bytes_acked), "B"},
        {"tcp.pkts_out", u(c.pkts_out), "count"},
        {"tcp.retransmits", u(c.retransmits), "count"},
        {"tcp.timeouts", u(c.timeouts), "count"},
        {"tcp.useful_share", per(u(c.bytes_acked), u(c.data_bytes_out)), "ratio"},
        {"web100.polls", u(c.web100_polls), "count"},
        {"trace.overhead", per(run_median(traced), run_median(plain)) - 1.0, "ratio"},
    };
  }
  if (!opt.trace_out.empty()) {
    write_trace_file(opt.trace_out, opt.workload, opt.seed, log, spans);
  }

  for (const Metric& m : metrics) {
    std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
  }
  if (!opt.trace) {
    const double unscaled =
        median(collect(plain, [](const Pass& r) { return r.raw_wall_per_sim_s(); }));
    std::cout << "times are medians of " << plain.size() << " passes\n"
              << "unscaled wall_per_sim_s " << number(unscaled) << " s/s; host factor by pass:";
    for (const Pass* r : plain) std::cout << " " << number(r->host_factor);
    std::cout << "\n";
  }
  const double failed_share = static_cast<double>(failed) / static_cast<double>(attempted);
  std::cout << "failed_share " << number(failed_share) << " ratio (" << failed << " of "
            << attempted << " passes)\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
            << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
