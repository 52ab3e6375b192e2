// perfbench — the repository benchmark.
//
//   perfbench --workload montage_wf|serve_zipf|meta_churn --seed N
//             --seconds S --trace 0|1
//
// Generates every input from --seed, then repeats the workload (a fresh
// testbed each time: set-up, then the timed part) until --seconds of wall
// time have passed, at least three times. Simulated metrics come from the
// first repetition; every later repetition must reproduce its event digest
// exactly. Host time is the process's CPU time, scaled by the host's speed
// as a fixed calibration kernel measures it between repetitions; set-up and
// timed-part times are each the median over the repetitions.
//
// --trace 0 prints the end-to-end metrics. --trace 1 adds one traced
// repetition (a trace::Tracer attached) and prints the per-layer
// metrics: counters from public stats(), critical-path self times from
// trace/critical_path, and host cost per simulated event. The traced run
// must reproduce the untraced event digest and drop no span.
//
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// The exit code is nonzero when any correctness or determinism check fails.
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

constexpr std::size_t kMinReps = 3;
constexpr std::size_t kMaxReps = 200;
// CPU time of CalibrateHost on an unloaded reference host. Host metrics are
// CPU times scaled to that host's speed.
constexpr double kCalibrationReferenceS = 0.1;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // clock and definition, for the report
};

void Usage() {
  std::cerr << "usage: perfbench --workload montage_wf|serve_zipf|meta_churn"
               " --seed N --seconds S --trace 0|1\n";
}

bool ParseUint(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.size() > 19) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  out = std::stoull(text);
  return true;
}

bool ParseArgs(int argc, char** argv, Options& opts) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return false;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    std::uint64_t number = 0;
    if (key == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      if (!ParseUint(value, number)) return false;
      opts.seed = number;
      have_seed = true;
    } else if (key == "--seconds") {
      if (!ParseUint(value, number) || number == 0 || number > 3600) {
        return false;
      }
      opts.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      opts.trace = value == "1";
      have_trace = true;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

// How much slower than the reference the host runs right now.
double HostSlowdown() { return CalibrateHost() / kCalibrationReferenceS; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Fmt(double v, int precision = 4) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

void PrintSamples(const char* label, const Samples& s, double scale,
                  const char* unit) {
  const double tail = s.TailQuantile();
  std::cout << "  " << std::left << std::setw(8) << label << std::right
            << " n=" << s.count() << "  p50=" << Fmt(s.Quantile(0.5) * scale)
            << unit << "  p99=" << Fmt(s.Quantile(0.99) * scale) << unit;
  if (tail > 0.0) {
    std::cout << "  p" << Fmt(tail * 100.0, 3) << "="
              << Fmt(s.Quantile(tail) * scale) << unit
              << " (highest percentile with >=10 samples beyond)";
  }
  std::cout << "\n";
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// Per-layer metrics, the layer they belong to and what each should move.
struct LayerSpec {
  const char* name;
  const char* unit;
  const char* moves;  // end-to-end metric (workload) it should move
};

constexpr LayerSpec kLayers[] = {
    {"sim.events", "count", "host_s, peak_rss_mb (montage_wf)"},
    {"sim.host_ns_per_event", "ns", "host_s (montage_wf)"},
    {"sim.allocs_per_event", "ratio", "host_s, peak_rss_mb (montage_wf)"},
    {"net.bytes_per_user_byte", "ratio", "makespan_s (montage_wf)"},
    {"net.nic_util_max", "ratio", "read_p99_ms, slo_rate_rps (serve_zipf)"},
    {"net.self_ms", "ms", "makespan_s (montage_wf); read_p99_ms (serve_zipf)"},
    {"kv.rpcs_per_op", "ratio", "read_p99_ms (serve_zipf); meta_p99_us (meta_churn)"},
    {"kv.retries", "count", "read_p99_ms (serve_zipf); meta_p99_us (meta_churn)"},
    {"kv.hit_ratio", "ratio", "meta_p99_us (meta_churn)"},
    {"kv.queue_ms", "ms", "read_p99_ms (serve_zipf); meta_p99_us (meta_churn)"},
    {"kv.server_ms", "ms", "read_p99_ms (serve_zipf); meta_p99_us (meta_churn)"},
    {"io.ops_per_batch", "ratio", "slo_rate_rps (serve_zipf); meta_ops_per_s (meta_churn)"},
    {"io.max_batch", "count", "slo_rate_rps (serve_zipf); meta_ops_per_s (meta_churn)"},
    {"io.wait_ms", "ms", "slo_rate_rps (serve_zipf); meta_ops_per_s (meta_churn)"},
    {"fs.stripe_gets_per_read", "ratio", "read_p50_ms (serve_zipf); makespan_s (montage_wf)"},
    {"fs.cache_hit_ratio", "ratio", "read_p50_ms (serve_zipf); makespan_s (montage_wf)"},
    {"fs.prefetch_useful_ratio", "ratio", "read_p50_ms (serve_zipf); makespan_s (montage_wf)"},
    {"fs.vfs_self_ms", "ms", "read_p50_ms (serve_zipf); makespan_s (montage_wf)"},
    {"fs.striper_self_ms", "ms", "read_p50_ms (serve_zipf); makespan_s (montage_wf)"},
    {"meta.lookups_per_op", "ratio", "meta_p99_us (meta_churn)"},
    {"meta.readdir_pages", "count", "meta_p99_us (meta_churn)"},
    {"meta.dentry_skew", "ratio", "meta_p99_us (meta_churn)"},
    {"meta.self_ms", "ms", "meta_p99_us (meta_churn)"},
    {"mtc.core_util", "ratio", "makespan_s (montage_wf)"},
    {"mtc.compute_share", "ratio", "makespan_s (montage_wf)"},
    {"mtc.io_share", "ratio", "makespan_s (montage_wf)"},
    {"hash.object_skew", "ratio", "storage_skew (all workloads)"},
};

int Main(int argc, char** argv) {
  Options opts;
  if (!ParseArgs(argc, argv, opts)) {
    Usage();
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (opts.workload == "montage_wf") {
    workload = MakeMontage(opts.seed);
  } else if (opts.workload == "serve_zipf") {
    workload = MakeServeZipf(opts.seed);
  } else if (opts.workload == "meta_churn") {
    workload = MakeMetaChurn(opts.seed);
  } else {
    std::cerr << "unknown workload: " << opts.workload << "\n";
    Usage();
    return 2;
  }

  std::cout << "# perfbench " << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << opts.trace << "\n";

  // Untraced repetitions: rep 0 also runs the end-of-run checks. The host's
  // speed is calibrated before the first repetition and after each one.
  std::vector<Rep> reps;
  std::vector<double> slowdown{HostSlowdown()};
  const double start = HostNow();
  reps.push_back(workload->RunOnce({/*traced=*/false, /*verify=*/true}));
  // Read before any other repetition: how many repetitions fit in the run
  // depends on the host's speed, and each one leaves the heap a little
  // larger.
  const double peak_rss_mb = PeakRssMb();
  slowdown.push_back(HostSlowdown());
  while (reps.size() < kMaxReps &&
         (reps.size() < kMinReps || HostNow() - start < opts.seconds)) {
    reps.push_back(workload->RunOnce({/*traced=*/false, /*verify=*/false}));
    slowdown.push_back(HostSlowdown());
  }

  // `attempted` and `failed` cover the same runs: every repetition, and the
  // traced one below. A determinism failure counts as one failed op.
  const SimOutcome& sim = reps.front().sim;
  std::uint64_t attempted = sim.attempted;
  std::uint64_t failed = sim.failed;
  std::vector<std::string> problems = sim.errors;
  for (std::size_t i = 1; i < reps.size(); ++i) {
    attempted += reps[i].sim.attempted;
    failed += reps[i].sim.failed;
    if (reps[i].sim.digest != sim.digest ||
        reps[i].sim.events != sim.events) {
      ++failed;
      problems.push_back("repetition " + std::to_string(i) +
                         " event digest differs from repetition 0");
    }
  }

  // A repetition's host times are its CPU times divided by the host's
  // slowdown around it (the mean of the calibrations before and after); each
  // host metric is the median over the repetitions.
  std::vector<double> setup_s, host_s, allocs_per_event;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const double around = 0.5 * (slowdown[i] + slowdown[i + 1]);
    setup_s.push_back(reps[i].setup_s / around);
    host_s.push_back(reps[i].host_s / around);
    allocs_per_event.push_back(static_cast<double>(reps[i].allocs) /
                               static_cast<double>(std::max<std::uint64_t>(
                                   reps[i].sim.events, 1)));
  }
  const double setup_median = Median(setup_s);
  const double host_median = Median(host_s);
  std::cout << "# host slowdown (calibration CPU time / "
            << Fmt(kCalibrationReferenceS, 3) << " s):";
  for (const double v : slowdown) std::cout << " " << Fmt(v, 3);
  std::cout << "\n# host CPU time per repetition (s), raw: set-up";
  for (const Rep& rep : reps) std::cout << " " << Fmt(rep.setup_s);
  std::cout << "; timed";
  for (const Rep& rep : reps) std::cout << " " << Fmt(rep.host_s);
  std::cout << "\n# host CPU time per repetition (s), calibrated: set-up";
  for (const double v : setup_s) std::cout << " " << Fmt(v);
  std::cout << "; timed";
  for (const double v : host_s) std::cout << " " << Fmt(v);
  std::cout << "\n# median calibrated: set-up " << Fmt(setup_median)
            << ", timed " << Fmt(host_median) << "\n";

  std::cout << "\n# repetitions: " << reps.size() << "  digest=" << std::hex
            << sim.digest << std::dec << "  events=" << sim.events << "\n";
  for (const auto& [key, value] : sim.notes) {
    std::cout << "  " << key << ": " << value << "\n";
  }
  std::cout << "\n# raw latency samples (simulated time)\n";
  PrintSamples("read", sim.read, 1e-6, "ms");
  PrintSamples("write", sim.write, 1e-6, "ms");
  PrintSamples("meta", sim.meta, 1e-3, "us");

  std::vector<Metric> metrics;
  if (!opts.trace) {
    const double slo_rate = workload->SloRate(reps.front(), std::cout);
    const double span = std::max(sim.makespan_s, 1e-12);
    metrics = {
        {"setup_s", setup_median, "s", "host CPU, calibrated; median set-up"},
        {"host_s", host_median, "s",
         "host CPU, calibrated; median timed part, untraced"},
        {"peak_rss_mb", peak_rss_mb, "MB",
         "host; peak resident set after repetition 0"},
        {"makespan_s", sim.makespan_s, "s", "sim; timed part length"},
        {"read_p50_ms", sim.read.Quantile(0.5) * 1e-6, "ms", "sim"},
        {"read_p99_ms", sim.read.Quantile(0.99) * 1e-6, "ms", "sim"},
        {"write_p50_ms", sim.write.Quantile(0.5) * 1e-6, "ms", "sim"},
        {"write_p99_ms", sim.write.Quantile(0.99) * 1e-6, "ms", "sim"},
        {"slo_rate_rps", slo_rate, "1/s", "sim"},
        {"meta_ops_per_s", static_cast<double>(sim.meta.count()) / span, "1/s",
         "sim"},
        {"meta_p50_us", sim.meta.Quantile(0.5) * 1e-3, "us", "sim"},
        {"meta_p99_us", sim.meta.Quantile(0.99) * 1e-3, "us", "sim"},
        {"storage_skew", sim.storage_skew, "ratio", "sim; max/mean node bytes"},
        {"space_amp", sim.space_amp, "ratio", "sim; stored/live user bytes"},
    };
    std::cout << "\n# end-to-end metrics\n";
  } else {
    const Rep traced = workload->RunOnce({/*traced=*/true, /*verify=*/false});
    const double traced_host_s =
        traced.host_s / (0.5 * (slowdown.back() + HostSlowdown()));
    attempted += traced.sim.attempted;
    failed += traced.sim.failed;
    for (const auto& e : traced.sim.errors) problems.push_back(e);
    if (traced.sim.digest != sim.digest) {
      ++failed;
      problems.push_back("traced run's event digest differs from untraced");
    }
    if (traced.dropped_spans != 0 || traced.paths.roots_missing != 0) {
      ++failed;
      problems.push_back("tracer dropped " +
                         std::to_string(traced.dropped_spans) + " spans, " +
                         std::to_string(traced.paths.roots_missing) +
                         " traced roots without a critical path");
    }
    std::cout << "\n# traced run: " << traced.spans << " spans, "
              << traced.paths.roots << " traced roots, dropped "
              << traced.dropped_spans << "\n"
              << "  tracing overhead: " << Fmt(traced_host_s - host_median)
              << " s (traced " << Fmt(traced_host_s) << " s - untraced "
              << Fmt(host_median) << " s, calibrated host CPU time)\n"
              << "# critical-path self time per layer (ms per traced root)\n";
    for (const auto& [category, nanos] : traced.paths.by_category) {
      std::cout << "  " << std::left << std::setw(12) << category << std::right
                << Fmt(traced.paths.CategoryMsPerRoot(category)) << "\n";
    }
    std::cout << "# wait time on the critical path (ms per traced root)\n";
    for (const char* wait : {"kv.queue", "kv.batch.wait", "fuse.enter"}) {
      std::cout << "  " << std::left << std::setw(14) << wait << std::right
                << Fmt(traced.paths.NameMsPerRoot(wait)) << "\n";
    }

    std::map<std::string, double> layer = traced.sim.layer;
    layer["sim.host_ns_per_event"] =
        host_median * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(sim.events, 1));
    layer["sim.allocs_per_event"] = Median(allocs_per_event);
    for (const LayerSpec& spec : kLayers) {
      const auto it = layer.find(spec.name);
      metrics.push_back({spec.name, it == layer.end() ? 0.0 : it->second,
                         spec.unit, std::string("moves ") + spec.moves});
    }
    std::cout << "\n# per-layer metrics\n";
  }

  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      ++failed;
      problems.push_back("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
    std::cout << "  " << std::left << std::setw(26) << m.name << std::right
              << std::setw(16) << Fmt(m.value) << " " << std::left
              << std::setw(6) << m.unit << std::right << "  " << m.note
              << "\n";
  }
  for (const auto& p : problems) std::cout << "FAILED: " << p << "\n";

  if (attempted == 0) {
    ++failed;
    std::cout << "FAILED: no file-system call was made\n";
  }
  const bool correct = failed == 0;
  PrintJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
