// serve_zipf — open loop. Whole-file requests arrive by a seeded Poisson
// process from clients on all 32 DAS4-IPoIB nodes: 90% open -> read all ->
// close of a pre-staged corpus file chosen by Zipf popularity (s = 0.99),
// 10% create -> write -> close of a new file. Sharded metadata. File sizes
// are log-normal between 4 KB and 32 MB, so most fit the 8 MB per-file read
// cache and write buffer and some do not.
//
// Hot files make every node read the same stripes (the incast pattern), so
// this loads io batching, kvstore server queues, NIC contention and the
// MemFS prefetcher; writes run beside the reads, so a write-path change that
// costs read latency shows here.
//
// The offered rate is the constant kNominalRps, fixed once from a knee
// search and never recomputed per run, so a faster system gets the same
// load. A request is timed from its due time: each arrival is an event
// scheduled at that time, and every request checks that its first
// file-system call (open or create) was made at its due time.
#include <algorithm>
#include <cmath>
#include <map>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "harness.h"
#include "meta/meta.h"
#include "mtc/workflow.h"
#include "probe_vfs.h"
#include "sim/future.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "trace/trace.h"
#include "workloads/testbed.h"

namespace perfbench {
namespace {

using namespace memfs;  // NOLINT: benchmark-local brevity

constexpr std::uint32_t kNodes = 32;
constexpr std::uint32_t kProcs = 8;  // process slots per node
constexpr std::uint32_t kCorpusFiles = 2048;
constexpr std::uint32_t kCorpusDirs = 16;
constexpr std::uint32_t kUploadDirs = 32;
constexpr double kZipfS = 0.99;
constexpr double kWriteShare = 0.10;
constexpr std::uint64_t kMinSize = units::KiB(4);
constexpr std::uint64_t kMaxSize = units::MiB(32);
// Assumed, not measured: about 1% of sizes exceed 8 MiB (see README).
constexpr double kMedianSize = 256.0 * 1024.0;
constexpr double kSigma = 1.5;
constexpr std::uint64_t kIoBlock = units::MiB(1);
constexpr std::uint32_t kRequests = 32768;
// Offered load of the timed run, requests per simulated second. Set once
// from the knee search below (about 70% of the knee on tuning seeds 1-5).
constexpr double kNominalRps = 12000.0;
// SLO of the knee search: read p99 within this limit, no growing backlog.
constexpr double kReadP99LimitMs = 50.0;
// The search stops when its bracket is narrower than this ratio.
constexpr double kKneeResolution = 1.04;
// In-flight requests are sampled this many times across the arrival window.
constexpr std::uint32_t kBacklogSamples = 32;
constexpr std::uint32_t kStageStreamsPerNode = 4;
// The traced run roots one trace at every k-th request.
constexpr std::uint32_t kTraceEvery = 32;
constexpr std::size_t kTraceRing = std::size_t{1} << 21;

struct CorpusFile {
  std::string path;
  std::uint64_t size = 0;
};

struct Request {
  SimTime unit_due = 0;  // due time at 1 request per simulated second
  bool write = false;
  std::uint32_t node = 0;
  std::uint32_t file = 0;  // corpus index (reads)
  std::string path;        // new file (writes)
  std::uint64_t size = 0;
};

// Inverse standard normal CDF (Acklam's rational approximation, relative
// error below 1.2e-9 over (0, 1)).
double InverseNormal(double p) {
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  if (p < kLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - kLow) return -InverseNormal(1.0 - p);
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

// Log-normal size in [lo, hi] at the quantile u in (0, 1).
std::uint64_t LogNormalSize(double u, double median, double sigma,
                            std::uint64_t lo, std::uint64_t hi) {
  const double size = median * std::exp(sigma * InverseNormal(u));
  return static_cast<std::uint64_t>(std::clamp(
      size, static_cast<double>(lo), static_cast<double>(hi)));
}

// Golden-ratio sequence of quantiles: any run of consecutive files — the few
// most popular ones included — gets sizes spread evenly over the size
// distribution.
double Stratified(double offset, std::uint64_t i) {
  const double v = offset + 0.6180339887498949 * static_cast<double>(i + 1);
  return std::clamp(v - std::floor(v), 1e-6, 1.0 - 1e-6);
}

// Samples the number of requests in flight at fixed simulated instants,
// without scheduling anything (a passive clock observer).
class InflightSampler final : public sim::ClockObserver {
 public:
  InflightSampler(sim::Simulation& sim, const std::uint64_t& inflight,
                  SimTime first, SimTime step)
      : sim_(sim), inflight_(inflight), first_(first), step_(step) {
    sim_.AttachClockObserver(this);
  }
  ~InflightSampler() override { sim_.AttachClockObserver(nullptr); }
  InflightSampler(const InflightSampler&) = delete;
  InflightSampler& operator=(const InflightSampler&) = delete;

  void OnClockAdvance(SimTime next) override {
    while (samples_.size() < kBacklogSamples &&
           first_ + step_ * samples_.size() <= next) {
      samples_.push_back(inflight_);
    }
  }

  // Mean in-flight count over the second and the last quarter of the window.
  std::pair<double, double> Quarters() const {
    auto mean = [&](std::size_t from, std::size_t to) {
      double sum = 0.0;
      for (std::size_t i = from; i < to && i < samples_.size(); ++i) {
        sum += static_cast<double>(samples_[i]);
      }
      return to > from ? sum / static_cast<double>(to - from) : 0.0;
    };
    const std::size_t n = kBacklogSamples;
    return {mean(n / 4, n / 2), mean(3 * n / 4, n)};
  }

 private:
  sim::Simulation& sim_;
  const std::uint64_t& inflight_;
  SimTime first_;
  SimTime step_;
  std::vector<std::uint64_t> samples_;
};

// A growing backlog: the last quarter of the window holds clearly more
// requests in flight than the second quarter.
bool Growing(std::pair<double, double> quarters) {
  return quarters.second > 2.0 * quarters.first + 4.0;
}

class ServeZipf final : public Workload {
 public:
  explicit ServeZipf(std::uint64_t seed);

  Rep RunOnce(const RepConfig& config) override {
    return Serve(kNominalRps, config);
  }

  double SloRate(const Rep& first, std::ostream& log) override;

 private:
  struct Probe {
    double read_p99_ms = 0.0;
    bool growing = false;
    bool failed = false;
    bool Pass() const {
      return !failed && !growing && read_p99_ms <= kReadP99LimitMs;
    }
  };

  Rep Serve(double rate, const RepConfig& config);
  Probe Knee(double rate) {
    const Rep rep = Serve(rate, {});
    Probe probe;
    probe.read_p99_ms = rep.sim.read.Quantile(0.99) * 1e-6;
    probe.growing = rep.sim.backlog_growing;
    probe.failed = rep.sim.failed != 0;
    return probe;
  }

  std::vector<CorpusFile> corpus_;  // by popularity rank
  std::vector<Request> requests_;
  std::vector<std::string> dirs_;   // created in set-up, parents first
};

ServeZipf::ServeZipf(std::uint64_t seed) {
  Rng rng(seed ^ 0x7365727665217a69ull);
  dirs_ = {"/corpus", "/upload"};
  for (std::uint32_t d = 0; d < kCorpusDirs; ++d) {
    dirs_.push_back("/corpus/d" + std::to_string(d));
  }
  for (std::uint32_t d = 0; d < kUploadDirs; ++d) {
    dirs_.push_back("/upload/d" + std::to_string(d));
  }

  // The files — corpus file r is the r-th most popular and the k-th write
  // creates upload file k, each sized from its own stratified sequence —
  // are a fixed property of the workload; the seed drives every request
  // draw (arrival time, client node, read or write, Zipf pick). The few
  // hottest files carry a large share of all requests and the stripes of
  // every file land by hash of its path, so re-drawing sizes or paths per
  // seed would make the knee, the tail and the storage skew properties of
  // the seed rather than of the system.
  for (std::uint32_t r = 0; r < kCorpusFiles; ++r) {
    corpus_.push_back({"/corpus/d" + std::to_string(r % kCorpusDirs) + "/f" +
                           std::to_string(r),
                       LogNormalSize(Stratified(0.0, r), kMedianSize, kSigma,
                                     kMinSize, kMaxSize)});
  }

  std::vector<double> cdf(kCorpusFiles);
  double total = 0.0;
  for (std::uint32_t r = 0; r < kCorpusFiles; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;

  double unit_time = 0.0;
  std::uint64_t writes = 0;
  for (std::uint32_t i = 0; i < kRequests; ++i) {
    unit_time += -std::log(1.0 - rng.NextDouble());
    Request req;
    req.unit_due = static_cast<SimTime>(unit_time * 1e9);
    req.node = static_cast<std::uint32_t>(rng.Below(kNodes));
    req.write = rng.NextDouble() < kWriteShare;
    if (req.write) {
      req.path = "/upload/d" + std::to_string(writes % kUploadDirs) + "/w" +
                 std::to_string(writes);
      req.size = LogNormalSize(Stratified(0.5, writes), kMedianSize, kSigma,
                               kMinSize, kMaxSize);
      ++writes;
    } else {
      const double u = rng.NextDouble();
      req.file = static_cast<std::uint32_t>(std::min<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
          kCorpusFiles - 1));
      req.size = corpus_[req.file].size;
    }
    requests_.push_back(std::move(req));
  }
}

sim::Task MakeDirs(fs::Vfs& vfs, const std::vector<std::string>& dirs,
                   SimOutcome& out) {
  for (const auto& dir : dirs) {
    const Status status = co_await vfs.Mkdir(fs::VfsContext{0, 0}, dir);
    if (!status.ok()) out.Fail("mkdir " + dir + ": " + status.ToString());
  }
}

// Set-up staging: `streams` writers spread over all nodes, each writing its
// share of the corpus straight through the file system.
sim::Task StageStream(sim::Simulation& sim, fs::Vfs& vfs,
                      const std::vector<CorpusFile>& corpus,
                      std::uint32_t stream, std::uint32_t streams,
                      SimOutcome& out) {
  const fs::VfsContext ctx{stream % kNodes, stream / kNodes};
  for (std::size_t i = stream; i < corpus.size(); i += streams) {
    sim::Promise<Status> done(sim);
    auto written = done.GetFuture();
    WriteWhole(vfs, ctx, corpus[i].path,
               {corpus[i].size, mtc::FileSeed(corpus[i].path)}, kIoBlock,
               std::move(done));
    const Status status = co_await written;
    if (!status.ok()) {
      out.Fail("stage " + corpus[i].path + ": " + status.ToString());
    }
  }
}

// State of one timed serving run, shared by the generator and requests.
struct ServeState {
  sim::Simulation* sim = nullptr;
  ProbeVfs* vfs = nullptr;
  SimOutcome* out = nullptr;
  trace::Tracer* tracer = nullptr;  // traced run only
  std::vector<trace::TraceId> traces;
  std::uint64_t inflight = 0;
  std::uint64_t completed = 0;
  // Requests whose open or create was not made at their due time.
  std::uint64_t late = 0;
  SimTime last_done = 0;
};

sim::Task ServeOne(ServeState& st, const Request& req,
                   const CorpusFile* file, std::uint32_t index, SimTime due) {
  fs::VfsContext ctx{req.node, index % kProcs};
  if (st.tracer != nullptr && index % kTraceEvery == 0) {
    ctx.trace = st.tracer->StartTrace(
        req.write ? "request:write" : "request:read", "request", req.node);
    st.traces.push_back(ctx.trace.trace_id);
  }
  sim::Promise<Status> done(*st.sim);
  auto finished = done.GetFuture();
  if (req.write) {
    WriteWhole(*st.vfs, ctx, req.path, {req.size, mtc::FileSeed(req.path)},
               kIoBlock, std::move(done));
  } else {
    ReadWhole(*st.vfs, ctx, file->path,
              {file->size, mtc::FileSeed(file->path)}, kIoBlock,
              std::move(done));
  }
  // The latency samples run from the open or create call, so that call
  // must be made at the due time for them to be timed from the due time.
  if (st.vfs->last_open_start() != due) ++st.late;
  const Status status = co_await finished;
  trace::End(ctx.trace);
  if (!status.ok()) {
    st.out->Fail(std::string(req.write ? "write " : "read ") +
                 (req.write ? req.path : file->path) + ": " +
                 status.ToString());
  }
  --st.inflight;
  ++st.completed;
  st.last_done = st.sim->now();
}

// The open-loop generator: every arrival is an event at its due time,
// whether or not earlier requests have finished.
sim::Task Generate(ServeState& st, const std::vector<Request>& requests,
                   const std::vector<CorpusFile>& corpus, SimTime start,
                   double rate) {
  for (std::uint32_t i = 0; i < requests.size(); ++i) {
    const Request& req = requests[i];
    const SimTime due =
        start + static_cast<SimTime>(static_cast<double>(req.unit_due) / rate);
    if (due > st.sim->now()) co_await st.sim->Delay(due - st.sim->now());
    ++st.inflight;
    ServeOne(st, req, req.write ? nullptr : &corpus[req.file], i, due);
  }
}

Rep ServeZipf::Serve(double rate, const RepConfig& config) {
  Rep rep;
  SimOutcome& out = rep.sim;

  const double setup_start = HostCpuNow();
  workloads::TestbedConfig tb;
  tb.nodes = kNodes;
  tb.fabric = workloads::Fabric::kDas4Ipoib;
  tb.memfs.metadata = meta::MetadataMode::kSharded;
  workloads::Testbed bed(workloads::FsKind::kMemFs, tb);
  sim::Simulation& sim = bed.simulation();
  MakeDirs(bed.vfs(), dirs_, out);
  sim.Run();
  const std::uint32_t streams = kNodes * kStageStreamsPerNode;
  for (std::uint32_t s = 0; s < streams; ++s) {
    StageStream(sim, bed.vfs(), corpus_, s, streams, out);
  }
  sim.Run();
  rep.setup_s = HostCpuNow() - setup_start;

  trace::Tracer tracer(sim, trace::TracerConfig{kTraceRing});
  ProbeVfs probe(sim, bed.vfs(), out);
  ServeState st;
  st.sim = &sim;
  st.vfs = &probe;
  st.out = &out;
  if (config.traced) st.tracer = &tracer;
  const SimTime start = sim.now();
  const SimTime window = static_cast<SimTime>(
      static_cast<double>(requests_.back().unit_due) / rate);

  const Counters before = Counters::Take(bed);
  const std::uint64_t allocs_before = HeapAllocs();
  std::pair<double, double> quarters;
  const double run_start = HostCpuNow();
  {
    InflightSampler sampler(sim, st.inflight, start + window / kBacklogSamples,
                            window / kBacklogSamples);
    Generate(st, requests_, corpus_, start, rate);
    sim.Run();
    quarters = sampler.Quarters();
  }
  rep.host_s = HostCpuNow() - run_start;
  rep.allocs = HeapAllocs() - allocs_before;
  const Counters delta = Counters::Take(bed).Minus(before);

  out.digest = sim.EventDigest();
  out.events = delta.events;
  out.makespan_s = units::ToSeconds(st.last_done - start);
  out.attempted = probe.calls();
  out.requests = st.completed;
  if (st.completed != requests_.size() || st.inflight != 0) {
    out.Fail(std::to_string(st.completed) + " of " +
             std::to_string(requests_.size()) + " requests completed");
  }
  if (st.late != 0) {
    out.Fail(std::to_string(st.late) +
             " requests did not start at their due time");
  }
  out.backlog_growing = Growing(quarters);
  out.notes.push_back({"offered rate (1/s)", std::to_string(rate)});
  out.notes.push_back({"arrival window (s)",
                       std::to_string(units::ToSeconds(window))});
  out.notes.push_back(
      {"requests not started at their due time", std::to_string(st.late)});
  out.notes.push_back(
      {"in flight, 2nd/4th quarter mean",
       std::to_string(quarters.first) + " / " +
           std::to_string(quarters.second) +
           (out.backlog_growing ? " (growing backlog)"
                                : " (no growing backlog)")});

  std::uint64_t live = 0;
  for (const auto& f : corpus_) live += f.size;
  std::uint64_t stripes_needed = 0;
  const fs::Striper& striper = bed.memfs()->striper();
  std::vector<std::pair<std::string, std::uint64_t>> written;
  for (const auto& req : requests_) {
    if (req.write) {
      live += req.size;
      written.emplace_back(req.path, req.size);
    } else {
      stripes_needed += striper.StripeCount(req.size);
    }
  }
  FillCommonMetrics(bed, delta, live, stripes_needed, out);

  if (config.traced) {
    rep.paths.Add(tracer, st.traces);
    rep.spans = tracer.spans_started();
    rep.dropped_spans = tracer.dropped_spans();
    FillPathMetrics(rep.paths, out);
    // The namespace the run leaves behind, for the per-shard dentry count.
    std::map<std::string, std::vector<std::string>> children;
    auto add = [&](const std::string& path) {
      children[fs::path::Parent(path)].push_back(fs::path::Basename(path));
    };
    for (const auto& dir : dirs_) add(dir);
    for (const auto& f : corpus_) add(f.path);
    for (const auto& w : written) add(w.first);
    const std::vector<std::pair<std::string, std::vector<std::string>>> dirs(
        children.begin(), children.end());
    out.layer["meta.dentry_skew"] = DentrySkew(bed, dirs, out);
  }

  if (config.verify) VerifySizes(bed, written, kNodes, out);
  return rep;
}

double ServeZipf::SloRate(const Rep& first, std::ostream& log) {
  log << "slo_rate_rps: knee search, read p99 <= " << kReadP99LimitMs
      << " ms and no growing backlog, resolution " << kKneeResolution
      << "x\n";
  auto report = [&](double rate, const Probe& p) {
    log << "  rate " << rate << "/s: read p99 " << p.read_p99_ms << " ms"
        << (p.growing ? ", growing backlog" : "")
        << (p.failed ? ", FAILED ops" : "") << (p.Pass() ? "  pass" : "  miss")
        << "\n";
  };
  Probe nominal;
  nominal.read_p99_ms = first.sim.read.Quantile(0.99) * 1e-6;
  nominal.growing = first.sim.backlog_growing;
  nominal.failed = first.sim.failed != 0;
  report(kNominalRps, nominal);

  double lo = kNominalRps;
  double hi = 2.0 * kNominalRps;
  if (!nominal.Pass()) {
    hi = kNominalRps;
    lo = kNominalRps / 2.0;
    for (int i = 0; i < 4; ++i) {
      const Probe p = Knee(lo);
      report(lo, p);
      if (p.Pass()) break;
      hi = lo;
      lo /= 2.0;
    }
  } else {
    for (int i = 0; i < 4; ++i) {
      const Probe p = Knee(hi);
      report(hi, p);
      if (!p.Pass()) break;
      lo = hi;
      hi *= 2.0;
    }
  }
  while (hi / lo > kKneeResolution) {
    const double mid = std::sqrt(lo * hi);
    const Probe p = Knee(mid);
    report(mid, p);
    (p.Pass() ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace

std::unique_ptr<Workload> MakeServeZipf(std::uint64_t seed) {
  return std::make_unique<ServeZipf>(seed);
}

}  // namespace perfbench
