// lorepo_perfbench: the outside-in get/put benchmark. Runs one workload's
// seeded operation stream against FsRepository and DbRepository and
// prints every metric by name and unit, ending with one JSON line:
//
//   lorepo_perfbench --workload large_aging|small_churn|verified_mixed
//                    [--seed N|held-out] [--seconds N] [--trace 0|1]
//                    [--spans-dir DIR]
//
// --trace 0 (the end-to-end run) reports the end-to-end metrics.
// --trace 1 (the traced run) runs each back end untraced and then traced,
// fails unless their simulated results are identical, and reports the
// per-layer metrics plus the tracing overhead. Exit status: 0 when every
// correctness check passed, 1 when one failed, 2 on a bad command line.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "stream.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Seed reserved for confirming a claimed gain: never use it while
/// tuning a change (seeds 1-10 are the tuning seeds).
constexpr uint64_t kHeldOutSeed = 20070107;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint32_t seconds = 10;
  bool trace = false;
  std::string spans_dir;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: lorepo_perfbench --workload NAME [--seed N|held-out] "
               "[--seconds N] [--trace 0|1] [--spans-dir DIR]\n"
               "workloads:",
               error.c_str());
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// Whole decimal number in [min, max]; anything else is a usage error.
uint64_t ParseUint(const std::string& flag, const std::string& text,
                   uint64_t min, uint64_t max) {
  if (text.empty() || text.size() > 19 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    Usage(flag + " expects a whole number, got '" + text + "'");
  }
  const uint64_t value = std::strtoull(text.c_str(), nullptr, 10);
  if (value < min || value > max) {
    Usage(flag + " must be in [" + std::to_string(min) + ", " +
          std::to_string(max) + "], got " + text);
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + flag);
    }
    if (flag == "--workload") {
      if (FindWorkload(value) == nullptr) Usage("unknown workload '" + value + "'");
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = value == "held-out"
                      ? kHeldOutSeed
                      : ParseUint(flag, value, 0, UINT64_MAX >> 1);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<uint32_t>(ParseUint(flag, value, 1, 600));
    } else if (flag == "--trace") {
      args.trace = ParseUint(flag, value, 0, 1) == 1;
    } else if (flag == "--spans-dir") {
      if (value.empty()) Usage("--spans-dir expects a directory");
      args.spans_dir = value;
    } else {
      Usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

/// Ordered name -> (unit, value) list printed as the "metrics" object.
class Report {
 public:
  void Add(const std::string& name, const std::string& unit, double value) {
    metrics_.push_back(Metric{name, unit, value});
  }
  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("%-44s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string Json() const {
    std::string json = "{";
    char buf[128];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      const double v = std::isfinite(m.value) ? m.value : 0.0;
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    return json + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// Simulated end-to-end figures plus every simulated layer counter:
/// what must repeat exactly across runs at one seed and between the
/// untraced and traced passes.
std::vector<Metric> SimDigest(const BackendResult& r) {
  const std::string p = BackendPrefix(r.backend);
  std::vector<Metric> digest = {
      {p + ".sim_mb_s", "MB/s", r.sim_mb_s},
      {p + ".sim_get_p99_ms", "ms", r.sim_get_p99_ms},
      {p + ".frags_per_object", "count", r.frags_per_object},
  };
  for (const Metric& m : r.sim_layer) digest.push_back({p + "." + m.name, m.unit, m.value});
  return digest;
}

void AddEndToEnd(Report* report, const BackendResult& r, const HostTimes& host) {
  const std::string p = BackendPrefix(r.backend);
  report->Add(p + ".host_ops_per_s", "1/s", host.ops_per_s());
  report->Add(p + ".host_op_p50_us", "us", host.op_quantile_us(0.5));
  report->Add(p + ".host_op_p99_us", "us", host.op_quantile_us(0.99));
  report->Add(p + ".sim_mb_s", "MB/s", r.sim_mb_s);
  report->Add(p + ".sim_get_p99_ms", "ms", r.sim_get_p99_ms);
  report->Add(p + ".frags_per_object", "count", r.frags_per_object);
}

void AddPerLayer(Report* report, const BackendResult& traced,
                 const Tracer& tracer, double trace_overhead) {
  const std::string p = std::string(BackendPrefix(traced.backend)) + ".";
  const auto totals = tracer.Totals();
  auto total = [&](SpanName name) -> const SpanTotals& {
    return totals[static_cast<size_t>(name)];
  };
  if (traced.backend == Backend::kFs) {
    report->Add(p + "alloc.allocate.calls", "count",
                static_cast<double>(total(SpanName::kAllocAllocate).calls));
    report->Add(p + "alloc.allocate.host_s", "s",
                total(SpanName::kAllocAllocate).total_s);
    report->Add(p + "alloc.free.host_s", "s", total(SpanName::kAllocFree).total_s);
    report->Add(p + "alloc.self_s", "s", tracer.LayerSelfSeconds("alloc"));
  }
  const std::pair<SpanName, const char*> calls[] = {
      {SpanName::kGet, "core.get"}, {SpanName::kSafeWrite, "core.safe_write"}};
  for (const auto& [name, label] : calls) {
    const SpanTotals& t = total(name);
    std::vector<double> us;
    us.reserve(t.durations_ns.size());
    for (int64_t ns : t.durations_ns) us.push_back(static_cast<double>(ns) * 1e-3);
    std::sort(us.begin(), us.end());
    auto quantile = [&](double q) {
      return us.empty() ? 0.0
                        : us[std::min(us.size() - 1,
                                      static_cast<size_t>(q * us.size()))];
    };
    report->Add(p + label + ".calls", "count", static_cast<double>(t.calls));
    report->Add(p + label + ".host_s", "s", t.total_s);
    report->Add(p + label + ".p50_us", "us", quantile(0.5));
    report->Add(p + label + ".p99_us", "us", quantile(0.99));
  }
  report->Add(p + "core.self_s", "s", tracer.LayerSelfSeconds("core"));
  report->Add(p + "core.scrub.host_s", "s", traced.scrub_host_s);
  report->Add(p + "core.fragmentation_scan.host_s", "s", traced.frag_scan_host_s);
  report->Add(p + "core.check.host_s", "s", traced.check_host_s);
  for (const Metric& m : traced.sim_layer) report->Add(p + m.name, m.unit, m.value);
  report->Add(p + "bench.harness_s", "s", tracer.LayerSelfSeconds("bench"));
  report->Add(p + "bench.trace_overhead", "ratio", trace_overhead);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  HostSpeed speed(spec.host_kernel);
  const int64_t start_ns = NowNs();
  const Stream stream = Generate(spec, args.seed, args.seconds);
  const double stream_raw_s = static_cast<double>(NowNs() - start_ns) * 1e-9;
  speed.Probe();
  const double stream_s = stream_raw_s * speed.Scale(0, 0);
  std::printf("# workload=%s seed=%llu seconds=%u trace=%d objects=%zu "
              "ops_per_backend=%zu stream_hash=%016llx\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, stream.load_sizes.size(),
              stream.ops.size(), static_cast<unsigned long long>(stream.hash));

  // Each back end replays the stream spec.replays times, fs and db
  // alternating so a slow stretch of the host hits both. Host times are
  // normalized to the reference speed (HostSpeed) and combined over the
  // replays by HostTimes, setup_s is the median, and every replay must
  // reproduce the first one's simulated results exactly. The traced run
  // adds a traced replay after each untraced one.
  constexpr Backend kBackends[] = {Backend::kFs, Backend::kDb};
  struct PerBackend {
    BackendResult first;
    std::vector<double> setup_s;
    std::vector<double> setup_raw_s;
    std::vector<double> raw_ops_per_s;
    HostTimes host;
    std::vector<double> traced_ops_per_s;
    BackendResult best_traced;
    std::unique_ptr<Tracer> best_tracer;
    double best_traced_ops_per_s = 0.0;
  };
  PerBackend per[2];
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  auto account = [&](BackendResult& r, const PerBackend& pb, const char* what) {
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& [code, count] : r.errors) {
      std::printf("# %s %s typed errors %s: %llu of %llu ops\n",
                  BackendPrefix(r.backend), what, code.c_str(),
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(r.attempted));
    }
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
    if (&r == &pb.first) return;
    const std::vector<Metric> a = SimDigest(pb.first);
    const std::vector<Metric> b = SimDigest(r);
    for (size_t i = 0; i < a.size(); ++i) {
      if (i >= b.size() || a[i].value != b[i].value) {
        failures.push_back(std::string(what) + " replay changed simulated result " +
                           a[i].name + ": " + std::to_string(a[i].value) +
                           " vs " +
                           (i < b.size() ? std::to_string(b[i].value) : "missing"));
      }
    }
  };
  for (int replay = 0; replay < spec.replays; ++replay) {
    for (size_t b = 0; b < 2; ++b) {
      PerBackend& pb = per[b];
      BackendResult r =
          RunBackend(kBackends[b], spec, stream, args.seed, &speed, nullptr);
      pb.setup_s.push_back(r.setup_s);
      pb.setup_raw_s.push_back(r.setup_raw_s);
      pb.host.Fold(r);
      pb.raw_ops_per_s.push_back(OpsPerSecond(r.op_raw_ns, r.other_raw_ns));
      if (replay == 0) {
        pb.first = std::move(r);
        account(pb.first, pb, "untraced");
      } else {
        account(r, pb, "untraced");
      }
      if (!args.trace) continue;
      auto tracer = std::make_unique<Tracer>();
      BackendResult t =
          RunBackend(kBackends[b], spec, stream, args.seed, &speed, tracer.get());
      const double rate = OpsPerSecond(t.op_ns, t.other_ns);
      pb.traced_ops_per_s.push_back(rate);
      account(t, pb, "traced");
      if (pb.best_tracer == nullptr || rate > pb.best_traced_ops_per_s) {
        pb.best_traced_ops_per_s = rate;
        pb.best_traced = std::move(t);
        pb.best_tracer = std::move(tracer);
      }
    }
  }

  Report report;
  if (args.trace) {
    for (const PerBackend& pb : per) {
      const double traced_rate = Median(pb.traced_ops_per_s);
      AddPerLayer(&report, pb.best_traced, *pb.best_tracer,
                  traced_rate > 0.0 ? pb.host.ops_per_s() / traced_rate : 0.0);
      if (args.spans_dir.empty()) continue;
      const char* prefix = BackendPrefix(pb.first.backend);
      const std::string path =
          args.spans_dir + "/" + spec.name + "-" + prefix + ".spans.csv";
      if (!pb.best_tracer->WriteCsv(path, prefix)) {
        failures.push_back("cannot write spans to " + path);
      }
    }
  }

  // Lines the determinism self-check compares across runs.
  for (const PerBackend& pb : per) {
    for (const Metric& m : SimDigest(pb.first)) {
      std::printf("# sim %s %.17g\n", m.name.c_str(), m.value);
    }
  }

  // The host figures as measured, before normalization (HostSpeed).
  std::printf("# host speed: median reference kernel %.1f us over %zu probes "
              "(nominal %.1f us)\n",
              speed.MedianProbeNs() * 1e-3, speed.probes(),
              speed.nominal_ns() * 1e-3);
  for (const PerBackend& pb : per) {
    const char* p = BackendPrefix(pb.first.backend);
    std::printf("# raw %s.host_ops_per_s %.1f 1/s, setup %.4f s\n", p,
                Median(pb.raw_ops_per_s), Median(pb.setup_raw_s));
  }

  if (!args.trace) {
    for (const PerBackend& pb : per) AddEndToEnd(&report, pb.first, pb.host);
    report.Add("setup_s", "s",
               stream_s + Median(per[0].setup_s) + Median(per[1].setup_s));
    report.Add("peak_rss_mb", "MB", PeakRssMb());
    report.Add("ok_op_ratio", "ratio",
               attempted == 0 ? 0.0
                              : static_cast<double>(attempted - failed) /
                                    static_cast<double>(attempted));
  }
  report.Print();
  for (const std::string& f : failures) std::printf("# CHECK FAILED: %s\n", f.c_str());
  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), report.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
