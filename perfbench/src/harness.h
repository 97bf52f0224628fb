// Runs one workload stream against one back end through the public
// ObjectRepository API: set-up (construct + bulk load), the measured
// phase with every repository call timed from outside, then the
// end-of-phase reads of each layer's public counters and the
// correctness checks.

#ifndef LOREPO_PERFBENCH_HARNESS_H_
#define LOREPO_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host_speed.h"
#include "stream.h"
#include "trace.h"

namespace perfbench {

enum class Backend { kFs, kDb };

/// "fs" / "db": the metric-name prefix.
const char* BackendPrefix(Backend backend);

/// Median of `values` (mean of the middle two for even counts).
double Median(std::vector<double> values);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One replay of a stream on one back end.
struct BackendResult {
  Backend backend = Backend::kFs;
  /// Host seconds of set-up (construct + bulk load), normalized to the
  /// reference speed (HostSpeed), and as measured.
  double setup_s = 0.0;
  double setup_raw_s = 0.0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Typed errors by status code name.
  std::map<std::string, uint64_t> errors;
  /// Correctness-check failures; any entry fails the run.
  std::vector<std::string> failures;

  /// Host ns of each client op's repository call, in stream order,
  /// normalized to the reference speed (HostSpeed).
  std::vector<double> op_ns;
  /// Host ns of the other repository calls of the phase, normalized:
  /// each scrub pass, then the final drain.
  std::vector<double> other_ns;
  /// The same host times as measured.
  std::vector<double> op_raw_ns;
  std::vector<double> other_raw_ns;
  double scrub_host_s = 0.0;
  double frag_scan_host_s = 0.0;
  double check_host_s = 0.0;

  double sim_mb_s = 0.0;
  double sim_get_p99_ms = 0.0;
  double frags_per_object = 0.0;
  /// Deterministic simulated counters of every layer, in report order.
  std::vector<Metric> sim_layer;
};

/// Client ops per second of time inside repository calls: `op_ns` are
/// the client ops' call times, `other_ns` the other calls of the phase.
double OpsPerSecond(const std::vector<double>& op_ns,
                    const std::vector<double>& other_ns);

/// Host time of one back end over several replays of one stream, with
/// every host time normalized to the reference speed (HostSpeed). Each
/// replay does identical work (the simulated results of every replay
/// must match exactly), so a call's time is taken as the median of its
/// times over the replays: a call that a disturbance hit in one replay
/// reads as in the others. The quantiles are over those per-call
/// medians; the rate is the median of the per-replay rates.
class HostTimes {
 public:
  /// Adds one replay's normalized times.
  void Fold(const BackendResult& replay);
  /// Client ops per second of time inside repository calls (scrub
  /// passes and the final drain included).
  double ops_per_s() const { return Median(ops_per_s_); }
  /// Quantile `q` of the client ops' call times, in microseconds.
  double op_quantile_us(double q) const;

 private:
  std::vector<double> ops_per_s_;
  /// Each replay's client-op call times in ns, in stream order (float:
  /// half the memory, 7 significant digits).
  std::vector<std::vector<float>> op_ns_;
};

/// Runs `stream` once on `backend`: set-up, measured phase, checks.
/// `speed` is probed between repository calls and normalizes every host
/// time. A non-null `tracer` makes this a traced replay: the fs
/// allocator is wrapped in TimedAllocator and spans are recorded around
/// every layer call.
BackendResult RunBackend(Backend backend, const WorkloadSpec& spec,
                         const Stream& stream, uint64_t seed, HostSpeed* speed,
                         Tracer* tracer);

}  // namespace perfbench

#endif  // LOREPO_PERFBENCH_HARNESS_H_
