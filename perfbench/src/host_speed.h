// Host-speed calibration. On a shared host the same code runs up to
// 1.4-1.7x slower for stretches of a fraction of a second to minutes
// (see README.md). A whole run can fall inside one such stretch, and then
// no estimator over that run's own call times can see it. HostSpeed
// times a fixed reference kernel, which never calls repository code,
// every kIntervalNs of host time, and scales each host time by how fast
// the kernel ran around it. A slow stretch slows the kernel and the
// repository alike and largely cancels out; a slower program does not
// slow the kernel and shows in full.

#ifndef LOREPO_PERFBENCH_HOST_SPEED_H_
#define LOREPO_PERFBENCH_HOST_SPEED_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// The reference kernels. Code slows differently in the host's slow
/// stretches depending on what limits it, so each workload is normalized
/// by the kernel whose work resembles its own host time.
enum class HostKernel : uint8_t {
  /// Work limited by the core's execution ports, which a busy sibling
  /// hardware thread shares: multiply and add/rotate chains in
  /// independent lanes, and string-keyed hash-map lookups. Like the
  /// repository's metadata paths (allocators, maps, key resolution).
  kExecutionPorts,
  /// Work limited by latency and copy bandwidth: byte-wise FNV-1a (one
  /// dependent multiply per byte) and memcpy. Like the data plane's
  /// per-block checksums and payload copies.
  kChecksum,
};

class HostSpeed {
 public:
  /// Host time between probes.
  static constexpr int64_t kIntervalNs = 10'000'000;
  /// A host time is scaled by the median of the probes up to kWindow
  /// probes (~0.1 s) before and after it: short enough to follow the
  /// host's fast and slow stretches, long enough that one disturbed
  /// probe does not move the scale.
  static constexpr uint32_t kWindow = 10;

  /// Probes once, opening chunk 0.
  explicit HostSpeed(HostKernel kernel);

  /// The kernel's time on the development host (4-vCPU Xeon VM) outside
  /// slow stretches. Normalized times are host times at that speed.
  double nominal_ns() const;
  /// Probes if kIntervalNs has passed since the last probe.
  void MaybeProbe();
  /// Probes unconditionally: closes the open chunk and opens the next.
  void Probe();
  /// The open chunk: host time measured now lies after probe chunk().
  uint32_t chunk() const { return static_cast<uint32_t>(probe_ns_.size() - 1); }

  /// Factor that turns host time measured in chunks [first, last] into
  /// normalized time: nominal_ns() over the median of the probes taken
  /// so far within kWindow of those chunks.
  double Scale(uint32_t first, uint32_t last) const;
  size_t probes() const { return probe_ns_.size(); }
  /// Median of every probe so far, in ns.
  double MedianProbeNs() const;

 private:
  HostKernel kernel_;
  std::vector<double> probe_ns_;
  /// Scale()'s sort buffer, reserved as large as probe_ns_.
  mutable std::vector<double> window_;
  int64_t last_probe_end_ns_ = 0;
};

}  // namespace perfbench

#endif  // LOREPO_PERFBENCH_HOST_SPEED_H_
