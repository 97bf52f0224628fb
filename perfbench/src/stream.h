// The benchmark's own workload layer: the three workload definitions and
// the seeded operation-stream generator. A stream depends only on
// (workload, seed, seconds), never on a back end or on the clock, so
// the same stream runs against FsRepository and DbRepository and two
// runs at one seed issue identical operations.

#ifndef LOREPO_PERFBENCH_STREAM_H_
#define LOREPO_PERFBENCH_STREAM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "host_speed.h"

namespace perfbench {

/// Every workload bulk-loads each back end to this share of its volume.
inline constexpr double kLoadOccupancy = 0.5;
/// Granularity of drawn object sizes.
inline constexpr uint64_t kSizeStep = 4096;

/// One workload's fixed shape. Every workload bulk-loads to
/// kLoadOccupancy, then runs a measured phase of `OpsFor(seconds)` ops.
struct WorkloadSpec {
  std::string name;
  uint64_t volume_bytes = 0;
  /// Object sizes are spread evenly over [min_size, max_size] in
  /// kSizeStep steps, dealt from shuffled decks (min == max: constant
  /// size).
  uint64_t min_size = 0;
  uint64_t max_size = 0;
  /// Fraction of measured ops that are whole-object Gets; the rest are
  /// SafeWrites (create-or-replace).
  double read_fraction = 0.0;
  /// Fraction of reads aimed at the hot set (the first `hot_objects`
  /// objects); the rest are uniform over every object. The hot set is
  /// one whole deck of sizes, so every seed's hot reads start from the
  /// same mix of sizes.
  double hot_read_fraction = 0.0;
  uint64_t hot_objects = 0;
  /// Issue ops through per-object handles opened once after load (true)
  /// or by name, resolving the key on every call (false).
  bool use_handles = false;
  uint32_t queue_depth = 1;
  /// Buffer pool in front of each data volume (0 = no pool).
  uint64_t cache_bytes = 0;
  /// Real payloads (DataMode::kRetain) checked byte-for-byte on read.
  bool retain_payloads = false;
  /// Attach a MediaFaultModel and arm a low fault mix after the load.
  bool media_faults = false;
  /// A bounded Scrub() pass every `scrub_every` ops (0 = never).
  uint64_t scrub_every = 0;
  uint64_t scrub_max_objects = 0;
  /// Measured ops per replay for each second of --seconds. Fixed per
  /// workload so a run's work never depends on host speed.
  double ops_per_second = 0.0;
  /// Replays of the stream per back end (set-up included); each host
  /// figure is the median over them.
  int replays = 5;
  /// Reference kernel that normalizes host times (HostSpeed): the one
  /// whose work resembles the workload's own host time.
  HostKernel host_kernel = HostKernel::kExecutionPorts;

  uint64_t OpsFor(uint32_t seconds) const;
};

/// The workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& Workloads();
/// Null when `name` names no workload.
const WorkloadSpec* FindWorkload(const std::string& name);

enum class OpKind : uint8_t { kGet, kSafeWrite };

struct Op {
  OpKind kind = OpKind::kGet;
  uint32_t object = 0;
  /// New size (SafeWrite only).
  uint64_t size = 0;
};

/// A whole run's inputs: the bulk-load object sizes (object i gets key
/// KeyFor(i)) and the measured-phase ops.
struct Stream {
  std::vector<uint64_t> load_sizes;
  std::vector<Op> ops;
  /// FNV-1a over every generated field; two streams are equal iff their
  /// hashes are (the determinism self-check compares it across seeds).
  uint64_t hash = 0;
};

Stream Generate(const WorkloadSpec& spec, uint64_t seed, uint32_t seconds);

/// Key of object `index` ("obj/" + 8 digits: every key the same length).
std::string KeyFor(uint32_t index);

/// Fills `out` with the payload of version `version` of object `object`
/// under `seed`. The read check regenerates expected bytes from the
/// same triple instead of keeping copies.
void FillPayload(uint64_t seed, uint32_t object, uint64_t version,
                 std::span<uint8_t> out);

/// splitmix64: the generator behind every random draw in the stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // LOREPO_PERFBENCH_STREAM_H_
