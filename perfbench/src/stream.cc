#include "stream.h"

#include <cmath>
#include <cstring>
#include <utility>

#include "util/fnv.h"
#include "util/units.h"

namespace perfbench {

using lor::kGiB;
using lor::kKiB;
using lor::kMiB;

uint64_t WorkloadSpec::OpsFor(uint32_t seconds) const {
  return static_cast<uint64_t>(std::llround(ops_per_second * seconds));
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;

    // The paper's headline regime (Figs 1/2/4/6): 10 MB objects aged by
    // safe writes on the 40 GB volume of Figs 1-4, cold cache, qd 1,
    // pinned handles, timing-only payloads.
    WorkloadSpec large;
    large.name = "large_aging";
    large.volume_bytes = 40 * kGiB;
    large.min_size = large.max_size = 10 * kMiB;
    large.read_fraction = 0.1;
    large.use_handles = true;
    large.ops_per_second = 1700;
    large.replays = 12;
    v.push_back(large);

    // The small-object regime where the database wins: 256 KB objects
    // addressed by name at queue depth 4 (SPTF), cold cache.
    WorkloadSpec small;
    small.name = "small_churn";
    small.volume_bytes = 4 * kGiB;
    small.min_size = small.max_size = 256 * kKiB;
    small.read_fraction = 0.5;
    small.queue_depth = 4;
    small.ops_per_second = 10000;
    small.replays = 9;
    v.push_back(small);

    // Sizes spanning the paper's 256 KB - 1 MB crossover, real payloads,
    // per-block checksums under a low media-fault mix, a 64 MB pool with
    // a hot set that fits in it, and a trickling scrubber.
    WorkloadSpec mixed;
    mixed.name = "verified_mixed";
    mixed.volume_bytes = 512 * kMiB;
    mixed.min_size = 256 * kKiB;
    mixed.max_size = 2 * kMiB;
    mixed.read_fraction = 0.7;
    mixed.hot_read_fraction = 0.8;
    mixed.hot_objects = 24;  // 24 x 2 MB worst case = 48 MB < 64 MB pool
    mixed.cache_bytes = 64 * kMiB;
    mixed.retain_payloads = true;
    mixed.media_faults = true;
    mixed.scrub_every = 100;
    mixed.scrub_max_objects = 4;
    mixed.ops_per_second = 80;
    mixed.replays = 2;
    // Its host time goes to payload copies and per-block checksums.
    mixed.host_kernel = HostKernel::kChecksum;
    v.push_back(mixed);
    return v;
  }();
  return specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

namespace {

/// Deals object sizes from shuffled decks: each run of `deck` draws is
/// `deck` sizes evenly spaced over [min_size, max_size] in an order the
/// seed picks (stratified sampling). Every seed then draws nearly the
/// same mix of sizes, and only their order and placement differ, so the
/// bytes an op moves on average do not depend on the seed. The deck is
/// the hot set's size, so the hot set is one whole deck.
class SizeDealer {
 public:
  SizeDealer(const WorkloadSpec& spec, Rng* rng)
      : spec_(spec),
        rng_(rng),
        deck_(spec.hot_objects > 0 ? spec.hot_objects : 32) {}

  uint64_t Next() {
    if (spec_.min_size == spec_.max_size) return spec_.min_size;
    if (cards_.empty()) {
      const uint64_t steps = (spec_.max_size - spec_.min_size) / kSizeStep + 1;
      for (uint64_t j = 0; j < deck_; ++j) {
        const uint64_t step = (2 * j + 1) * steps / (2 * deck_);
        cards_.push_back(spec_.min_size + step * kSizeStep);
      }
      for (uint64_t j = deck_; j > 1; --j) {
        std::swap(cards_[j - 1], cards_[rng_->Below(j)]);
      }
    }
    const uint64_t size = cards_.back();
    cards_.pop_back();
    return size;
  }

 private:
  const WorkloadSpec& spec_;
  Rng* rng_;
  uint64_t deck_;
  std::vector<uint64_t> cards_;
};

uint64_t Mix(uint64_t hash, uint64_t value) {
  uint8_t bytes[8];
  std::memcpy(bytes, &value, sizeof(bytes));
  return lor::FnvUpdate(hash, bytes);
}

}  // namespace

Stream Generate(const WorkloadSpec& spec, uint64_t seed, uint32_t seconds) {
  // The workload name salts the seed so workloads never share a stream.
  Rng rng(seed ^ lor::Fnv(std::span<const uint8_t>(
                     reinterpret_cast<const uint8_t*>(spec.name.data()),
                     spec.name.size())));
  Stream stream;
  uint64_t hash = lor::kFnvBasis;

  const uint64_t target = static_cast<uint64_t>(
      kLoadOccupancy * static_cast<double>(spec.volume_bytes));
  SizeDealer sizes(spec, &rng);
  uint64_t live = 0;
  while (true) {
    const uint64_t size = sizes.Next();
    if (live + size > target) break;
    live += size;
    stream.load_sizes.push_back(size);
    hash = Mix(hash, size);
  }

  const uint64_t objects = stream.load_sizes.size();
  const uint64_t hot = std::min<uint64_t>(spec.hot_objects, objects);
  const uint64_t n = spec.OpsFor(seconds);
  stream.ops.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Op op;
    if (rng.Unit() < spec.read_fraction) {
      op.kind = OpKind::kGet;
      const bool hot_read = hot > 0 && rng.Unit() < spec.hot_read_fraction;
      op.object = static_cast<uint32_t>(rng.Below(hot_read ? hot : objects));
    } else {
      op.kind = OpKind::kSafeWrite;
      op.object = static_cast<uint32_t>(rng.Below(objects));
      op.size = sizes.Next();
    }
    stream.ops.push_back(op);
    hash = Mix(hash, (static_cast<uint64_t>(op.kind) << 32) | op.object);
    hash = Mix(hash, op.size);
  }
  stream.hash = hash;
  return stream;
}

std::string KeyFor(uint32_t index) {
  std::string key = "obj/00000000";
  for (size_t pos = key.size(); index != 0; index /= 10) {
    key[--pos] = static_cast<char>('0' + index % 10);
  }
  return key;
}

void FillPayload(uint64_t seed, uint32_t object, uint64_t version,
                 std::span<uint8_t> out) {
  Rng rng(seed * 0x2545F4914F6CDD1DULL ^ (uint64_t{object} << 32) ^ version);
  size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const uint64_t word = rng.Next();
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < out.size()) {
    const uint64_t word = rng.Next();
    std::memcpy(out.data() + i, &word, out.size() - i);
  }
}

}  // namespace perfbench
