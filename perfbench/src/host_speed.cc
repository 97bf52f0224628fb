#include "host_speed.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>

#include "harness.h"
#include "stream.h"
#include "trace.h"

namespace perfbench {

namespace {

/// kExecutionPorts: fixed work on inputs that stay in L1/L2, so its time
/// does not depend on what the repository left in the caches.
class PortsKernel {
 public:
  PortsKernel() {
    char key[16];
    for (uint32_t i = 0; i < kKeys; ++i) {
      std::snprintf(key, sizeof(key), "obj/%08u", i * 7919u);
      keys_.emplace_back(key);
      map_.emplace(keys_.back(), i);
    }
  }

  /// Runs the kernel once; host ns.
  int64_t Run() {
    const int64_t t0 = NowNs();
    uint64_t mul[8];
    uint64_t rot[16];
    for (uint64_t k = 0; k < 16; ++k) {
      if (k < 8) mul[k] = k + 1;
      rot[k] = k * 0x1234567 + 1;
    }
    for (uint64_t i = 0; i < kMulSteps; ++i) {
      for (uint64_t k = 0; k < 8; ++k) {
        mul[k] = (mul[k] ^ (mul[k] >> 13)) * 0x9E3779B97F4A7C15ULL + k;
      }
    }
    for (uint64_t i = 0; i < kRotSteps; ++i) {
      for (uint64_t& r : rot) r = ((r << 7) | (r >> 57)) + (r ^ i);
    }
    uint64_t found = 0;
    for (int round = 0; round < kLookupRounds; ++round) {
      for (const std::string& key : keys_) found += map_.find(key)->second;
    }
    for (uint64_t k = 0; k < 16; ++k) found += (k < 8 ? mul[k] : 0) ^ rot[k];
    sink_ += found;
    return NowNs() - t0;
  }

 private:
  static constexpr uint32_t kKeys = 512;
  static constexpr uint64_t kMulSteps = 7500;
  static constexpr uint64_t kRotSteps = 4500;
  static constexpr int kLookupRounds = 3;

  std::vector<std::string> keys_;
  std::unordered_map<std::string, uint32_t> map_;
  uint64_t sink_ = 0;
};

/// kChecksum: byte-wise FNV-1a over a 32 KiB buffer and copies of a
/// 256 KiB one, all L2-resident. Its own FNV loop, not the repository's,
/// so a faster repository checksum does not speed the kernel too.
class ChecksumKernel {
 public:
  ChecksumKernel() : hashed_(32 * 1024), from_(256 * 1024), to_(256 * 1024) {
    Rng rng(0xC0FFEE);
    for (uint8_t& b : hashed_) b = static_cast<uint8_t>(rng.Next());
    for (uint8_t& b : from_) b = static_cast<uint8_t>(rng.Next());
  }

  int64_t Run() {
    const int64_t t0 = NowNs();
    uint64_t h = 0xCBF29CE484222325ULL;
    for (uint8_t b : hashed_) h = (h ^ b) * 0x100000001B3ULL;
    for (int i = 0; i < kCopies; ++i) {
      std::memcpy(to_.data(), from_.data(), from_.size());
      from_[i] = to_[from_.size() - 1 - i];
    }
    sink_ += h;
    return NowNs() - t0;
  }

 private:
  static constexpr int kCopies = 4;

  std::vector<uint8_t> hashed_;
  std::vector<uint8_t> from_;
  std::vector<uint8_t> to_;
  uint64_t sink_ = 0;
};

int64_t RunKernel(HostKernel kernel) {
  if (kernel == HostKernel::kExecutionPorts) {
    static PortsKernel ports;
    return ports.Run();
  }
  static ChecksumKernel checksum;
  return checksum.Run();
}

}  // namespace

HostSpeed::HostSpeed(HostKernel kernel) : kernel_(kernel) {
  // Room for a 600-second run: probing and scaling allocate nothing
  // while replays run, so they leave the heap as an unprobed run would.
  probe_ns_.reserve(600'000'000'000 / kIntervalNs);
  window_.reserve(probe_ns_.capacity());
  Probe();
}

double HostSpeed::nominal_ns() const {
  return kernel_ == HostKernel::kExecutionPorts ? 85000.0 : 110000.0;
}

void HostSpeed::MaybeProbe() {
  if (NowNs() - last_probe_end_ns_ >= kIntervalNs) Probe();
}

void HostSpeed::Probe() {
  probe_ns_.push_back(static_cast<double>(RunKernel(kernel_)));
  last_probe_end_ns_ = NowNs();
}

double HostSpeed::Scale(uint32_t first, uint32_t last) const {
  const size_t begin = first > kWindow ? first - kWindow : 0;
  const size_t end = std::min<size_t>(size_t{last} + kWindow + 2, probe_ns_.size());
  window_.assign(probe_ns_.begin() + begin, probe_ns_.begin() + end);
  std::sort(window_.begin(), window_.end());
  const size_t n = window_.size();
  const double median =
      n % 2 == 1 ? window_[n / 2] : 0.5 * (window_[n / 2 - 1] + window_[n / 2]);
  return nominal_ns() / median;
}

double HostSpeed::MedianProbeNs() const { return Median(probe_ns_); }

}  // namespace perfbench
