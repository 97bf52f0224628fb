#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "alloc/run_cache_allocator.h"
#include "core/db_repository.h"
#include "core/fragmentation.h"
#include "core/fs_repository.h"
#include "sim/media_fault.h"

namespace perfbench {

namespace core = lor::core;
namespace sim = lor::sim;
using lor::Status;

const char* BackendPrefix(Backend backend) {
  return backend == Backend::kFs ? "fs" : "db";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double OpsPerSecond(const std::vector<double>& op_ns,
                    const std::vector<double>& other_ns) {
  double total_ns = 0.0;
  for (double ns : op_ns) total_ns += ns;
  for (double ns : other_ns) total_ns += ns;
  return total_ns > 0.0 ? static_cast<double>(op_ns.size()) / (total_ns * 1e-9)
                        : 0.0;
}

void HostTimes::Fold(const BackendResult& replay) {
  if (replay.op_ns.empty()) return;
  ops_per_s_.push_back(OpsPerSecond(replay.op_ns, replay.other_ns));
  op_ns_.emplace_back(replay.op_ns.begin(), replay.op_ns.end());
}

double HostTimes::op_quantile_us(double q) const {
  if (op_ns_.empty()) return 0.0;
  const size_t calls = op_ns_.front().size();
  std::vector<double> per_call(calls);
  std::vector<double> replays(op_ns_.size());
  for (size_t i = 0; i < calls; ++i) {
    for (size_t r = 0; r < op_ns_.size(); ++r) replays[r] = op_ns_[r][i];
    std::sort(replays.begin(), replays.end());
    const size_t n = replays.size();
    per_call[i] = n % 2 == 1 ? replays[n / 2]
                             : 0.5 * (replays[n / 2 - 1] + replays[n / 2]);
  }
  const size_t rank =
      std::min(calls - 1, static_cast<size_t>(q * static_cast<double>(calls)));
  std::nth_element(per_call.begin(), per_call.begin() + rank, per_call.end());
  return per_call[rank] * 1e-3;
}

namespace {

/// One repository plus the harness's own books on it.
struct Instance {
  // Declared before `repo` so the device's raw pointer to it stays
  // valid until the repository is gone.
  std::unique_ptr<sim::MediaFaultModel> media;
  std::unique_ptr<core::ObjectRepository> repo;
  core::FsRepository* fs = nullptr;
  core::DbRepository* db = nullptr;
  std::vector<core::ObjectHandle> handles;
  std::vector<std::string> keys;
  std::vector<uint64_t> sizes;
  std::vector<uint64_t> versions;
};

/// The low fault mix armed after the load: transient latent sector
/// errors and slow regions. No persistent errors or at-rest rot.
sim::MediaFaultSpec LowFaultMix(uint64_t seed) {
  sim::MediaFaultSpec spec;
  spec.seed = seed + 1;
  spec.lse_rate = 0.01;
  spec.transient_fraction = 1.0;
  spec.transient_failures = 1;
  spec.degraded_rate = 0.02;
  spec.degraded_multiplier = 1.5;
  return spec;
}

/// Read attempts that recover any read of an object of `max_size` bytes
/// under LowFaultMix. A store retries a failed read whole, and each
/// attempt clears the first uncleared transient region it meets, so a
/// read spanning k faulty regions needs k + 1 attempts; the default
/// budget (3) would fail reads that span three or more.
uint32_t RecoveringAttempts(uint64_t max_size) {
  const uint64_t region = sim::MediaFaultSpec{}.region_bytes;
  return static_cast<uint32_t>(max_size / region + 2);
}

std::unique_ptr<Instance> Build(Backend backend, const WorkloadSpec& spec,
                                Tracer* tracer) {
  auto inst = std::make_unique<Instance>();
  const uint32_t attempts = RecoveringAttempts(spec.max_size);
  const sim::DataMode mode = spec.retain_payloads
                                 ? sim::DataMode::kRetain
                                 : sim::DataMode::kMetadataOnly;
  sim::BlockDevice* data_device = nullptr;
  if (backend == Backend::kFs) {
    core::FsRepositoryConfig config;
    config.volume_bytes = spec.volume_bytes;
    config.data_mode = mode;
    config.cache.capacity_bytes = spec.cache_bytes;
    if (spec.media_faults) config.store.media_retry.max_attempts = attempts;
    std::unique_ptr<lor::alloc::ExtentAllocator> allocator;
    if (tracer != nullptr) {
      // FileStore's default allocator, built the same way FileStore
      // builds it, then wrapped.
      const uint64_t clusters = spec.volume_bytes / config.store.cluster_bytes;
      const uint64_t mft = std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(clusters) *
                                   config.store.mft_zone_fraction));
      allocator = std::make_unique<TimedAllocator>(
          std::make_unique<lor::alloc::RunCacheAllocator>(
              clusters, config.store.alloc, mft),
          tracer);
    }
    auto fs = std::make_unique<core::FsRepository>(config, std::move(allocator));
    inst->fs = fs.get();
    data_device = fs->device();
    inst->repo = std::move(fs);
  } else {
    core::DbRepositoryConfig config;
    config.volume_bytes = spec.volume_bytes;
    config.data_mode = mode;
    config.cache.capacity_bytes = spec.cache_bytes;
    if (spec.media_faults) config.store.media_retry.max_attempts = attempts;
    auto db = std::make_unique<core::DbRepository>(config);
    inst->db = db.get();
    data_device = db->data_device();
    inst->repo = std::move(db);
  }
  if (spec.media_faults) {
    inst->media = std::make_unique<sim::MediaFaultModel>();
    data_device->AttachMediaFaults(inst->media.get());
  }
  return inst;
}

Status BulkLoad(Instance* inst, const WorkloadSpec& spec, const Stream& stream,
                uint64_t seed, HostSpeed* speed) {
  const size_t n = stream.load_sizes.size();
  inst->keys.reserve(n);
  inst->sizes = stream.load_sizes;
  inst->versions.assign(n, 1);
  std::vector<uint8_t> payload;
  for (size_t i = 0; i < n; ++i) {
    inst->keys.push_back(KeyFor(static_cast<uint32_t>(i)));
    const std::string& key = inst->keys.back();
    const uint64_t size = stream.load_sizes[i];
    if (spec.use_handles) {
      auto handle = inst->repo->OpenForWrite(key);
      if (!handle.ok()) return handle.status();
      LOR_RETURN_IF_ERROR(inst->repo->SafeWrite(handle.value(), size));
      inst->handles.push_back(std::move(handle).value());
    } else if (spec.retain_payloads) {
      payload.resize(size);
      FillPayload(seed, static_cast<uint32_t>(i), 1, payload);
      LOR_RETURN_IF_ERROR(inst->repo->Put(key, size, payload));
    } else {
      LOR_RETURN_IF_ERROR(inst->repo->Put(key, size));
    }
    speed->MaybeProbe();
  }
  return inst->repo->DrainIo();
}

void Add(std::vector<Metric>* out, std::string name, std::string unit,
         double value) {
  out->push_back(Metric{std::move(name), std::move(unit), value});
}

void AddDeviceMetrics(std::vector<Metric>* out, const std::string& prefix,
                      const sim::IoStats& d) {
  Add(out, prefix + ".requests", "count", static_cast<double>(d.reads + d.writes));
  Add(out, prefix + ".seeks", "count", static_cast<double>(d.seeks));
  Add(out, prefix + ".sequential_hits", "count",
      static_cast<double>(d.sequential_hits));
  Add(out, prefix + ".seek_s", "s", d.seek_time_s);
  Add(out, prefix + ".rotation_s", "s", d.rotational_time_s);
  Add(out, prefix + ".transfer_s", "s", d.transfer_time_s);
  Add(out, prefix + ".busy_s", "s", d.busy_time_s);
  Add(out, prefix + ".queue_wait_s", "s", d.queue_wait_s);
  Add(out, prefix + ".degraded_s", "s", d.degraded_time_s);
}

sim::BufferPoolStats operator-(const sim::BufferPoolStats& a,
                               const sim::BufferPoolStats& b) {
  sim::BufferPoolStats d;
  d.hits = a.hits - b.hits;
  d.misses = a.misses - b.misses;
  d.evictions = a.evictions - b.evictions;
  d.writebacks = a.writebacks - b.writebacks;
  d.fill_bytes = a.fill_bytes - b.fill_bytes;
  return d;
}

/// Counter snapshot of every layer, taken at both ends of the phase.
struct Snapshot {
  sim::LatencyRecorder latency;
  sim::IoStats device;
  sim::IoStats log_device;
  sim::BufferPoolStats cache;
  lor::fs::FileStoreStats fs_store;
  lor::db::BlobStoreStats db_store;

  static Snapshot Take(const Instance& inst) {
    Snapshot s;
    s.latency = *inst.repo->latency_recorder();
    s.device = inst.repo->device_stats();
    s.cache = inst.repo->cache_stats();
    if (inst.fs != nullptr) s.fs_store = inst.fs->store()->stats();
    if (inst.db != nullptr) {
      s.db_store = inst.db->blob_store()->stats();
      if (inst.db->log_device() != nullptr) {
        s.log_device = inst.db->log_device()->stats();
      }
    }
    return s;
  }
};

double Ms(double seconds) { return seconds * 1e3; }

/// Quantile `q` of `h`, interpolated linearly inside its bucket.
/// LatencyHistogram::Quantile answers with a bucket midpoint, a step of
/// ~4% that would make a p99 move in jumps; the rank of each sample's
/// bucket is recovered by probing Quantile itself.
double InterpolatedQuantile(const lor::LatencyHistogram& h, double q) {
  const uint64_t n = h.count();
  if (n == 0) return 0.0;
  const auto bucket_of_rank = [&](uint64_t rank) {  // rank in [1, n]
    const double probe = (static_cast<double>(rank) - 0.5) / static_cast<double>(n);
    return lor::LatencyHistogram::BucketIndex(h.Quantile(probe));
  };
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  const size_t bucket = bucket_of_rank(rank);
  // First and last rank whose sample lies in `bucket`.
  uint64_t lo = 1, hi = rank;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_of_rank(mid) < bucket) lo = mid + 1; else hi = mid;
  }
  const uint64_t first = lo;
  lo = rank;
  hi = n;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (bucket_of_rank(mid) > bucket) hi = mid - 1; else lo = mid;
  }
  const uint64_t last = lo;
  const double lower = std::max(lor::LatencyHistogram::BucketLowerBound(bucket), h.min());
  const double upper = std::min(lor::LatencyHistogram::BucketUpperBound(bucket), h.max());
  if (upper <= lower) return lower;
  const double within = (static_cast<double>(rank - first) + 0.5) /
                        static_cast<double>(last - first + 1);
  return lower + within * (upper - lower);
}

}  // namespace

BackendResult RunBackend(Backend backend, const WorkloadSpec& spec,
                         const Stream& stream, uint64_t seed, HostSpeed* speed,
                         Tracer* tracer) {
  BackendResult result;
  result.backend = backend;
  auto fail = [&result](std::string what) {
    result.failures.push_back(std::string(BackendPrefix(result.backend)) +
                              ": " + std::move(what));
  };

  // -- Set-up: construct and bulk-load ---------------------------------
  const uint32_t setup_chunk = speed->chunk();
  const int64_t setup_t0 = NowNs();
  std::unique_ptr<Instance> inst = Build(backend, spec, tracer);
  const Status loaded = BulkLoad(inst.get(), spec, stream, seed, speed);
  result.setup_raw_s = static_cast<double>(NowNs() - setup_t0) * 1e-9;
  result.setup_s =
      result.setup_raw_s * speed->Scale(setup_chunk, speed->chunk());
  if (!loaded.ok()) {
    fail("bulk load: " + loaded.ToString());
    return result;
  }
  core::ObjectRepository* repo = inst->repo.get();

  // -- Measured phase ----------------------------------------------------
  const Snapshot before = Snapshot::Take(*inst);
  if (inst->media != nullptr) inst->media->Arm(LowFaultMix(seed));
  if (spec.queue_depth > 1) {
    const Status s = repo->SetQueueDepth(spec.queue_depth, sim::SchedPolicy::kSptf);
    if (!s.ok()) {
      fail("set queue depth: " + s.ToString());
      return result;
    }
  }
  const double sim_t0 = repo->now();

  std::vector<uint8_t> payload;
  std::vector<uint8_t> expected;
  std::vector<uint8_t> read_buf;
  std::vector<uint8_t>* out = spec.retain_payloads ? &read_buf : nullptr;
  uint64_t payload_bytes = 0;
  core::ScrubOptions scrub_options;
  scrub_options.max_objects = spec.scrub_max_objects;
  core::ScrubReport scrub_total;
  // Chunk of every timed call (see HostSpeed), for normalizing at the end.
  std::vector<uint32_t> op_chunk;
  std::vector<uint32_t> other_chunk;
  op_chunk.reserve(stream.ops.size());
  result.op_raw_ns.reserve(stream.ops.size());

  for (size_t i = 0; i < stream.ops.size(); ++i) {
    const Op& op = stream.ops[i];
    ScopedSpan op_span(tracer, SpanName::kOp, i);
    Status s;
    int64_t t0 = 0;
    int64_t t1 = 0;
    if (op.kind == OpKind::kSafeWrite) {
      const uint64_t version = inst->versions[op.object] + 1;
      std::span<const uint8_t> data;
      if (spec.retain_payloads) {
        payload.resize(op.size);
        FillPayload(seed, op.object, version, payload);
        data = payload;
      }
      ScopedSpan span(tracer, SpanName::kSafeWrite, i);
      t0 = NowNs();
      s = spec.use_handles
              ? repo->SafeWrite(inst->handles[op.object], op.size, data)
              : repo->SafeWrite(inst->keys[op.object], op.size, data);
      t1 = NowNs();
      if (s.ok()) {
        inst->versions[op.object] = version;
        inst->sizes[op.object] = op.size;
        payload_bytes += op.size;
      }
    } else {
      {
        ScopedSpan span(tracer, SpanName::kGet, i);
        t0 = NowNs();
        s = spec.use_handles ? repo->Get(inst->handles[op.object], out)
                             : repo->Get(inst->keys[op.object], out);
        t1 = NowNs();
      }
      if (s.ok()) {
        const uint64_t size = inst->sizes[op.object];
        payload_bytes += size;
        if (out != nullptr) {
          expected.resize(size);
          FillPayload(seed, op.object, inst->versions[op.object], expected);
          if (read_buf != expected) {
            fail("Get " + inst->keys[op.object] + " (op " + std::to_string(i) +
                 ") returned bytes that differ from the acknowledged version");
          }
        }
      }
    }
    ++result.attempted;
    op_chunk.push_back(speed->chunk());
    result.op_raw_ns.push_back(static_cast<double>(t1 - t0));
    if (!s.ok()) {
      ++result.failed;
      ++result.errors[std::string(lor::StatusCodeName(s.code()))];
    }

    if (spec.scrub_every != 0 && (i + 1) % spec.scrub_every == 0) {
      ScopedSpan span(tracer, SpanName::kScrub, i);
      const int64_t st0 = NowNs();
      auto report = repo->Scrub(scrub_options);
      const int64_t st1 = NowNs();
      other_chunk.push_back(speed->chunk());
      result.other_raw_ns.push_back(static_cast<double>(st1 - st0));
      result.scrub_host_s += static_cast<double>(st1 - st0) * 1e-9;
      if (!report.ok()) {
        fail("scrub: " + report.status().ToString());
      } else {
        scrub_total.objects_scanned += report->objects_scanned;
        scrub_total.repaired += report->repaired;
        scrub_total.unrecoverable += report->unrecoverable;
      }
    }
    speed->MaybeProbe();
  }
  {
    ScopedSpan span(tracer, SpanName::kDrain, stream.ops.size());
    const int64_t t0 = NowNs();
    Status s = repo->DrainIo();
    if (s.ok()) s = repo->SetQueueDepth(1);
    other_chunk.push_back(speed->chunk());
    result.other_raw_ns.push_back(static_cast<double>(NowNs() - t0));
    if (!s.ok()) fail("drain: " + s.ToString());
  }
  speed->Probe();
  auto normalize = [&](const std::vector<double>& raw,
                       const std::vector<uint32_t>& chunks,
                       std::vector<double>* out) {
    double scale = 1.0;
    for (size_t i = 0; i < raw.size(); ++i) {
      if (i == 0 || chunks[i] != chunks[i - 1]) {
        scale = speed->Scale(chunks[i], chunks[i]);
      }
      out->push_back(raw[i] * scale);
    }
  };
  normalize(result.op_raw_ns, op_chunk, &result.op_ns);
  normalize(result.other_raw_ns, other_chunk, &result.other_ns);
  const double sim_seconds = repo->now() - sim_t0;
  const Snapshot after = Snapshot::Take(*inst);

  // -- Layer counters over the phase ---------------------------------------
  const sim::LatencyRecorder latency = after.latency - before.latency;
  const sim::IoStats device = after.device - before.device;
  const sim::BufferPoolStats cache = after.cache - before.cache;
  result.sim_mb_s = sim_seconds > 0.0
                        ? static_cast<double>(payload_bytes) / 1e6 / sim_seconds
                        : 0.0;
  result.sim_get_p99_ms =
      Ms(InterpolatedQuantile(latency.histogram(sim::OpClass::kGet), 0.99));

  core::FragmentationReport frags;
  {
    ScopedSpan span(tracer, SpanName::kFragScan, stream.ops.size());
    const int64_t t0 = NowNs();
    frags = core::AnalyzeFragmentation(*repo);
    result.frag_scan_host_s = static_cast<double>(NowNs() - t0) * 1e-9;
  }
  result.frags_per_object = frags.fragments_per_object;

  std::vector<Metric>& m = result.sim_layer;
  Add(&m, "sim.elapsed_s", "s", sim_seconds);
  if (inst->fs != nullptr) {
    const auto& a = after.fs_store;
    const auto& b = before.fs_store;
    Add(&m, "store.appends", "count", static_cast<double>(a.appends - b.appends));
    Add(&m, "store.creates", "count", static_cast<double>(a.creates - b.creates));
    Add(&m, "store.renames", "count", static_cast<double>(a.renames - b.renames));
    Add(&m, "alloc.free_runs", "count",
        static_cast<double>(inst->fs->store()->allocator()->FreeStats().run_count));
  } else {
    const auto& a = after.db_store;
    const auto& b = before.db_store;
    Add(&m, "store.replaces", "count",
        static_cast<double>(a.replaces - b.replaces));
    Add(&m, "store.log_records", "count",
        static_cast<double>(a.log_records - b.log_records));
    Add(&m, "store.log_bytes", "B", static_cast<double>(a.log_bytes - b.log_bytes));
    const sim::IoStats log = after.log_device - before.log_device;
    Add(&m, "sim.log_device.writes", "count", static_cast<double>(log.writes));
    Add(&m, "sim.log_device.busy_s", "s", log.busy_time_s);
  }
  AddDeviceMetrics(&m, "sim.device", device);
  const lor::LatencyHistogram writes = latency.writes();
  const lor::LatencyHistogram& gets = latency.histogram(sim::OpClass::kGet);
  Add(&m, "sim.latency.get_p50_ms", "ms", Ms(InterpolatedQuantile(gets, 0.5)));
  Add(&m, "sim.latency.get_p99_ms", "ms", Ms(InterpolatedQuantile(gets, 0.99)));
  Add(&m, "sim.latency.write_p50_ms", "ms", Ms(InterpolatedQuantile(writes, 0.5)));
  Add(&m, "sim.latency.write_p99_ms", "ms", Ms(InterpolatedQuantile(writes, 0.99)));
  Add(&m, "sim.buffer_pool.hits", "count", static_cast<double>(cache.hits));
  Add(&m, "sim.buffer_pool.misses", "count", static_cast<double>(cache.misses));
  Add(&m, "sim.buffer_pool.hit_rate", "ratio", cache.hit_rate());
  Add(&m, "sim.buffer_pool.evictions", "count",
      static_cast<double>(cache.evictions));
  Add(&m, "sim.buffer_pool.writebacks", "count",
      static_cast<double>(cache.writebacks));
  Add(&m, "sim.buffer_pool.fill_bytes", "B", static_cast<double>(cache.fill_bytes));
  Add(&m, "core.scrub.objects", "count",
      static_cast<double>(scrub_total.objects_scanned));
  Add(&m, "core.scrub.repaired", "count", static_cast<double>(scrub_total.repaired));
  Add(&m, "core.scrub.unrecoverable", "count",
      static_cast<double>(scrub_total.unrecoverable));
  const sim::MediaFaultStats media =
      inst->media != nullptr ? inst->media->stats() : sim::MediaFaultStats{};
  Add(&m, "sim.media.read_errors", "count", static_cast<double>(media.read_errors));
  Add(&m, "sim.media.transient_clears", "count",
      static_cast<double>(media.transient_clears));
  Add(&m, "sim.media.healed_regions", "count",
      static_cast<double>(media.healed_regions));

  // -- Correctness checks --------------------------------------------------
  if (inst->media != nullptr) inst->media->set_suspended(true);
  uint64_t quarantined = 0;
  {
    ScopedSpan span(tracer, SpanName::kCheck, stream.ops.size());
    const int64_t t0 = NowNs();
    const Status consistency = repo->CheckConsistency();
    if (!consistency.ok()) fail("CheckConsistency: " + consistency.ToString());
    auto fsck = repo->Fsck();
    result.check_host_s = static_cast<double>(NowNs() - t0) * 1e-9;
    if (!fsck.ok()) {
      fail("Fsck could not run: " + fsck.status().ToString());
    } else {
      quarantined = fsck->quarantined_units;
      for (const core::FsckIssue& issue : fsck->issues) {
        fail("Fsck issue: " + issue.detail);
      }
    }
  }
  Add(&m, "sim.media.quarantined_units", "count", static_cast<double>(quarantined));

  uint64_t books_bytes = 0;
  for (uint64_t size : inst->sizes) books_bytes += size;
  if (repo->object_count() != inst->sizes.size()) {
    fail("object_count " + std::to_string(repo->object_count()) +
         " != harness books " + std::to_string(inst->sizes.size()));
  }
  if (repo->live_bytes() != books_bytes) {
    fail("live_bytes " + std::to_string(repo->live_bytes()) +
         " != harness books " + std::to_string(books_bytes));
  }
  uint64_t size_mismatches = 0;
  repo->VisitObjects([&](const std::string& key, const lor::alloc::ExtentList&,
                         uint64_t size_bytes) {
    const uint64_t index = std::strtoull(key.c_str() + 4, nullptr, 10);
    if (index >= inst->sizes.size() || inst->keys[index] != key ||
        inst->sizes[index] != size_bytes) {
      ++size_mismatches;
    }
  });
  if (size_mismatches != 0) {
    fail(std::to_string(size_mismatches) +
         " objects differ from the harness books in key or size");
  }
  return result;
}

}  // namespace perfbench
