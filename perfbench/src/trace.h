// Outside-in tracing for the traced run: spans recorded in memory around
// every call the benchmark makes into a layer, written out at exit, and
// the allocator timing decorator that times the `alloc` layer from
// outside FileStore. Of this file only NowNs runs in an untraced replay.

#ifndef LOREPO_PERFBENCH_TRACE_H_
#define LOREPO_PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every span name the benchmark records. The prefix before the first
/// '.' is the layer the span's self time is charged to.
enum class SpanName : uint8_t {
  kOp,             ///< bench.op: one client op, harness work included.
  kGet,            ///< core.get
  kSafeWrite,      ///< core.safe_write
  kDrain,          ///< core.drain: end-of-phase DrainIo.
  kScrub,          ///< core.scrub
  kFragScan,       ///< core.fragmentation_scan
  kCheck,          ///< core.check: CheckConsistency + Fsck.
  kAllocAllocate,  ///< alloc.allocate (folded per parent span)
  kAllocFree,      ///< alloc.free (folded per parent span)
  kAllocOther,     ///< alloc.other: Tick/CommitPending (folded)
  kCount,
};

const char* SpanNameString(SpanName name);

/// One recorded span. Allocator calls are too frequent (hundreds per
/// 10 MB safe write) to keep one span each, so all calls of one kind
/// under one parent fold into a single span: start of the first call,
/// end of the last, `calls` of them, `busy_ns` of summed call time.
struct Span {
  uint64_t op_id = 0;
  uint32_t parent = 0;  ///< Index + 1 of the parent span; 0 = root.
  SpanName name = SpanName::kOp;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t calls = 1;
  int64_t busy_ns = 0;  ///< end - start for ordinary spans.
};

/// Host-time totals for one span name.
struct SpanTotals {
  uint64_t calls = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  /// Per-span durations in ns (ordinary spans only), for percentiles.
  std::vector<int64_t> durations_ns;
};

class Tracer {
 public:
  /// Opens a span as a child of the innermost open span.
  void Begin(SpanName name, uint64_t op_id);
  /// Closes the innermost open span.
  void End();
  /// Folds one leaf call into the innermost open span's aggregate for
  /// `name`. Calls made while no span is open (set-up) are not traced.
  void Fold(SpanName name, int64_t start_ns, int64_t end_ns);

  /// Totals per span name; self time = duration minus the busy time of
  /// direct children.
  std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)> Totals() const;
  /// Self time summed per layer prefix ("bench", "core", "alloc").
  double LayerSelfSeconds(const std::string& layer) const;
  /// Writes one CSV line per span (header first).
  bool WriteCsv(const std::string& path, const std::string& backend) const;

 private:
  struct Open {
    uint32_t index = 0;
    std::array<int32_t, 3> folds{-1, -1, -1};
  };
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, uint64_t op_id) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, op_id);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

/// ExtentAllocator decorator: forwards every call to `inner` and folds
/// the call's host time into the tracer. Placement is the inner
/// allocator's, so the simulated results are exactly the undecorated
/// run's (the traced run checks this).
class TimedAllocator final : public lor::alloc::ExtentAllocator {
 public:
  TimedAllocator(std::unique_ptr<lor::alloc::ExtentAllocator> inner,
                 Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  lor::Status Allocate(uint64_t length, uint64_t extend_hint,
                       lor::alloc::ExtentList* out) override;
  lor::Status Free(const lor::alloc::Extent& extent) override;
  void Tick() override;
  void CommitPending() override;
  uint64_t free_clusters() const override { return inner_->free_clusters(); }
  uint64_t total_unused_clusters() const override {
    return inner_->total_unused_clusters();
  }
  lor::alloc::FreeSpaceStats FreeStats() const override {
    return inner_->FreeStats();
  }
  lor::alloc::FreeSpaceMap* free_map() override { return inner_->free_map(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<lor::alloc::ExtentAllocator> inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // LOREPO_PERFBENCH_TRACE_H_
