#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

constexpr const char* kSpanNames[] = {
    "bench.op",       "core.get",   "core.safe_write",
    "core.drain",     "core.scrub", "core.fragmentation_scan",
    "core.check",     "alloc.allocate", "alloc.free",
    "alloc.other",
};
static_assert(std::size(kSpanNames) == static_cast<size_t>(SpanName::kCount));

constexpr SpanName kFirstFolded = SpanName::kAllocAllocate;

}  // namespace

const char* SpanNameString(SpanName name) {
  return kSpanNames[static_cast<size_t>(name)];
}

void Tracer::Begin(SpanName name, uint64_t op_id) {
  Span span;
  span.op_id = op_id;
  span.parent = stack_.empty() ? 0 : stack_.back().index + 1;
  span.name = name;
  span.start_ns = NowNs();
  spans_.push_back(span);
  stack_.push_back(Open{static_cast<uint32_t>(spans_.size() - 1)});
}

void Tracer::End() {
  Span& span = spans_[stack_.back().index];
  span.end_ns = NowNs();
  span.busy_ns = span.end_ns - span.start_ns;
  stack_.pop_back();
}

void Tracer::Fold(SpanName name, int64_t start_ns, int64_t end_ns) {
  if (stack_.empty()) return;
  Open& open = stack_.back();
  int32_t& slot = open.folds[static_cast<size_t>(name) -
                             static_cast<size_t>(kFirstFolded)];
  if (slot < 0) {
    Span span;
    span.op_id = spans_[open.index].op_id;
    span.parent = open.index + 1;
    span.name = name;
    span.start_ns = start_ns;
    span.calls = 0;
    spans_.push_back(span);
    slot = static_cast<int32_t>(spans_.size() - 1);
  }
  Span& span = spans_[slot];
  span.end_ns = end_ns;
  ++span.calls;
  span.busy_ns += end_ns - start_ns;
}

std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)>
Tracer::Totals() const {
  std::array<SpanTotals, static_cast<size_t>(SpanName::kCount)> totals;
  std::vector<int64_t> child_busy(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != 0) child_busy[span.parent - 1] += span.busy_ns;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    SpanTotals& t = totals[static_cast<size_t>(span.name)];
    t.calls += span.calls;
    t.total_s += static_cast<double>(span.busy_ns) * 1e-9;
    t.self_s += static_cast<double>(span.busy_ns - child_busy[i]) * 1e-9;
    if (span.name < kFirstFolded) t.durations_ns.push_back(span.busy_ns);
  }
  return totals;
}

double Tracer::LayerSelfSeconds(const std::string& layer) const {
  const auto totals = Totals();
  double self = 0.0;
  for (size_t i = 0; i < totals.size(); ++i) {
    const std::string name = kSpanNames[i];
    if (name.compare(0, layer.size() + 1, layer + ".") == 0) {
      self += totals[i].self_s;
    }
  }
  return self;
}

bool Tracer::WriteCsv(const std::string& path,
                      const std::string& backend) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "backend,span,parent,op_id,name,start_ns,end_ns,calls,"
                  "busy_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s,%zu,%u,%llu,%s,%lld,%lld,%llu,%lld\n",
                 backend.c_str(), i + 1, s.parent,
                 static_cast<unsigned long long>(s.op_id),
                 SpanNameString(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.calls),
                 static_cast<long long>(s.busy_ns));
  }
  return std::fclose(f) == 0;
}

lor::Status TimedAllocator::Allocate(uint64_t length, uint64_t extend_hint,
                                     lor::alloc::ExtentList* out) {
  const int64_t t0 = NowNs();
  lor::Status s = inner_->Allocate(length, extend_hint, out);
  tracer_->Fold(SpanName::kAllocAllocate, t0, NowNs());
  return s;
}

lor::Status TimedAllocator::Free(const lor::alloc::Extent& extent) {
  const int64_t t0 = NowNs();
  lor::Status s = inner_->Free(extent);
  tracer_->Fold(SpanName::kAllocFree, t0, NowNs());
  return s;
}

void TimedAllocator::Tick() {
  const int64_t t0 = NowNs();
  inner_->Tick();
  tracer_->Fold(SpanName::kAllocOther, t0, NowNs());
}

void TimedAllocator::CommitPending() {
  const int64_t t0 = NowNs();
  inner_->CommitPending();
  tracer_->Fold(SpanName::kAllocOther, t0, NowNs());
}

}  // namespace perfbench
