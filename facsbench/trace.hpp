#pragma once
/// \file trace.hpp
/// Tracing from outside the program: spans recorded around the calls the
/// benchmark makes into the simulator's public layers, and a decorator
/// that times the whole AdmissionController protocol. Nothing here reaches
/// into src/; the engine only ever sees a ControllerFactory.
///
/// Spans live in memory, one buffer per thread (precompute() runs on shard
/// workers and decide() on commit lanes, so a shared buffer would need a
/// lock on the hot path), and are drained by the main thread between
/// iterations and written out when the run ends.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cellular/admission.hpp"
#include "cellular/policy_registry.hpp"

namespace facsbench {

enum class SpanKind : std::uint8_t {
  Iteration,   ///< One closed-loop iteration of a workload.
  Run,         ///< The runSimulation / serveSimulation / runSweep call.
  Factory,     ///< A ControllerFactory call (controller construction).
  Decide,
  Precompute,
  Admitted,
  Released,
  Rejected,
  Partition,   ///< onPartitionChanged().
  Barrier,     ///< onCommitBarrier().
  WindowWrite, ///< One JSONL window record written by serveSimulation.
};

[[nodiscard]] std::string_view spanName(SpanKind kind) noexcept;

/// `call` of a span with no call id: precompute() sees only the user
/// snapshot, not the CallRequest.
inline constexpr std::uint64_t kNoCall = ~std::uint64_t{0};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  /// CallRequest::call for decide/onAdmitted/onReleased/onRejected; the
  /// iteration index for iteration, run and window spans.
  std::uint64_t call = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
  SpanKind kind = SpanKind::Iteration;
  std::uint8_t policy = 0;  ///< Index into SpanLog::policies().
  bool accepted = false;    ///< Decide spans: the decision's accept bit.
};

/// Process-wide span store.
class SpanLog {
 public:
  [[nodiscard]] static SpanLog& instance();

  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Unique across threads (thread index in the high bits).
  [[nodiscard]] std::uint64_t newId();
  /// Appends to the calling thread's buffer and stamps its thread index.
  void record(Span span);

  /// The span and call id that spans without a caller of their own (the
  /// policy calls the engine makes) hang under. Set by the main thread
  /// before it starts the engine, which then creates its workers.
  void setScope(std::uint64_t parent, std::uint64_t call) noexcept;
  [[nodiscard]] std::uint64_t scopeParent() const noexcept {
    return scope_parent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t scopeCall() const noexcept {
    return scope_call_.load(std::memory_order_relaxed);
  }

  /// Index of a controller name in policies(), added on first sight.
  [[nodiscard]] std::uint8_t policyIndex(std::string_view name);
  [[nodiscard]] std::vector<std::string> policies() const;

  /// Moves every buffered span out. Call only while no traced code runs.
  [[nodiscard]] std::vector<Span> drain();

 private:
  SpanLog() = default;

  struct Buffer {
    std::uint32_t thread = 0;
    std::uint64_t next_id = 0;
    std::vector<Span> spans;
  };
  Buffer& local();

  mutable std::mutex mu_;
  // Guarded by mu_; a Buffer's spans are written only by its own thread.
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::string> policies_;  // Guarded by mu_.
  std::atomic<std::uint64_t> scope_parent_{0};
  std::atomic<std::uint64_t> scope_call_{0};
};

/// Records one span over its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, std::uint64_t call, std::uint64_t parent,
             std::uint8_t policy = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  void setAccepted(bool accepted) noexcept { span_.accepted = accepted; }

 private:
  Span span_;
};

/// Wall-clock stamps of every controller construction, in call order. On
/// paper-sweep each construction starts one run of the sweep, so the gaps
/// between stamps are the sweep's per-run latencies.
class FactoryStamps {
 public:
  void stamp();
  [[nodiscard]] std::vector<std::int64_t> take();

 private:
  std::mutex mu_;
  std::vector<std::int64_t> stamps_;  // Guarded by mu_.
};

/// Wraps \p inner. With \p traced, every controller it builds is wrapped
/// in a TracedController and each construction records a Factory span;
/// without, the controllers are the inner ones untouched. \p stamps, when
/// set, must outlive every call of the returned factory.
[[nodiscard]] facs::cellular::ControllerFactory instrumentFactory(
    facs::cellular::ControllerFactory inner, bool traced,
    FactoryStamps* stamps);

/// Decorator that forwards the whole controller protocol, timing each
/// call. It must forward every virtual, commitScope() above all: a
/// decorator that falls back to the base class's Global scope silently
/// serializes a CellLocal or GroupLocal policy onto one commit lane.
class TracedController final : public facs::cellular::AdmissionController {
 public:
  explicit TracedController(
      std::unique_ptr<facs::cellular::AdmissionController> inner);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] facs::cellular::CommitScope commitScope()
      const noexcept override;
  [[nodiscard]] facs::cellular::AdmissionDecision decide(
      const facs::cellular::CallRequest& request,
      const facs::cellular::AdmissionContext& context) override;
  [[nodiscard]] facs::cellular::PredictedCv precompute(
      const facs::cellular::UserSnapshot& user) const override;
  void onAdmitted(const facs::cellular::CallRequest& request,
                  const facs::cellular::AdmissionContext& context) override;
  void onReleased(const facs::cellular::CallRequest& request,
                  const facs::cellular::AdmissionContext& context) override;
  void onRejected(const facs::cellular::CallRequest& request,
                  const facs::cellular::AdmissionContext& context) override;
  void onPartitionChanged(
      const facs::cellular::CellGroupPartition& partition) override;
  facs::cellular::BarrierDrainStats onCommitBarrier(double now_s) override;
  [[nodiscard]] std::string auditWorkload(
      const facs::cellular::WorkloadEnvelope& envelope) const override;

 private:
  std::unique_ptr<facs::cellular::AdmissionController> inner_;
  std::uint8_t policy_;
};

/// Writes spans as CSV (times relative to the earliest span).
/// \returns false when the file could not be written.
bool writeSpans(const std::vector<Span>& spans,
                const std::vector<std::string>& policies,
                const std::string& path);

}  // namespace facsbench
