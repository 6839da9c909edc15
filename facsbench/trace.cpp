#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <utility>

#include "common.hpp"

namespace facsbench {

namespace cel = facs::cellular;

std::string_view spanName(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::Iteration:
      return "iteration";
    case SpanKind::Run:
      return "run";
    case SpanKind::Factory:
      return "controller.make";
    case SpanKind::Decide:
      return "policy.decide";
    case SpanKind::Precompute:
      return "policy.precompute";
    case SpanKind::Admitted:
      return "policy.on_admitted";
    case SpanKind::Released:
      return "policy.on_released";
    case SpanKind::Rejected:
      return "policy.on_rejected";
    case SpanKind::Partition:
      return "policy.on_partition_changed";
    case SpanKind::Barrier:
      return "policy.on_commit_barrier";
    case SpanKind::WindowWrite:
      return "serve.window_write";
  }
  return "invalid";
}

// ---------------------------------------------------------------- SpanLog

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

SpanLog::Buffer& SpanLog::local() {
  // The log is a process-lifetime singleton and never frees a buffer, so
  // the pointer stays valid for the thread's whole life; buffers of
  // finished engine threads keep their spans until the next drain().
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard lock{mu_};
    auto owned = std::make_unique<Buffer>();
    owned->thread = static_cast<std::uint32_t>(buffers_.size());
    buffer = owned.get();
    buffers_.push_back(std::move(owned));
  }
  return *buffer;
}

std::uint64_t SpanLog::newId() {
  Buffer& b = local();
  return (static_cast<std::uint64_t>(b.thread) + 1) << 40 | ++b.next_id;
}

void SpanLog::record(Span span) {
  Buffer& b = local();
  span.thread = b.thread;
  b.spans.push_back(span);
}

void SpanLog::setScope(std::uint64_t parent, std::uint64_t call) noexcept {
  scope_parent_.store(parent, std::memory_order_relaxed);
  scope_call_.store(call, std::memory_order_relaxed);
}

std::uint8_t SpanLog::policyIndex(std::string_view name) {
  const std::lock_guard lock{mu_};
  const auto it = std::find(policies_.begin(), policies_.end(), name);
  if (it != policies_.end()) {
    return static_cast<std::uint8_t>(it - policies_.begin());
  }
  policies_.emplace_back(name);
  return static_cast<std::uint8_t>(policies_.size() - 1);
}

std::vector<std::string> SpanLog::policies() const {
  const std::lock_guard lock{mu_};
  return policies_;
}

std::vector<Span> SpanLog::drain() {
  const std::lock_guard lock{mu_};
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    b->spans.clear();
  }
  return out;
}

// ------------------------------------------------------------- ScopedSpan

ScopedSpan::ScopedSpan(SpanKind kind, std::uint64_t call,
                       std::uint64_t parent, std::uint8_t policy) {
  span_.id = SpanLog::instance().newId();
  span_.parent = parent;
  span_.call = call;
  span_.kind = kind;
  span_.policy = policy;
  span_.start_ns = nowNs();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = nowNs();
  SpanLog::instance().record(span_);
}

// ------------------------------------------------------------ the factory

void FactoryStamps::stamp() {
  const std::int64_t t = nowNs();
  const std::lock_guard lock{mu_};
  stamps_.push_back(t);
}

std::vector<std::int64_t> FactoryStamps::take() {
  const std::lock_guard lock{mu_};
  return std::exchange(stamps_, {});
}

cel::ControllerFactory instrumentFactory(cel::ControllerFactory inner,
                                         bool traced, FactoryStamps* stamps) {
  if (!traced) {
    if (stamps == nullptr) return inner;
    return [inner = std::move(inner), stamps](const cel::HexNetwork& network) {
      stamps->stamp();
      return inner(network);
    };
  }
  return [inner = std::move(inner), stamps](const cel::HexNetwork& network)
             -> std::unique_ptr<cel::AdmissionController> {
    if (stamps != nullptr) stamps->stamp();
    SpanLog& log = SpanLog::instance();
    ScopedSpan span{SpanKind::Factory, log.scopeCall(), log.scopeParent()};
    return std::make_unique<TracedController>(inner(network));
  };
}

// ------------------------------------------------------ TracedController

namespace {

[[nodiscard]] std::uint64_t runScope() noexcept {
  return SpanLog::instance().scopeParent();
}

}  // namespace

TracedController::TracedController(
    std::unique_ptr<cel::AdmissionController> inner)
    : inner_{std::move(inner)},
      policy_{SpanLog::instance().policyIndex(inner_->name())} {}

std::string TracedController::name() const { return inner_->name(); }

cel::CommitScope TracedController::commitScope() const noexcept {
  return inner_->commitScope();
}

cel::AdmissionDecision TracedController::decide(
    const cel::CallRequest& request, const cel::AdmissionContext& context) {
  ScopedSpan s{SpanKind::Decide, request.call, runScope(), policy_};
  const cel::AdmissionDecision d = inner_->decide(request, context);
  s.setAccepted(d.accept);
  return d;
}

cel::PredictedCv TracedController::precompute(
    const cel::UserSnapshot& user) const {
  ScopedSpan s{SpanKind::Precompute, kNoCall, runScope(), policy_};
  return inner_->precompute(user);
}

void TracedController::onAdmitted(const cel::CallRequest& request,
                                  const cel::AdmissionContext& context) {
  ScopedSpan s{SpanKind::Admitted, request.call, runScope(), policy_};
  inner_->onAdmitted(request, context);
}

void TracedController::onReleased(const cel::CallRequest& request,
                                  const cel::AdmissionContext& context) {
  ScopedSpan s{SpanKind::Released, request.call, runScope(), policy_};
  inner_->onReleased(request, context);
}

void TracedController::onRejected(const cel::CallRequest& request,
                                  const cel::AdmissionContext& context) {
  ScopedSpan s{SpanKind::Rejected, request.call, runScope(), policy_};
  inner_->onRejected(request, context);
}

void TracedController::onPartitionChanged(
    const cel::CellGroupPartition& partition) {
  ScopedSpan s{SpanKind::Partition, SpanLog::instance().scopeCall(),
               runScope(), policy_};
  inner_->onPartitionChanged(partition);
}

cel::BarrierDrainStats TracedController::onCommitBarrier(double now_s) {
  ScopedSpan s{SpanKind::Barrier, SpanLog::instance().scopeCall(),
               runScope(), policy_};
  return inner_->onCommitBarrier(now_s);
}

std::string TracedController::auditWorkload(
    const cel::WorkloadEnvelope& envelope) const {
  return inner_->auditWorkload(envelope);
}

// ---------------------------------------------------------------- output

bool writeSpans(const std::vector<Span>& spans,
                const std::vector<std::string>& policies,
                const std::string& path) {
  std::ofstream out{path};
  out << "id,parent,call,thread,name,policy,start_ns,end_ns,accepted\n";
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : spans) t0 = std::min(t0, s.start_ns);
  for (const Span& s : spans) {
    const bool is_policy = s.kind >= SpanKind::Decide &&
                           s.kind <= SpanKind::Barrier &&
                           s.policy < policies.size();
    out << s.id << ',' << s.parent << ',';
    if (s.call == kNoCall) {
      out << '-';
    } else {
      out << s.call;
    }
    out << ',' << s.thread << ',' << spanName(s.kind) << ','
        << (is_policy ? policies[s.policy] : std::string{}) << ','
        << s.start_ns - t0 << ',' << s.end_ns - t0 << ','
        << (s.accepted ? 1 : 0) << '\n';
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace facsbench
