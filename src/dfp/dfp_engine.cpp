#include "dfp/dfp_engine.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"
#include "dfp/predictors.h"
#include "snapshot/codec.h"

namespace sgxpl::dfp {

const char* to_string(PredictorKind k) noexcept {
  switch (k) {
    case PredictorKind::kMultiStream:
      return "multi-stream";
    case PredictorKind::kNextN:
      return "next-n";
    case PredictorKind::kStride:
      return "stride";
    case PredictorKind::kMarkov:
      return "markov";
    case PredictorKind::kTournament:
      return "tournament";
  }
  return "?";
}

std::optional<PredictorKind> parse_predictor_kind(
    std::string_view name) noexcept {
  for (const PredictorKind k :
       {PredictorKind::kMultiStream, PredictorKind::kNextN,
        PredictorKind::kStride, PredictorKind::kMarkov,
        PredictorKind::kTournament}) {
    if (name == to_string(k)) {
      return k;
    }
  }
  return std::nullopt;
}

std::unique_ptr<PagePredictor> make_predictor(const DfpParams& params) {
  const std::uint64_t depth = params.predictor.load_length;
  switch (params.kind) {
    case PredictorKind::kMultiStream:
      return std::make_unique<StreamPredictor>(params.predictor);
    case PredictorKind::kNextN:
      return std::make_unique<NextNPredictor>(depth);
    case PredictorKind::kStride:
      return std::make_unique<StridePredictor>(depth);
    case PredictorKind::kMarkov:
      return std::make_unique<MarkovPredictor>(depth);
    case PredictorKind::kTournament:
      return make_default_tournament(depth);
  }
  SGXPL_CHECK_MSG(false, "unknown predictor kind");
  return nullptr;
}

namespace {

/// With adaptive depth the predictor must be able to produce up to
/// adaptive_max_depth pages; the engine truncates to the current depth.
DfpParams predictor_params(DfpParams p) {
  if (p.adaptive_load_length) {
    p.predictor.load_length =
        std::max(p.predictor.load_length, p.adaptive_max_depth);
  }
  return p;
}

}  // namespace

DfpEngine::DfpEngine(const DfpParams& params)
    : DfpEngine(params, make_predictor(predictor_params(params))) {}

DfpEngine::DfpEngine(const DfpParams& params,
                     std::unique_ptr<PagePredictor> predictor)
    : params_(params),
      predictor_(std::move(predictor)),
      depth_(params.predictor.load_length) {
  SGXPL_CHECK(predictor_ != nullptr);
  SGXPL_CHECK(depth_ > 0);
  SGXPL_CHECK(!params_.adaptive_load_length || params_.adaptive_max_depth > 0);
  if (params_.health.enabled) {
    health_.emplace(params_.health);
  }
}

std::vector<PageNum> DfpEngine::on_fault(ProcessId pid, PageNum page,
                                         Cycles /*now*/) {
  if (stopped_) {
    return {};
  }
  obs::ScopedSpan span(prof_, obs::Phase::kPredictorUpdate);
  auto pages = predictor_->on_fault(pid, page);
  if (params_.adaptive_load_length && pages.size() > depth_) {
    pages.resize(depth_);
  }
  return pages;
}

void DfpEngine::on_preload_completed(PageNum page, Cycles /*now*/) {
  list_.on_loaded(page);
}

void DfpEngine::on_preloads_aborted(const std::vector<PageNum>& pages,
                                    Cycles /*now*/) {
  aborted_ += pages.size();
}

void DfpEngine::on_preloads_shed(const std::vector<PageNum>& pages,
                                 Cycles /*now*/) {
  shed_ += pages.size();
}

void DfpEngine::on_preloaded_page_evicted(PageNum page, bool /*was_accessed*/,
                                          Cycles /*now*/) {
  list_.on_evicted(page);
}

void DfpEngine::on_preloaded_page_touched(PageNum page) {
  list_.on_touched(page);
}

void DfpEngine::on_state_lost(Cycles /*now*/) {
  // A restarted kernel worker loses the predictor's learned streams; the
  // preload accounting (PreloadedPageList counters) survives on the driver
  // side, so the stop valve / health monitor keep their evidence.
  predictor_->reset();
}

void DfpEngine::on_scan(const sgxsim::PageTable& pt, Cycles now) {
  obs::ScopedSpan span(prof_, obs::Phase::kDfpScan);
  list_.scan(pt);
  if (params_.adaptive_load_length) {
    adapt_depth();
  }
  if (health_.has_value()) {
    // Shed preloads count as abort evidence: whether a prediction was
    // flushed by a demand fault or refused admission, the work the engine
    // asked for did not happen, and a persistently overloaded channel
    // should trip the same stop valve as persistent misprediction.
    health_->on_scan(list_.preload_counter(), list_.acc_preload_counter(),
                     aborted_ + shed_, now);
    const bool blocked = !health_->preloads_allowed();
    if (blocked && !stopped_) {
      stopped_at_ = now;
      if (stop_counter_ != nullptr) {
        stop_counter_->add();
      }
    }
    stopped_ = blocked;
  } else {
    maybe_stop(now);
  }
  if (series_ != nullptr) {
    series_->series("dfp.depth")
        .add(now, stopped_ ? 0.0 : static_cast<double>(depth_));
    const auto total = list_.preload_counter();
    if (total > 0) {
      series_->series("dfp.used_fraction")
          .add(now, static_cast<double>(list_.acc_preload_counter()) /
                        static_cast<double>(total));
    }
  }
}

void DfpEngine::set_observability(obs::MetricsRegistry* reg,
                                  obs::TimeSeriesSet* ts) noexcept {
  depth_gauge_ = reg != nullptr ? &reg->gauge("dfp.depth") : nullptr;
  stop_counter_ = reg != nullptr ? &reg->counter("dfp.stops") : nullptr;
  series_ = ts;
  if (health_.has_value()) {
    health_->set_observability(ts);
  }
  if (depth_gauge_ != nullptr) {
    depth_gauge_->set(static_cast<double>(depth_));
  }
}

void DfpEngine::publish(obs::MetricsRegistry& reg) const {
  reg.counter("dfp.preload_counter").add(list_.preload_counter());
  reg.counter("dfp.acc_preload_counter").add(list_.acc_preload_counter());
  reg.counter("dfp.aborted").add(aborted_);
  reg.counter("dfp.shed").add(shed_);
  reg.counter("dfp.predictor.hits").add(predictor_->hits());
  reg.counter("dfp.predictor.misses").add(predictor_->misses());
  if (stopped_) {
    reg.gauge("dfp.stopped_at").set(static_cast<double>(stopped_at_));
  }
  if (health_.has_value()) {
    health_->publish(reg);
  }
}

void DfpEngine::adapt_depth() {
  // Window since the last scan: how many preloads landed and how many of
  // them were observed used. AIMD on the depth: deepen while they pay,
  // back off sharply when they are wasted.
  const std::uint64_t loaded = list_.preload_counter() - last_preload_counter_;
  const std::uint64_t used = list_.acc_preload_counter() - last_acc_counter_;
  last_preload_counter_ = list_.preload_counter();
  last_acc_counter_ = list_.acc_preload_counter();
  if (loaded < 4) {
    return;  // not enough evidence this window
  }
  const double ratio = static_cast<double>(used) / static_cast<double>(loaded);
  if (ratio >= 0.75) {
    depth_ = std::min<std::uint64_t>(depth_ + 1, params_.adaptive_max_depth);
  } else if (ratio < 0.5) {
    depth_ = std::max<std::uint64_t>(depth_ / 2, 1);
  }
  if (depth_gauge_ != nullptr) {
    depth_gauge_->set(static_cast<double>(depth_));
  }
}

void DfpEngine::maybe_stop(Cycles now) {
  if (!params_.stop_enabled || stopped_) {
    return;
  }
  // Paper §4.2: stop when AccPreloadCounter + slack < PreloadCounter/2,
  // i.e. too many preloaded pages were never accessed.
  const double used = static_cast<double>(list_.acc_preload_counter());
  const double total = static_cast<double>(list_.preload_counter());
  if (used + static_cast<double>(params_.stop_slack) <
      total * params_.stop_used_fraction) {
    stopped_ = true;
    stopped_at_ = now;
    if (stop_counter_ != nullptr) {
      stop_counter_->add();
    }
  }
}

std::string DfpEngine::describe() const {
  std::ostringstream oss;
  oss << "DfpEngine{predictor=" << predictor_->name()
      << ", load_length=" << params_.predictor.load_length
      << ", stop=" << (params_.stop_enabled ? "on" : "off")
      << ", hits=" << predictor_->hits()
      << ", misses=" << predictor_->misses()
      << ", PreloadCounter=" << list_.preload_counter()
      << ", AccPreloadCounter=" << list_.acc_preload_counter()
      << ", stopped=" << (stopped_ ? "yes" : "no");
  if (health_.has_value()) {
    oss << ", " << health_->describe();
  }
  oss << "}";
  return oss.str();
}

void DfpEngine::reset() {
  predictor_->reset();
  list_.reset();
  if (health_.has_value()) {
    health_->reset();
  }
  stopped_ = false;
  stopped_at_ = 0;
  aborted_ = 0;
  shed_ = 0;
  depth_ = params_.predictor.load_length;
  last_preload_counter_ = 0;
  last_acc_counter_ = 0;
}

void DfpEngine::save(snapshot::Writer& w) const {
  w.str("dfp.predictor", predictor_->name());
  w.boolean("dfp.stopped", stopped_);
  w.u64("dfp.stopped_at", stopped_at_);
  w.u64("dfp.aborted", aborted_);
  w.u64("dfp.shed", shed_);
  w.u64("dfp.depth", depth_);
  w.u64("dfp.last_preload_counter", last_preload_counter_);
  w.u64("dfp.last_acc_counter", last_acc_counter_);
  w.boolean("dfp.has_health", health_.has_value());
  predictor_->save(w);
  list_.save(w);
  if (health_.has_value()) {
    health_->save(w);
  }
}

void DfpEngine::load(snapshot::Reader& r, PageNum elrange_pages) {
  const std::string predictor = r.str("dfp.predictor");
  SGXPL_CHECK_MSG(predictor == predictor_->name(),
                  "snapshot was taken with predictor '"
                      << predictor << "' but this engine runs '"
                      << predictor_->name() << "'");
  stopped_ = r.boolean("dfp.stopped");
  stopped_at_ = r.u64("dfp.stopped_at");
  aborted_ = r.u64("dfp.aborted");
  shed_ = r.u64("dfp.shed");
  depth_ = r.u64("dfp.depth");
  SGXPL_CHECK_MSG(depth_ > 0, "snapshot holds zero preload depth");
  last_preload_counter_ = r.u64("dfp.last_preload_counter");
  last_acc_counter_ = r.u64("dfp.last_acc_counter");
  const bool has_health = r.boolean("dfp.has_health");
  SGXPL_CHECK_MSG(has_health == health_.has_value(),
                  "snapshot " << (has_health ? "includes" : "lacks")
                              << " a health monitor but this engine was "
                                 "configured the other way");
  predictor_->load(r);
  list_.load(r, elrange_pages);
  if (health_.has_value()) {
    health_->load(r);
  }
}

}  // namespace sgxpl::dfp
