// The DFP preloading engine: wires the multiple-stream predictor and the
// misprediction abort machinery (§4.1-4.2) into the driver's PreloadPolicy
// hooks. Runs entirely on the untrusted side — no enclave code changes, no
// TCB growth.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "dfp/health_monitor.h"
#include "dfp/predictor.h"
#include "dfp/preloaded_page_list.h"
#include "dfp/stream_predictor.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/time_series.h"
#include "sgxsim/preload_policy.h"

namespace sgxpl::dfp {

/// Which predictor the engine runs (see predictors.h; the paper's DFP uses
/// the multiple-stream predictor).
enum class PredictorKind : std::uint8_t {
  kMultiStream,
  kNextN,
  kStride,
  kMarkov,
  kTournament,
};

const char* to_string(PredictorKind k) noexcept;

/// Inverse of to_string (exact spelling); nullopt for unknown names.
std::optional<PredictorKind> parse_predictor_kind(
    std::string_view name) noexcept;

struct DfpParams {
  PredictorKind kind = PredictorKind::kMultiStream;
  StreamPredictorParams predictor;
  /// Enable the DFP-stop safety valve (paper Fig. 8's "DFP-stop").
  bool stop_enabled = false;
  /// The paper stops when AccPreloadCounter + slack < PreloadCounter/2.
  /// Their empirical slack is 200000 (pages) for full SPEC runs; it scales
  /// with run length, so it is a parameter here (default tuned to our trace
  /// sizes, preserving the formula's shape).
  std::uint64_t stop_slack = 256;
  /// The "/2" of the paper's formula: stop when the used fraction of
  /// preloads drops below this value (beyond the slack).
  double stop_used_fraction = 0.5;

  /// Adaptive preload depth (extension of the Fig. 7 study): instead of a
  /// fixed LOADLENGTH, the engine re-tunes its depth at every service-thread
  /// scan from the observed used fraction — deepening while preloads pay
  /// off, backing down to 1 while they are wasted. Bounded by
  /// [1, adaptive_max_depth].
  bool adaptive_load_length = false;
  std::uint64_t adaptive_max_depth = 16;

  /// Graceful-degradation health monitor (health_monitor.h). When enabled
  /// it *replaces* the one-way stop valve above: the same stop rule applies
  /// per window, but preloading can come back after a recovery period.
  HealthParams health;
};

/// Build the predictor `params` asks for. All non-stream kinds take their
/// preload depth from params.predictor.load_length.
std::unique_ptr<PagePredictor> make_predictor(const DfpParams& params);

class DfpEngine final : public sgxsim::PreloadPolicy {
 public:
  explicit DfpEngine(const DfpParams& params);

  /// Use a caller-supplied predictor instead of params.kind.
  DfpEngine(const DfpParams& params, std::unique_ptr<PagePredictor> predictor);

  // --- sgxsim::PreloadPolicy ---
  std::vector<PageNum> on_fault(ProcessId pid, PageNum page,
                                Cycles now) override;
  void on_preload_completed(PageNum page, Cycles now) override;
  void on_preloads_aborted(const std::vector<PageNum>& pages,
                           Cycles now) override;
  void on_preloads_shed(const std::vector<PageNum>& pages,
                        Cycles now) override;
  void on_preloaded_page_evicted(PageNum page, bool was_accessed,
                                 Cycles now) override;
  void on_preloaded_page_touched(PageNum page) override;
  void on_scan(const sgxsim::PageTable& pt, Cycles now) override;
  void on_state_lost(Cycles now) override;

  // --- introspection ---
  /// Preloading currently disabled — permanently (plain valve) or until the
  /// health monitor's recovery window elapses.
  bool stopped() const noexcept { return stopped_; }
  /// Health monitor, when params.health.enabled; null otherwise.
  const HealthMonitor* health() const noexcept {
    return health_.has_value() ? &*health_ : nullptr;
  }
  Cycles stopped_at() const noexcept { return stopped_at_; }
  /// Current preload depth (== predictor load_length unless adaptive).
  std::uint64_t current_depth() const noexcept { return depth_; }
  std::uint64_t aborted_preloads() const noexcept { return aborted_; }
  /// Predictions shed by the driver's admission layer (bounded channel,
  /// quota, or degradation ladder); zero in the default configuration.
  std::uint64_t shed_preloads() const noexcept { return shed_; }
  const PagePredictor& predictor() const noexcept { return *predictor_; }
  const PreloadedPageList& preloaded_pages() const noexcept { return list_; }
  const DfpParams& params() const noexcept { return params_; }

  std::string describe() const;

  /// Attach observability sinks (not owned; nullptr disables either). The
  /// registry gets a live "dfp.depth" gauge and a "dfp.stops" counter; the
  /// time-series set gets per-scan "dfp.depth" and "dfp.used_fraction"
  /// curves — the raw material of the DFP-stop dynamics plots.
  void set_observability(obs::MetricsRegistry* reg,
                         obs::TimeSeriesSet* ts) noexcept;

  /// Attach a cycle-attribution profiler (not owned; nullptr detaches).
  /// Predictor updates and per-scan engine work record as spans.
  void set_profiler(obs::Profiler* p) noexcept { prof_ = p; }

  /// Flush end-of-run counters into `reg` under the "dfp." prefix.
  void publish(obs::MetricsRegistry& reg) const;

  void reset();

  /// Checkpoint/restore of the engine, its predictor, the preloaded-page
  /// list, and the health monitor (when enabled). load() requires an engine
  /// built with the same predictor kind, and rejects preloaded pages at or
  /// beyond `elrange_pages` (the ELRANGE of the run that owns the engine);
  /// observability sinks are not part of the snapshot.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r, PageNum elrange_pages);

 private:
  void maybe_stop(Cycles now);
  void adapt_depth();

  DfpParams params_;
  std::unique_ptr<PagePredictor> predictor_;
  PreloadedPageList list_;
  std::optional<HealthMonitor> health_;
  bool stopped_ = false;
  Cycles stopped_at_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t depth_ = 0;
  // Counter snapshots from the previous scan, for the adaptive window.
  std::uint64_t last_preload_counter_ = 0;
  std::uint64_t last_acc_counter_ = 0;

  // --- observability (null when disabled) ---
  obs::Gauge* depth_gauge_ = nullptr;
  obs::Counter* stop_counter_ = nullptr;
  obs::TimeSeriesSet* series_ = nullptr;  // not owned; may be null
  obs::Profiler* prof_ = nullptr;         // not owned; may be null
};

}  // namespace sgxpl::dfp
