#include "core/experiment.h"

#include <algorithm>

#include "common/check.h"
#include "common/stats.h"

namespace sgxpl::core {

namespace {

/// The SIP plan, compiled once from the train input as in the paper when
/// a requested scheme uses SIP and the workload supports it; empty
/// otherwise.
sip::InstrumentationPlan sip_plan(const trace::Workload& workload,
                                  const std::vector<Scheme>& schemes,
                                  const SimConfig& cfg,
                                  const ExperimentOptions& opts,
                                  obs::MetricsRegistry* registry) {
  const bool needs_sip =
      std::any_of(schemes.begin(), schemes.end(), core::uses_sip);
  if (!needs_sip || !workload.info.sip_supported) {
    return {};
  }
  return sip::compile_workload(workload, cfg.sip,
                               trace::train_params(opts.train_scale), registry)
      .plan;
}

}  // namespace

const SchemeResult* WorkloadComparison::find(Scheme s) const noexcept {
  for (const auto& r : schemes) {
    if (r.scheme == s) {
      return &r;
    }
  }
  return nullptr;
}

WorkloadComparison compare_schemes(const trace::Workload& workload,
                                   const std::vector<Scheme>& schemes,
                                   const SimConfig& base_cfg,
                                   const ExperimentOptions& opts) {
  WorkloadComparison out;
  out.workload = workload.info.name;

  const trace::Trace ref = workload.make(trace::ref_params(opts.scale));

  const sip::InstrumentationPlan plan =
      sip_plan(workload, schemes, base_cfg, opts, base_cfg.registry);
  out.sip_points = plan.points();

  {
    SimConfig cfg = base_cfg;
    cfg.scheme = Scheme::kBaseline;
    out.baseline = simulate(ref, cfg);
  }

  for (const Scheme s : schemes) {
    SimConfig cfg = base_cfg;
    cfg.scheme = s;
    SchemeResult r;
    r.scheme = s;
    if (s == Scheme::kBaseline) {
      r.metrics = out.baseline;
    } else {
      r.metrics = simulate(ref, cfg, cfg.uses_sip() ? &plan : nullptr);
    }
    r.normalized = r.metrics.normalized_to(out.baseline);
    r.improvement = r.metrics.improvement_over(out.baseline);
    out.schemes.push_back(std::move(r));
  }
  return out;
}

WorkloadComparison compare_schemes(const std::string& workload_name,
                                   const std::vector<Scheme>& schemes,
                                   const SimConfig& base_cfg,
                                   const ExperimentOptions& opts) {
  const trace::Workload* w = trace::find_workload(workload_name);
  SGXPL_CHECK_MSG(w != nullptr, "unknown workload: " << workload_name);
  return compare_schemes(*w, schemes, base_cfg, opts);
}

std::vector<ReplicatedResult> compare_schemes_replicated(
    const std::string& workload_name, const std::vector<Scheme>& schemes,
    const SimConfig& base_cfg, const ExperimentOptions& opts, int replicas) {
  SGXPL_CHECK_MSG(replicas >= 1, "need at least one replica");
  const trace::Workload* w = trace::find_workload(workload_name);
  SGXPL_CHECK_MSG(w != nullptr, "unknown workload: " << workload_name);

  // Only the measurement input varies across replicas.
  const sip::InstrumentationPlan plan =
      sip_plan(*w, schemes, base_cfg, opts, nullptr);

  std::vector<ReplicatedResult> results;
  results.reserve(schemes.size());
  for (const Scheme s : schemes) {
    ReplicatedResult r;
    r.scheme = s;
    results.push_back(std::move(r));
  }

  for (int rep = 0; rep < replicas; ++rep) {
    trace::WorkloadParams params = trace::ref_params(opts.scale);
    params.seed += static_cast<std::uint64_t>(rep) * 1000;
    const trace::Trace ref = w->make(params);

    SimConfig base = base_cfg;
    base.scheme = Scheme::kBaseline;
    const Metrics baseline = simulate(ref, base);

    for (std::size_t i = 0; i < schemes.size(); ++i) {
      SimConfig cfg = base_cfg;
      cfg.scheme = schemes[i];
      const Metrics m =
          simulate(ref, cfg, cfg.uses_sip() ? &plan : nullptr);
      results[i].samples.push_back(m.improvement_over(baseline));
    }
  }

  for (auto& r : results) {
    RunningStat stat;
    for (const double s : r.samples) {
      stat.add(s);
    }
    r.mean_improvement = stat.mean();
    r.stddev = stat.stddev();
  }
  return results;
}

}  // namespace sgxpl::core
