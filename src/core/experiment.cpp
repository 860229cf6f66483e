#include "core/experiment.h"

#include "common/check.h"
#include "common/stats.h"

namespace sgxpl::core {

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

  // Compile the SIP plan once if any requested scheme uses it.
  bool needs_sip = false;
  for (const Scheme s : schemes) {
    needs_sip = needs_sip || uses_sip(s);
  }
  sip::InstrumentationPlan plan;
  if (needs_sip && workload.info.sip_supported) {
    auto compiled = sip::compile_workload(workload, base_cfg.sip,
                                          trace::train_params(opts.train_scale),
                                          base_cfg.registry);
    plan = std::move(compiled.plan);
    out.sip_points = plan.points();
  }

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

  // The SIP plan is compiled once from the train input, as in the paper;
  // only the measurement input varies across replicas.
  bool needs_sip = false;
  for (const Scheme s : schemes) {
    needs_sip = needs_sip || uses_sip(s);
  }
  sip::InstrumentationPlan plan;
  if (needs_sip && w->info.sip_supported) {
    plan = sip::compile_workload(*w, base_cfg.sip,
                                 trace::train_params(opts.train_scale))
               .plan;
  }

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
