#include "core/metrics.h"

#include <sstream>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::core {

double Metrics::improvement_over(const Metrics& baseline) const noexcept {
  if (baseline.total_cycles == 0) {
    return 0.0;
  }
  return 1.0 - static_cast<double>(total_cycles) /
                   static_cast<double>(baseline.total_cycles);
}

double Metrics::normalized_to(const Metrics& baseline) const noexcept {
  if (baseline.total_cycles == 0) {
    // A zero-cycle baseline (empty/degenerate trace) normalizes to parity
    // rather than dividing by zero; improvement_over likewise reports 0.
    return 1.0;
  }
  return static_cast<double>(total_cycles) /
         static_cast<double>(baseline.total_cycles);
}

std::string Metrics::describe() const {
  std::ostringstream oss;
  oss << "Metrics{total=" << total_cycles << ", compute=" << compute_cycles
      << ", accesses=" << accesses
      << ", faults=" << enclave_faults << ", sip_checks=" << sip_checks
      << ", sip_requests=" << sip_requests
      << ", dfp{preloaded=" << dfp_preload_counter
      << ", used=" << dfp_acc_preload_counter
      << ", stopped=" << (dfp_stopped ? "yes" : "no") << "}";
  if (inject.total_opportunities() > 0) {
    oss << ", " << inject.describe();
  }
  oss << "}";
  return oss.str();
}

void Metrics::save(snapshot::Writer& w) const {
  w.u64("metrics.total_cycles", total_cycles);
  w.u64("metrics.compute_cycles", compute_cycles);
  // Channel contention is no longer modelled; frames keep its 0 so their
  // bytes do not change.
  w.u64("metrics.contention_cycles", 0);
  w.u64("metrics.accesses", accesses);
  w.u64("metrics.enclave_faults", enclave_faults);
  w.u64("metrics.sip_checks", sip_checks);
  w.u64("metrics.sip_requests", sip_requests);
  w.u64("metrics.sip_check_cycles", sip_check_cycles);
  w.u64("metrics.sip_notification_cycles", sip_notification_cycles);
  w.boolean("metrics.dfp_stopped", dfp_stopped);
  w.u64("metrics.dfp_stopped_at", dfp_stopped_at);
  w.u64("metrics.dfp_preload_counter", dfp_preload_counter);
  w.u64("metrics.dfp_acc_preload_counter", dfp_acc_preload_counter);
  w.u64("metrics.dfp_predictor_hits", dfp_predictor_hits);
  w.u64("metrics.dfp_predictor_misses", dfp_predictor_misses);
  driver.save(w);
  inject.save(w);
}

void Metrics::load(snapshot::Reader& r) {
  total_cycles = r.u64("metrics.total_cycles");
  compute_cycles = r.u64("metrics.compute_cycles");
  SGXPL_CHECK_MSG(r.u64("metrics.contention_cycles") == 0,
                  "frame carries channel-contention cycles, which this "
                  "simulator no longer models");
  accesses = r.u64("metrics.accesses");
  enclave_faults = r.u64("metrics.enclave_faults");
  sip_checks = r.u64("metrics.sip_checks");
  sip_requests = r.u64("metrics.sip_requests");
  sip_check_cycles = r.u64("metrics.sip_check_cycles");
  sip_notification_cycles = r.u64("metrics.sip_notification_cycles");
  dfp_stopped = r.boolean("metrics.dfp_stopped");
  dfp_stopped_at = r.u64("metrics.dfp_stopped_at");
  dfp_preload_counter = r.u64("metrics.dfp_preload_counter");
  dfp_acc_preload_counter = r.u64("metrics.dfp_acc_preload_counter");
  dfp_predictor_hits = r.u64("metrics.dfp_predictor_hits");
  dfp_predictor_misses = r.u64("metrics.dfp_predictor_misses");
  driver.load(r);
  inject.load(r);
}

}  // namespace sgxpl::core
