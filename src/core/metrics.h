// Run metrics reported by the enclave simulator.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "inject/fault_injector.h"
#include "sgxsim/driver.h"
#include "snapshot/fwd.h"

namespace sgxpl::core {

struct Metrics {
  /// Virtual time at which the application finished the trace.
  Cycles total_cycles = 0;
  /// Pure compute portion (sum of trace gaps).
  Cycles compute_cycles = 0;

  std::uint64_t accesses = 0;
  std::uint64_t enclave_faults = 0;

  // SIP runtime activity.
  std::uint64_t sip_checks = 0;
  std::uint64_t sip_requests = 0;  // notifications (bitmap said absent)
  Cycles sip_check_cycles = 0;
  Cycles sip_notification_cycles = 0;

  // DFP engine outcome (zero/false when no DFP ran).
  bool dfp_stopped = false;
  Cycles dfp_stopped_at = 0;
  std::uint64_t dfp_preload_counter = 0;
  std::uint64_t dfp_acc_preload_counter = 0;
  std::uint64_t dfp_predictor_hits = 0;
  std::uint64_t dfp_predictor_misses = 0;

  /// Final driver-side statistics (faults, loads, preload accounting, ...).
  sgxsim::DriverStats driver;

  /// Fault-injection activity (all zero when no chaos plan was active).
  inject::InjectStats inject;

  /// Fractional improvement of this run over `baseline`
  /// (positive = faster), the paper's headline metric.
  double improvement_over(const Metrics& baseline) const noexcept;

  /// Execution time normalized to `baseline` (the paper's figures).
  double normalized_to(const Metrics& baseline) const noexcept;

  std::string describe() const;

  /// Checkpoint/restore of every field, including the nested driver and
  /// injection statistics. Also the substrate of snapshot-based metric
  /// diffing: two runs whose Metrics serialize identically finished in
  /// bit-identical states.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);
};

}  // namespace sgxpl::core
