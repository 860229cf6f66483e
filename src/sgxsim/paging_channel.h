// The EPC paging channel: the serialized, non-preemptible pipe through
// which pages move between EPC and untrusted memory.
//
// The paper's measurements (§3.1, §5.6) found that EPC page loading can move
// only one page at a time and that an ELDU/ELDB in progress cannot be
// preempted — a demand fault arriving mid-preload must wait for the
// in-flight load to finish. This class models that: operations are
// scheduled back-to-back in virtual time; an op whose start time has passed
// is in-flight and immovable; ops that have not started yet can be aborted
// (how DFP cancels the rest of a mispredicted stream).
//
// The channel can additionally be bounded (ChannelConfig::max_queued):
// preload-class submissions then go through try_schedule(), which rejects
// with a typed AdmissionResult instead of growing the queue without limit.
// Demand loads are never rejected — the driver sheds queued preloads to make
// room for them instead (see Driver and docs/ROBUSTNESS.md). The default
// config (max_queued = 0 = unbounded, retries off) reproduces the seed
// behavior bit-for-bit.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "obs/profiler.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

enum class OpKind : std::uint8_t {
  kDemandLoad,   // load servicing an enclave page fault
  kDfpPreload,   // asynchronous preload issued by the DFP kernel worker
  kSipLoad,      // synchronous load for a SIP notification
};

const char* to_string(OpKind kind) noexcept;

/// Inverse of to_string (exact spelling); nullopt for unknown names.
std::optional<OpKind> parse_op_kind(std::string_view name) noexcept;

/// Outcome of an admission-controlled submission. Only kRejectedFull is
/// produced by the channel itself; the driver's per-tenant admission layer
/// adds the quota and degradation rejections before the channel is asked.
enum class AdmissionResult : std::uint8_t {
  kAdmitted,          // op was scheduled
  kRejectedFull,      // bounded queue is at max_queued
  kRejectedQuota,     // tenant exhausted its per-enclave preload quota
  kRejectedDegraded,  // tenant's degradation level forbids this op class
};

const char* to_string(AdmissionResult r) noexcept;

/// Inverse of to_string (exact spelling); nullopt for unknown names.
std::optional<AdmissionResult> parse_admission_result(
    std::string_view name) noexcept;

/// Overload-hardening knobs. All defaults preserve the seed behavior
/// bit-for-bit: unbounded queue, no deadlines acted upon, no retries.
struct ChannelConfig {
  /// Maximum queued + in-flight ops; 0 = unbounded (seed behavior).
  /// Applies only to try_schedule() — demand loads bypass the bound.
  std::size_t max_queued = 0;
  /// Once a demand load arrives and the queue holds at least this many
  /// ops, the driver sheds the newest queued preloads down to it; 0 means
  /// "use max_queued" (shed only when completely full).
  std::size_t preload_high_water = 0;
  /// How often a lost (dropped-completion / deadline-expired) preload is
  /// re-issued before being surfaced as a permanent fault. 0 disables the
  /// whole detection/retry machinery (seed behavior: a dropped completion
  /// only skews the policy's accounting; see Driver::commit_load).
  std::uint32_t max_retries = 0;
  /// Base cycles of the capped exponential retry backoff; 0 = the cost
  /// model's epc_load.
  Cycles retry_backoff = 0;
  /// Grace period past an op's scheduled end before the sweep declares its
  /// completion lost; 0 = 4x the cost model's epc_load.
  Cycles deadline_slack = 0;
  /// Seed of the driver's dedicated retry-jitter Rng stream (kept separate
  /// from the chaos streams so enabling retries never perturbs the chaos
  /// schedule).
  std::uint64_t retry_seed = 0x5eed;
};

struct ChannelOp {
  std::uint64_t id = 0;
  PageNum page = kInvalidPage;
  OpKind kind = OpKind::kDemandLoad;
  Cycles start = 0;
  Cycles end = 0;
  /// Completion-lost cutoff: end + deadline slack, maintained across
  /// repacks (the slack is invariant, the absolute time slides with end).
  Cycles deadline = 0;
  /// Retry generation: 0 for a first issue, n for the n-th re-issue.
  std::uint32_t attempt = 0;
  /// Submitting tenant; 0 outside multi-enclave runs.
  ProcessId pid = 0;
};

class PagingChannel {
 public:
  /// `serial` models the real hardware (one op at a time). Setting it false
  /// gives an idealized infinitely-parallel channel, used only by the
  /// channel-contention ablation bench.
  explicit PagingChannel(bool serial = true, ChannelConfig config = {})
      : serial_(serial), config_(config) {}

  /// Schedule an op of `duration` cycles to run no earlier than `earliest`.
  /// On the serial channel it starts when the last queued op ends (if
  /// later). Returns the scheduled op. `deadline_slack` sets op.deadline =
  /// op.end + slack; `pid`/`attempt` tag the op for admission and retry
  /// bookkeeping. Ignores the queue bound (demand-class path).
  const ChannelOp& schedule(Cycles earliest, Cycles duration, PageNum page,
                            OpKind kind, ProcessId pid = 0,
                            std::uint32_t attempt = 0,
                            Cycles deadline_slack = 0);

  /// Schedule with priority: the op is inserted directly after whatever is
  /// in flight at `earliest` (which cannot be preempted), ahead of queued
  /// not-yet-started ops; those slide later. This is how a demand fault or
  /// a blocking SIP request overtakes queued asynchronous preloads without
  /// cancelling them.
  const ChannelOp& schedule_priority(Cycles earliest, Cycles duration,
                                     PageNum page, OpKind kind,
                                     ProcessId pid = 0,
                                     std::uint32_t attempt = 0,
                                     Cycles deadline_slack = 0);

  /// Admission-controlled submission for preload-class ops: rejects with
  /// kRejectedFull (scheduling nothing) when the bounded queue is at
  /// capacity, otherwise behaves exactly like schedule(). `out`, when
  /// non-null, receives the scheduled op on admission.
  AdmissionResult try_schedule(Cycles earliest, Cycles duration, PageNum page,
                               OpKind kind, ProcessId pid = 0,
                               std::uint32_t attempt = 0,
                               Cycles deadline_slack = 0,
                               const ChannelOp** out = nullptr);

  /// Remove the newest not-yet-started kDfpPreload (how a demand load
  /// reclaims a slot past the high-water mark). Returns the removed op, or
  /// nullopt when no preload is sheddable.
  std::optional<ChannelOp> shed_newest_preload(Cycles now);

  /// First moment a new op scheduled at `earliest` could start.
  Cycles next_free(Cycles earliest) const noexcept;

  /// Ops whose end <= now, in completion order; removes them from the queue.
  /// Returns a reference to an internal scratch buffer that is only valid
  /// until the next collect_completed() call (this runs on every clock
  /// advance, so reusing the buffer avoids an allocation per advance).
  const std::vector<ChannelOp>& collect_completed(Cycles now);

  /// The earliest `now` at which collect_completed(now) can return an op:
  /// the head's end on the serial channel, 0 on a non-empty parallel
  /// channel (any op may end first), and never on an empty one. The
  /// driver's event horizon is the smaller of this and its next scan.
  Cycles next_due() const noexcept {
    if (queue_.empty()) {
      return kNeverDue;
    }
    return serial_ ? queue_.front().end : 0;
  }
  static constexpr Cycles kNeverDue = ~Cycles{0};

  /// False when collect_completed(now) would certainly return nothing.
  /// Lets the driver skip the harvest on the many clock advances that fall
  /// between completions.
  bool completion_due(Cycles now) const noexcept { return next_due() <= now; }

  /// Abort every op that has not started by `now` (start > now). In-flight
  /// and completed ops are untouched. Returns the aborted ops.
  /// `keep_kind`: ops of this kind survive (demand loads are never flushed
  /// by a later fault). Pass std::nullopt to abort all pending kinds.
  std::vector<ChannelOp> abort_not_started(
      Cycles now, std::optional<OpKind> only_kind = std::nullopt);

  /// The queued/in-flight op for `page`, if any.
  std::optional<ChannelOp> find(PageNum page) const;

  /// Cancel the op for `page` if it has not started by `now` (so a demand
  /// fault can promote an already-queued request to the front). Returns
  /// true if an op was removed.
  bool cancel_not_started(PageNum page, Cycles now);

  /// No op ends after `now`.
  bool idle(Cycles now) const noexcept { return completion_time() <= now; }

  /// Latest end time over all queued ops (0 if the queue is empty). O(1) on
  /// the serial channel, whose queue is ascending and packed, so the last op
  /// ends last; the parallel ablation walks the queue.
  Cycles completion_time() const noexcept;

  std::size_t queued() const noexcept { return queue_.size(); }
  std::uint64_t ops_scheduled() const noexcept { return next_id_; }
  std::uint64_t ops_aborted() const noexcept { return aborted_; }
  std::uint64_t ops_rejected() const noexcept { return rejected_; }
  std::uint64_t ops_shed() const noexcept { return shed_; }

  const ChannelConfig& config() const noexcept { return config_; }
  /// True when a queue bound is configured.
  bool bounded() const noexcept { return config_.max_queued > 0; }
  /// True when a bounded queue is at capacity (always false if unbounded).
  bool full() const noexcept {
    return bounded() && queue_.size() >= config_.max_queued;
  }
  /// Effective high-water mark for demand-driven preload shedding.
  std::size_t high_water() const noexcept {
    return config_.preload_high_water > 0 ? config_.preload_high_water
                                          : config_.max_queued;
  }
  /// Queued kDfpPreload ops submitted by `pid` (the per-tenant quota base).
  std::size_t queued_preloads_for(ProcessId pid) const noexcept;

  /// Checkpoint/restore of the full queue (in-flight and pending ops) and
  /// the id/abort counters. load() requires matching serial-ness and queue
  /// bound.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

  /// Attach a cycle-attribution profiler (not owned; nullptr detaches);
  /// completion harvesting records under Phase::kChannelService.
  void set_profiler(obs::Profiler* p) noexcept { prof_ = p; }

 private:
  /// Re-pack not-yet-started ops back-to-back after an insertion/removal
  /// (the kernel worker issues the next request as soon as one retires).
  void repack(Cycles now);

  obs::Profiler* prof_ = nullptr;  // not owned; may be null
  bool serial_;
  ChannelConfig config_;
  std::deque<ChannelOp> queue_;  // ascending by start
  std::vector<ChannelOp> completed_;  // collect_completed scratch buffer
  std::uint64_t next_id_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t rejected_ = 0;  // try_schedule refusals (queue full)
  std::uint64_t shed_ = 0;      // shed_newest_preload removals
};

}  // namespace sgxpl::sgxsim
