// Sharded parallel fleet execution: the shard-count-invariance differential
// battery. The contract under test (src/core/sharding.h, and the
// supervisor's shard_threads knob) is that the worker-thread count K is
// pure execution mechanics — for ANY K the per-tenant metrics, snapshot
// frames, chaos schedules, event streams, and supervisor ledgers are
// bit-identical to the sequential K=1 run. Everything here compares
// serialized bytes, not floats: a mismatch anywhere in the state fails.
#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/metrics.h"
#include "core/sharding.h"
#include "core/simulator.h"
#include "fleet/supervisor.h"
#include "golden_recipe.h"
#include "inject/chaos_plan.h"
#include "inject/fleet_chaos.h"
#include "obs/event_log.h"
#include "snapshot/codec.h"

namespace sgxpl {
namespace {

using core::Scheme;
using core::ShardedFleetRun;
using core::ShardingSpec;
using core::ShardLane;
using core::ShardPool;

/// The shard counts every differential below sweeps. 1 is the reference;
/// 3 does not divide most lane counts (uneven blocks); 8 oversubscribes
/// small fleets (some workers own zero lanes).
constexpr std::size_t kShardCounts[] = {1, 2, 3, 8};

// --- ShardPool --------------------------------------------------------------

TEST(ShardPool, SingleThreadedPoolRunsInlineInIndexOrder) {
  ShardPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::size_t> order;
  pool.run(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ShardPool, EveryJobRunsExactlyOnceAcrossWorkers) {
  ShardPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  // 13 jobs over 4 workers: uneven blocks, every index covered once.
  std::vector<std::atomic<int>> hits(13);
  pool.run(13, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "job " << i;
  }
  // Fewer jobs than workers: the trailing workers own empty blocks.
  std::atomic<int> ran{0};
  pool.run(2, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 2);
}

TEST(ShardPool, IsReusableAcrossManyGenerations) {
  ShardPool pool(3);
  std::atomic<std::uint64_t> total{0};
  for (int round = 0; round < 64; ++round) {
    pool.run(7, [&](std::size_t i) { total += i + 1; });
  }
  EXPECT_EQ(total.load(), 64u * (7u * 8u / 2u));
}

TEST(ShardPool, RethrowsAWorkerExceptionAfterTheBarrier) {
  ShardPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(8,
                        [&](std::size_t i) {
                          ++ran;
                          if (i == 5) {
                            throw std::runtime_error("lane 5 exploded");
                          }
                        }),
               std::runtime_error);
  // The pool joined the generation before rethrowing: it stays usable.
  std::atomic<int> after{0};
  pool.run(4, [&](std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 4);
  EXPECT_GE(ran.load(), 1);
}

// --- differential harness ---------------------------------------------------

/// Serialize Metrics so equality means "bit-identical final state", field
/// renames included — two runs whose Metrics serialize identically finished
/// in indistinguishable states.
std::vector<std::uint8_t> metrics_bytes(const core::Metrics& m) {
  snapshot::Writer w;
  w.begin_section("METR");
  m.save(w);
  w.end_section();
  return w.finish();
}

/// The lane mix every grid cell runs: four tenants across three schemes
/// (two distinct traces plus the SIP-instrumented golden single), so the
/// differential covers the baseline driver, the DFP engine, and the
/// SIP+DFP hybrid in one fleet.
struct LaneFixture {
  trace::Trace a = golden::multi_trace(11);
  trace::Trace b = golden::multi_trace(12);
  trace::Trace s = golden::single_trace();
  sip::InstrumentationPlan plan = golden::single_plan();

  std::vector<ShardLane> lanes() const {
    return {
        ShardLane{&a, Scheme::kBaseline, nullptr},
        ShardLane{&b, Scheme::kDfpStop, nullptr},
        ShardLane{&s, Scheme::kHybrid, &plan},
        ShardLane{&a, Scheme::kDfp, nullptr},
    };
  }

  core::SimConfig base(bool chaos) const {
    core::SimConfig cfg = golden::multi_config();
    if (chaos) {
      cfg.chaos = inject::ChaosPlan::all(/*seed=*/7);
    }
    return cfg;
  }
};

/// Everything one run produces that must be K-invariant: the fleet frame
/// at every epoch barrier, and the per-lane final metrics.
struct RunRecord {
  std::vector<std::vector<std::uint8_t>> frames;  // one per epoch barrier
  std::vector<std::vector<std::uint8_t>> metrics;  // one per lane
  std::uint64_t epochs = 0;
};

RunRecord run_recorded(const LaneFixture& fx, bool chaos,
                       const ShardingSpec& spec) {
  ShardedFleetRun run(fx.base(chaos), fx.lanes(), spec);
  RunRecord rec;
  while (!run.done()) {
    run.run_epoch();
    rec.frames.push_back(run.save_bytes());
  }
  rec.epochs = run.epochs_run();
  for (const core::Metrics& m : run.run_to_end()) {
    rec.metrics.push_back(metrics_bytes(m));
  }
  return rec;
}

/// One coupling configuration of the grid. `gain`/`pool` switch the two
/// cross-lane controllers on, which is where a scheduling-order bug would
/// first show (they read every lane's state at the barrier).
ShardingSpec grid_spec(std::size_t threads, bool coupled) {
  ShardingSpec spec;
  spec.threads = threads;
  spec.epoch_cycles = 200'000;
  if (coupled) {
    spec.contention_gain_milli = 500;
    spec.pool_pages = 96;  // 4 lanes, floor 16 => 32 pages of spare
    spec.quota_floor = 16;
  }
  return spec;
}

/// The tentpole differential: scheme mix x chaos class x K x snapshot
/// cadence. The reference run (K=1) snapshots at EVERY epoch barrier; each
/// K>1 run must reproduce every frame byte-for-byte, which subsumes every
/// sparser snapshot cadence (a cadence-c run's frames are a subset).
TEST(ShardInvariance, GridOverSchemesChaosShardsAndCadence) {
  const LaneFixture fx;
  for (const bool chaos : {false, true}) {
    for (const bool coupled : {false, true}) {
      const RunRecord ref = run_recorded(fx, chaos, grid_spec(1, coupled));
      ASSERT_GT(ref.epochs, 2u) << "workload too small to shard";
      for (const std::size_t k : kShardCounts) {
        if (k == 1) continue;
        const RunRecord got = run_recorded(fx, chaos, grid_spec(k, coupled));
        SCOPED_TRACE("chaos=" + std::to_string(chaos) +
                     " coupled=" + std::to_string(coupled) +
                     " K=" + std::to_string(k));
        EXPECT_EQ(got.epochs, ref.epochs);
        ASSERT_EQ(got.frames.size(), ref.frames.size());
        for (std::size_t e = 0; e < ref.frames.size(); ++e) {
          EXPECT_EQ(got.frames[e], ref.frames[e]) << "epoch barrier " << e;
        }
        // Sparser cadences fall out of the per-epoch equality above; spot
        // the cadence-3 subset explicitly so the property is stated.
        for (std::size_t e = 2; e < ref.frames.size(); e += 3) {
          EXPECT_EQ(got.frames[e], ref.frames[e]);
        }
        ASSERT_EQ(got.metrics.size(), ref.metrics.size());
        for (std::size_t i = 0; i < ref.metrics.size(); ++i) {
          EXPECT_EQ(got.metrics[i], ref.metrics[i]) << "lane " << i;
        }
      }
    }
  }
}

/// Chaos schedules must be a function of the lane index alone: the chaos
/// grid cell above already proves it across K, this pins that chaos is
/// actually firing (a vacuous differential would also "pass").
TEST(ShardInvariance, ChaosLanesActuallyInjectFaults) {
  const LaneFixture fx;
  ShardedFleetRun run(fx.base(/*chaos=*/true), fx.lanes(), grid_spec(8, true));
  std::uint64_t fired = 0;
  for (const core::Metrics& m : run.run_to_end()) {
    fired += m.inject.total_fired();
  }
  EXPECT_GT(fired, 0u);
}

// --- kill/restore under K > 1 ----------------------------------------------

/// The cut sweep, by induction over the epoch barriers: snapshot the
/// reference at every barrier, then at EVERY cut resurrect a FRESH fleet at
/// a different shard count from that frame, run one epoch, and demand the
/// next barrier's frame byte for byte. Chained over the cuts, that proves a
/// resumed run matches every remaining barrier at O(run) cost. The first
/// and the last cut at each shard count also run to the end and compare the
/// final metrics. K at save time and K at restore time are swept
/// independently (the spec string excludes K, so an 8-way snapshot must
/// land in a 1-way run and vice versa).
TEST(ShardInvariance, KillRestoreCutSweepAcrossShardCounts) {
  const LaneFixture fx;
  const bool chaos = true;
  const RunRecord ref = run_recorded(fx, chaos, grid_spec(3, true));
  const std::size_t cuts = ref.frames.size();
  ASSERT_GT(cuts, 8u);
  for (std::size_t cut = 0; cut < cuts; ++cut) {
    const std::size_t restore_k = kShardCounts[cut % 4];
    ShardedFleetRun resumed(fx.base(chaos), fx.lanes(),
                            grid_spec(restore_k, true));
    resumed.load_bytes(ref.frames[cut]);
    EXPECT_EQ(resumed.epochs_run(), cut + 1);
    if (cut + 1 == cuts) {
      EXPECT_TRUE(resumed.done()) << "the last frame resumed unfinished";
    } else {
      ASSERT_FALSE(resumed.done()) << "cut " << cut << " resumed finished";
      resumed.run_epoch();
      EXPECT_EQ(resumed.save_bytes(), ref.frames[cut + 1])
          << "cut " << cut << " restore_k " << restore_k;
    }
    if (cut >= 4 && cut + 4 < cuts) {
      continue;
    }
    while (!resumed.done()) {
      resumed.run_epoch();
    }
    EXPECT_EQ(resumed.epochs_run(), ref.epochs) << "cut " << cut;
    const std::vector<core::Metrics> fin = resumed.run_to_end();
    ASSERT_EQ(fin.size(), ref.metrics.size());
    for (std::size_t i = 0; i < fin.size(); ++i) {
      EXPECT_EQ(metrics_bytes(fin[i]), ref.metrics[i])
          << "cut " << cut << " lane " << i;
    }
  }
}

TEST(ShardInvariance, RestoreIsMetaGatedAndRejectsCorruptFrames) {
  const LaneFixture fx;
  ShardedFleetRun donor(fx.base(false), fx.lanes(), grid_spec(2, true));
  donor.run_epoch();
  const std::vector<std::uint8_t> frame = donor.save_bytes();

  // A different coupling spec is a different experiment: refuse quietly.
  ShardedFleetRun other(fx.base(false), fx.lanes(), grid_spec(2, false));
  EXPECT_FALSE(other.restore_if_compatible(frame));

  // A different lane count cannot hold this frame either.
  std::vector<ShardLane> three = fx.lanes();
  three.pop_back();
  ShardedFleetRun narrower(fx.base(false), three, grid_spec(2, true));
  EXPECT_FALSE(narrower.restore_if_compatible(frame));

  // Same fleet, corrupt payload: typed failure, not garbage state.
  ShardedFleetRun target(fx.base(false), fx.lanes(), grid_spec(8, true));
  std::vector<std::uint8_t> bad = frame;
  bad[bad.size() / 2] ^= 0x40;
  EXPECT_THROW(target.restore_if_compatible(bad), CheckFailure);
  // And the pristine frame restores into the 8-way fleet.
  EXPECT_TRUE(target.restore_if_compatible(frame));
  EXPECT_EQ(target.save_bytes(), frame);
}

TEST(ShardInvariance, SpecStringExcludesTheShardCount) {
  EXPECT_EQ(grid_spec(1, true).spec(), grid_spec(8, true).spec());
  EXPECT_NE(grid_spec(1, true).spec(), grid_spec(1, false).spec());
}

// --- FleetSupervisor.shard_threads ------------------------------------------

fleet::SupervisorPolicy sup_policy(std::uint64_t k) {
  fleet::SupervisorPolicy p;
  p.epoch_steps = 16;
  p.checkpoint.mode = fleet::CheckpointMode::kFixed;
  p.checkpoint.fixed_every = 32;
  p.checkpoint.full_every = 4;
  p.shard_threads = k;
  return p;
}

inject::HostCrashPlan crashy_plan() {
  inject::HostCrashPlan plan;
  plan.enabled = true;
  plan.crash_per_epoch = 0.08;
  plan.torn_frac = 0.5;
  plan.seed = 42;
  return plan;
}

void expect_same_report(const fleet::FleetReport& got,
                        const fleet::FleetReport& ref) {
  EXPECT_EQ(got.epochs, ref.epochs);
  EXPECT_EQ(got.makespan, ref.makespan);
  EXPECT_EQ(got.ledger.tenants_total, ref.ledger.tenants_total);
  EXPECT_EQ(got.ledger.running, ref.ledger.running);
  EXPECT_EQ(got.ledger.finished, ref.ledger.finished);
  EXPECT_EQ(got.ledger.quarantined, ref.ledger.quarantined);
  EXPECT_EQ(got.ledger.crashes, ref.ledger.crashes);
  EXPECT_EQ(got.ledger.recoveries, ref.ledger.recoveries);
  EXPECT_EQ(got.ledger.cold_starts, ref.ledger.cold_starts);
  EXPECT_EQ(got.ledger.torn_checkpoints, ref.ledger.torn_checkpoints);
  EXPECT_EQ(got.ledger.checkpoints, ref.ledger.checkpoints);
  EXPECT_EQ(got.ledger.evacuations_completed,
            ref.ledger.evacuations_completed);
  EXPECT_EQ(got.ledger.evacuation_retries, ref.ledger.evacuation_retries);
  EXPECT_EQ(got.ledger.hosts_retired, ref.ledger.hosts_retired);
  EXPECT_EQ(got.ledger.hosts_spawned, ref.ledger.hosts_spawned);
  ASSERT_EQ(got.crash_incidents.size(), ref.crash_incidents.size());
  for (std::size_t i = 0; i < ref.crash_incidents.size(); ++i) {
    const fleet::CrashIncident& g = got.crash_incidents[i];
    const fleet::CrashIncident& r = ref.crash_incidents[i];
    EXPECT_EQ(g.host, r.host) << "incident " << i;
    EXPECT_EQ(g.at_epoch, r.at_epoch) << "incident " << i;
    EXPECT_EQ(g.steps_at_crash, r.steps_at_crash) << "incident " << i;
    EXPECT_EQ(g.steps_at_checkpoint, r.steps_at_checkpoint)
        << "incident " << i;
    EXPECT_EQ(g.rpo_steps, r.rpo_steps) << "incident " << i;
    EXPECT_EQ(g.rpo_cycles, r.rpo_cycles) << "incident " << i;
    EXPECT_EQ(g.rto_cycles, r.rto_cycles) << "incident " << i;
    EXPECT_EQ(g.frames_offered, r.frames_offered) << "incident " << i;
    EXPECT_EQ(g.frames_salvaged, r.frames_salvaged) << "incident " << i;
    EXPECT_EQ(g.torn_tail, r.torn_tail) << "incident " << i;
    EXPECT_EQ(g.cold_start, r.cold_start) << "incident " << i;
  }
  ASSERT_EQ(got.evacuation_incidents.size(), ref.evacuation_incidents.size());
  for (std::size_t i = 0; i < ref.evacuation_incidents.size(); ++i) {
    const fleet::EvacuationIncident& g = got.evacuation_incidents[i];
    const fleet::EvacuationIncident& r = ref.evacuation_incidents[i];
    EXPECT_EQ(g.host, r.host) << "evacuation " << i;
    EXPECT_EQ(g.tenant_id, r.tenant_id) << "evacuation " << i;
    EXPECT_EQ(g.at_epoch, r.at_epoch) << "evacuation " << i;
    EXPECT_EQ(g.attempts, r.attempts) << "evacuation " << i;
    EXPECT_EQ(g.outcome, r.outcome) << "evacuation " << i;
    EXPECT_EQ(g.backoff_epochs, r.backoff_epochs) << "evacuation " << i;
    EXPECT_EQ(g.detail, r.detail) << "evacuation " << i;
  }
}

/// Mid-flight differential on a quiet fleet: after a fixed number of
/// epochs, every host's full frame, the supervisor manifest, and the event
/// stream must match the sequential run byte-for-byte at every K.
TEST(SupervisorSharding, MidRunHostFramesManifestAndEventsMatchSequential) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  constexpr std::uint64_t kEpochs = 12;

  auto capture = [&](std::uint64_t k) {
    obs::EventLog log;
    fleet::FleetSupervisor sup(sup_policy(k), inject::HostCrashPlan{});
    sup.set_event_log(&log);
    sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
    sup.add_host(golden::multi_config(), golden::multi_apps(b, a));
    sup.add_host(golden::multi_config(), golden::multi_apps(a, a));
    for (std::uint64_t e = 0; e < kEpochs && !sup.done(); ++e) {
      sup.run_epoch();
    }
    struct Snap {
      std::vector<std::vector<std::uint8_t>> hosts;
      std::vector<std::uint8_t> manifest;
      std::string events;
    } snap;
    for (std::size_t h = 0; h < sup.host_count(); ++h) {
      EXPECT_NE(sup.host_run(h), nullptr) << "host " << h;
      if (sup.host_run(h) != nullptr) {
        snap.hosts.push_back(sup.host_run(h)->save_bytes());
      }
    }
    snap.manifest = sup.save_manifest();
    snap.events = log.render();
    return snap;
  };

  const auto ref = capture(1);
  ASSERT_EQ(ref.hosts.size(), 3u);
  for (const std::size_t k : kShardCounts) {
    if (k == 1) continue;
    const auto got = capture(k);
    SCOPED_TRACE("K=" + std::to_string(k));
    ASSERT_EQ(got.hosts.size(), ref.hosts.size());
    for (std::size_t h = 0; h < ref.hosts.size(); ++h) {
      EXPECT_EQ(got.hosts[h], ref.hosts[h]) << "host " << h;
    }
    EXPECT_EQ(got.manifest, ref.manifest);
    EXPECT_EQ(got.events, ref.events);
  }
}

/// Full-service differential under host chaos: crashes, torn checkpoints,
/// salvage+replay recovery, evacuations, and retirement all run under K
/// workers and must land on the sequential incident history exactly.
TEST(SupervisorSharding, ChaoticServiceRunIsShardCountInvariant) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);

  auto run_fleet = [&](std::uint64_t k) {
    obs::EventLog log;
    fleet::FleetSupervisor sup(sup_policy(k), crashy_plan());
    sup.set_event_log(&log);
    sup.add_host(golden::multi_config(), golden::multi_apps(a, b));
    sup.add_host(golden::multi_config(), golden::multi_apps(b, a));
    sup.add_host(golden::multi_config(), golden::multi_apps(a, a));
    sup.add_host(golden::multi_config(), golden::multi_apps(b, b));
    struct Out {
      fleet::FleetReport report;
      std::vector<std::uint8_t> manifest;
      std::string events;
      std::uint64_t chaos_crashes = 0;
    } out;
    out.report = sup.run_to_completion(5'000);
    out.manifest = sup.save_manifest();
    out.events = log.render();
    out.chaos_crashes = sup.chaos().stats().crashes;
    return out;
  };

  const auto ref = run_fleet(1);
  // The differential is only meaningful if chaos actually fired.
  ASSERT_GT(ref.report.ledger.crashes, 0u);
  EXPECT_TRUE(ref.report.ledger.balanced());
  for (const std::size_t k : kShardCounts) {
    if (k == 1) continue;
    const auto got = run_fleet(k);
    SCOPED_TRACE("K=" + std::to_string(k));
    expect_same_report(got.report, ref.report);
    EXPECT_EQ(got.manifest, ref.manifest);
    EXPECT_EQ(got.events, ref.events);
    EXPECT_EQ(got.chaos_crashes, ref.chaos_crashes);
    EXPECT_TRUE(got.report.ledger.balanced());
  }
}

/// shard_threads must not leak into the policy fingerprint: a manifest
/// saved under K=8 loads into a K=1 supervisor.
TEST(SupervisorSharding, ManifestCrossesShardCounts) {
  const trace::Trace a = golden::multi_trace(11);
  const trace::Trace b = golden::multi_trace(12);
  EXPECT_EQ(sup_policy(1).spec(), sup_policy(8).spec());

  fleet::FleetSupervisor donor(sup_policy(8), inject::HostCrashPlan{});
  donor.add_host(golden::multi_config(), golden::multi_apps(a, b));
  for (int e = 0; e < 4 && !donor.done(); ++e) {
    donor.run_epoch();
  }
  const std::vector<std::uint8_t> manifest = donor.save_manifest();

  fleet::FleetSupervisor heir(sup_policy(1), inject::HostCrashPlan{});
  heir.add_host(golden::multi_config(), golden::multi_apps(a, b));
  heir.load_manifest(manifest);
  EXPECT_EQ(heir.save_manifest(), manifest);
}

}  // namespace
}  // namespace sgxpl
