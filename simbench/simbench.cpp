// simbench: the simulator's host-time benchmark (README.md beside this file
// says what each workload stresses and which metric each layer moves).
//
// One process runs one workload as a closed loop with a single client: jobs
// run back to back, each to completion before the next starts. A job is one
// whole simulation (a SimulationRun, or a FleetSupervisor for chaos_fleet).
// The timed loop runs whole rounds over the job list until --seconds have
// passed, so every run measures the same job mix.
//
// Simulated results are behaviour, not speed: every job's simulated digest
// must equal the pinned value (default seed, --pinned) or, for other seeds,
// the digest the same job produced first in this process. A job that throws,
// fails validation or changes its digest counts as failed.
//
// --trace 0 prints the end-to-end metrics (tracing off). --trace 1 runs the
// same jobs untraced and traced in turn and prints the per-layer split: each
// SimulationRun::step() (or FleetSupervisor::run_epoch()) is timed from
// outside and classified by the driver-stat deltas it caused.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/multi_enclave.h"
#include "core/scheme.h"
#include "core/simulator.h"
#include "dfp/stream_predictor.h"
#include "fleet/supervisor.h"
#include "inject/chaos_plan.h"
#include "inject/fleet_chaos.h"
#include "sgxsim/driver.h"
#include "sgxsim/epc.h"
#include "sip/pipeline.h"
#include "trace/workloads.h"

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace sgxpl;
using Clock = std::chrono::steady_clock;

/// The seed whose per-job digests are pinned (pinned_digests.txt).
constexpr std::uint64_t kDefaultSeed = 1;
/// An untraced run sets up at least kSetupMinReps times and for at least
/// kSetupMinSeconds (cheap set-ups repeat more); setup_s is the median.
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 50;
constexpr double kSetupMinSeconds = 0.5;
/// Trace scales, fixed here so every run measures the same amount of work.
constexpr double kRegularScale = 1.0;
constexpr double kIrregularScale = 0.3;
constexpr double kFleetScale = 0.02;
/// Seed of the chaos and host-crash schedules. The failure schedule is part
/// of chaos_fleet's definition, not of its input: every --seed faces the
/// same schedule, so input seeds change the work, not the number of crashes.
constexpr std::uint64_t kChaosSeed = 0x5eed;

volatile std::uint64_t g_sink = 0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string pinned_path;  // per-job digests of the default seed
  bool print_digests = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "simbench: " << msg
            << "\nusage: simbench --workload <regular_dfp|irregular_hybrid|"
               "chaos_fleet> [--seed n] [--seconds s] [--trace 0|1]\n"
               "                [--pinned <digests.txt>] [--print-digests]\n";
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-digests") {
      o.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage_error("missing value after " + arg);
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage_error("bad --seed '" + v + "'");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0)) {
        usage_error("bad --seconds '" + v + "'");
      }
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage_error("--trace wants 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--pinned") {
      o.pinned_path = v;
    } else {
      usage_error("unknown argument '" + arg + "'");
    }
  }
  if (o.workload != "regular_dfp" && o.workload != "irregular_hybrid" &&
      o.workload != "chaos_fleet") {
    usage_error("unknown workload '" + o.workload + "'");
  }
  return o;
}

// --- simulated digests -------------------------------------------------------

/// FNV-1a over 64-bit words: a job's simulated outcome in one number.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Expected digest per job: the pinned values for the default seed,
/// otherwise the first digest the job produced in this process.
class DigestBook {
 public:
  explicit DigestBook(const Options& o) : workload_(o.workload) {
    if (o.seed != kDefaultSeed || o.pinned_path.empty()) {
      return;
    }
    pinned_mode_ = true;
    std::ifstream in(o.pinned_path);
    if (!in) {
      std::cerr << "simbench: cannot read " << o.pinned_path << "\n";
      std::exit(2);
    }
    std::string wl, job, digest;
    while (in >> wl >> job >> digest) {
      if (wl == workload_) {
        expected_[job] = digest;
      }
    }
  }

  /// Records `digest` for `job`; false when it differs from the expectation.
  bool check(const std::string& job, std::uint64_t digest) {
    const std::string got = hex(digest);
    if (first_.emplace(job, got).second && !pinned_mode_) {
      expected_[job] = got;
    }
    const auto it = expected_.find(job);
    if (it == expected_.end()) {
      return fail(job, "no pinned digest (got " + got + ")");
    }
    if (it->second != got) {
      return fail(job, "digest " + got + " != expected " + it->second);
    }
    return true;
  }

  /// Reports the first failure of each job on stderr; always false.
  bool fail(const std::string& job, const std::string& why) {
    if (reported_.insert(job).second) {
      std::cerr << "simbench: job " << job << " failed: " << why << "\n";
    }
    return false;
  }

  void print() const {
    for (const auto& [job, d] : first_) {
      std::cout << "digest " << workload_ << " " << job << " " << d << "\n";
    }
  }

 private:
  std::string workload_;
  bool pinned_mode_ = false;
  std::map<std::string, std::string> expected_;
  std::map<std::string, std::string> first_;
  std::set<std::string> reported_;
};

// --- workloads ---------------------------------------------------------------

struct Job {
  std::string name;
  bool fleet = false;
  // Single-enclave jobs:
  const trace::Trace* trace = nullptr;
  const sip::InstrumentationPlan* plan = nullptr;
  core::SimConfig cfg;
  /// Simulated trace accesses one completed job represents.
  std::uint64_t accesses = 0;
};

/// Everything set-up builds: inputs, SIP plans, configurations and the job
/// list. Traces and plans live in deques so jobs can point at them.
struct Bench {
  std::deque<trace::Trace> traces;
  std::deque<sip::InstrumentationPlan> plans;
  std::vector<Job> jobs;
  /// chaos_fleet only: each tenant alone under its host's driver
  /// configuration. The supervisor does not expose host drivers, so the
  /// traced run steps these to split chaos-path step time.
  std::vector<Job> probes;
  // chaos_fleet only:
  std::vector<core::SimConfig> host_cfgs;
  std::vector<std::vector<core::EnclaveApp>> hosts;
  fleet::SupervisorPolicy policy;
  inject::HostCrashPlan crash;

  /// job_ms_tail's percentile: the highest that leaves at least ten jobs
  /// beyond it in a 20 s run on a slow host today. Fixed per workload, so
  /// a faster simulator reports the same quantile over more jobs.
  int tail_pct = 50;

  double trace_gen_ms = 0.0;
  double sip_compile_ms = 0.0;
  std::uint64_t sip_points = 0;
};

/// paper_platform with the EPC scaled to the trace scale (the bench_platform
/// ratio rule) and the end-of-run structural check on.
core::SimConfig scaled_platform(core::Scheme scheme, double scale) {
  core::SimConfig cfg = core::paper_platform(scheme);
  cfg.enclave.epc_pages = static_cast<PageNum>(
      static_cast<double>(sgxsim::kDefaultEpcPages) * scale);
  cfg.validate = true;
  return cfg;
}

const trace::Workload& registry_workload(const std::string& name) {
  const trace::Workload* w = trace::find_workload(name);
  if (w == nullptr) {
    std::cerr << "simbench: workload registry has no '" << name << "'\n";
    std::exit(2);
  }
  return *w;
}

const trace::Trace& make_trace(Bench& b, const std::string& name,
                               const trace::WorkloadParams& p) {
  const auto t0 = Clock::now();
  b.traces.push_back(registry_workload(name).make(p));
  b.trace_gen_ms += ms_between(t0, Clock::now());
  return b.traces.back();
}

const char* scheme_tag(core::Scheme s) {
  switch (s) {
    case core::Scheme::kBaseline:
      return "baseline";
    case core::Scheme::kDfpStop:
      return "dfp-stop";
    case core::Scheme::kHybrid:
      return "hybrid";
    default:
      return "other";
  }
}

Job single_job(const trace::Trace& t, const core::SimConfig& cfg,
               const sip::InstrumentationPlan* plan = nullptr) {
  Job j;
  j.name = t.name() + "/" + scheme_tag(cfg.scheme);
  j.trace = &t;
  j.plan = plan;
  j.cfg = cfg;
  j.accesses = t.size();
  return j;
}

void setup_regular_dfp(Bench& b, std::uint64_t seed) {
  b.tail_pct = 90;
  for (const char* name : {"lbm", "microbenchmark", "SIFT"}) {
    const trace::Trace& t = make_trace(
        b, name, {.scale = kRegularScale, .seed = seed, .train = false});
    for (const core::Scheme s :
         {core::Scheme::kBaseline, core::Scheme::kDfpStop}) {
      b.jobs.push_back(single_job(t, scaled_platform(s, kRegularScale)));
    }
  }
}

void setup_irregular_hybrid(Bench& b, std::uint64_t seed) {
  b.tail_pct = 98;
  const core::SimConfig cfg =
      scaled_platform(core::Scheme::kHybrid, kIrregularScale);
  for (const char* name : {"mcf", "deepsjeng", "xz", "MSER", "mixed-blood",
                           "imagick", "leela", "nab", "cactuBSSN"}) {
    const trace::Trace& t = make_trace(
        b, name, {.scale = kIrregularScale, .seed = seed, .train = false});
    // The plan comes from the train input (paper §5.2), which the compile
    // generates itself, so that generation counts as SIP compile time.
    const auto t0 = Clock::now();
    b.plans.push_back(sip::compile_workload(registry_workload(name), cfg.sip,
                                            {.scale = 0.35 * kIrregularScale,
                                             .seed = seed + 1000,
                                             .train = true})
                          .plan);
    b.sip_compile_ms += ms_between(t0, Clock::now());
    b.sip_points += b.plans.back().points();
    b.jobs.push_back(single_job(t, cfg, &b.plans.back()));
  }
}

void setup_chaos_fleet(Bench& b, std::uint64_t seed) {
  // Three hosts x three registry tenants: a DFP-stop tenant at offset 0
  // beside two baseline co-tenants.
  const char* const kTenants[3][3] = {{"mcf", "lbm", "leela"},
                                      {"deepsjeng", "xz", "nab"},
                                      {"microbenchmark", "MSER", "imagick"}};
  b.tail_pct = 80;
  Job fleet_job;
  fleet_job.name = "fleet";
  fleet_job.fleet = true;
  for (std::size_t h = 0; h < 3; ++h) {
    std::vector<core::EnclaveApp> apps;
    PageNum elrange = 0;
    for (std::size_t k = 0; k < 3; ++k) {
      const trace::Trace& t =
          make_trace(b, kTenants[h][k],
                     {.scale = kFleetScale, .seed = seed + h, .train = false});
      apps.push_back({.trace = &t,
                      .scheme = k == 0 ? core::Scheme::kDfpStop
                                       : core::Scheme::kBaseline});
      elrange += t.elrange_pages();
      fleet_job.accesses += t.size();
    }
    core::SimConfig cfg = core::paper_platform(core::Scheme::kBaseline);
    cfg.enclave.epc_pages = std::max<PageNum>(elrange / 2, 64);
    cfg.validate = true;
    cfg.chaos = inject::ChaosPlan::all(kChaosSeed + h);
    cfg.enclave.channel.max_queued = 64;
    cfg.enclave.channel.preload_high_water = 48;
    cfg.enclave.channel.max_retries = 3;
    cfg.enclave.admission.enabled = true;
    cfg.enclave.elastic.enabled = true;
    for (const core::EnclaveApp& app : apps) {
      core::SimConfig probe = cfg;
      probe.scheme = app.scheme;
      probe.enclave.epc_pages =
          std::max<PageNum>(app.trace->elrange_pages() / 2, 64);
      Job j = single_job(*app.trace, probe);
      j.name = "probe-" + j.name;
      b.probes.push_back(std::move(j));
    }
    b.host_cfgs.push_back(cfg);
    b.hosts.push_back(std::move(apps));
  }
  b.jobs.push_back(std::move(fleet_job));

  b.policy.epoch_steps = 128;
  b.policy.checkpoint.mode = fleet::CheckpointMode::kFixed;
  b.policy.checkpoint.fixed_every = 1024;
  b.policy.checkpoint.full_every = 8;  // one full base, then delta frames
  // Hosts never turn crash-prone: evacuating these registry tenants under
  // this hardened configuration ends in quarantine, and a quarantined
  // tenant never finishes its trace, so the job would no longer measure a
  // fixed amount of work.
  b.policy.crash_threshold = std::numeric_limits<std::uint64_t>::max();
  b.policy.seed = kChaosSeed;
  b.policy.shard_threads = 2;
  b.crash.enabled = true;
  b.crash.crash_per_epoch = 0.02;
  b.crash.torn_frac = 0.33;
  b.crash.seed = kChaosSeed;
}

std::unique_ptr<Bench> setup(const Options& o) {
  auto b = std::make_unique<Bench>();
  if (o.workload == "regular_dfp") {
    setup_regular_dfp(*b, o.seed);
  } else if (o.workload == "irregular_hybrid") {
    setup_irregular_hybrid(*b, o.seed);
  } else {
    setup_chaos_fleet(*b, o.seed);
  }
  return b;
}

// --- step tracing ------------------------------------------------------------

/// What one SimulationRun::step() did, judged by the driver-stat deltas it
/// caused, in this priority order.
enum StepClass : std::size_t {
  kWatchdog,
  kScan,
  kSipLoad,
  kFaultEvict,
  kFault,
  kResident,
  kStepClasses,
};

struct TimeSum {
  std::uint64_t n = 0;
  double ns = 0.0;
  void add(double x) {
    ++n;
    ns += x;
  }
  double mean() const { return n == 0 ? 0.0 : ns / static_cast<double>(n); }
};

/// Counters summed over one pass of the job list (the first traced round).
struct PassCounts {
  std::uint64_t steps = 0, faults = 0, evictions = 0, demand_loads = 0,
                fault_wait_hits = 0, scans = 0, fault_stall_cycles = 0,
                watchdog_checks = 0, retries = 0, lost_completions = 0,
                permanent_faults = 0, preloads_shed = 0, inject_fired = 0,
                preloads_issued = 0, preloads_used = 0, predictor_hits = 0,
                predictor_misses = 0, dfp_stopped = 0, sip_loads = 0;
  std::uint64_t fleet_epochs = 0, crashes = 0, recoveries = 0,
                checkpoints = 0, evacuations = 0;
};

struct LayerTrace {
  std::array<TimeSum, kStepClasses> step;
  TimeSum check_invariants;  // ns per direct Driver::check_invariants()
  TimeSum epoch_clean, epoch_crash;
  PassCounts pass;
  bool first_pass = true;
  /// Faulting-page sequence of each DFP job in the first pass, replayed
  /// through a standalone predictor afterwards.
  std::vector<std::vector<PageNum>> fault_pages;
};

struct JobOutcome {
  bool ok = false;
  std::uint64_t digest = 0;
  std::string error;
};

void count_pass(const core::Metrics& m, PassCounts& p) {
  const sgxsim::DriverStats& d = m.driver;
  p.steps += m.accesses;
  p.faults += d.faults;
  p.evictions += d.evictions;
  p.demand_loads += d.demand_loads;
  p.fault_wait_hits += d.fault_wait_hits;
  p.scans += d.scans;
  p.fault_stall_cycles += d.fault_stall_cycles;
  p.watchdog_checks += d.watchdog_checks;
  p.retries += d.retries;
  p.lost_completions += d.lost_completions;
  p.permanent_faults += d.permanent_faults;
  p.preloads_shed += d.preloads_shed;
  p.inject_fired += m.inject.total_fired();
  p.preloads_issued += m.dfp_preload_counter;
  p.preloads_used += m.dfp_acc_preload_counter;
  p.predictor_hits += m.dfp_predictor_hits;
  p.predictor_misses += m.dfp_predictor_misses;
  p.dfp_stopped += m.dfp_stopped ? 1u : 0u;
  p.sip_loads += d.sip_loads;
}

/// Step `run` to the end, timing and classifying every step into `tr`.
void step_traced(core::SimulationRun& run, const Job& job, LayerTrace& tr) {
  const sgxsim::DriverStats& st = run.driver().stats();
  const auto& accesses = job.trace->accesses();
  const bool record = tr.first_pass && job.cfg.uses_dfp();
  std::vector<PageNum> faults;
  while (!run.done()) {
    const std::uint64_t w0 = st.watchdog_checks, s0 = st.scans,
                        l0 = st.sip_loads, f0 = st.faults, e0 = st.evictions;
    const PageNum page = accesses[run.cursor()].page;
    const auto t0 = Clock::now();
    run.step();
    const double ns = ns_since(t0);
    StepClass c = kResident;
    if (st.watchdog_checks != w0) {
      c = kWatchdog;
    } else if (st.scans != s0) {
      c = kScan;
    } else if (st.sip_loads != l0) {
      c = kSipLoad;
    } else if (st.faults != f0) {
      c = st.evictions != e0 ? kFaultEvict : kFault;
    }
    tr.step[c].add(ns);
    if (record && st.faults != f0) {
      faults.push_back(page);
    }
  }
  const auto t0 = Clock::now();
  run.driver().check_invariants();
  tr.check_invariants.add(ns_since(t0));
  if (record) {
    tr.fault_pages.push_back(std::move(faults));
  }
}

JobOutcome run_single(const Job& job, LayerTrace* tr) {
  core::SimulationRun run(job.cfg, *job.trace, job.plan);
  core::Metrics m;
  if (tr == nullptr) {
    m = run.run_to_end();
  } else {
    step_traced(run, job, *tr);
    m = run.finish();
    if (tr->first_pass) {
      count_pass(m, tr->pass);
    }
  }
  Digest d;
  d.add(m.total_cycles);
  d.add(m.enclave_faults);
  d.add(m.driver.evictions);
  d.add(m.driver.preloads_used);
  return {.ok = true, .digest = d.value(), .error = {}};
}

JobOutcome run_fleet(const Bench& b, LayerTrace* tr) {
  fleet::FleetSupervisor sup(b.policy, b.crash);
  for (std::size_t h = 0; h < b.hosts.size(); ++h) {
    sup.add_host(b.host_cfgs[h], b.hosts[h]);
  }
  constexpr std::uint64_t kMaxEpochs = 1'000'000;
  fleet::FleetReport r;
  if (tr == nullptr) {
    r = sup.run_to_completion(kMaxEpochs);
  } else {
    for (std::uint64_t e = 0; e < kMaxEpochs && !sup.done(); ++e) {
      const std::uint64_t crashes = sup.ledger().crashes;
      const auto t0 = Clock::now();
      sup.run_epoch();
      const double ns = ns_since(t0);
      (sup.ledger().crashes != crashes ? tr->epoch_crash : tr->epoch_clean)
          .add(ns);
    }
    r = sup.run_to_completion(0);  // settles retirements, builds the report
    if (tr->first_pass) {
      PassCounts& p = tr->pass;
      p.fleet_epochs += r.epochs;
      p.crashes += r.ledger.crashes;
      p.recoveries += r.ledger.recoveries;
      p.checkpoints += r.ledger.checkpoints;
      p.evacuations += r.ledger.evacuations_completed;
    }
  }
  // The soak_suite's acceptance rules: the ledger balances, the fleet
  // drains, every crash is recovered, and every RPO equals its gap.
  const fleet::FleetLedger& l = r.ledger;
  if (!l.balanced() || l.running != 0) {
    return {.ok = false, .digest = 0,
            .error = "fleet ledger does not balance or did not drain"};
  }
  if (l.crashes != l.recoveries) {
    return {.ok = false, .digest = 0, .error = "a crash was never recovered"};
  }
  if (l.finished != l.tenants_total) {
    return {.ok = false, .digest = 0,
            .error = std::to_string(l.tenants_total - l.finished) +
                     " tenant(s) did not finish"};
  }
  Digest d;
  for (const std::uint64_t v :
       {l.tenants_total, l.finished, l.quarantined, l.crashes, l.recoveries,
        l.cold_starts, l.torn_checkpoints, l.checkpoints,
        l.evacuations_completed, l.evacuation_retries, l.hosts_retired,
        l.hosts_spawned, r.epochs, r.makespan}) {
    d.add(v);
  }
  for (const fleet::CrashIncident& inc : r.crash_incidents) {
    if (inc.rpo_steps != inc.steps_at_crash - inc.steps_at_checkpoint) {
      return {.ok = false, .digest = 0,
              .error = "an incident's RPO differs from its checkpoint gap"};
    }
    for (const std::uint64_t v :
         {static_cast<std::uint64_t>(inc.host), inc.at_epoch,
          inc.steps_at_crash, inc.rpo_steps, inc.rpo_cycles, inc.rto_cycles,
          static_cast<std::uint64_t>(inc.torn_tail)}) {
      d.add(v);
    }
  }
  for (const fleet::EvacuationIncident& inc : r.evacuation_incidents) {
    d.add(inc.tenant_id);
    d.add(static_cast<std::uint64_t>(inc.outcome));
  }
  return {.ok = true, .digest = d.value(), .error = {}};
}

/// Run one job and check its digest; no exception escapes.
bool run_checked(const Bench& b, const Job& job, DigestBook& book,
                 LayerTrace* tr) {
  JobOutcome out;
  try {
    out = job.fleet ? run_fleet(b, tr) : run_single(job, tr);
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
  if (!out.ok) {
    return book.fail(job.name, out.error);
  }
  return book.check(job.name, out.digest);
}

// --- CPU rotation -------------------------------------------------------------

/// Pins the calling thread to each CPU the process may use, in turn. On a
/// shared host each vCPU's speed swings on its own for seconds to minutes
/// (a probe saw per-CPU medians of 12 and 21 ms for the same job at the
/// same time), and a single-threaded job loop left alone stays on one of
/// them. Rotating makes every run sample all of them.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
      }
    }
  }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;
  ~CpuRotor() { release(); }

  /// Pin to the next CPU; multi-threaded jobs (`spread`) get them all.
  void next(bool spread) {
    if (cpus_.empty()) return;
    if (spread) {
      release();
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

// --- host context ------------------------------------------------------------

double spin_seconds(std::size_t threads) {
  constexpr std::uint64_t kIters = 30'000'000;
  std::atomic<std::uint64_t> sink{0};
  const auto body = [&sink](std::uint64_t salt) {
    std::uint64_t x = salt;
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back(body, t + 1);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  g_sink = sink.load();
  return ms_between(t0, Clock::now()) / 1e3;
}

struct Host {
  unsigned nproc = 1;
  /// Throughput of nproc spinning threads over that of one.
  double parallelism = 1.0;
};

Host measure_host() {
  Host h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> one, all;
  for (int r = 0; r < 3; ++r) {
    one.push_back(spin_seconds(1));
    all.push_back(spin_seconds(h.nproc));
  }
  h.parallelism = static_cast<double>(h.nproc) * median(one) / median(all);
  return h;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Host cost of one timed empty region (two clock reads), in ns.
double clock_ns() {
  constexpr int kReps = 1'000'000;
  double total = 0.0;
  for (int i = 0; i < kReps; ++i) {
    total += ns_since(Clock::now());
  }
  return total / kReps;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void print_result(std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
       << num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_host(const Host& h) {
  std::cout << "host {\"nproc\": " << h.nproc
            << ", \"parallelism\": " << num(h.parallelism)
            << ", \"compiler\": \"" << compiler()
            << "\", \"build_type\": \"" << SIMBENCH_BUILD_TYPE << "\"}\n";
}

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

// --- the two run modes -------------------------------------------------------

int run_end_to_end(const Options& o, DigestBook& book) {
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  std::unique_ptr<Bench> b;
  for (int r = 0; r < kSetupMaxReps &&
                  (r < kSetupMinReps || setup_total_s < kSetupMinSeconds);
       ++r) {
    b.reset();
    const auto t0 = Clock::now();
    b = setup(o);
    setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    setup_total_s += setup_s.back();
  }

  std::uint64_t attempted = 0, failed = 0, accesses = 0;
  // One untimed round first, so heap growth and cold caches stay out of
  // the timed phase; its jobs are checked like any other.
  for (const Job& job : b->jobs) {
    ++attempted;
    failed += run_checked(*b, job, book, nullptr) ? 0 : 1;
  }
  std::vector<double> job_ms, round_ms;
  CpuRotor rotor;
  const auto start = Clock::now();
  const auto deadline = deadline_after(o.seconds);
  do {
    const auto round_start = Clock::now();
    for (const Job& job : b->jobs) {
      rotor.next(job.fleet);
      const auto t0 = Clock::now();
      const bool ok = run_checked(*b, job, book, nullptr);
      job_ms.push_back(ms_between(t0, Clock::now()));
      ++attempted;
      if (ok) {
        accesses += job.accesses;
      } else {
        ++failed;
      }
    }
    round_ms.push_back(ms_between(round_start, Clock::now()));
  } while (Clock::now() < deadline);
  const double timed_s = ms_between(start, Clock::now()) / 1e3;

  // Tail: nearest rank at the workload's percentile.
  std::sort(job_ms.begin(), job_ms.end());
  const std::size_t n = job_ms.size();
  const std::size_t rank = std::clamp<std::size_t>(
      (n * static_cast<std::size_t>(b->tail_pct) + 99) / 100, 1, n);
  const double tail = job_ms[rank - 1];
  std::cout << "job_ms_tail is p" << b->tail_pct << " of " << n << " jobs ("
            << n - rank << " beyond it, " << b->jobs.size()
            << " per round)\n";
  if (o.print_digests) {
    book.print();
  }
  print_result(attempted, failed,
               {{"setup_s", median(setup_s), "s"},
                {"sim_accesses_per_s",
                 static_cast<double>(accesses) / timed_s, "1/s"},
                // Every round holds the same job mix, so the median round
                // per job never jumps between job types the way a median
                // over a mix of job lengths does.
                {"job_ms_p50",
                 median(round_ms) / static_cast<double>(b->jobs.size()), "ms"},
                {"job_ms_tail", tail, "ms"},
                {"peak_rss_mb", peak_rss_mib(), "MiB"}});
  return 0;
}

/// Host cost of save_bytes()/load_bytes() on a run stepped `steps` far.
template <class MakeRun>
void time_snapshot(const MakeRun& make, std::uint64_t steps, double* save_ms,
                   double* load_ms, double* frame_bytes) {
  constexpr int kReps = 5;
  auto run = make();
  for (std::uint64_t i = 0; i < steps && !run->done(); ++i) {
    run->step();
  }
  std::vector<double> save, load;
  std::vector<std::uint8_t> bytes;
  for (int r = 0; r < kReps; ++r) {
    auto t0 = Clock::now();
    bytes = run->save_bytes();
    save.push_back(ms_between(t0, Clock::now()));
    auto fresh = make();
    t0 = Clock::now();
    fresh->load_bytes(bytes);
    load.push_back(ms_between(t0, Clock::now()));
  }
  *save_ms = median(save);
  *load_ms = median(load);
  *frame_bytes = static_cast<double>(bytes.size());
}

/// Mean host ns of StreamPredictor::on_fault over the recorded sequences,
/// each replayed through a fresh predictor.
double predictor_ns_per_fault(const std::vector<std::vector<PageNum>>& seqs,
                              const dfp::StreamPredictorParams& params) {
  std::uint64_t per_pass = 0;
  for (const auto& s : seqs) {
    per_pass += s.size();
  }
  if (per_pass == 0) {
    return 0.0;
  }
  std::uint64_t calls = 0, acc = 0;
  const auto t0 = Clock::now();
  do {
    for (const auto& s : seqs) {
      dfp::StreamPredictor sp(params);
      for (const PageNum p : s) {
        acc += sp.on_fault(ProcessId{0}, p).size();
      }
    }
    calls += per_pass;
  } while (calls < 2'000'000);
  g_sink = acc;
  return ns_since(t0) / static_cast<double>(calls);
}

int run_traced(const Options& o, DigestBook& book, const Host& host) {
  const std::unique_ptr<Bench> b = setup(o);
  const double clock_cost = clock_ns();
  LayerTrace tr;
  std::uint64_t attempted = 0, failed = 0;
  double untraced_ms = 0.0, traced_ms = 0.0;
  CpuRotor rotor;
  const auto deadline = deadline_after(o.seconds);
  do {
    for (const Job& job : b->jobs) {
      rotor.next(job.fleet);
      auto t0 = Clock::now();
      failed += run_checked(*b, job, book, nullptr) ? 0 : 1;
      untraced_ms += ms_between(t0, Clock::now());
      t0 = Clock::now();
      failed += run_checked(*b, job, book, &tr) ? 0 : 1;
      traced_ms += ms_between(t0, Clock::now());
      attempted += 2;
    }
    for (const Job& job : b->probes) {
      rotor.next(false);
      failed += run_checked(*b, job, book, &tr) ? 0 : 1;
      ++attempted;
    }
    tr.first_pass = false;
  } while (Clock::now() < deadline);
  rotor.release();

  double save_ms = 0.0, load_ms = 0.0, frame_bytes = 0.0;
  if (!b->hosts.empty()) {
    std::uint64_t steps = 0;
    for (const core::EnclaveApp& app : b->hosts[0]) {
      steps += app.trace->size();
    }
    time_snapshot(
        [&b] {
          return std::make_unique<core::MultiEnclaveRun>(b->host_cfgs[0],
                                                         b->hosts[0]);
        },
        steps / 2, &save_ms, &load_ms, &frame_bytes);
  } else {
    const Job& job = *std::max_element(
        b->jobs.begin(), b->jobs.end(),
        [](const Job& x, const Job& y) { return x.accesses < y.accesses; });
    time_snapshot(
        [&job] {
          return std::make_unique<core::SimulationRun>(job.cfg, *job.trace,
                                                       job.plan);
        },
        job.accesses / 2, &save_ms, &load_ms, &frame_bytes);
  }
  const double predictor_ns = predictor_ns_per_fault(
      tr.fault_pages, core::paper_platform().dfp.predictor);

  const PassCounts& p = tr.pass;
  const auto ratio = [](std::uint64_t a, std::uint64_t base) {
    return base == 0 ? 0.0
                     : static_cast<double>(a) / static_cast<double>(base);
  };
  const auto cnt = [](std::uint64_t v) { return static_cast<double>(v); };
  std::uint64_t trace_accesses = 0;
  for (const trace::Trace& t : b->traces) {
    trace_accesses += t.size();
  }
  if (o.print_digests) {
    book.print();
  }
  print_result(
      attempted, failed,
      {{"core.steps", cnt(p.steps), "count"},
       {"core.resident_step_ns", tr.step[kResident].mean(), "ns"},
       {"sgxsim.faults", cnt(p.faults), "count"},
       {"sgxsim.evictions", cnt(p.evictions), "count"},
       {"sgxsim.demand_loads", cnt(p.demand_loads), "count"},
       {"sgxsim.fault_wait_hits", cnt(p.fault_wait_hits), "count"},
       {"sgxsim.fault_step_ns", tr.step[kFault].mean(), "ns"},
       {"sgxsim.fault_evict_step_ns", tr.step[kFaultEvict].mean(), "ns"},
       {"sgxsim.scans", cnt(p.scans), "count"},
       {"sgxsim.scan_step_ns", tr.step[kScan].mean(), "ns"},
       {"sgxsim.fault_stall_cycles", cnt(p.fault_stall_cycles), "cycles"},
       {"sgxsim.watchdog_checks", cnt(p.watchdog_checks), "count"},
       {"sgxsim.watchdog_step_ns", tr.step[kWatchdog].mean(), "ns"},
       {"sgxsim.check_invariants_us", tr.check_invariants.mean() / 1e3, "us"},
       {"sgxsim.retries", cnt(p.retries), "count"},
       {"sgxsim.lost_completions", cnt(p.lost_completions), "count"},
       {"sgxsim.permanent_faults", cnt(p.permanent_faults), "count"},
       {"sgxsim.preloads_shed", cnt(p.preloads_shed), "count"},
       {"inject.fired", cnt(p.inject_fired), "count"},
       {"dfp.preloads_issued", cnt(p.preloads_issued), "count"},
       {"dfp.preload_accuracy", ratio(p.preloads_used, p.preloads_issued),
        "ratio"},
       {"dfp.predictor_hit_ratio",
        ratio(p.predictor_hits, p.predictor_hits + p.predictor_misses),
        "ratio"},
       {"dfp.stopped_jobs", cnt(p.dfp_stopped), "count"},
       {"dfp.predictor_ns_per_fault", predictor_ns, "ns"},
       {"sip.compile_ms", b->sip_compile_ms, "ms"},
       {"sip.points", cnt(b->sip_points), "count"},
       {"sip.loads", cnt(p.sip_loads), "count"},
       {"sip.load_step_ns", tr.step[kSipLoad].mean(), "ns"},
       {"trace.gen_ms", b->trace_gen_ms, "ms"},
       {"trace.accesses", cnt(trace_accesses), "count"},
       {"snapshot.save_ms", save_ms, "ms"},
       {"snapshot.frame_bytes", frame_bytes, "bytes"},
       {"snapshot.load_ms", load_ms, "ms"},
       {"fleet.epochs", cnt(p.fleet_epochs), "count"},
       {"fleet.epoch_ms_clean", tr.epoch_clean.mean() / 1e6, "ms"},
       {"fleet.epoch_ms_crash", tr.epoch_crash.mean() / 1e6, "ms"},
       {"fleet.crashes", cnt(p.crashes), "count"},
       {"fleet.recoveries", cnt(p.recoveries), "count"},
       {"fleet.checkpoints", cnt(p.checkpoints), "count"},
       {"fleet.evacuations", cnt(p.evacuations), "count"},
       {"bench.clock_ns", clock_cost, "ns"},
       {"bench.tracing_overhead",
        untraced_ms > 0.0 ? traced_ms / untraced_ms : 0.0, "x"},
       {"host.nproc", static_cast<double>(host.nproc), "count"},
       {"host.parallelism", host.parallelism, "x"}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  DigestBook book(o);
  const Host host = measure_host();
  print_host(host);
  return o.trace ? run_traced(o, book, host) : run_end_to_end(o, book);
}
