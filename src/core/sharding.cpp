#include "core/sharding.h"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::core {

// ---------------------------------------------------------------------------
// ShardPool
// ---------------------------------------------------------------------------

struct ShardPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;   // workers wait for a new generation
  std::condition_variable done_cv;   // run() waits for pending == 0
  std::uint64_t generation = 0;
  std::size_t pending = 0;
  std::size_t jobs = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::vector<std::exception_ptr> errors;  // one slot per worker
  bool stop = false;
  std::vector<std::thread> workers;

  void worker_main(std::size_t w, std::size_t threads) {
    std::uint64_t seen = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu);
        work_cv.wait(lk, [&] { return stop || generation != seen; });
        if (stop) {
          return;
        }
        seen = generation;
      }
      const std::size_t lo = w * jobs / threads;
      const std::size_t hi = (w + 1) * jobs / threads;
      try {
        for (std::size_t i = lo; i < hi; ++i) {
          (*fn)(i);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu);
        errors[w] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        if (--pending == 0) {
          done_cv.notify_one();
        }
      }
    }
  }
};

ShardPool::ShardPool(std::size_t threads) : threads_(std::max<std::size_t>(threads, 1)) {
  if (threads_ <= 1) {
    return;
  }
  impl_ = std::make_unique<Impl>();
  impl_->errors.resize(threads_);
  impl_->workers.reserve(threads_);
  for (std::size_t w = 0; w < threads_; ++w) {
    impl_->workers.emplace_back(
        [this, w] { impl_->worker_main(w, threads_); });
  }
}

ShardPool::~ShardPool() {
  if (impl_ == nullptr) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop = true;
  }
  impl_->work_cv.notify_all();
  for (auto& t : impl_->workers) {
    t.join();
  }
}

void ShardPool::run(std::size_t jobs,
                    const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) {
    return;
  }
  if (impl_ == nullptr) {
    for (std::size_t i = 0; i < jobs; ++i) {
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->jobs = jobs;
    impl_->fn = &fn;
    impl_->pending = threads_;
    std::fill(impl_->errors.begin(), impl_->errors.end(), nullptr);
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  {
    std::unique_lock<std::mutex> lk(impl_->mu);
    impl_->done_cv.wait(lk, [&] { return impl_->pending == 0; });
    impl_->fn = nullptr;
    for (auto& e : impl_->errors) {
      if (e != nullptr) {
        std::rethrow_exception(e);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ShardingSpec
// ---------------------------------------------------------------------------

std::string ShardingSpec::spec() const {
  std::ostringstream os;
  os << "epoch=" << epoch_cycles << ",gain=" << contention_gain_milli
     << ",pool=" << pool_pages << ",floor=" << quota_floor;
  return os.str();
}

// ---------------------------------------------------------------------------
// ShardedFleetRun
// ---------------------------------------------------------------------------

ShardedFleetRun::ShardedFleetRun(const SimConfig& base,
                                 const std::vector<ShardLane>& lanes,
                                 const ShardingSpec& spec)
    : base_(base), spec_(spec) {
  SGXPL_CHECK_MSG(!lanes.empty(), "sharded fleet needs at least one lane");
  SGXPL_CHECK_MSG(spec_.epoch_cycles > 0, "epoch_cycles must be positive");
  lanes_.reserve(lanes.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const ShardLane& l = lanes[i];
    SGXPL_CHECK_MSG(l.trace != nullptr, "lane " << i << " has no trace");
    SimConfig cfg = base_;
    cfg.scheme = l.scheme;
    // Lane-indexed chaos stream: the schedule is a function of the lane
    // index alone, never of which thread advances the lane.
    cfg.chaos.seed = base_.chaos.seed + kShardStreamGamma * (i + 1);
    // The registry, event log, and time series are single-threaded sinks;
    // lanes advance concurrently, so they stay detached here. The profiler
    // keeps per-thread arenas with a deterministic merge — wire it through.
    cfg.registry = nullptr;
    cfg.event_log = nullptr;
    cfg.timeseries = nullptr;
    // Lanes never self-checkpoint; the fleet snapshots at epoch barriers.
    cfg.checkpoint = CheckpointOptions{};
    lanes_.push_back(std::make_unique<SimulationRun>(cfg, *l.trace, l.plan));
  }
  pool_ = std::make_unique<ShardPool>(spec_.threads);
  horizon_ = spec_.epoch_cycles;
  busy_anchor_.assign(lanes_.size(), 0);
  quota_.assign(lanes_.size(), 0);
  slowdown_.assign(lanes_.size(), 1000);
}

ShardedFleetRun::~ShardedFleetRun() = default;

bool ShardedFleetRun::done() const noexcept {
  for (const auto& l : lanes_) {
    if (!l->done()) {
      return false;
    }
  }
  return true;
}

void ShardedFleetRun::run_epoch() {
  SGXPL_CHECK_MSG(!done(), "run_epoch past the end of every lane");
  // Parallel phase: lanes share nothing mutable, so K only decides which
  // OS thread advances which lane. Finished lanes cost one virtual call.
  const Cycles bound = horizon_;
  pool_->run(lanes_.size(), [this, bound](std::size_t i) {
    lanes_[i]->run_until(bound);
  });
  barrier();
}

void ShardedFleetRun::barrier() {
  // Serial coupling, lane order, integer arithmetic only: the numbers a
  // lane sees depend on every lane's state at the horizon — which is the
  // same for every K — and on nothing else.
  const std::size_t n = lanes_.size();
  std::vector<Cycles> busy(n, 0);
  Cycles total_busy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Cycles b = lanes_[i]->driver().channel_busy_cycles();
    busy[i] = b - busy_anchor_[i];
    busy_anchor_[i] = b;
    total_busy += busy[i];
  }
  if (spec_.contention_gain_milli > 0 && n > 1) {
    const Cycles denom =
        spec_.epoch_cycles * static_cast<Cycles>(n - 1);
    for (std::size_t i = 0; i < n; ++i) {
      const Cycles others = total_busy - busy[i];
      const std::uint64_t extra =
          static_cast<std::uint64_t>(spec_.contention_gain_milli) * others /
          denom;
      slowdown_[i] = 1000 + extra;
    }
  }
  if (spec_.pool_pages > 0) {
    // Integer proportional share of the pool over per-epoch channel
    // pressure, floored, remainder to the lowest lane indices. With no
    // pressure anywhere the pool splits evenly.
    const PageNum floor = std::max<PageNum>(spec_.quota_floor, 1);
    const PageNum pool = std::max<PageNum>(
        spec_.pool_pages, floor * static_cast<PageNum>(n));
    const PageNum spare = pool - floor * static_cast<PageNum>(n);
    PageNum handed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      PageNum share;
      if (total_busy == 0) {
        share = spare / static_cast<PageNum>(n);
      } else {
        share = static_cast<PageNum>(
            static_cast<std::uint64_t>(spare) * busy[i] / total_busy);
      }
      quota_[i] = floor + share;
      handed += share;
    }
    // Deterministic remainder distribution: one page per lane from 0.
    PageNum left = spare - handed;
    for (std::size_t i = 0; left > 0 && i < n; ++i, --left) {
      ++quota_[i];
    }
  }
  apply_knobs();
  ++epoch_;
  horizon_ += spec_.epoch_cycles;
}

void ShardedFleetRun::apply_knobs() {
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    auto& d = lanes_[i]->driver();
    d.set_channel_slowdown_milli(static_cast<std::uint32_t>(slowdown_[i]));
    d.set_capacity_limit(static_cast<PageNum>(quota_[i]));
  }
}

std::vector<Metrics> ShardedFleetRun::run_to_end() {
  while (!done()) {
    run_epoch();
  }
  std::vector<Metrics> out;
  out.reserve(lanes_.size());
  for (auto& l : lanes_) {
    out.push_back(l->finish());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Checkpoint/restore
// ---------------------------------------------------------------------------

namespace {

/// Pack an opaque byte string into u64 words (little-endian) so it rides in
/// a u64_vec field — the codec's generic field walk (diff, tooling) then
/// works on fleet frames with no new field type.
std::vector<std::uint64_t> pack_bytes(const std::vector<std::uint8_t>& b) {
  std::vector<std::uint64_t> words((b.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    words[i / 8] |= static_cast<std::uint64_t>(b[i]) << (8 * (i % 8));
  }
  return words;
}

std::vector<std::uint8_t> unpack_bytes(const std::vector<std::uint64_t>& w,
                                       std::uint64_t len) {
  SGXPL_CHECK_MSG(w.size() == (len + 7) / 8,
                  "lane frame length " << len << " does not match "
                                       << w.size() << " packed words");
  std::vector<std::uint8_t> b(len);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(w[i / 8] >> (8 * (i % 8)));
  }
  return b;
}

}  // namespace

snapshot::RunMeta ShardedFleetRun::meta() const {
  snapshot::RunMeta meta;
  meta.kind = "sharded-fleet";
  meta.scheme = to_string(base_.scheme);
  meta.trace_name = "sharded[" + std::to_string(lanes_.size()) + "]";
  for (const auto& l : lanes_) {
    meta.cursor += l->cursor();
    meta.trace_accesses += l->meta().trace_accesses;
  }
  meta.elrange_pages = base_.enclave.elrange_pages;
  meta.epc_pages = base_.enclave.epc_pages;
  meta.chaos_spec = base_.chaos.spec();
  meta.chaos_seed = base_.chaos.seed;
  meta.hardening_spec =
      sgxsim::overload_spec(base_.enclave) + "|" + spec_.spec();
  return meta;
}

std::vector<std::uint8_t> ShardedFleetRun::save_bytes() const {
  snapshot::Writer w;
  snapshot::write_frame_head(w, snapshot::ChainHeader{}, meta());
  w.begin_section("SHRD");
  w.u64("shard.epoch", epoch_);
  w.u64("shard.horizon", horizon_);
  w.u64("shard.lanes", lanes_.size());
  w.u64_vec("shard.busy_anchor",
            std::vector<std::uint64_t>(busy_anchor_.begin(),
                                       busy_anchor_.end()));
  w.u64_vec("shard.quota", quota_);
  w.u64_vec("shard.slowdown", slowdown_);
  w.end_section();
  for (const auto& l : lanes_) {
    const std::vector<std::uint8_t> frame = l->save_bytes();
    w.begin_section("LANE");
    w.u64("lane.bytes", frame.size());
    w.u64_vec("lane.frame", pack_bytes(frame));
    w.end_section();
  }
  return w.finish();
}

void ShardedFleetRun::load_bytes(const std::vector<std::uint8_t>& bytes) {
  snapshot::RunFrame f(bytes);
  f.require(snapshot::FrameKind::kFull, meta());
  snapshot::Reader& r = f.body;
  r.enter_section("SHRD");
  epoch_ = r.u64("shard.epoch");
  horizon_ = r.u64("shard.horizon");
  const std::uint64_t count = r.u64("shard.lanes");
  SGXPL_CHECK_MSG(count == lanes_.size(),
                  "snapshot holds " << count << " lane(s), this fleet has "
                                    << lanes_.size());
  const auto anchors = r.u64_vec("shard.busy_anchor");
  quota_ = r.u64_vec("shard.quota");
  slowdown_ = r.u64_vec("shard.slowdown");
  SGXPL_CHECK_MSG(anchors.size() == lanes_.size() &&
                      quota_.size() == lanes_.size() &&
                      slowdown_.size() == lanes_.size(),
                  "shard controller vectors do not match the lane count");
  busy_anchor_.assign(anchors.begin(), anchors.end());
  r.leave_section();
  for (auto& l : lanes_) {
    r.enter_section("LANE");
    const std::uint64_t len = r.u64("lane.bytes");
    const auto frame = unpack_bytes(r.u64_vec("lane.frame"), len);
    r.leave_section();
    l->load_bytes(frame);
  }
  // The controller knobs are transient driver state (never inside a lane
  // frame); re-arm them exactly as the barrier left them.
  apply_knobs();
  f.finish();
}

bool ShardedFleetRun::restore_if_compatible(
    const std::vector<std::uint8_t>& bytes) {
  const snapshot::RunFrame f(bytes);
  if (f.chain.kind != snapshot::FrameKind::kFull ||
      !f.meta.incompatibility(meta()).empty()) {
    return false;
  }
  load_bytes(bytes);
  return true;
}

}  // namespace sgxpl::core
