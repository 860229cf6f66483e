#include "core/multi_thread.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/check.h"
#include "core/run_stack.h"
#include "dfp/dfp_engine.h"
#include "sgxsim/driver.h"

namespace sgxpl::core {

ThreadedRunResult run_threads(const SimConfig& config,
                              const std::vector<const trace::Trace*>& threads,
                              bool per_thread_streams) {
  SGXPL_CHECK_MSG(!threads.empty(), "no threads to run");
  SGXPL_CHECK_MSG(!config.uses_sip(),
                  "run_threads supports baseline/DFP schemes only");

  PageNum elrange = 0;
  for (const auto* t : threads) {
    SGXPL_CHECK(t != nullptr && !t->empty());
    elrange = std::max(elrange, t->elrange_pages());
  }

  const std::unique_ptr<dfp::DfpEngine> engine =
      make_dfp_engine(config, config.scheme);
  if (engine != nullptr) {
    engine->set_observability(config.registry, config.timeseries);
  }
  RunStack stack(config, elrange, engine.get());
  sgxsim::Driver& driver = stack.driver();

  struct ThreadState {
    std::size_t cursor = 0;
    Cycles now = 0;
    bool done = false;
    Metrics metrics;
  };
  std::vector<ThreadState> state(threads.size());

  for (;;) {
    std::size_t next = threads.size();
    Cycles min_clock = std::numeric_limits<Cycles>::max();
    for (std::size_t i = 0; i < threads.size(); ++i) {
      if (!state[i].done && state[i].now < min_clock) {
        min_clock = state[i].now;
        next = i;
      }
    }
    if (next == threads.size()) {
      break;
    }
    ThreadState& st = state[next];
    const auto& a = threads[next]->accesses()[st.cursor];
    st.now += a.gap;
    st.metrics.compute_cycles += a.gap;
    ++st.metrics.accesses;

    const ProcessId pid{
        per_thread_streams ? static_cast<std::uint32_t>(next) : 0u};
    const auto outcome = driver.access(a.page, st.now, pid);
    st.now = outcome.completion;
    if (outcome.faulted) {
      ++st.metrics.enclave_faults;
    }
    if (++st.cursor >= threads[next]->size()) {
      st.done = true;
      st.metrics.total_cycles = st.now;
    }
  }

  stack.settle();
  ThreadedRunResult result;
  for (auto& st : state) {
    result.makespan = std::max(result.makespan, st.metrics.total_cycles);
    result.per_thread.push_back(std::move(st.metrics));
  }
  stack.collect(result.driver, result.inject);
  if (engine != nullptr) {
    result.dfp_stopped = engine->stopped();
    if (config.registry != nullptr) {
      engine->publish(*config.registry);
    }
  }
  return result;
}

}  // namespace sgxpl::core
