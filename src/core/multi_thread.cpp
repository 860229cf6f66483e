#include "core/multi_thread.h"

#include <algorithm>
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

  std::vector<Replay> streams(threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    streams[i].trace = threads[i];
    streams[i].pid =
        ProcessId{per_thread_streams ? static_cast<std::uint32_t>(i) : 0u};
  }
  for (;;) {
    const std::size_t next = min_clock_stream(
        streams, [&streams](std::size_t i) { return streams[i].done(); });
    if (next == streams.size()) {
      break;
    }
    Replay& r = streams[next];
    r.step(driver, config.profiler);
    if (r.done()) {
      r.metrics.total_cycles = r.now;
    }
  }

  stack.settle();
  ThreadedRunResult result;
  for (Replay& r : streams) {
    result.makespan = std::max(result.makespan, r.metrics.total_cycles);
    result.per_thread.push_back(std::move(r.metrics));
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
