// Hook interface through which a preloading scheme plugs into the driver.
//
// The DFP engine (src/dfp) implements this. The driver invokes it from the
// fault handler (prediction), from the channel bookkeeping (completion /
// abort / eviction of preloaded pages), from the access path (first touch of
// a preloaded page), and from the periodic service-thread scan (the CLOCK
// access-bit sweep the abort counters piggyback on, §4.2).
//
// Between two scans, a preloaded page's answer to the scan ("used",
// "evicted unused", or "still waiting") changes only through the events
// these hooks report: it completes (on_preload_completed), it is touched for
// the first time (on_preloaded_page_touched), or it is evicted
// (on_preloaded_page_evicted). A policy that records them can re-check just
// those pages at the tick instead of walking every outstanding preload.
#pragma once

#include <vector>

#include "common/types.h"
#include "sgxsim/page_table.h"

namespace sgxpl::sgxsim {

class PreloadPolicy {
 public:
  virtual ~PreloadPolicy() = default;

  /// An enclave page fault on `page` is being serviced at virtual time
  /// `now`. Return the pages to preload, in issue order. Pages already
  /// resident or already queued on the channel are skipped by the driver.
  virtual std::vector<PageNum> on_fault(ProcessId pid, PageNum page,
                                        Cycles now) = 0;

  /// A preload issued by this policy finished loading into the EPC.
  virtual void on_preload_completed(PageNum page, Cycles now) = 0;

  /// Queued preloads were flushed because a demand fault took priority.
  virtual void on_preloads_aborted(const std::vector<PageNum>& pages,
                                   Cycles now) = 0;

  /// Predicted pages were shed by admission control before reaching the
  /// channel (bounded queue full, tenant quota, or degraded level), or a
  /// queued preload was evicted to make room for a demand load. Unlike an
  /// abort this is load-shedding, not misprediction evidence — but engines
  /// may still fold it into their overload accounting. Default: no-op.
  virtual void on_preloads_shed(const std::vector<PageNum>& /*pages*/,
                                Cycles /*now*/) {}

  /// A page this policy preloaded was evicted. `was_accessed` tells whether
  /// the application ever touched it (false = confirmed misprediction).
  virtual void on_preloaded_page_evicted(PageNum page, bool was_accessed,
                                         Cycles now) = 0;

  /// The application touched `page` for the first time since a preload
  /// brought it in (PageTable::touch returned true): the page's access bit
  /// is now set and its preloaded flag clear. Fires for SIP-loaded pages
  /// too; policies ignore pages they did not preload. Default: no-op.
  virtual void on_preloaded_page_touched(PageNum /*page*/) {}

  /// Periodic service-thread scan. The policy may inspect access bits
  /// through `pt` to account which of its preloaded pages were used.
  virtual void on_scan(const PageTable& pt, Cycles now) = 0;

  /// Chaos injection: the untrusted worker holding this policy's state was
  /// restarted and its in-memory predictor state is gone. Policies should
  /// drop learned state but keep their accounting counters (the kernel's
  /// persistent counters survive a worker restart). Default: no-op.
  virtual void on_state_lost(Cycles /*now*/) {}
};

}  // namespace sgxpl::sgxsim
