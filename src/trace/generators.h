// Reusable page-access pattern primitives from which the named workload
// models are composed. Each appends accesses to a Trace; all randomness
// comes from the caller's Rng so traces are reproducible.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/types.h"
#include "trace/access.h"

namespace sgxpl::trace {

/// A contiguous page range [lo, lo+pages) within the ELRANGE.
struct Region {
  PageNum lo = 0;
  PageNum pages = 0;

  PageNum hi() const noexcept { return lo + pages; }
  bool contains(PageNum p) const noexcept { return p >= lo && p < hi(); }
};

/// Uniform compute gap with +/- jitter_pct jitter.
struct GapModel {
  Cycles mean = 5'000;
  double jitter_pct = 0.25;

  Cycles sample(Rng& rng) const;
};

/// One forward pass over `region`, touching every stride-th page in order.
/// `jump_prob` injects occasional random jumps (stream breaks) within the
/// region; after a jump the scan continues from the jump target.
void seq_scan(Trace& t, Rng& rng, Region region, SiteId site, GapModel gap,
              std::uint64_t stride = 1, double jump_prob = 0.0);

/// `streams` concurrent forward scans over equal slices of `region`,
/// interleaved in chunks of `chunk` pages (bwaves/lbm-style multi-array
/// sweeps). Stream k uses site `site_base + k`. `jump_prob` relocates a
/// stream's cursor within its slice (grid-row boundaries and boundary
/// conditions break perfect streams in the real codes).
void multi_stream_scan(Trace& t, Rng& rng, Region region, std::uint64_t streams,
                       SiteId site_base, GapModel gap, std::uint64_t chunk = 1,
                       double jump_prob = 0.0);

/// `count` uniform-random page touches over `region`. Each access draws its
/// site uniformly from [site_base, site_base + sites).
void random_access(Trace& t, Rng& rng, Region region, std::uint64_t count,
                   SiteId site_base, std::uint32_t sites, GapModel gap);

/// `count` random probes where each probe touches its page and, with
/// probability `pair_prob`, the next page too (records straddling a page
/// boundary — hash-table probes in chess transposition tables). The
/// two-page runs are what bait a stream detector into useless preloads.
void paired_random_access(Trace& t, Rng& rng, Region region,
                          std::uint64_t count, double pair_prob,
                          SiteId site_base, std::uint32_t sites,
                          GapModel gap);

/// `count` Zipf(alpha)-distributed touches over `region` (skewed reuse).
void zipf_access(Trace& t, Rng& rng, Region region, std::uint64_t count,
                 double alpha, SiteId site_base, std::uint32_t sites,
                 GapModel gap);

/// The same, drawing from a caller-built `zipf` over region.pages ranks, so
/// a generator that calls it every round builds the sampler once.
void zipf_access(Trace& t, Rng& rng, Region region, std::uint64_t count,
                 const ZipfSampler& zipf, SiteId site_base,
                 std::uint32_t sites, GapModel gap);

/// A pointer-chase: `steps` hops through a fixed random permutation of the
/// region's pages (mcf/omnetpp-style dependent chains).
void pointer_chase(Trace& t, Rng& rng, Region region, std::uint64_t steps,
                   SiteId site, GapModel gap);

/// `runs` short sequential bursts at random positions in `region`; each run
/// is 2..max_run pages long. This is the pattern that baits stream
/// detectors: a run looks like a stream, triggers preloading, then dies.
void short_sequential_runs(Trace& t, Rng& rng, Region region,
                           std::uint64_t runs, std::uint64_t max_run,
                           SiteId site_base, std::uint32_t sites,
                           GapModel gap);

/// `count` accesses from *one* site population mixing behaviours: with
/// probability `p_hot` a touch to the (small) `hot` region, else a uniform
/// random touch to `cold`. Models the paper's mcf story (§5.2): the same
/// instruction issues many Class-1 hits and some Class-3 irregular misses.
void hot_cold_mixed_sites(Trace& t, Rng& rng, Region hot, Region cold,
                          std::uint64_t count, double p_hot, SiteId site_base,
                          std::uint32_t sites, GapModel gap);

/// Strided grid sweep: pass over `region` visiting pages lo, lo+stride,
/// lo+2*stride, ... wrapping with offset+1 until all offsets are covered
/// (wrong-dimension array sweeps in Fortran codes like roms/wrf).
void strided_sweep(Trace& t, Rng& rng, Region region, std::uint64_t stride,
                   SiteId site, GapModel gap);

}  // namespace sgxpl::trace
