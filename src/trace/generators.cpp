#include "trace/generators.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/check.h"

namespace sgxpl::trace {

Cycles GapModel::sample(Rng& rng) const {
  if (mean == 0) {
    return 0;
  }
  const double jitter = jitter_pct <= 0.0
                            ? 0.0
                            : (rng.real() * 2.0 - 1.0) * jitter_pct;
  const double v = static_cast<double>(mean) * (1.0 + jitter);
  return v <= 1.0 ? 1 : static_cast<Cycles>(v);
}

void seq_scan(Trace& t, Rng& rng, Region region, SiteId site, GapModel gap,
              std::uint64_t stride, double jump_prob) {
  SGXPL_CHECK(region.pages > 0);
  SGXPL_CHECK(stride > 0);
  PageNum p = region.lo;
  std::uint64_t emitted = 0;
  const std::uint64_t budget = (region.pages + stride - 1) / stride;
  while (emitted < budget) {
    t.append(Access{.page = p, .site = site, .gap = gap.sample(rng)});
    ++emitted;
    if (jump_prob > 0.0 && rng.chance(jump_prob)) {
      p = region.lo + rng.bounded(region.pages);
    } else {
      p += stride;
      if (p >= region.hi()) {
        p = region.lo + (p - region.hi());
      }
    }
  }
}

void multi_stream_scan(Trace& t, Rng& rng, Region region, std::uint64_t streams,
                       SiteId site_base, GapModel gap, std::uint64_t chunk,
                       double jump_prob) {
  SGXPL_CHECK(streams > 0);
  SGXPL_CHECK(chunk > 0);
  SGXPL_CHECK(region.pages >= streams);
  const PageNum slice = region.pages / streams;
  std::vector<PageNum> cursor(streams);
  std::vector<PageNum> lo(streams);
  std::vector<PageNum> limit(streams);
  std::vector<std::uint64_t> emitted(streams, 0);
  for (std::uint64_t k = 0; k < streams; ++k) {
    lo[k] = region.lo + k * slice;
    cursor[k] = lo[k];
    limit[k] = (k + 1 == streams) ? region.hi() : region.lo + (k + 1) * slice;
  }
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint64_t k = 0; k < streams; ++k) {
      for (std::uint64_t c = 0; c < chunk && cursor[k] < limit[k]; ++c) {
        t.append(Access{.page = cursor[k],
                        .site = static_cast<SiteId>(site_base + k),
                        .gap = gap.sample(rng)});
        ++emitted[k];
        progress = true;
        if (jump_prob > 0.0 && rng.chance(jump_prob)) {
          // Row/boundary break: short forward skip, never revisit (each
          // sweep touches a page at most once, like a real array pass).
          cursor[k] += 2 + rng.bounded(8);
        } else {
          ++cursor[k];
        }
      }
    }
  }
}

void random_access(Trace& t, Rng& rng, Region region, std::uint64_t count,
                   SiteId site_base, std::uint32_t sites, GapModel gap) {
  SGXPL_CHECK(region.pages > 0);
  SGXPL_CHECK(sites > 0);
  for (std::uint64_t i = 0; i < count; ++i) {
    t.append(Access{
        .page = region.lo + rng.bounded(region.pages),
        .site = static_cast<SiteId>(site_base + rng.bounded(sites)),
        .gap = gap.sample(rng)});
  }
}

void paired_random_access(Trace& t, Rng& rng, Region region,
                          std::uint64_t count, double pair_prob,
                          SiteId site_base, std::uint32_t sites,
                          GapModel gap) {
  SGXPL_CHECK(region.pages > 1);
  SGXPL_CHECK(sites > 0);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PageNum page = region.lo + rng.bounded(region.pages - 1);
    const auto site = static_cast<SiteId>(site_base + rng.bounded(sites));
    t.append(Access{.page = page, .site = site, .gap = gap.sample(rng)});
    if (rng.chance(pair_prob)) {
      t.append(Access{.page = page + 1, .site = site,
                      .gap = gap.sample(rng)});
    }
  }
}

void zipf_access(Trace& t, Rng& rng, Region region, std::uint64_t count,
                 double alpha, SiteId site_base, std::uint32_t sites,
                 GapModel gap) {
  zipf_access(t, rng, region, count, ZipfSampler(region.pages, alpha),
              site_base, sites, gap);
}

void zipf_access(Trace& t, Rng& rng, Region region, std::uint64_t count,
                 const ZipfSampler& zipf, SiteId site_base,
                 std::uint32_t sites, GapModel gap) {
  SGXPL_CHECK(region.pages > 0 && zipf.n() == region.pages);
  SGXPL_CHECK(sites > 0);
  for (std::uint64_t i = 0; i < count; ++i) {
    t.append(Access{
        .page = region.lo + zipf(rng),
        .site = static_cast<SiteId>(site_base + rng.bounded(sites)),
        .gap = gap.sample(rng)});
  }
}

void pointer_chase(Trace& t, Rng& rng, Region region, std::uint64_t steps,
                   SiteId site, GapModel gap) {
  SGXPL_CHECK(region.pages > 0);
  // Fisher-Yates permutation defines next[] as a single cycle through the
  // region, so the chase revisits pages with period == region size.
  std::vector<PageNum> order(region.pages);
  std::iota(order.begin(), order.end(), region.lo);
  for (PageNum i = region.pages; i > 1; --i) {
    std::swap(order[i - 1], order[rng.bounded(i)]);
  }
  std::uint64_t idx = 0;
  for (std::uint64_t s = 0; s < steps; ++s) {
    t.append(Access{.page = order[idx], .site = site, .gap = gap.sample(rng)});
    idx = (idx + 1) % order.size();
  }
}

void short_sequential_runs(Trace& t, Rng& rng, Region region,
                           std::uint64_t runs, std::uint64_t max_run,
                           SiteId site_base, std::uint32_t sites,
                           GapModel gap) {
  SGXPL_CHECK(region.pages > max_run);
  SGXPL_CHECK(max_run >= 2);
  SGXPL_CHECK(sites > 0);
  for (std::uint64_t r = 0; r < runs; ++r) {
    const PageNum start = region.lo + rng.bounded(region.pages - max_run);
    const std::uint64_t len = rng.range(2, max_run);
    const auto site = static_cast<SiteId>(site_base + rng.bounded(sites));
    for (std::uint64_t i = 0; i < len; ++i) {
      t.append(Access{.page = start + i, .site = site,
                      .gap = gap.sample(rng)});
    }
  }
}

void hot_cold_mixed_sites(Trace& t, Rng& rng, Region hot, Region cold,
                          std::uint64_t count, double p_hot, SiteId site_base,
                          std::uint32_t sites, GapModel gap) {
  SGXPL_CHECK(hot.pages > 0);
  SGXPL_CHECK(cold.pages > 0);
  SGXPL_CHECK(sites > 0);
  for (std::uint64_t i = 0; i < count; ++i) {
    const bool is_hot = rng.chance(p_hot);
    const Region& region = is_hot ? hot : cold;
    t.append(Access{
        .page = region.lo + rng.bounded(region.pages),
        .site = static_cast<SiteId>(site_base + rng.bounded(sites)),
        .gap = gap.sample(rng)});
  }
}

void strided_sweep(Trace& t, Rng& rng, Region region, std::uint64_t stride,
                   SiteId site, GapModel gap) {
  SGXPL_CHECK(region.pages > 0);
  SGXPL_CHECK(stride > 0);
  for (std::uint64_t offset = 0; offset < stride; ++offset) {
    for (PageNum p = region.lo + offset; p < region.hi(); p += stride) {
      t.append(Access{.page = p, .site = site, .gap = gap.sample(rng)});
    }
  }
}

}  // namespace sgxpl::trace
