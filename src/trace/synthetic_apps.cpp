#include "trace/synthetic_apps.h"

#include <algorithm>

#include "common/rng.h"
#include "trace/generators.h"

namespace sgxpl::trace {

namespace {

std::uint64_t sc(double scale, std::uint64_t v, std::uint64_t floor = 64) {
  const double x = static_cast<double>(v) * scale;
  return std::max<std::uint64_t>(floor, static_cast<std::uint64_t>(x));
}

}  // namespace

Trace make_sift(const WorkloadParams& p) {
  // Gaussian pyramid: repeated sequential passes over octaves of shrinking
  // size, then per-octave difference and extrema scans — all streaming.
  const PageNum base = sc(p.scale, 38'400);  // ~150 MiB full-resolution image
  Trace t("SIFT", 2 * base + 64);
  Rng rng(p.seed);
  const GapModel gap{.mean = 10'000, .jitter_pct = 0.3};
  PageNum lo = 0;
  PageNum size = base;
  SiteId site = 10;
  const int octaves = p.train ? 2 : 4;
  const std::uint64_t hops = sc(p.scale, 80'000);
  // Octave sizes halve, so they sum to under 2 * base; each octave's two
  // scans touch at most 2 * size pages.
  t.reserve(4 * base + static_cast<std::size_t>(octaves) * hops);
  for (int oct = 0; oct < octaves && size >= 256; ++oct) {
    const Region octave{lo, size};
    // Blur passes (read + write streams) and DoG pass per octave; the
    // sliding convolution window revisits rows, breaking perfect streams.
    multi_stream_scan(t, rng, octave, /*streams=*/2, site, gap, /*chunk=*/2,
                      /*jump_prob=*/0.04);
    seq_scan(t, rng, octave, static_cast<SiteId>(site + 2), gap,
             /*stride=*/1, /*jump_prob=*/0.04);
    // Keypoint refinement hops around the octave. The hops come from
    // hundreds of rarely-executed instructions, so no single site gathers
    // enough profile mass to be instrumented (Table 2: SIFT = 0 points).
    random_access(t, rng, octave, hops, /*site_base=*/500,
                  /*sites=*/100'000, gap);
    lo += size;
    size /= 2;
    site = static_cast<SiteId>(site + 5);
  }
  return t;
}

Trace make_mser(const WorkloadParams& p) {
  // A sequential intensity-sort pass over the image, then union-find region
  // merging: the parent-pointer updates hop irregularly across the whole
  // component forest (the Class-3 population behind MSER's 54 SIP points).
  const PageNum image = sc(p.scale, 25'600);   // ~100 MiB image + histogram
  const PageNum forest = sc(p.scale, 35'840);  // ~140 MiB region forest
  Trace t("MSER", image + forest + 64);
  Rng rng(p.seed);
  const GapModel scan_gap{.mean = 6'000, .jitter_pct = 0.2};
  const GapModel merge_gap{.mean = 15'000, .jitter_pct = 0.4};
  const Region img{0, image};
  const Region fst{image, forest};
  const std::uint64_t merges = sc(p.scale, 220'000);
  const std::uint64_t rounds = merges / 6;
  constexpr std::uint64_t kWalk = 5;
  constexpr std::uint64_t kMaxRun = 3;
  t.reserve(image + rounds * (kWalk + kMaxRun));
  const ZipfSampler walk(fst.pages, /*alpha=*/0.97);
  seq_scan(t, rng, img, /*site=*/10, scan_gap);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    // Union-find path walks: skewed (roots are hot and usually resident,
    // deep leaves miss) — many checks buy few conversions, which is why
    // MSER's SIP gain is modest (+3.0% in Fig. 11).
    zipf_access(t, rng, fst, kWalk, walk, /*site_base=*/100, /*sites=*/54,
                merge_gap);
    // Neighbour pixel reads: near-sequential bait runs on the image.
    if (rng.chance(0.25)) {
      short_sequential_runs(t, rng, img, /*runs=*/1, kMaxRun,
                            /*site_base=*/200, /*sites=*/10, scan_gap);
    }
  }
  return t;
}

Trace make_mixed_blood(const WorkloadParams& p) {
  // §5.4: "we sequentially scan an image and then invoke MSER for blobs
  // detection" — similar volumes of Class-2 and Class-3 accesses.
  const PageNum image = sc(p.scale, 20'480);   // ~80 MiB image
  const PageNum forest = sc(p.scale, 33'280);  // ~130 MiB MSER forest
  Trace t("mixed-blood", image + forest + 64);
  Rng rng(p.seed);
  const GapModel scan_gap{.mean = 7'000, .jitter_pct = 0.2};
  const GapModel merge_gap{.mean = 8'000, .jitter_pct = 0.4};
  const Region img{0, image};
  const Region fst{image, forest};
  const std::uint64_t merges = sc(p.scale, 180'000);
  t.reserve(image + merges);
  // Phase 1: sequential image scan (DFP's half).
  seq_scan(t, rng, img, /*site=*/10, scan_gap);
  // Phase 2: MSER-style irregular merging (SIP's half).
  zipf_access(t, rng, fst, merges, /*alpha=*/0.97, /*site_base=*/100,
              /*sites=*/54, merge_gap);
  return t;
}

}  // namespace sgxpl::trace
