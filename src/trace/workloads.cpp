#include "trace/workloads.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "trace/generators.h"
#include "trace/synthetic_apps.h"

namespace sgxpl::trace {

namespace {

/// Scale helper: scales a page/access count, keeping at least `floor`.
std::uint64_t sc(double scale, std::uint64_t v, std::uint64_t floor = 64) {
  const double x = static_cast<double>(v) * scale;
  return std::max<std::uint64_t>(floor, static_cast<std::uint64_t>(x));
}

// ---------------------------------------------------------------------------
// Micro-benchmark: sequentially accesses a 1 GiB region through a loop
// (paper §1: ~46x slowdown in-enclave; §5.1: best DFP case, +18.6%).
// ---------------------------------------------------------------------------
Trace make_microbenchmark(const WorkloadParams& p) {
  const PageNum pages = sc(p.scale, bytes_to_pages(1_GiB));
  Trace t("microbenchmark", pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 2'000, .jitter_pct = 0.10};
  const int passes = p.train ? 1 : 2;
  t.reserve(static_cast<std::size_t>(passes) * pages);
  for (int pass = 0; pass < passes; ++pass) {
    seq_scan(t, rng, Region{0, pages}, /*site=*/1, gap);
  }
  return t;
}

// ---------------------------------------------------------------------------
// bwaves (Fortran): block-wise multi-stream sequential sweeps (Fig. 3a).
// ---------------------------------------------------------------------------
Trace make_bwaves(const WorkloadParams& p) {
  const PageNum pages = sc(p.scale, 40'960);  // ~160 MiB
  Trace t("bwaves", pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 9'000, .jitter_pct = 0.3};
  // Sixteen concurrent block streams (the many parallel diagonals of
  // Fig. 3a) with boundary-condition noise interleaved. The noise faults
  // churn the predictor's LRU stream list, which is what makes DFP
  // sensitive to stream_list length (Fig. 6): a short list cannot hold all
  // sixteen stream tails plus the noise insertions.
  constexpr std::uint64_t kStreams = 16;
  const PageNum slice = pages / kStreams;
  const int iters = p.train ? 1 : 3;
  // Per sweep: at most one touch per page, plus at most one noise touch per
  // stream per round; a round exists while the longest slice lasts.
  const PageNum longest = pages - (kStreams - 1) * slice;
  t.reserve(static_cast<std::size_t>(iters) *
            (pages + kStreams * (longest + 1)));
  for (int it = 0; it < iters; ++it) {
    std::vector<PageNum> cursor(kStreams);
    std::vector<PageNum> limit(kStreams);
    for (std::uint64_t k = 0; k < kStreams; ++k) {
      cursor[k] = k * slice;
      limit[k] = (k + 1 == kStreams) ? pages : (k + 1) * slice;
    }
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::uint64_t k = 0; k < kStreams; ++k) {
        if (cursor[k] < limit[k]) {
          t.append(Access{.page = cursor[k]++,
                          .site = static_cast<SiteId>(10 + k),
                          .gap = gap.sample(rng)});
          progress = true;
          if (rng.chance(0.28)) {
            cursor[k] += 2 + rng.bounded(8);  // grid-row break
          }
        }
        if (rng.chance(0.22)) {
          // Boundary-condition update: an isolated far touch.
          t.append(Access{.page = rng.bounded(pages),
                          .site = static_cast<SiteId>(30 + rng.bounded(6)),
                          .gap = gap.sample(rng)});
        }
      }
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// lbm (C): lattice-Boltzmann — two big arrays streamed in lockstep
// (Fig. 3c). Purely sequential sites: SIP finds nothing to instrument.
// ---------------------------------------------------------------------------
Trace make_lbm(const WorkloadParams& p) {
  const PageNum pages = sc(p.scale, 46'080);  // ~180 MiB (src+dst grids)
  Trace t("lbm", pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 13'000, .jitter_pct = 0.2};
  const int iters = p.train ? 1 : 3;
  t.reserve(static_cast<std::size_t>(iters) * pages);  // one touch per page
  for (int it = 0; it < iters; ++it) {
    multi_stream_scan(t, rng, Region{0, pages}, /*streams=*/2,
                      /*site_base=*/10, gap, /*chunk=*/1,
                      /*jump_prob=*/0.04);
  }
  return t;
}

// ---------------------------------------------------------------------------
// wrf (Fortran): weather grid sweeps — mostly sequential with occasional
// wrong-dimension strides.
// ---------------------------------------------------------------------------
Trace make_wrf(const WorkloadParams& p) {
  const PageNum pages = sc(p.scale, 30'720);  // ~120 MiB
  Trace t("wrf", pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 16'000, .jitter_pct = 0.3};
  const PageNum block = sc(p.scale, 16'384);
  const int iters = p.train ? 1 : 2;
  t.reserve(static_cast<std::size_t>(iters) * (2 * pages + block));
  for (int it = 0; it < iters; ++it) {
    seq_scan(t, rng, Region{0, pages}, /*site=*/10, gap, /*stride=*/1,
             /*jump_prob=*/0.05);
    // Wrong-dimension sweeps dominate: strides defeat the stream detector.
    strided_sweep(t, rng, Region{0, pages}, /*stride=*/8, /*site=*/11, gap);
    strided_sweep(t, rng, Region{0, block}, /*stride=*/4, /*site=*/12, gap);
  }
  return t;
}

// ---------------------------------------------------------------------------
// mcf (SPEC CPU2017, C): network-simplex over a huge arc graph. The paper's
// §5.2 case study: the same instructions issue many EPC hits (Class 1) and
// some irregular misses (Class 3), with very few sequential (Class 2)
// accesses — and the hit/miss mix drifts between the train and ref inputs,
// which is why SIP washes out on it.
// ---------------------------------------------------------------------------
Trace make_mcf(const WorkloadParams& p) {
  const PageNum hot_pages = sc(p.scale, 2'048);    // ~8 MiB hot arcs
  const PageNum cold_pages = sc(p.scale, 36'864);  // ~144 MiB cold graph
  Trace t("mcf", hot_pages + cold_pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 6'000, .jitter_pct = 0.4};
  const Region hot{0, hot_pages};
  const Region cold{hot_pages, cold_pages};
  // The network-simplex loop: the same 99 instructions issue mostly hot-arc
  // hits plus occasional cold-graph misses. The profiling (train) input
  // spills to the cold graph ~9% of the time; the ref input only ~3%:
  // exactly the drift that makes SIP's instrumentation a wash (§5.2).
  const double p_hot = p.train ? 0.91 : 0.97;
  const std::uint64_t walks = sc(p.scale, 1'400'000);
  const std::uint64_t arcs = sc(p.scale, 12'000);
  t.reserve(walks + 2 * arcs);
  hot_cold_mixed_sites(t, rng, hot, cold, walks, p_hot, /*site_base=*/100,
                       /*sites=*/99, gap);
  // Arc-array walks: consecutive arcs often share a page boundary — more
  // two-page stream bait (mcf is one of Fig. 8's overhead cases).
  paired_random_access(t, rng, cold, arcs, /*pair_prob=*/0.6,
                       /*site_base=*/100, /*sites=*/99, gap);
  return t;
}

// ---------------------------------------------------------------------------
// mcf.2006 (SPEC CPU2006, C): same algorithm, different implementation —
// a higher and input-stable irregular ratio, so SIP helps (+4.9%).
// ---------------------------------------------------------------------------
Trace make_mcf2006(const WorkloadParams& p) {
  const PageNum hot_pages = sc(p.scale, 4'096);    // ~16 MiB
  const PageNum cold_pages = sc(p.scale, 30'720);  // ~120 MiB
  Trace t("mcf.2006", hot_pages + cold_pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 6'500, .jitter_pct = 0.4};
  const Region hot{0, hot_pages};
  const Region cold{hot_pages, cold_pages};
  // Input-stable hot/cold mix: the profile's irregular ratio carries over
  // to the ref run, so SIP's instrumentation keeps paying off (+4.9%).
  const double p_hot = p.train ? 0.84 : 0.86;
  const std::uint64_t walks = sc(p.scale, 450'000);
  t.reserve(walks);
  hot_cold_mixed_sites(t, rng, hot, cold, walks, p_hot, /*site_base=*/100,
                       /*sites=*/114, gap);
  return t;
}

// ---------------------------------------------------------------------------
// deepsjeng (C++): chess search — transposition-table lookups spread
// uniformly over a table larger than the EPC (Fig. 3b), plus hot evaluation
// tables. The random lookups are exactly Class-3 accesses: SIP's best case
// (+9.0%); for DFP they are bait (short accidental runs trigger useless
// preloads, +34% overhead without the stop mechanism).
// ---------------------------------------------------------------------------
Trace make_deepsjeng(const WorkloadParams& p) {
  const PageNum table_pages = sc(p.scale, 73'728);  // ~288 MiB TT (3x EPC)
  // Evaluation tables are small (~256 KiB): their reuse is dense enough
  // that the profiling classifier sees them as Class 1 (on stream_list).
  const PageNum hot_pages = 64;
  Trace t("deepsjeng", table_pages + hot_pages + 16);
  Rng rng(p.seed);
  const Region table{0, table_pages};
  const Region hot{table_pages, hot_pages};
  const GapModel probe_gap{.mean = 5'000, .jitter_pct = 0.4};
  const GapModel hot_gap{.mean = 4'000, .jitter_pct = 0.3};
  const std::uint64_t rounds = sc(p.scale, p.train ? 16'000 : 36'000);
  constexpr int kEvalWalk = 20;
  // Per round: three probes of up to two pages, a peek, the eval walk.
  t.reserve(rounds * (3 * 2 + 1 + kEvalWalk));
  const ZipfSampler peek(table.pages, /*alpha=*/0.99);
  PageNum eval_cursor = hot.lo;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    // TT probes: a bucket cluster often straddles a page boundary, so a
    // probe touches two adjacent pages — exactly the two-page "streams"
    // that bait DFP into preloading junk (paper Fig. 8: +34% overhead).
    // These 35 pure-probe sites are ~90% irregular: SIP's Table-2 points.
    paired_random_access(t, rng, table, 3, /*pair_prob=*/0.9,
                         /*site_base=*/100, /*sites=*/35, probe_gap);
    // Evaluation sites: dense cyclic walks over the small eval tables
    // (Class 1/2 in the profile) plus an occasional skewed TT peek from
    // the same instruction (re-probing recently stored entries, which are
    // resident). Their irregular ratio sits just below the 5% threshold —
    // instrumenting them (low thresholds in Fig. 9) buys nothing: the
    // peeks hit resident pages, so every added check is pure overhead.
    if (rng.chance(0.5)) {
      zipf_access(t, rng, table, 1, peek, /*site_base=*/300, /*sites=*/80,
                  probe_gap);
    }
    for (int e = 0; e < kEvalWalk; ++e) {
      t.append(Access{.page = eval_cursor,
                      .site = static_cast<SiteId>(300 + rng.bounded(80)),
                      .gap = hot_gap.sample(rng)});
      eval_cursor = eval_cursor + 1 >= hot.hi() ? hot.lo : eval_cursor + 1;
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// omnetpp (C++): discrete-event simulation — pointer-heavy event graph.
// SIP's tool cannot instrument it (paper §5.2), so it appears only in the
// DFP experiments.
// ---------------------------------------------------------------------------
Trace make_omnetpp(const WorkloadParams& p) {
  const PageNum pages = sc(p.scale, 35'840);  // ~140 MiB
  Trace t("omnetpp", pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 7'000, .jitter_pct = 0.4};
  const std::uint64_t hops = sc(p.scale, 140'000);
  const std::uint64_t lookups = sc(p.scale, 110'000);
  const std::uint64_t events = sc(p.scale, 45'000);
  t.reserve(hops + lookups + 2 * events);
  pointer_chase(t, rng, Region{0, pages}, hops, /*site=*/100, gap);
  zipf_access(t, rng, Region{0, sc(p.scale, 2'048)}, lookups, /*alpha=*/0.9,
              /*site_base=*/200, /*sites=*/60, gap);
  // Event objects spanning page boundaries: stream bait.
  paired_random_access(t, rng, Region{0, pages}, events, /*pair_prob=*/0.7,
                       /*site_base=*/300, /*sites=*/20, gap);
  return t;
}

// ---------------------------------------------------------------------------
// xz (C): LZMA — sequential match copies through the dictionary window mixed
// with random hash-chain probes.
// ---------------------------------------------------------------------------
Trace make_xz(const WorkloadParams& p) {
  const PageNum pages = sc(p.scale, 33'280);  // ~130 MiB window + hashes
  Trace t("xz", pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 6'000, .jitter_pct = 0.4};
  const Region window{0, pages};
  const std::uint64_t rounds = sc(p.scale, 40'000);
  constexpr std::uint64_t kProbes = 4;
  constexpr std::uint64_t kMaxCopy = 4;
  t.reserve(rounds * (kProbes + kMaxCopy));
  for (std::uint64_t r = 0; r < rounds; ++r) {
    // Hash probes: irregular, SIP-instrumentable (46 points in Table 2).
    random_access(t, rng, window, kProbes, /*site_base=*/100, /*sites=*/46,
                  gap);
    // Match copy: a short forward run at the match position.
    if (rng.chance(0.5)) {
      short_sequential_runs(t, rng, window, /*runs=*/1, kMaxCopy,
                            /*site_base=*/200, /*sites=*/8, gap);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// roms (Fortran): ocean-model grid sweeps with strides — looks sequential in
// bursts but breaks streams constantly; the paper's worst DFP case (+42%
// overhead without the stop mechanism).
// ---------------------------------------------------------------------------
Trace make_roms(const WorkloadParams& p) {
  const PageNum pages = sc(p.scale, 86'016);  // ~336 MiB of grid fields
  Trace t("roms", pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 5'500, .jitter_pct = 0.3};
  const Region grid{0, pages};
  const std::uint64_t rows = sc(p.scale, 90'000);
  constexpr std::uint64_t kMaxBurst = 3;
  const Region sweep{0, sc(p.scale, 12'288)};
  t.reserve(rows * kMaxBurst + sweep.pages);
  // Wrong-dimension grid sweeps: every row visit is a 2-3 page burst at a
  // far-away location — relentless stream-detector bait (the paper's worst
  // DFP case, +42% overhead without the stop valve).
  short_sequential_runs(t, rng, grid, rows, kMaxBurst, /*site_base=*/100,
                        /*sites=*/30, gap);
  strided_sweep(t, rng, sweep, /*stride=*/16, /*site=*/200, gap);
  return t;
}

// ---------------------------------------------------------------------------
// Small-working-set benchmarks (Table 1, first row): footprints below the
// usable EPC, so they fault only during warm-up. Pattern details barely
// matter; each gets a plausible mix at ~40-80 MiB.
// ---------------------------------------------------------------------------
Trace make_small_ws(const char* name, PageNum pages, std::uint64_t accesses,
                    const WorkloadParams& p) {
  Trace t(name, pages + 16);
  Rng rng(p.seed);
  const GapModel gap{.mean = 8'000, .jitter_pct = 0.3};
  const Region r{0, pages};
  t.reserve(pages + accesses);
  seq_scan(t, rng, r, /*site=*/10, gap);
  zipf_access(t, rng, r, accesses, /*alpha=*/0.9, /*site_base=*/100,
              /*sites=*/40, gap);
  return t;
}

Trace make_cactubssn(const WorkloadParams& p) {
  return make_small_ws("cactuBSSN", sc(p.scale, 18'432), sc(p.scale, 120'000), p);
}
Trace make_imagick(const WorkloadParams& p) {
  return make_small_ws("imagick", sc(p.scale, 15'360), sc(p.scale, 120'000), p);
}
Trace make_leela(const WorkloadParams& p) {
  return make_small_ws("leela", sc(p.scale, 10'240), sc(p.scale, 100'000), p);
}
Trace make_nab(const WorkloadParams& p) {
  return make_small_ws("nab", sc(p.scale, 12'288), sc(p.scale, 100'000), p);
}
Trace make_exchange2(const WorkloadParams& p) {
  return make_small_ws("exchange2", sc(p.scale, 8'192), sc(p.scale, 80'000), p);
}

// ---------------------------------------------------------------------------
// ORAM (extension; paper §3.1 cites ZeroTrace): Path-ORAM-protected storage.
// Every logical request reads one random root-to-leaf path of the bucket
// tree and writes it back — by construction the page sequence is
// cryptographically unpredictable across requests AND across runs, the
// adversarial case the paper names for fault-history prediction.
// ---------------------------------------------------------------------------
Trace make_oram(const WorkloadParams& p) {
  const PageNum tree_pages = sc(p.scale, 65'536);  // ~256 MiB bucket tree
  // Height of the binary bucket tree with one page per bucket.
  unsigned height = 0;
  while ((2ull << height) - 1 < tree_pages) {
    ++height;
  }
  const PageNum leaves = 1ull << height;
  Trace t("ORAM", (2 * leaves - 1) + 64);
  Rng rng(p.seed);
  const GapModel gap{.mean = 7'000, .jitter_pct = 0.3};
  const std::uint64_t requests = sc(p.scale, 24'000);
  t.reserve(requests * (height + 1));  // one root-to-leaf path each
  for (std::uint64_t q = 0; q < requests; ++q) {
    const PageNum leaf = rng.bounded(leaves);
    // Visit the path root -> leaf. Bucket index at level k (root = level 0)
    // in heap order: (leaf + leaves) >> (height - k), minus 1 for 0-base.
    for (unsigned k = 0; k <= height; ++k) {
      const PageNum bucket = ((leaf + leaves) >> (height - k)) - 1;
      t.append(Access{.page = bucket,
                      .site = static_cast<SiteId>(100 + k),
                      .gap = gap.sample(rng)});
    }
  }
  return t;
}

std::vector<Workload> build_registry() {
  std::vector<Workload> w;
  auto add = [&w](WorkloadInfo info, Trace (*make)(const WorkloadParams&)) {
    w.push_back(Workload{std::move(info), make});
  };

  add({"microbenchmark", Category::kLargeRegular, Language::kC, true, true,
       "1 GiB sequential scan through a loop (paper's correctness baseline)"},
      make_microbenchmark);
  add({"bwaves", Category::kLargeRegular, Language::kFortran, false, true,
       "multi-stream block-sequential sweeps (Fig. 3a)"},
      make_bwaves);
  add({"lbm", Category::kLargeRegular, Language::kC, true, true,
       "two lockstep array streams (Fig. 3c); zero SIP points"},
      make_lbm);
  add({"wrf", Category::kLargeRegular, Language::kFortran, false, true,
       "sequential grid sweeps with occasional strides"},
      make_wrf);
  add({"mcf", Category::kLargeIrregular, Language::kC, true, true,
       "hot/cold graph walk; Class1+Class3 mix drifts train->ref (SIP wash)"},
      make_mcf);
  add({"mcf.2006", Category::kLargeIrregular, Language::kC, true, true,
       "CPU2006 mcf: higher, input-stable irregular ratio (SIP +4.9%)"},
      make_mcf2006);
  add({"deepsjeng", Category::kLargeIrregular, Language::kCpp, true, true,
       "uniform transposition-table probes + hot eval tables (Fig. 3b)"},
      make_deepsjeng);
  add({"omnetpp", Category::kLargeIrregular, Language::kCpp, false, true,
       "pointer-chase event graph; SIP tool unsupported (paper §5.2)"},
      make_omnetpp);
  add({"xz", Category::kLargeIrregular, Language::kC, true, true,
       "dictionary window: random hash probes + short match copies"},
      make_xz);
  add({"roms", Category::kLargeIrregular, Language::kFortran, false, true,
       "strided grid sweeps; stream-detector bait (worst DFP case)"},
      make_roms);
  add({"cactuBSSN", Category::kSmallWorkingSet, Language::kCpp, true, true,
       "small working set (~72 MiB)"},
      make_cactubssn);
  add({"imagick", Category::kSmallWorkingSet, Language::kC, true, true,
       "small working set (~60 MiB)"},
      make_imagick);
  add({"leela", Category::kSmallWorkingSet, Language::kCpp, true, true,
       "small working set (~40 MiB)"},
      make_leela);
  add({"nab", Category::kSmallWorkingSet, Language::kC, true, true,
       "small working set (~48 MiB)"},
      make_nab);
  add({"exchange2", Category::kSmallWorkingSet, Language::kFortran, false, true,
       "small working set (~32 MiB)"},
      make_exchange2);
  add({"SIFT", Category::kLargeRegular, Language::kC, true, true,
       "SD-VBS scale-invariant feature transform: sequential image pyramid"},
      make_sift);
  add({"MSER", Category::kLargeIrregular, Language::kC, true, true,
       "SD-VBS maximally stable extremal regions: irregular region merging"},
      make_mser);
  add({"mixed-blood", Category::kLargeIrregular, Language::kC, true, true,
       "synthesized: sequential image scan, then MSER blob detection (§5.4)"},
      make_mixed_blood);
  add({"ORAM", Category::kLargeIrregular, Language::kCpp, true, false,
       "extension: Path-ORAM bucket-tree paths (unpredictable by design)"},
      make_oram);
  return w;
}

}  // namespace

const char* to_string(Category c) noexcept {
  switch (c) {
    case Category::kSmallWorkingSet:
      return "small-working-set";
    case Category::kLargeIrregular:
      return "large-irregular";
    case Category::kLargeRegular:
      return "large-regular";
  }
  return "?";
}

const char* to_string(Language l) noexcept {
  switch (l) {
    case Language::kC:
      return "C";
    case Language::kCpp:
      return "C++";
    case Language::kFortran:
      return "Fortran";
  }
  return "?";
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> registry = build_registry();
  return registry;
}

const Workload* find_workload(std::string_view name) {
  for (const auto& w : all_workloads()) {
    if (w.info.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::vector<std::string> large_ws_benchmarks() {
  std::vector<std::string> names;
  for (const auto& w : all_workloads()) {
    if (w.info.paper_benchmark &&
        w.info.category != Category::kSmallWorkingSet &&
        w.info.name != "SIFT" && w.info.name != "MSER" &&
        w.info.name != "mixed-blood") {
      names.push_back(w.info.name);
    }
  }
  return names;
}

std::vector<std::string> sip_benchmarks() {
  std::vector<std::string> names;
  for (const auto& w : all_workloads()) {
    if (w.info.paper_benchmark && w.info.sip_supported &&
        w.info.category != Category::kSmallWorkingSet &&
        w.info.name != "SIFT" && w.info.name != "MSER" &&
        w.info.name != "mixed-blood") {
      names.push_back(w.info.name);
    }
  }
  return names;
}

WorkloadParams train_params(double scale) {
  return WorkloadParams{.scale = scale, .seed = 7, .train = true};
}

WorkloadParams ref_params(double scale) {
  return WorkloadParams{.scale = scale, .seed = 42, .train = false};
}

}  // namespace sgxpl::trace
