#include "trace/workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "sgxsim/epc.h"

namespace sgxpl::trace {
namespace {

// Small scale keeps the full-registry sweeps fast.
constexpr double kScale = 0.1;

TEST(Workloads, RegistryComplete) {
  const auto& all = all_workloads();
  EXPECT_EQ(all.size(), 19u);
  for (const char* name :
       {"microbenchmark", "bwaves", "lbm", "wrf", "mcf", "mcf.2006",
        "deepsjeng", "omnetpp", "xz", "roms", "cactuBSSN", "imagick", "leela",
        "nab", "exchange2", "SIFT", "MSER", "mixed-blood", "ORAM"}) {
    EXPECT_NE(find_workload(name), nullptr) << name;
  }
  EXPECT_EQ(find_workload("nonexistent"), nullptr);
}

TEST(Workloads, EveryFactoryProducesNonEmptyTraceWithinElrange) {
  for (const auto& w : all_workloads()) {
    const Trace t = w.make(WorkloadParams{.scale = kScale, .seed = 1});
    EXPECT_FALSE(t.empty()) << w.info.name;
    EXPECT_GT(t.elrange_pages(), 0u) << w.info.name;
    for (const auto& a : t.accesses()) {
      ASSERT_LT(a.page, t.elrange_pages()) << w.info.name;
    }
  }
}

TEST(Workloads, DeterministicPerSeed) {
  const auto* w = find_workload("deepsjeng");
  ASSERT_NE(w, nullptr);
  const WorkloadParams p{.scale = kScale, .seed = 5};
  const Trace a = w->make(p);
  const Trace b = w->make(p);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.accesses()[i].page, b.accesses()[i].page);
    ASSERT_EQ(a.accesses()[i].site, b.accesses()[i].site);
    ASSERT_EQ(a.accesses()[i].gap, b.accesses()[i].gap);
  }
}

TEST(Workloads, DifferentSeedsProduceDifferentInputs) {
  const auto* w = find_workload("MSER");
  ASSERT_NE(w, nullptr);
  const Trace a = w->make(WorkloadParams{.scale = kScale, .seed = 1});
  const Trace b = w->make(WorkloadParams{.scale = kScale, .seed = 2});
  // Trace lengths may differ slightly (run counts are stochastic); the page
  // sequences must diverge substantially.
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    differing += a.accesses()[i].page != b.accesses()[i].page ? 1u : 0u;
  }
  EXPECT_GT(differing, n / 4);
}

TEST(Workloads, CategoriesMatchFootprints) {
  // At scale 1.0 the categories must hold against the real 96 MiB EPC;
  // checking at a reduced scale against a proportionally reduced EPC.
  const auto epc = static_cast<PageNum>(
      static_cast<double>(sgxsim::kDefaultEpcPages) * kScale);
  for (const auto& w : all_workloads()) {
    const Trace t = w.make(WorkloadParams{.scale = kScale, .seed = 1});
    const auto s = t.stats();
    if (w.info.category == Category::kSmallWorkingSet) {
      EXPECT_LT(s.footprint_pages, epc) << w.info.name;
    } else {
      EXPECT_GT(s.footprint_pages, epc) << w.info.name;
    }
  }
}

TEST(Workloads, RegularWorkloadsAreSequential) {
  for (const char* name : {"microbenchmark", "lbm"}) {
    const auto* w = find_workload(name);
    ASSERT_NE(w, nullptr);
    const Trace t = w->make(WorkloadParams{.scale = kScale, .seed = 1});
    EXPECT_GT(t.stats().sequential_fraction, 0.5) << name;
  }
  // SIFT mixes streaming pyramid passes with keypoint hops: sequential
  // overall but less extreme.
  const Trace sift =
      find_workload("SIFT")->make(WorkloadParams{.scale = kScale, .seed = 1});
  EXPECT_GT(sift.stats().sequential_fraction, 0.25);
}

TEST(Workloads, IrregularWorkloadsAreNot) {
  // deepsjeng is excluded: its trace-level sequentiality is dominated by
  // resident eval-table walks; its *fault* stream is irregular (covered by
  // the Table-1 bench's fault-level classifier).
  for (const char* name : {"omnetpp", "mcf"}) {
    const auto* w = find_workload(name);
    ASSERT_NE(w, nullptr);
    const Trace t = w->make(WorkloadParams{.scale = kScale, .seed = 1});
    EXPECT_LT(t.stats().sequential_fraction, 0.4) << name;
  }
}

TEST(Workloads, MicrobenchmarkIsOneGiBAtFullScale) {
  const auto* w = find_workload("microbenchmark");
  ASSERT_NE(w, nullptr);
  // 1 GiB = 262144 pages; don't generate at full scale here, just check the
  // arithmetic the factory uses.
  EXPECT_EQ(bytes_to_pages(1_GiB), 262'144u);
}

TEST(Workloads, TrainInputsAreSmaller) {
  for (const char* name : {"microbenchmark", "lbm", "deepsjeng"}) {
    const auto* w = find_workload(name);
    ASSERT_NE(w, nullptr);
    const Trace ref = w->make(ref_params(kScale));
    const Trace train = w->make(train_params(kScale));
    EXPECT_LT(train.size(), ref.size()) << name;
  }
}

TEST(Workloads, FortranAndOmnetppExcludedFromSip) {
  for (const char* name : {"bwaves", "roms", "wrf", "exchange2", "omnetpp"}) {
    const auto* w = find_workload(name);
    ASSERT_NE(w, nullptr);
    EXPECT_FALSE(w->info.sip_supported) << name;
  }
  EXPECT_TRUE(find_workload("deepsjeng")->info.sip_supported);
}

TEST(Workloads, BenchmarkListHelpers) {
  const auto large = large_ws_benchmarks();
  EXPECT_EQ(large.size(), 10u);  // 9 SPEC-like + microbenchmark
  const auto sip = sip_benchmarks();
  for (const auto& name : sip) {
    const auto* w = find_workload(name);
    ASSERT_NE(w, nullptr);
    EXPECT_TRUE(w->info.sip_supported) << name;
  }
  // The paper's Fig. 10 set: mcf.2006, mcf, xz, deepsjeng, lbm, micro.
  EXPECT_EQ(sip.size(), 6u);
}

TEST(Workloads, MixedBloodHasSequentialThenIrregularPhases) {
  const auto* w = find_workload("mixed-blood");
  ASSERT_NE(w, nullptr);
  const Trace t = w->make(WorkloadParams{.scale = kScale, .seed = 1});
  const std::size_t half = t.size() / 2;
  std::uint64_t seq_first = 0;
  std::uint64_t seq_second = 0;
  PageNum prev = kInvalidPage;
  for (std::size_t i = 0; i < t.size(); ++i) {
    const PageNum page = t.accesses()[i].page;
    if (prev != kInvalidPage && page == prev + 1) {
      (i < half ? seq_first : seq_second) += 1;
    }
    prev = page;
  }
  EXPECT_GT(seq_first, seq_second * 5);
}

/// FNV-1a over the trace's ELRANGE and every access's page, site and gap,
/// little-endian.
std::uint64_t trace_hash(const Trace& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i, v >>= 8) {
      h = (h ^ (v & 0xff)) * 0x100000001b3ull;
    }
  };
  mix(t.elrange_pages(), 8);
  for (const Access& a : t.accesses()) {
    mix(a.page, 8);
    mix(a.site, 4);
    mix(a.gap, 8);
  }
  return h;
}

TEST(Workloads, TracesMatchPinnedHashes) {
  // Train and ref inputs of every registry workload, pinned from the
  // generators before they reserved their traces up front and shared one
  // Zipf sampler per region. A generator change that moves any access,
  // site, gap or ELRANGE changes a hash here.
  const std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
      kPinned = {
          // name -> {train hash, ref hash}
          {"microbenchmark", {0xde1af8410ae59cc5ull, 0xd249a21bc7bcde41ull}},
          {"bwaves", {0xf90b2d7d9b52a817ull, 0xde3204491853b039ull}},
          {"lbm", {0x8ec6c9973fef2fedull, 0x3f76c863aef55af0ull}},
          {"wrf", {0xa647ba22bea68e2bull, 0x7d101ae49c51ca5dull}},
          {"mcf", {0x05079d1da86c7584ull, 0x96f026159340ce42ull}},
          {"mcf.2006", {0xc373e85021317155ull, 0x9a2b60e949240399ull}},
          {"deepsjeng", {0x98371183f8eea330ull, 0x2d58781c430594e2ull}},
          {"omnetpp", {0x37cc15649123869cull, 0x77f0f1d8bf1ddba1ull}},
          {"xz", {0x4dab513f3b06af54ull, 0x46ec779bbcb20416ull}},
          {"roms", {0x32097ab021774590ull, 0xd361524770148d2cull}},
          {"cactuBSSN", {0x987fae0a0ba6a4cdull, 0x833997f354050960ull}},
          {"imagick", {0xbcd7cf8e48e6231cull, 0xcebd2923bc518c2dull}},
          {"leela", {0x83586934a4098b96ull, 0xab22a7f69f063d97ull}},
          {"nab", {0x64c4dfa4c14090dfull, 0xd25c931abd970e2bull}},
          {"exchange2", {0xbbd2a37abb14e35full, 0xbb7a9ea92b34a4adull}},
          {"SIFT", {0x6d33830f157ad424ull, 0x7f867cb3677de3baull}},
          {"MSER", {0xad058974e53bb0bbull, 0xe49b47fe4880c85eull}},
          {"mixed-blood", {0x46aea41012ecb9a3ull, 0x8f53813243359bc8ull}},
          {"ORAM", {0x22dea93f06bc1c2eull, 0x847face89d167b16ull}},
      };
  for (const auto& w : all_workloads()) {
    const Trace train = w.make(train_params(0.05));
    const Trace ref = w.make(ref_params(0.05));
    char line[128];
    std::snprintf(line, sizeof line, "{\"%s\", {0x%016llxull, 0x%016llxull}},",
                  w.info.name.c_str(),
                  static_cast<unsigned long long>(trace_hash(train)),
                  static_cast<unsigned long long>(trace_hash(ref)));
    const auto it = kPinned.find(w.info.name);
    if (it == kPinned.end()) {
      ADD_FAILURE() << "no pinned hashes: " << line;
      continue;
    }
    EXPECT_EQ(trace_hash(train), it->second.first) << line;
    EXPECT_EQ(trace_hash(ref), it->second.second) << line;
  }
  EXPECT_EQ(kPinned.size(), all_workloads().size());
}

TEST(TraceStats, ComputesBasicFeatures) {
  Trace t("t", 100);
  t.append({.page = 0, .site = 1, .gap = 10});
  t.append({.page = 1, .site = 1, .gap = 10});
  t.append({.page = 2, .site = 2, .gap = 10});
  t.append({.page = 50, .site = 3, .gap = 20});
  const auto s = t.stats();
  EXPECT_EQ(s.accesses, 4u);
  EXPECT_EQ(s.footprint_pages, 4u);
  EXPECT_EQ(s.max_page, 50u);
  EXPECT_EQ(s.sites, 3u);
  EXPECT_EQ(s.compute_cycles, 50u);
  EXPECT_DOUBLE_EQ(s.sequential_fraction, 0.5);  // accesses 2 and 3 of 4
}

}  // namespace
}  // namespace sgxpl::trace
