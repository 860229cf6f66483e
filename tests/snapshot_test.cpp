// Tests for the snapshot codec: framing round-trips, fuzz-style corruption
// (every single-bit flip and every truncation must be detected, never crash),
// reordered-section and version-mismatch rejection, diff localization,
// RunMeta identity gating, atomic file IO — and the same corruption battery
// lifted to delta checkpoint chains (base + 2 deltas): every bit flip and
// truncation anywhere in the chain must be detected, and broken chains
// (missing, reordered, substituted, or foreign frames) must raise typed
// ChainErrors.
#include "snapshot/codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/scheme.h"
#include "core/simulator.h"
#include "sip/instrumenter.h"
#include "snapshot/chain.h"
#include "trace/generators.h"

namespace sgxpl {
namespace {

using snapshot::Reader;
using snapshot::RunMeta;
using snapshot::Writer;

/// A two-section frame exercising every field type.
std::vector<std::uint8_t> sample_frame() {
  Writer w;
  w.begin_section("AAAA");
  w.u64("a.count", 42);
  w.f64("a.ratio", 0.375);
  w.boolean("a.flag", true);
  w.str("a.name", "leela");
  w.u64_vec("a.vec", {1, 2, 3, 0xFFFFFFFFFFFFFFFFull});
  w.end_section();
  w.begin_section("BBBB");
  w.u64("b.n", 7);
  w.end_section();
  return w.finish();
}

/// Fully decode a frame, cross-checking the section table against the
/// declared count (catches a shrunk count field, which strict sequential
/// reading alone would interpret as ignorable trailing bytes).
void decode_all(const std::vector<std::uint8_t>& bytes) {
  const auto spans = snapshot::section_spans(bytes);
  Reader r(bytes);
  SGXPL_CHECK_MSG(spans.size() == r.section_count(),
                  "section table does not match the declared count");
  while (r.sections_entered() < r.section_count()) {
    r.enter_any_section();
    while (r.more_fields()) {
      r.next_field();
    }
    r.leave_section();
  }
}

TEST(SnapshotCodec, Crc32cMatchesTheCastagnoliCheckVector) {
  const auto* s = reinterpret_cast<const std::uint8_t*>("123456789");
  EXPECT_EQ(snapshot::crc32c(s, 9), 0xE3069283u);
  EXPECT_EQ(snapshot::detail::crc32c_portable(s, 9), 0xE3069283u);
  EXPECT_EQ(snapshot::crc32c(nullptr, 0), 0u);
  EXPECT_EQ(snapshot::detail::crc32c_portable(nullptr, 0), 0u);
}

/// The bytewise table CRC32C the codec used before slicing-by-8; kept here
/// only as the equivalence oracle.
std::uint32_t crc32c_bytewise(const std::uint8_t* data, std::size_t len) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SnapshotCodec, Crc32cEqualsTheBytewiseReferenceAtEveryLengthAndOffset) {
  // The dispatched crc32c (the SSE4.2 instruction where the CPU has it), the
  // portable slicing-by-8 path and the bytewise reference must agree.
  // Lengths 0..1024 cover every tail length around the 8-byte blocks many
  // times over; offsets 0..7 cover every alignment of the block loads.
  Rng rng(0xC5C32);
  std::vector<std::uint8_t> buf(1024 + 8);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      const std::uint32_t want = crc32c_bytewise(p, len);
      ASSERT_EQ(snapshot::detail::crc32c_portable(p, len), want)
          << "portable, offset " << offset << " length " << len;
      ASSERT_EQ(snapshot::crc32c(p, len), want)
          << "dispatched, offset " << offset << " length " << len;
    }
  }
}

TEST(SnapshotCodec, RoundTripsEveryFieldType) {
  const auto frame = sample_frame();
  Reader r(frame);
  EXPECT_EQ(r.version(), snapshot::kFormatVersion);
  EXPECT_EQ(r.section_count(), 2u);
  r.enter_section("AAAA");
  EXPECT_EQ(r.u64("a.count"), 42u);
  EXPECT_DOUBLE_EQ(r.f64("a.ratio"), 0.375);
  EXPECT_TRUE(r.boolean("a.flag"));
  EXPECT_EQ(r.str("a.name"), "leela");
  EXPECT_EQ(r.u64_vec("a.vec"),
            (std::vector<std::uint64_t>{1, 2, 3, 0xFFFFFFFFFFFFFFFFull}));
  EXPECT_FALSE(r.more_fields());
  r.leave_section();
  r.enter_section("BBBB");
  EXPECT_EQ(r.u64("b.n"), 7u);
  r.leave_section();
  EXPECT_EQ(r.sections_entered(), r.section_count());
}

TEST(SnapshotCodec, F64RestoresExactBitPatterns) {
  Writer w;
  w.begin_section("FLTS");
  w.f64("nan", std::numeric_limits<double>::quiet_NaN());
  w.f64("neg_zero", -0.0);
  w.f64("inf", std::numeric_limits<double>::infinity());
  w.f64("denorm", std::numeric_limits<double>::denorm_min());
  w.end_section();
  const auto frame = w.finish();
  Reader r(frame);
  r.enter_section("FLTS");
  EXPECT_TRUE(std::isnan(r.f64("nan")));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64("neg_zero")),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_EQ(r.f64("inf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(r.f64("denorm"), std::numeric_limits<double>::denorm_min());
  r.leave_section();
}

TEST(SnapshotCodec, ZeroSectionFrameIsValid) {
  Writer w;
  const auto frame = w.finish();
  Reader r(frame);
  EXPECT_EQ(r.section_count(), 0u);
  EXPECT_TRUE(snapshot::section_spans(frame).empty());
  EXPECT_TRUE(snapshot::diff(frame, frame).identical);
}

TEST(SnapshotCodec, SectionSpansTableMatchesTheFrame) {
  const auto frame = sample_frame();
  const auto spans = snapshot::section_spans(frame);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].tag, "AAAA");
  EXPECT_EQ(spans[1].tag, "BBBB");
  EXPECT_EQ(spans[0].offset, snapshot::kMagic.size() + 8);
  EXPECT_EQ(spans[0].offset + spans[0].size, spans[1].offset);
  EXPECT_EQ(spans[1].offset + spans[1].size, frame.size());
}

TEST(SnapshotCodec, WriterEnforcesFraming) {
  Writer w;
  EXPECT_THROW(w.begin_section("TOOLONG"), CheckFailure);  // tag must be 4
  EXPECT_THROW(w.u64("loose", 1), CheckFailure);  // field outside a section
  w.begin_section("GOOD");
  EXPECT_THROW(w.begin_section("NEST"), CheckFailure);  // no nesting
  EXPECT_THROW(w.finish(), CheckFailure);  // section still open
  w.end_section();
  w.finish();
}

// --- structural drift between writer and reader ----------------------------

TEST(SnapshotCodec, MismatchedLabelNamesBothFields) {
  const auto frame = sample_frame();
  Reader r(frame);
  r.enter_section("AAAA");
  try {
    r.u64("a.wrong");
    FAIL() << "mismatched label accepted";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'a.wrong'"), std::string::npos) << what;
    EXPECT_NE(what.find("'a.count'"), std::string::npos) << what;
    EXPECT_NE(what.find("'AAAA'"), std::string::npos) << what;
  }
}

TEST(SnapshotCodec, MismatchedTypeIsDiagnosed) {
  const auto frame = sample_frame();
  Reader r(frame);
  r.enter_section("AAAA");
  try {
    r.f64("a.count");  // written as u64
    FAIL() << "mismatched type accepted";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("has type u64"), std::string::npos) << what;
    EXPECT_NE(what.find("expected f64"), std::string::npos) << what;
  }
}

TEST(SnapshotCodec, LeaveSectionRejectsUnreadState) {
  const auto frame = sample_frame();
  Reader r(frame);
  r.enter_section("AAAA");
  r.u64("a.count");
  try {
    r.leave_section();
    FAIL() << "unread payload bytes ignored";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("unread"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotCodec, MissingTrailingFieldIsDiagnosed) {
  Writer w;
  w.begin_section("ONEF");
  w.u64("only", 1);
  w.end_section();
  const auto frame = w.finish();
  Reader r(frame);
  r.enter_section("ONEF");
  r.u64("only");
  try {
    r.u64("more");
    FAIL() << "read past the last field";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("no more fields"), std::string::npos)
        << e.what();
  }
}

// --- corruption fuzzing -----------------------------------------------------

TEST(SnapshotCorruption, EverySingleBitFlipIsDetected) {
  const auto pristine = sample_frame();
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutated = pristine;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      bool detected = false;
      try {
        decode_all(mutated);
        // Structurally valid (e.g. a flipped section tag, which no payload
        // CRC covers): the flip must still show up as a content difference.
        detected = !snapshot::diff(pristine, mutated).identical;
      } catch (const CheckFailure&) {
        detected = true;
      }
      EXPECT_TRUE(detected) << "byte " << byte << " bit " << bit
                            << " flipped without detection";
    }
  }
}

TEST(SnapshotCorruption, EveryTruncationIsDetected) {
  const auto pristine = sample_frame();
  for (std::size_t n = 0; n < pristine.size(); ++n) {
    const std::vector<std::uint8_t> cut(pristine.begin(),
                                        pristine.begin() +
                                            static_cast<std::ptrdiff_t>(n));
    EXPECT_THROW(decode_all(cut), CheckFailure) << "length " << n;
  }
}

TEST(SnapshotCorruption, ReorderedSectionsAreRejectedByStrictReads) {
  const auto frame = sample_frame();
  const auto spans = snapshot::section_spans(frame);
  ASSERT_EQ(spans.size(), 2u);
  const auto begin = frame.begin();
  std::vector<std::uint8_t> reordered(
      begin, begin + static_cast<std::ptrdiff_t>(spans[0].offset));
  for (const std::size_t i : {std::size_t{1}, std::size_t{0}}) {
    const auto at = begin + static_cast<std::ptrdiff_t>(spans[i].offset);
    reordered.insert(reordered.end(), at,
                     at + static_cast<std::ptrdiff_t>(spans[i].size));
  }
  ASSERT_EQ(reordered.size(), frame.size());
  Reader r(reordered);
  try {
    r.enter_section("AAAA");
    FAIL() << "reordered section accepted";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("out of order"), std::string::npos)
        << e.what();
  }
  const auto d = snapshot::diff(frame, reordered);
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("section order"), std::string::npos)
      << d.first_divergence;
}

TEST(SnapshotCorruption, UnknownVersionIsRejectedWithGuidance) {
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{3},
                                     std::uint8_t{9}}) {
    auto frame = sample_frame();
    // version u32 LSB (currently kFormatVersion)
    frame[snapshot::kMagic.size()] = version;
    const std::string want =
        "unsupported format version " + std::to_string(version);
    try {
      Reader r(frame);
      FAIL() << "version " << int{version} << " accepted";
    } catch (const CheckFailure& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(want), std::string::npos) << what;
      EXPECT_NE(what.find("re-create"), std::string::npos) << what;
    }
  }
}

TEST(SnapshotCorruption, NotASnapshotFileIsRejected) {
  const std::vector<std::uint8_t> junk{'n', 'o', 't', ' ', 'a', ' ', 's', 'n',
                                       'a', 'p', 's', 'h', 'o', 't', '!', '!'};
  EXPECT_THROW(Reader r(junk), CheckFailure);
  EXPECT_THROW(Reader(nullptr, 0), CheckFailure);
}

// --- diff -------------------------------------------------------------------

TEST(SnapshotDiff, IdenticalFramesCompareClean) {
  const auto frame = sample_frame();
  const auto d = snapshot::diff(frame, frame);
  EXPECT_TRUE(d.identical);
  EXPECT_TRUE(d.first_divergence.empty());
}

TEST(SnapshotDiff, LocalizesTheFirstDivergingField) {
  Writer wa;
  Writer wb;
  for (Writer* w : {&wa, &wb}) {
    w->begin_section("SAME");
    w->u64("x", 1);
    w->end_section();
  }
  wa.begin_section("DATA");
  wa.u64("count", 42);
  wa.end_section();
  wb.begin_section("DATA");
  wb.u64("count", 43);
  wb.end_section();
  const auto d = snapshot::diff(wa.finish(), wb.finish());
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("'DATA'"), std::string::npos)
      << d.first_divergence;
  EXPECT_NE(d.first_divergence.find("'count'"), std::string::npos);
  EXPECT_NE(d.first_divergence.find("42 != 43"), std::string::npos);
}

TEST(SnapshotDiff, LocalizesTheDivergingVectorElement) {
  Writer wa;
  Writer wb;
  wa.begin_section("DATA");
  wa.u64_vec("v", {5, 6, 7});
  wa.end_section();
  wb.begin_section("DATA");
  wb.u64_vec("v", {5, 9, 7});
  wb.end_section();
  const auto d = snapshot::diff(wa.finish(), wb.finish());
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("element [1]"), std::string::npos)
      << d.first_divergence;
  EXPECT_NE(d.first_divergence.find("6 != 9"), std::string::npos);
}

TEST(SnapshotDiff, ComparesF64ByBitPattern) {
  // +0.0 == -0.0 numerically, but the guarantee is bit-identical resume.
  Writer wa;
  Writer wb;
  wa.begin_section("DATA");
  wa.f64("z", 0.0);
  wa.end_section();
  wb.begin_section("DATA");
  wb.f64("z", -0.0);
  wb.end_section();
  const auto d = snapshot::diff(wa.finish(), wb.finish());
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("'z'"), std::string::npos)
      << d.first_divergence;
}

TEST(SnapshotDiff, ReportsDifferingSectionCounts) {
  Writer wa;
  wa.begin_section("DATA");
  wa.u64("x", 1);
  wa.end_section();
  Writer wb;
  const auto d = snapshot::diff(wa.finish(), wb.finish());
  ASSERT_FALSE(d.identical);
  EXPECT_NE(d.first_divergence.find("section counts differ"),
            std::string::npos)
      << d.first_divergence;
}

// --- RunMeta ----------------------------------------------------------------

TEST(SnapshotMeta, RoundTripsAndGatesOnIdentityNotCursor) {
  RunMeta m;
  m.kind = "enclave-sim";
  m.scheme = "DFP+stop";
  m.trace_name = "mcf";
  m.trace_accesses = 1000;
  m.elrange_pages = 4096;
  m.epc_pages = 96;
  m.chaos_spec = "jitter:1:0.3";
  m.chaos_seed = 9;
  m.cursor = 123;
  Writer w;
  snapshot::write_meta(w, m);
  const std::vector<std::uint8_t> bytes = w.finish();
  Reader r(bytes);
  const RunMeta got = snapshot::read_meta(r);
  EXPECT_EQ(got.kind, m.kind);
  EXPECT_EQ(got.scheme, m.scheme);
  EXPECT_EQ(got.trace_name, m.trace_name);
  EXPECT_EQ(got.trace_accesses, m.trace_accesses);
  EXPECT_EQ(got.elrange_pages, m.elrange_pages);
  EXPECT_EQ(got.epc_pages, m.epc_pages);
  EXPECT_EQ(got.chaos_spec, m.chaos_spec);
  EXPECT_EQ(got.chaos_seed, m.chaos_seed);
  EXPECT_EQ(got.cursor, m.cursor);

  RunMeta later = m;
  later.cursor = 999;  // progress, not identity
  EXPECT_EQ(m.incompatibility(later), "");
  RunMeta other = m;
  other.scheme = "baseline";
  const std::string why = m.incompatibility(other);
  EXPECT_NE(why.find("scheme"), std::string::npos) << why;
  EXPECT_NE(why.find("'DFP+stop'"), std::string::npos) << why;
  EXPECT_NE(why.find("'baseline'"), std::string::npos) << why;
  RunMeta squeezed = m;
  squeezed.epc_pages = 48;
  EXPECT_NE(m.incompatibility(squeezed).find("EPC pages"), std::string::npos);
}

// --- delta-chain corruption -------------------------------------------------

core::SimConfig fuzz_cfg() {
  core::SimConfig cfg;
  cfg.scheme = core::Scheme::kDfpStop;
  cfg.enclave.epc_pages = 16;
  cfg.dfp.predictor.stream_list_len = 4;
  cfg.dfp.predictor.load_length = 2;
  cfg.validate = true;
  return cfg;
}

trace::Trace fuzz_trace() {
  trace::Trace t("chain-fuzz", 64);
  Rng rng(5);
  const trace::GapModel gap{.mean = 1'000, .jitter_pct = 0};
  trace::seq_scan(t, rng, trace::Region{0, 48}, 1, gap);
  trace::random_access(t, rng, trace::Region{48, 16}, 72, 10, 2, gap);
  return t;
}

sip::InstrumentationPlan fuzz_plan() {
  sip::InstrumentationPlan plan;
  for (SiteId s = 10; s < 12; ++s) {
    plan.add_site(s);
  }
  return plan;
}

struct FuzzChain {
  /// Base + deltas, one frame per cut.
  std::vector<std::vector<std::uint8_t>> frames;
  /// Full snapshot of the victim at the last cut — what a correct chain
  /// restore must reproduce byte for byte.
  std::vector<std::uint8_t> reference;
};

/// Checkpoint a small DFP-stop run at each cut through one Snapshotter
/// (full_every large enough that only the first frame is a base).
FuzzChain make_fuzz_chain(const std::vector<std::uint64_t>& cuts) {
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  snapshot::Snapshotter<core::SimulationRun> snap(/*full_every=*/8);
  FuzzChain out;
  for (const std::uint64_t cut : cuts) {
    while (!run.done() && run.cursor() < cut) {
      run.step();
    }
    out.frames.push_back(snap.checkpoint(run).bytes);
  }
  out.reference = run.save_bytes();
  return out;
}

TEST(ChainCorruption, EverySingleBitFlipAnywhereInTheChainIsDetected) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  ASSERT_EQ(chain.frames.size(), 3u);
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  for (std::size_t fi = 0; fi < chain.frames.size(); ++fi) {
    for (std::size_t byte = 0; byte < chain.frames[fi].size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = chain.frames;
        mutated[fi][byte] ^= static_cast<std::uint8_t>(1u << bit);
        bool detected = false;
        try {
          core::SimulationRun run(fuzz_cfg(), t, &plan);
          snapshot::restore_chain(run, mutated);
          // Restore went through structurally — the flip must still show
          // up as a state difference versus the pristine chain's endpoint.
          detected = run.save_bytes() != chain.reference;
        } catch (const CheckFailure&) {
          detected = true;  // CRC, framing, or chain-linkage rejection
        }
        ASSERT_TRUE(detected) << "frame " << fi << " byte " << byte << " bit "
                              << bit << " flipped without detection";
      }
    }
  }
}

TEST(ChainCorruption, EveryTruncationAnywhereInTheChainIsDetected) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  for (std::size_t fi = 0; fi < chain.frames.size(); ++fi) {
    for (std::size_t n = 0; n < chain.frames[fi].size(); ++n) {
      auto mutated = chain.frames;
      mutated[fi].resize(n);
      core::SimulationRun run(fuzz_cfg(), t, &plan);
      ASSERT_THROW(snapshot::restore_chain(run, mutated), CheckFailure)
          << "frame " << fi << " truncated to " << n << " bytes accepted";
    }
  }
}

TEST(ChainCorruption, MissingDeltaRaisesTypedChainError) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> gap = {chain.frames[0],
                                                      chain.frames[2]};
  try {
    snapshot::restore_chain(run, gap);
    FAIL() << "chain with a missing delta accepted";
  } catch (const snapshot::ChainError& e) {
    EXPECT_NE(std::string(e.what()).find("missing a frame or reordered"),
              std::string::npos)
        << e.what();
  }
}

TEST(ChainCorruption, ReorderedDeltasRaiseTypedChainError) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> swapped = {
      chain.frames[0], chain.frames[2], chain.frames[1]};
  EXPECT_THROW(snapshot::restore_chain(run, swapped), snapshot::ChainError);
}

TEST(ChainCorruption, SubstitutedDeltaFailsThePrevCrcLink) {
  // Two chains sharing the same base (both victims checkpointed at cut 40,
  // deterministically identical), then diverging: substituting chain B's
  // second delta into chain A passes the seq and chain-id checks but must
  // fail the prev-CRC link.
  const FuzzChain a = make_fuzz_chain({40, 60, 80});
  const FuzzChain b = make_fuzz_chain({40, 64, 84});
  ASSERT_EQ(a.frames[0], b.frames[0]) << "bases diverged; test premise broken";
  ASSERT_NE(a.frames[1], b.frames[1]);
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> franken = {
      a.frames[0], a.frames[1], b.frames[2]};
  try {
    snapshot::restore_chain(run, franken);
    FAIL() << "substituted delta accepted";
  } catch (const snapshot::ChainError& e) {
    EXPECT_NE(std::string(e.what()).find("substituted or reordered"),
              std::string::npos)
        << e.what();
  }
}

TEST(ChainCorruption, ChainWithoutItsBaseIsRejected) {
  const FuzzChain chain = make_fuzz_chain({40, 60, 80});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> headless = {chain.frames[1],
                                                           chain.frames[2]};
  try {
    snapshot::restore_chain(run, headless);
    FAIL() << "chain starting with a delta accepted";
  } catch (const snapshot::ChainError& e) {
    EXPECT_NE(std::string(e.what()).find("full base frame"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(
      snapshot::restore_chain(run, std::vector<std::vector<std::uint8_t>>{}),
      snapshot::ChainError);
}

TEST(ChainCorruption, ForeignDeltaIsRejectedByChainId) {
  // A delta from a chain rooted at a different cut carries a different
  // content-derived chain id; mixing it in must be diagnosed as such.
  const FuzzChain a = make_fuzz_chain({40, 60});
  const FuzzChain c = make_fuzz_chain({44, 62});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  const std::vector<std::vector<std::uint8_t>> mixed = {a.frames[0],
                                                        c.frames[1]};
  try {
    snapshot::restore_chain(run, mixed);
    FAIL() << "delta from a foreign chain accepted";
  } catch (const snapshot::ChainError& e) {
    EXPECT_NE(std::string(e.what()).find("different checkpoint chain"),
              std::string::npos)
        << e.what();
  }
}

TEST(ChainCorruption, ALinkageFaultLeavesTheRunUntouched) {
  // restore_chain probes the whole chain before it applies any frame, so a
  // seq gap, a substituted delta or a mixed chain throws with the run still
  // exactly as it was — not with the base and earlier deltas applied.
  const FuzzChain a = make_fuzz_chain({40, 60, 80});
  const FuzzChain b = make_fuzz_chain({40, 64, 84});
  const FuzzChain c = make_fuzz_chain({44, 62});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  const std::vector<std::vector<std::vector<std::uint8_t>>> broken = {
      {a.frames[0], a.frames[2]},               // seq gap
      {a.frames[0], a.frames[1], b.frames[2]},  // substituted delta
      {a.frames[0], a.frames[1], c.frames[1]},  // mixed chain
  };
  for (std::size_t k = 0; k < broken.size(); ++k) {
    core::SimulationRun run(fuzz_cfg(), t, &plan);
    for (int i = 0; i < 10; ++i) run.step();
    const std::vector<std::uint8_t> before = run.save_bytes();
    EXPECT_THROW(snapshot::restore_chain(run, broken[k]), snapshot::ChainError)
        << "case " << k;
    EXPECT_EQ(run.save_bytes(), before) << "case " << k;
  }
}

TEST(ChainCorruption, DeltaFrameCannotBeRestoredOnItsOwn) {
  const FuzzChain chain = make_fuzz_chain({40, 60});
  const trace::Trace t = fuzz_trace();
  const sip::InstrumentationPlan plan = fuzz_plan();
  core::SimulationRun run(fuzz_cfg(), t, &plan);
  try {
    run.load_bytes(chain.frames[1]);
    FAIL() << "bare delta frame accepted as a full snapshot";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("restore the chain from its base"),
              std::string::npos)
        << e.what();
  }
}

// --- file IO ----------------------------------------------------------------

TEST(SnapshotFile, AtomicWriteAndReadBack) {
  const std::string path = testing::TempDir() + "sgxpl-codec-io.snap";
  std::remove(path.c_str());
  EXPECT_FALSE(snapshot::file_readable(path));
  EXPECT_THROW(snapshot::read_file(path), CheckFailure);
  const auto frame = sample_frame();
  snapshot::write_file_atomic(path, frame);
  EXPECT_TRUE(snapshot::file_readable(path));
  EXPECT_FALSE(snapshot::file_readable(path + ".tmp"));  // no temp droppings
  EXPECT_EQ(snapshot::read_file(path), frame);
  // Overwrite in place: readers only ever see a whole frame.
  Writer w;
  w.begin_section("NEWF");
  w.u64("n", 1);
  w.end_section();
  const auto frame2 = w.finish();
  snapshot::write_file_atomic(path, frame2);
  EXPECT_EQ(snapshot::read_file(path), frame2);
  std::remove(path.c_str());
}

TEST(SnapshotFile, SizeCappedSinkFailsTypedAndLeavesTargetIntact) {
  // The disk-full regression rig: a sink that can only absorb a few bytes
  // must surface a typed kIoError — never a CHECK crash, never a torn or
  // half-replaced target, never a leftover temp file.
  const std::string path = testing::TempDir() + "sgxpl-codec-capped.snap";
  std::remove(path.c_str());
  const auto frame = sample_frame();
  snapshot::write_file_atomic(path, frame);  // a good file is already there

  snapshot::set_io_write_cap_for_testing(8);
  std::string detail;
  EXPECT_EQ(snapshot::try_write_file_atomic(path, frame, &detail),
            snapshot::IoResult::kIoError);
  EXPECT_NE(detail.find("sink full"), std::string::npos) << detail;
  // The failed write is invisible: previous contents intact, no droppings.
  EXPECT_EQ(snapshot::read_file(path), frame);
  EXPECT_FALSE(snapshot::file_readable(path + ".tmp"));
  // The throwing wrapper reports the same typed failure.
  try {
    snapshot::write_file_atomic(path, frame);
    snapshot::set_io_write_cap_for_testing(0);
    FAIL() << "size-capped write did not fail";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("sink full"), std::string::npos)
        << e.what();
  }
  snapshot::set_io_write_cap_for_testing(0);

  // With the cap lifted the same write goes through atomically again.
  snapshot::write_file_atomic(path, frame);
  EXPECT_EQ(snapshot::read_file(path), frame);
  EXPECT_EQ(std::string(snapshot::to_string(snapshot::IoResult::kOk)), "ok");
  EXPECT_EQ(std::string(snapshot::to_string(snapshot::IoResult::kIoError)),
            "io-error");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sgxpl
