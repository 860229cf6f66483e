#include "snapshot/snapshotter.h"

#include <utility>

#include "common/check.h"
#include "sgxsim/page_table.h"

namespace sgxpl::snapshot {

namespace {

/// A body section decoded generically, for field inspection and for
/// byte-identical re-emission into a carved frame.
struct RawSection {
  std::string tag;
  std::vector<FieldView> fields;
};

/// Open a multi-enclave full frame for carving and decode its body
/// sections. `who` prefixes every refusal ("snapshot extract", ...).
std::vector<RawSection> open_multi_frame(const RunFrame& f, const char* who) {
  SGXPL_CHECK_MSG(f.chain.kind == FrameKind::kFull,
                  who << ": delta frames hold partial state; use the "
                         "chain's base frame");
  SGXPL_CHECK_MSG(f.meta.kind == "multi-enclave",
                  who << ": frame holds a '" << f.meta.kind
                      << "' run, not a multi-enclave co-run");
  Reader r = f.body;
  std::vector<RawSection> secs;
  secs.reserve(r.section_count() - r.sections_entered());
  while (r.sections_entered() < r.section_count()) {
    RawSection s;
    s.tag = r.enter_any_section();
    while (r.more_fields()) s.fields.push_back(r.next_field());
    r.leave_section();
    secs.push_back(std::move(s));
  }
  return secs;
}

const FieldView& raw_field(const RawSection& s, const std::string& label) {
  for (const FieldView& f : s.fields) {
    if (f.label == label) return f;
  }
  throw CheckFailure("snapshot extract: section '" + s.tag +
                     "' lacks field '" + label + "'");
}

void copy_section(Writer& w, const RawSection& s) {
  w.begin_section(s.tag);
  for (const FieldView& f : s.fields) w.field(f);
  w.end_section();
}

/// One tenant's [ENCM, APPS, DFPE?] group within a co-run frame.
struct TenantGroup {
  const RawSection* encm = nullptr;
  const RawSection* apps = nullptr;
  const RawSection* dfpe = nullptr;  // null when the scheme runs no DFP
};

TenantGroup find_tenant(const std::vector<RawSection>& secs,
                        std::uint64_t enclave, const char* who) {
  TenantGroup g;
  std::uint64_t enclaves = 0;
  for (std::size_t i = 0; i < secs.size(); ++i) {
    if (secs[i].tag != "ENCM") continue;
    ++enclaves;
    if (g.encm != nullptr ||
        raw_field(secs[i], "enc.index").u64v != enclave) {
      continue;
    }
    g.encm = &secs[i];
    SGXPL_CHECK_MSG(i + 1 < secs.size() && secs[i + 1].tag == "APPS",
                    who << ": tenant group " << enclave
                        << " lacks its APPS section");
    g.apps = &secs[i + 1];
    if (raw_field(*g.encm, "enc.has_dfp").boolv) {
      SGXPL_CHECK_MSG(i + 2 < secs.size() && secs[i + 2].tag == "DFPE",
                      who << ": tenant group " << enclave
                          << " claims a DFP engine but carries no DFPE "
                             "section");
      g.dfpe = &secs[i + 2];
    }
  }
  if (g.encm == nullptr) {
    throw CheckFailure(std::string(who) + ": no enclave " +
                       std::to_string(enclave) + " in this frame (it holds " +
                       std::to_string(enclaves) + " enclaves)");
  }
  return g;
}

}  // namespace

std::vector<std::uint8_t> extract_enclave(
    const std::vector<std::uint8_t>& bytes, std::uint64_t enclave) {
  const RunFrame f(bytes);
  const std::vector<RawSection> secs =
      open_multi_frame(f, "snapshot extract");
  const TenantGroup g = find_tenant(secs, enclave, "snapshot extract");

  // Standalone frame: platform fields carry over from the co-run's META,
  // identity narrows to the one tenant.
  RunMeta em = f.meta;
  em.kind = "enclave-extract";
  em.scheme = raw_field(*g.encm, "enc.scheme").strv;
  em.trace_name = raw_field(*g.encm, "enc.trace").strv;
  em.cursor = raw_field(*g.apps, "app.cursor").u64v;

  Writer w;
  write_frame_head(w, ChainHeader{}, em);
  copy_section(w, *g.encm);
  copy_section(w, *g.apps);
  if (g.dfpe != nullptr) {
    copy_section(w, *g.dfpe);
  }
  return w.finish();
}

namespace {

constexpr std::uint64_t kEpcInvalidPage = ~0ull;

/// The DRVR section rewritten for a single-tenant destination: the two
/// parallel-column op families (queued channel ops, lost-op retry ledger)
/// filtered to the tenant's page range and rebased, the admission-ladder
/// roster collapsed to the one migrating tenant, everything else verbatim.
void emit_drvr_carved(Writer& w, const RawSection& drvr,
                      std::uint64_t enclave, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::vector<std::uint64_t>& op_pages =
      raw_field(drvr, "channel.op_pages").vecv;
  const std::vector<std::uint64_t>& lost_pages =
      raw_field(drvr, "driver.lost_pages").vecv;
  const auto in_range = [lo, hi](std::uint64_t page) {
    return page >= lo && page < hi;
  };
  std::vector<std::size_t> op_keep, lost_keep;
  for (std::size_t i = 0; i < op_pages.size(); ++i) {
    if (in_range(op_pages[i])) op_keep.push_back(i);
  }
  for (std::size_t i = 0; i < lost_pages.size(); ++i) {
    if (in_range(lost_pages[i])) lost_keep.push_back(i);
  }
  // Re-emit one parallel column with only the kept rows; the page column
  // rebases to the tenant's local space, the pid column collapses to the
  // destination's sole ProcessId 0.
  const auto column = [&w, lo](const FieldView& f,
                               const std::vector<std::size_t>& keep,
                               bool rebase, bool zero_pid) {
    std::vector<std::uint64_t> out;
    out.reserve(keep.size());
    for (const std::size_t i : keep) {
      SGXPL_CHECK_MSG(i < f.vecv.size(),
                      "resumable carve: driver column '"
                          << f.label << "' is shorter than its page column");
      std::uint64_t v = f.vecv[i];
      if (rebase) v -= lo;
      if (zero_pid) v = 0;
      out.push_back(v);
    }
    w.u64_vec(f.label, out);
  };

  w.begin_section("DRVR");
  const std::vector<FieldView>& fs = drvr.fields;
  std::size_t i = 0;
  while (i < fs.size()) {
    const FieldView& f = fs[i];
    if (f.label == "driver.tenants") {
      // Per-tenant admission groups (9 "admit.*" fields each) follow the
      // count; keep only the migrating tenant's ladder. A tenant the source
      // never judged (index beyond the lazily grown roster) starts fresh.
      constexpr std::size_t kAdmitFields = 9;
      const std::uint64_t count = f.u64v;
      SGXPL_CHECK_MSG(i + 1 + count * kAdmitFields <= fs.size(),
                      "resumable carve: DRVR section truncates its "
                      "admission roster");
      w.u64("driver.tenants", count == 0 ? 0 : 1);
      if (count > 0) {
        if (enclave < count) {
          for (std::size_t k = 0; k < kAdmitFields; ++k) {
            w.field(fs[i + 1 + enclave * kAdmitFields + k]);
          }
        } else {
          for (const char* label :
               {"admit.level", "admit.healthy_streak", "admit.window_admitted",
                "admit.window_rejected", "admit.window_retries",
                "admit.window_permanent", "admit.windows", "admit.demotions",
                "admit.promotions"}) {
            w.u64(label, 0);
          }
        }
      }
      i += 1 + count * kAdmitFields;
      continue;
    }
    if (f.label.rfind("channel.op_", 0) == 0) {
      column(f, op_keep, f.label == "channel.op_pages",
             f.label == "channel.op_pids");
    } else if (f.label == "driver.lost_ids" ||
               f.label == "driver.lost_pages" ||
               f.label == "driver.lost_pids" ||
               f.label == "driver.lost_attempts" ||
               f.label == "driver.lost_deadlines") {
      column(f, lost_keep, f.label == "driver.lost_pages",
             f.label == "driver.lost_pids");
    } else {
      w.field(f);
    }
    ++i;
  }
  w.end_section();
}

void emit_pgtb_carved(Writer& w, const RawSection& pgtb, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::vector<std::uint64_t>& entries =
      raw_field(pgtb, "pt.entries").vecv;
  SGXPL_CHECK_MSG(entries.size() >= hi,
                  "resumable carve: page table covers "
                      << entries.size() << " pages but the tenant claims ["
                      << lo << ", " << hi << ")");
  const std::vector<std::uint64_t> slice(
      entries.begin() + static_cast<std::ptrdiff_t>(lo),
      entries.begin() + static_cast<std::ptrdiff_t>(hi));
  std::uint64_t resident = 0;
  for (const std::uint64_t v : slice) {
    if (sgxsim::unpack_entry(v).second) ++resident;
  }
  w.begin_section("PGTB");
  w.u64("pt.pages", hi - lo);
  w.u64("pt.resident", resident);
  w.u64_vec("pt.entries", slice);
  w.end_section();
}

void emit_epcc_carved(Writer& w, const RawSection& epcc, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::uint64_t capacity = raw_field(epcc, "epc.capacity").u64v;
  std::vector<std::uint64_t> slots = raw_field(epcc, "epc.slot_to_page").vecv;
  std::vector<std::uint64_t> free_list =
      raw_field(epcc, "epc.free_list").vecv;
  SGXPL_CHECK_MSG(slots.size() == capacity,
                  "resumable carve: EPC slot map does not match its "
                  "declared capacity");
  // Slots holding other tenants' pages become free on the destination; the
  // tenant's own pages rebase. Newly freed slots append in ascending order
  // after the source's existing free list (a deterministic layout the
  // salvage/migration differential can rely on).
  std::uint64_t used = 0;
  std::vector<std::uint64_t> newly_freed;
  for (std::uint64_t s = 0; s < slots.size(); ++s) {
    const std::uint64_t page = slots[s];
    if (page == kEpcInvalidPage) continue;
    if (page >= lo && page < hi) {
      slots[s] = page - lo;
      ++used;
    } else {
      slots[s] = kEpcInvalidPage;
      newly_freed.push_back(s);
    }
  }
  free_list.insert(free_list.end(), newly_freed.begin(), newly_freed.end());
  w.begin_section("EPCC");
  w.u64("epc.capacity", capacity);
  w.u64("epc.used", used);
  w.u64("epc.clock_hand", raw_field(epcc, "epc.clock_hand").u64v);
  w.u64_vec("epc.slot_to_page", slots);
  w.u64_vec("epc.free_list", free_list);
  w.end_section();
}

void emit_bmap_carved(Writer& w, const RawSection& bmap, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::vector<std::uint64_t>& words =
      raw_field(bmap, "bitmap.words").vecv;
  sgxsim::PageBits sliced(hi - lo);
  for (std::uint64_t p = 0; p < sliced.size(); ++p) {
    const std::uint64_t src = lo + p;
    SGXPL_CHECK_MSG(src / 64 < words.size(),
                    "resumable carve: presence bitmap is shorter than the "
                    "tenant's page range");
    if ((words[src / 64] >> (src % 64) & 1ull) != 0) sliced.set(p);
  }
  w.begin_section("BMAP");
  w.u64("bitmap.pages", sliced.size());
  w.u64_vec("bitmap.words", sliced.words());
  w.end_section();
}

void emit_bstr_carved(Writer& w, const RawSection& bstr, std::uint64_t lo,
                      std::uint64_t hi) {
  const std::vector<std::uint64_t>& pages =
      raw_field(bstr, "backing.pages").vecv;
  const std::vector<std::uint64_t>& versions =
      raw_field(bstr, "backing.versions").vecv;
  SGXPL_CHECK_MSG(pages.size() == versions.size(),
                  "resumable carve: backing-store page/version columns are "
                  "misaligned");
  std::vector<std::uint64_t> kept_pages, kept_versions;
  for (std::size_t i = 0; i < pages.size(); ++i) {
    if (pages[i] >= lo && pages[i] < hi) {
      kept_pages.push_back(pages[i] - lo);
      kept_versions.push_back(versions[i]);
    }
  }
  w.begin_section("BSTR");
  w.u64("backing.total_evictions",
        raw_field(bstr, "backing.total_evictions").u64v);
  w.u64("backing.total_loads", raw_field(bstr, "backing.total_loads").u64v);
  w.u64_vec("backing.pages", kept_pages);
  w.u64_vec("backing.versions", kept_versions);
  w.end_section();
}

}  // namespace

std::vector<std::uint8_t> extract_resumable(
    const std::vector<std::uint8_t>& bytes, std::uint64_t enclave,
    const TenantGeometry& geo) {
  const RunFrame f(bytes);
  const std::vector<RawSection> secs = open_multi_frame(f, "resumable carve");
  const std::uint64_t combined = f.meta.elrange_pages;
  SGXPL_CHECK_MSG(geo.pages > 0 && geo.lo < combined &&
                      combined - geo.lo >= geo.pages,
                  "resumable carve: tenant geometry ["
                      << geo.lo << ", +" << geo.pages
                      << ") does not fit the frame's " << combined
                      << "-page combined space");
  const std::uint64_t lo = geo.lo;
  const std::uint64_t hi = geo.lo + geo.pages;
  const bool identity = lo == 0 && geo.pages == combined;

  const TenantGroup g = find_tenant(secs, enclave, "resumable carve");
  SGXPL_CHECK_MSG(g.dfpe == nullptr || lo == 0,
                  "resumable carve: tenant "
                      << enclave
                      << " runs a DFP engine whose state is keyed to "
                         "combined page numbers; only a DFP tenant placed "
                         "at offset 0 can be carved");

  // Locate the shared-driver sections.
  const auto find = [&secs](const char* tag) -> const RawSection& {
    for (const RawSection& s : secs) {
      if (s.tag == tag) return s;
    }
    throw CheckFailure(std::string("resumable carve: frame lacks its '") +
                       tag + "' section");
  };
  const RawSection& drvr = find("DRVR");
  const RawSection* injc = nullptr;
  for (const RawSection& s : secs) {
    if (s.tag == "INJC") injc = &s;
  }
  SGXPL_CHECK_MSG(identity ||
                      raw_field(drvr, "driver.eviction").strv == "clock",
                  "resumable carve: eviction policy '"
                      << raw_field(drvr, "driver.eviction").strv
                      << "' serializes global page lists; co-tenant carves "
                         "require the CLOCK policy");

  Writer w;
  if (identity) {
    // A sole tenant owns the whole combined space: every section past the
    // chain header carves verbatim, so the destination's first frame is
    // byte-identical to the source's state (the bit-exactness the
    // migration differential pins).
    write_frame_head(w, ChainHeader{}, f.meta);
    for (const RawSection& s : secs) copy_section(w, s);
    return w.finish();
  }

  RunMeta em = f.meta;
  em.scheme = raw_field(*g.encm, "enc.scheme").strv;
  em.trace_name = raw_field(*g.encm, "enc.trace").strv;
  em.trace_accesses = geo.trace_accesses;
  em.elrange_pages = geo.pages;
  em.cursor = raw_field(*g.apps, "app.cursor").u64v;
  write_frame_head(w, ChainHeader{}, em);

  w.begin_section("ENCM");
  w.u64("enc.index", 0);
  w.str("enc.scheme", em.scheme);
  w.str("enc.trace", em.trace_name);
  w.boolean("enc.has_dfp", g.dfpe != nullptr);
  w.end_section();
  copy_section(w, *g.apps);
  if (g.dfpe != nullptr) {
    copy_section(w, *g.dfpe);
  }
  emit_drvr_carved(w, drvr, enclave, lo, hi);
  emit_pgtb_carved(w, find("PGTB"), lo, hi);
  emit_epcc_carved(w, find("EPCC"), lo, hi);
  emit_bmap_carved(w, find("BMAP"), lo, hi);
  emit_bstr_carved(w, find("BSTR"), lo, hi);
  if (injc != nullptr) {
    // Platform-level chaos bookkeeping carries over whole: the injector is
    // shared infrastructure, not per-tenant state.
    copy_section(w, *injc);
  }
  return w.finish();
}

std::vector<std::uint8_t> extract_resumable(const core::MultiEnclaveRun& run,
                                            std::size_t enclave) {
  return extract_resumable(run.save_bytes(), enclave,
                           run.tenant_geometry(enclave));
}

ExtractedEnclave read_extracted(const std::vector<std::uint8_t>& bytes) {
  RunFrame f(bytes);
  SGXPL_CHECK_MSG(f.chain.kind == FrameKind::kFull,
                  "extracted-enclave frames are standalone full frames");
  SGXPL_CHECK_MSG(f.meta.kind == "enclave-extract",
                  "frame holds a '" << f.meta.kind
                                    << "' run, not an extracted enclave");
  Reader& r = f.body;
  ExtractedEnclave out;
  r.enter_section("ENCM");
  out.index = r.u64("enc.index");
  out.scheme = r.str("enc.scheme");
  out.trace = r.str("enc.trace");
  out.has_dfp = r.boolean("enc.has_dfp");
  r.leave_section();
  r.enter_section("APPS");
  out.cursor = r.u64("app.cursor");
  out.now = r.u64("app.now");
  out.done = r.boolean("app.done");
  out.metrics.load(r);
  r.leave_section();
  if (out.has_dfp) {
    const std::string tag = r.enter_any_section();
    SGXPL_CHECK_MSG(tag == "DFPE", "extracted enclave claims a DFP engine "
                                   "but the next section is '"
                                       << tag << "'");
    while (r.more_fields()) (void)r.next_field();
    r.leave_section();
  }
  f.finish();
  return out;
}

namespace {

std::vector<std::uint8_t> metrics_frame(const core::Metrics& m) {
  Writer w;
  w.begin_section("METR");
  m.save(w);
  w.end_section();
  return w.finish();
}

}  // namespace

Diff diff_metrics(const core::Metrics& a, const core::Metrics& b) {
  return diff(metrics_frame(a), metrics_frame(b));
}

}  // namespace sgxpl::snapshot
