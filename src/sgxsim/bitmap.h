// The presence bitmap shared between the enclave and the untrusted OS
// (paper §4.3): one bit per ELRANGE page, set while the page is resident in
// the EPC. The kernel updates it on every load/evict; the enclave's SIP
// instrumentation reads it (BIT_MAP_CHECK) before issuing a preload
// notification. Residency is public information (the OS services the
// faults), so exposing it leaks nothing beyond what SGX already reveals.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "sgxsim/page_bits.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

class PresenceBitmap {
 public:
  explicit PresenceBitmap(PageNum pages);

  PageNum pages() const noexcept { return bits_.size(); }
  const PageBits& bits() const noexcept { return bits_; }

  bool test(PageNum page) const { return bits_.test(page); }
  void set(PageNum page) {
    if (bits_.set(page)) dirty_.mark(page >> 6);
  }
  void clear(PageNum page) {
    if (bits_.clear(page)) dirty_.mark(page >> 6);
  }

  /// Number of set bits (for invariant checks against the page table),
  /// O(1).
  std::uint64_t popcount() const noexcept { return bits_.count(); }

  /// Checkpoint/restore. load() requires a bitmap constructed for the same
  /// number of pages as the one saved.
  void save(snapshot::Writer& w) const { write(w, /*delta=*/false); }
  void load(snapshot::Reader& r) { restore(r, /*delta=*/false); }

  /// Delta checkpointing (format v2): only the 64-bit words that changed
  /// since the last clear_dirty() are written, as sparse word-index runs.
  bool changed() const noexcept { return dirty_.changed(); }
  void save_delta(snapshot::Writer& w) const { write(w, /*delta=*/true); }
  void apply_delta(snapshot::Reader& r) { restore(r, /*delta=*/true); }
  void clear_dirty() { dirty_.clear(); }

 private:
  /// The BMAP (full) or BMPD (delta) section: the page count, then every
  /// word or the dirty words' runs and values.
  void write(snapshot::Writer& w, bool delta) const;
  void restore(snapshot::Reader& r, bool delta);

  PageBits bits_;
  DirtyBits dirty_;  // one bit per word of bits_
};

}  // namespace sgxpl::sgxsim
