// The presence bitmap shared between the enclave and the untrusted OS
// (paper §4.3): one bit per ELRANGE page, set while the page is resident in
// the EPC. The kernel updates it on every load/evict; the enclave's SIP
// instrumentation reads it (BIT_MAP_CHECK) before issuing a preload
// notification. Residency is public information (the OS services the
// faults), so exposing it leaks nothing beyond what SGX already reveals.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "snapshot/fwd.h"

namespace sgxpl::sgxsim {

class PresenceBitmap {
 public:
  explicit PresenceBitmap(PageNum pages);

  PageNum pages() const noexcept { return pages_; }

  bool test(PageNum page) const {
    SGXPL_DCHECK(page < pages_);
    return (words_[page >> 6] >> (page & 63)) & 1u;
  }

  void set(PageNum page) {
    SGXPL_DCHECK(page < pages_);
    const std::uint64_t bit = 1ull << (page & 63);
    if ((words_[page >> 6] & bit) == 0) {
      words_[page >> 6] |= bit;
      ++count_;
      mark_dirty(page >> 6);
    }
  }

  void clear(PageNum page) {
    SGXPL_DCHECK(page < pages_);
    const std::uint64_t bit = 1ull << (page & 63);
    if ((words_[page >> 6] & bit) != 0) {
      words_[page >> 6] &= ~bit;
      --count_;
      mark_dirty(page >> 6);
    }
  }

  /// Number of set bits (for invariant checks against the page table).
  /// O(1): a counter that set/clear move only on real bit transitions and
  /// load/apply_delta recount.
  std::uint64_t popcount() const noexcept { return count_; }

  /// Checkpoint/restore. load() requires a bitmap constructed for the same
  /// number of pages as the one saved.
  void save(snapshot::Writer& w) const;
  void load(snapshot::Reader& r);

  /// Delta checkpointing (format v2): only the 64-bit words that changed
  /// since the last clear_dirty() are written, as sparse word-index runs.
  std::uint64_t generation() const noexcept { return gen_; }
  void save_delta(snapshot::Writer& w) const;
  void apply_delta(snapshot::Reader& r);
  void clear_dirty();

 private:
  void mark_dirty(std::uint64_t word) {
    ++gen_;
    if (!dirty_flag_[word]) {
      dirty_flag_[word] = true;
      dirty_list_.push_back(word);
    }
  }

  PageNum pages_;
  std::vector<std::uint64_t> words_;
  std::uint64_t count_ = 0;
  std::uint64_t gen_ = 0;
  std::vector<std::uint64_t> dirty_list_;
  std::vector<bool> dirty_flag_;
};

}  // namespace sgxpl::sgxsim
