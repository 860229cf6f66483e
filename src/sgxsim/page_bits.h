// Dense page-state bitsets: one bit per page (or EPC slot, or bitmap word)
// packed into 64-bit words, the representation of the paper's presence
// bitmap (§4.3, BIT_MAP_CHECK). PageBits holds the presence bitmap's words
// and the page table's present bits; DirtyBits is the one tracker of what a
// structure changed since its last checkpoint.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace sgxpl::sgxsim {

class PageBits {
 public:
  explicit PageBits(std::uint64_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::uint64_t size() const noexcept { return size_; }
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  bool test(std::uint64_t i) const {
    SGXPL_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Set (clear) bit i; true when that flipped it. Branch-free: a caller
  /// that ignores the result pays one word OR (AND) and a count update.
  bool set(std::uint64_t i) {
    SGXPL_DCHECK(i < size_);
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t was = (w >> (i & 63)) & 1u;
    w |= 1ull << (i & 63);
    count_ += was ^ 1u;
    return was == 0;
  }
  bool clear(std::uint64_t i) {
    SGXPL_DCHECK(i < size_);
    std::uint64_t& w = words_[i >> 6];
    const std::uint64_t was = (w >> (i & 63)) & 1u;
    w &= ~(1ull << (i & 63));
    count_ -= was;
    return was != 0;
  }

  void clear_all() {
    std::fill(words_.begin(), words_.end(), 0);
    count_ = 0;
  }

  /// Overwrite word i with a restored one. Bits past size() are kept and
  /// counted, so a corrupt restore shows in count().
  void set_word(std::uint64_t i, std::uint64_t value) {
    count_ = count_ - pop(words_[i]) + pop(value);
    words_[i] = value;
  }

  /// Set bits: O(1) overall, O((hi - lo) / 64) over [lo, hi).
  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t count(std::uint64_t lo, std::uint64_t hi) const {
    SGXPL_DCHECK(lo <= hi && hi <= size_);
    if (lo == hi) return 0;
    const std::uint64_t first = lo >> 6;
    const std::uint64_t last = (hi - 1) >> 6;
    const std::uint64_t lo_mask = ~0ull << (lo & 63);
    const std::uint64_t hi_mask = ~0ull >> (63 - ((hi - 1) & 63));
    if (first == last) return pop(words_[first] & lo_mask & hi_mask);
    std::uint64_t n =
        pop(words_[first] & lo_mask) + pop(words_[last] & hi_mask);
    for (std::uint64_t i = first + 1; i < last; ++i) n += pop(words_[i]);
    return n;
  }

  /// f(i) for every set bit i, in ascending order.
  template <class F>
  void for_each(F&& f) const {
    for (std::uint64_t i = 0; i < words_.size(); ++i) {
      for (std::uint64_t w = words_[i]; w != 0; w &= w - 1) {
        f(i * 64 + static_cast<std::uint64_t>(std::countr_zero(w)));
      }
    }
  }

  /// Word-wise equality: the lowest bit below size() where the two
  /// same-sized sets differ, or size() when they agree.
  std::uint64_t first_difference(const PageBits& other) const {
    SGXPL_CHECK(other.size_ == size_);
    for (std::uint64_t i = 0; i < words_.size(); ++i) {
      if (const std::uint64_t d = words_[i] ^ other.words_[i]; d != 0) {
        return std::min(size_, i * 64 + static_cast<std::uint64_t>(
                                             std::countr_zero(d)));
      }
    }
    return size_;
  }

 private:
  static std::uint64_t pop(std::uint64_t w) noexcept {
    return static_cast<std::uint64_t>(std::popcount(w));
  }

  std::uint64_t size_;
  std::vector<std::uint64_t> words_;
  std::uint64_t count_ = 0;
};

/// What a structure changed since its last clear(): the pages (slots,
/// words) its next delta writes, plus whether one of its scalars moved. A
/// delta frame carries the structure's section exactly when changed().
class DirtyBits {
 public:
  explicit DirtyBits(std::uint64_t size) : bits_(size) {}

  void mark(std::uint64_t i) { bits_.set(i); }
  void mark_scalar() noexcept { scalar_ = true; }
  bool changed() const noexcept { return scalar_ || bits_.count() != 0; }
  void clear() {
    bits_.clear_all();
    scalar_ = false;
  }
  const PageBits& bits() const noexcept { return bits_; }

 private:
  PageBits bits_;
  bool scalar_ = false;
};

}  // namespace sgxpl::sgxsim
