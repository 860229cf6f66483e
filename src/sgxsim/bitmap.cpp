#include "sgxsim/bitmap.h"

#include <algorithm>
#include <bit>

#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

PresenceBitmap::PresenceBitmap(PageNum pages)
    : pages_(pages), words_((pages + 63) / 64, 0),
      dirty_flag_(words_.size(), false) {
  SGXPL_CHECK(pages > 0);
}

namespace {

std::uint64_t bits(std::uint64_t word) noexcept {
  return static_cast<std::uint64_t>(std::popcount(word));
}

}  // namespace

void PresenceBitmap::save(snapshot::Writer& w) const {
  w.u64("bitmap.pages", pages_);
  w.u64_vec("bitmap.words", words_);
}

void PresenceBitmap::load(snapshot::Reader& r) {
  const std::uint64_t pages = r.u64("bitmap.pages");
  SGXPL_CHECK_MSG(pages == pages_,
                  "snapshot bitmap covers " << pages
                      << " pages but this bitmap has " << pages_);
  std::vector<std::uint64_t> words = r.u64_vec("bitmap.words");
  SGXPL_CHECK_MSG(words.size() == words_.size(),
                  "snapshot bitmap word count does not match");
  words_ = std::move(words);
  count_ = 0;
  for (const std::uint64_t word : words_) count_ += bits(word);
  // Whole-bitmap load: treat every word as dirty until the next
  // clear_dirty() so a stale delta baseline cannot under-report changes.
  ++gen_;
  dirty_list_.clear();
  for (std::uint64_t i = 0; i < words_.size(); ++i) dirty_list_.push_back(i);
  dirty_flag_.assign(words_.size(), true);
}

void PresenceBitmap::save_delta(snapshot::Writer& w) const {
  w.u64("bitmap.pages", pages_);
  std::vector<std::uint64_t> dirty = dirty_list_;
  std::sort(dirty.begin(), dirty.end());
  w.u64_vec("bitmap.delta_runs", snapshot::encode_runs(dirty));
  std::vector<std::uint64_t> values;
  values.reserve(dirty.size());
  for (const std::uint64_t i : dirty) values.push_back(words_[i]);
  w.u64_vec("bitmap.delta_words", values);
}

void PresenceBitmap::apply_delta(snapshot::Reader& r) {
  const std::uint64_t pages = r.u64("bitmap.pages");
  SGXPL_CHECK_MSG(pages == pages_,
                  "snapshot bitmap delta covers " << pages
                      << " pages but this bitmap has " << pages_);
  const std::vector<std::uint64_t> ids = snapshot::decode_runs(
      r.u64_vec("bitmap.delta_runs"), words_.size(), "bitmap");
  const std::vector<std::uint64_t> values = r.u64_vec("bitmap.delta_words");
  SGXPL_CHECK_MSG(values.size() == ids.size(),
                  "snapshot bitmap delta holds " << values.size()
                      << " words for " << ids.size() << " indices");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    count_ = count_ - bits(words_[ids[i]]) + bits(values[i]);
    words_[ids[i]] = values[i];
    mark_dirty(ids[i]);
  }
}

void PresenceBitmap::clear_dirty() {
  for (const std::uint64_t i : dirty_list_) dirty_flag_[i] = false;
  dirty_list_.clear();
}

}  // namespace sgxpl::sgxsim
