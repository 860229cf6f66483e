#include "sgxsim/bitmap.h"

#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

PresenceBitmap::PresenceBitmap(PageNum pages)
    : bits_(pages), dirty_(bits_.words().size()) {
  SGXPL_CHECK(pages > 0);
}

void PresenceBitmap::write(snapshot::Writer& w, bool delta) const {
  w.u64("bitmap.pages", pages());
  if (!delta) {
    w.u64_vec("bitmap.words", bits_.words());
    return;
  }
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> values;
  dirty_.bits().for_each([&](std::uint64_t i) {
    ids.push_back(i);
    values.push_back(bits_.words()[i]);
  });
  w.u64_vec("bitmap.delta_runs", snapshot::encode_runs(ids));
  w.u64_vec("bitmap.delta_words", values);
}

void PresenceBitmap::restore(snapshot::Reader& r, bool delta) {
  const char* what = delta ? "snapshot bitmap delta" : "snapshot bitmap";
  const std::uint64_t pages = r.u64("bitmap.pages");
  SGXPL_CHECK_MSG(pages == this->pages(),
                  what << " covers " << pages << " pages but this bitmap has "
                       << this->pages());
  const std::uint64_t words = bits_.words().size();
  std::vector<std::uint64_t> ids;
  if (delta) {
    ids = snapshot::decode_runs(r.u64_vec("bitmap.delta_runs"), words,
                                "bitmap");
  }
  const std::vector<std::uint64_t> values =
      r.u64_vec(delta ? "bitmap.delta_words" : "bitmap.words");
  const std::uint64_t expected = delta ? ids.size() : words;
  SGXPL_CHECK_MSG(values.size() == expected,
                  what << " holds " << values.size() << " words for "
                       << expected << " indices");
  // A whole-bitmap load marks every word dirty, so a stale delta baseline
  // cannot under-report changes.
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint64_t word = delta ? ids[i] : i;
    bits_.set_word(word, values[i]);
    dirty_.mark(word);
  }
}

}  // namespace sgxpl::sgxsim
