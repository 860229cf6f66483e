#include "snapshot/codec.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <sstream>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#endif

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/check.h"

namespace sgxpl::snapshot {

namespace {

/// Slicing-by-8 tables: t[0] is the bytewise table; t[k][i] is the CRC
/// of byte i followed by k zero bytes, so eight table lookups consume eight
/// input bytes at once.
using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

Crc32cTables make_crc32c_tables() {
  Crc32cTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    t[0][i] = crc;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Store the low `n` bytes of `v` at `at`, least significant first.
void store_le(std::uint8_t* at, std::uint64_t v, int n) noexcept {
  for (int i = 0; i < n; ++i) {
    at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

std::string quoted(std::string_view s) {
  std::string out = "'";
  out.append(s);
  out += '\'';
  return out;
}

}  // namespace

std::uint32_t detail::crc32c_portable(const std::uint8_t* data,
                                      std::size_t len) noexcept {
  static const Crc32cTables t = make_crc32c_tables();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = crc ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^
          t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

namespace {

/// The SSE4.2 crc32 instruction computes exactly the reflected Castagnoli
/// CRC step the tables do, so with the same initial value and final xor
/// this returns what crc32c_portable returns for every input.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const std::uint8_t* data, std::size_t len) noexcept {
  std::uint64_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    std::uint64_t block;
    std::memcpy(&block, data, sizeof block);  // x86 is little-endian
    crc = _mm_crc32_u64(crc, block);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  for (; len > 0; ++data, --len) {
    crc32 = _mm_crc32_u8(crc32, *data);
  }
  return crc32 ^ 0xFFFFFFFFu;
}

bool cpu_has_sse42() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2") != 0;
}

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len) noexcept {
  static const bool hardware = cpu_has_sse42();
  return hardware ? crc32c_sse42(data, len)
                  : detail::crc32c_portable(data, len);
}

#else

std::uint32_t crc32c(const std::uint8_t* data, std::size_t len) noexcept {
  return detail::crc32c_portable(data, len);
}

#endif

const char* to_string(FieldType t) noexcept {
  switch (t) {
    case FieldType::kU64:
      return "u64";
    case FieldType::kF64:
      return "f64";
    case FieldType::kBool:
      return "bool";
    case FieldType::kString:
      return "string";
    case FieldType::kU64Vec:
      return "u64-vec";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

std::uint8_t* Writer::grow(std::size_t n) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + n);
  return bytes_.data() + at;
}

void Writer::put_u16(std::uint16_t v) { store_le(grow(2), v, 2); }

void Writer::put_u32(std::uint32_t v) { store_le(grow(4), v, 4); }

void Writer::put_u64(std::uint64_t v) { store_le(grow(8), v, 8); }

void Writer::patch_u32(std::size_t at, std::uint32_t v) {
  store_le(bytes_.data() + at, v, 4);
}

void Writer::patch_u64(std::size_t at, std::uint64_t v) {
  store_le(bytes_.data() + at, v, 8);
}

void Writer::begin_section(std::string_view tag) {
  SGXPL_CHECK_MSG(!finished_, "snapshot writer already finished");
  SGXPL_CHECK_MSG(!in_section_,
                  "snapshot section " + quoted(tag) +
                      " opened while another section is still open");
  SGXPL_CHECK_MSG(tag.size() == 4,
                  "snapshot section tag " + quoted(tag) +
                      " must be exactly 4 characters");
  if (bytes_.empty()) {
    put_bytes(kMagic);
    put_u32(kFormatVersion);
    put_u32(0);  // section count, patched in finish()
  }
  section_header_ = bytes_.size();
  put_bytes(tag);
  put_u64(0);  // payload length, patched in end_section()
  put_u32(0);  // payload CRC, patched in end_section()
  in_section_ = true;
}

void Writer::end_section() {
  SGXPL_CHECK_MSG(in_section_, "end_section() with no open snapshot section");
  const std::size_t payload_at = section_header_ + 4 + 8 + 4;
  const std::size_t payload_len = bytes_.size() - payload_at;
  patch_u64(section_header_ + 4, static_cast<std::uint64_t>(payload_len));
  patch_u32(section_header_ + 4 + 8,
            crc32c(bytes_.data() + payload_at, payload_len));
  in_section_ = false;
  ++sections_;
}

void Writer::field_header(FieldType type, std::string_view label) {
  SGXPL_CHECK_MSG(in_section_, "snapshot field " + quoted(label) +
                                   " written outside any section");
  SGXPL_CHECK_MSG(label.size() <= 0xFFFF,
                  "snapshot field label too long: " + quoted(label));
  put_u8(static_cast<std::uint8_t>(type));
  put_u16(static_cast<std::uint16_t>(label.size()));
  put_bytes(label);
}

void Writer::put_bytes(std::string_view s) {
  // Byte-at-a-time on purpose: a range insert from char iterators trips
  // GCC's stringop-overflow analysis under -Werror.
  for (const char c : s) {
    bytes_.push_back(static_cast<std::uint8_t>(c));
  }
}

void Writer::u64(std::string_view label, std::uint64_t v) {
  field_header(FieldType::kU64, label);
  put_u64(v);
}

void Writer::f64(std::string_view label, double v) {
  field_header(FieldType::kF64, label);
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void Writer::boolean(std::string_view label, bool v) {
  field_header(FieldType::kBool, label);
  put_u8(v ? 1 : 0);
}

void Writer::str(std::string_view label, std::string_view v) {
  field_header(FieldType::kString, label);
  SGXPL_CHECK_MSG(v.size() <= 0xFFFFFFFFu,
                  "snapshot string field " + quoted(label) + " too long");
  put_u32(static_cast<std::uint32_t>(v.size()));
  put_bytes(v);
}

void Writer::u64_vec(std::string_view label,
                     const std::vector<std::uint64_t>& v) {
  field_header(FieldType::kU64Vec, label);
  put_u64(static_cast<std::uint64_t>(v.size()));
  std::uint8_t* out = grow(8 * v.size());
  for (const std::uint64_t x : v) {
    store_le(out, x, 8);
    out += 8;
  }
}

void Writer::field(const FieldView& f) {
  switch (f.type) {
    case FieldType::kU64:
      u64(f.label, f.u64v);
      return;
    case FieldType::kF64:
      f64(f.label, f.f64v);
      return;
    case FieldType::kBool:
      boolean(f.label, f.boolv);
      return;
    case FieldType::kString:
      str(f.label, f.strv);
      return;
    case FieldType::kU64Vec:
      u64_vec(f.label, f.vecv);
      return;
  }
  SGXPL_CHECK_MSG(false, "snapshot field " + quoted(f.label) +
                             " has an unknown type");
}

std::vector<std::uint8_t> Writer::finish() {
  SGXPL_CHECK_MSG(!in_section_,
                  "snapshot finish() with a section still open");
  SGXPL_CHECK_MSG(!finished_, "snapshot writer already finished");
  finished_ = true;
  if (bytes_.empty()) {  // zero-section snapshot is still a valid frame
    put_bytes(kMagic);
    put_u32(kFormatVersion);
    put_u32(0);
  }
  patch_u32(kMagic.size() + 4, sections_);
  return std::move(bytes_);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

void Reader::corrupt(const std::string& why) const {
  std::string where = section_tag_.empty()
                          ? std::string("snapshot")
                          : "snapshot section " + quoted(section_tag_);
  throw CheckFailure(where + ": " + why);
}

void Reader::need(std::size_t n, const char* what) const {
  const std::size_t limit = section_tag_.empty() ? size_ : section_end_;
  if (pos_ + n > limit) {
    std::ostringstream os;
    os << "truncated while reading " << what << " (need " << n
       << " bytes at offset " << pos_ << ", have " << (limit - pos_) << ")";
    corrupt(os.str());
  }
}

std::uint8_t Reader::take_u8() {
  need(1, "a byte");
  return data_[pos_++];
}

std::uint16_t Reader::take_u16() {
  need(2, "a u16");
  std::uint16_t v = static_cast<std::uint16_t>(
      static_cast<std::uint16_t>(data_[pos_]) |
      static_cast<std::uint16_t>(static_cast<std::uint16_t>(data_[pos_ + 1])
                                 << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::take_u32() {
  need(4, "a u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::take_u64() {
  need(8, "a u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Reader::Reader(const std::uint8_t* data, std::size_t size)
    : data_(data), size_(size) {
  if (size_ < kMagic.size() + 8) {
    corrupt("file too small to hold a snapshot header");
  }
  if (std::string_view(reinterpret_cast<const char*>(data_), kMagic.size()) !=
      kMagic) {
    corrupt("bad magic (not a snapshot file)");
  }
  pos_ = kMagic.size();
  version_ = take_u32();
  if (version_ != kFormatVersion) {
    std::ostringstream os;
    os << "unsupported format version " << version_ << " (this build reads "
       << kFormatVersion << "); re-create the snapshot with a matching build";
    corrupt(os.str());
  }
  section_count_ = take_u32();
}

std::string Reader::peek_section_tag() const {
  SGXPL_CHECK_MSG(section_tag_.empty(),
                  "peek_section_tag() while section '" + section_tag_ +
                      "' is still open");
  if (sections_entered_ >= section_count_) return {};
  need(4, "a section tag");
  return std::string(reinterpret_cast<const char*>(data_ + pos_), 4);
}

std::string Reader::enter_any_section() {
  SGXPL_CHECK_MSG(section_tag_.empty(),
                  "snapshot section entered while '" + section_tag_ +
                      "' is still open");
  if (sections_entered_ >= section_count_) {
    corrupt("expected another section but the section table is exhausted");
  }
  need(4, "a section tag");
  std::string tag(reinterpret_cast<const char*>(data_ + pos_), 4);
  pos_ += 4;
  const std::uint64_t len = take_u64();
  const std::uint32_t want_crc = take_u32();
  if (len > size_ - pos_) {
    std::ostringstream os;
    os << "section " << quoted(tag) << " claims " << len
       << " payload bytes but only " << (size_ - pos_) << " remain";
    throw CheckFailure("snapshot: " + os.str());
  }
  const std::uint32_t got_crc =
      crc32c(data_ + pos_, static_cast<std::size_t>(len));
  if (got_crc != want_crc) {
    std::ostringstream os;
    os << "snapshot section " << quoted(tag) << ": CRC32C mismatch (stored 0x"
       << std::hex << want_crc << ", computed 0x" << got_crc
       << ") — the snapshot is corrupt";
    throw CheckFailure(os.str());
  }
  section_tag_ = tag;
  section_end_ = pos_ + static_cast<std::size_t>(len);
  ++sections_entered_;
  return tag;
}

void Reader::enter_section(std::string_view expected) {
  const std::string got = enter_any_section();
  if (got != expected) {
    const std::string tag = section_tag_;
    section_tag_.clear();
    throw CheckFailure("snapshot: expected section " + quoted(expected) +
                       " but found " + quoted(tag) +
                       " — sections are out of order or the snapshot was "
                       "written by an incompatible build");
  }
}

void Reader::leave_section() {
  SGXPL_CHECK_MSG(!section_tag_.empty(),
                  "leave_section() with no open snapshot section");
  if (pos_ != section_end_) {
    std::ostringstream os;
    os << (section_end_ - pos_)
       << " unread payload bytes remain — the snapshot holds more state than "
          "this build expects";
    corrupt(os.str());
  }
  section_tag_.clear();
  section_end_ = 0;
}

bool Reader::more_fields() const noexcept {
  return !section_tag_.empty() && pos_ < section_end_;
}

FieldView Reader::next_field() {
  SGXPL_CHECK_MSG(!section_tag_.empty(),
                  "next_field() with no open snapshot section");
  FieldView f;
  const std::uint8_t raw_type = take_u8();
  if (raw_type < 1 || raw_type > 5) {
    std::ostringstream os;
    os << "invalid field type byte " << static_cast<unsigned>(raw_type);
    corrupt(os.str());
  }
  f.type = static_cast<FieldType>(raw_type);
  const std::uint16_t label_len = take_u16();
  need(label_len, "a field label");
  f.label.assign(reinterpret_cast<const char*>(data_ + pos_), label_len);
  pos_ += label_len;
  switch (f.type) {
    case FieldType::kU64:
      f.u64v = take_u64();
      break;
    case FieldType::kF64:
      f.f64v = std::bit_cast<double>(take_u64());
      break;
    case FieldType::kBool: {
      const std::uint8_t b = take_u8();
      if (b > 1) {
        corrupt("bool field " + quoted(f.label) + " holds invalid byte");
      }
      f.boolv = b != 0;
      break;
    }
    case FieldType::kString: {
      const std::uint32_t n = take_u32();
      need(n, "a string field value");
      f.strv.assign(reinterpret_cast<const char*>(data_ + pos_), n);
      pos_ += n;
      break;
    }
    case FieldType::kU64Vec: {
      const std::uint64_t n = take_u64();
      need(static_cast<std::size_t>(n) * 8, "a u64-vec field value");
      f.vecv.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) f.vecv.push_back(take_u64());
      break;
    }
  }
  return f;
}

FieldView Reader::expect(FieldType type, std::string_view label) {
  if (!more_fields()) {
    corrupt("expected field " + quoted(label) +
            " but the section has no more fields — the snapshot was written "
            "by an incompatible build");
  }
  FieldView f = next_field();
  if (f.label != label) {
    corrupt("expected field " + quoted(label) + " but found " +
            quoted(f.label) +
            " — the snapshot was written by an incompatible build");
  }
  if (f.type != type) {
    corrupt("field " + quoted(label) + " has type " +
            std::string(to_string(f.type)) + ", expected " +
            std::string(to_string(type)));
  }
  return f;
}

std::uint64_t Reader::u64(std::string_view label) {
  return expect(FieldType::kU64, label).u64v;
}

double Reader::f64(std::string_view label) {
  return expect(FieldType::kF64, label).f64v;
}

bool Reader::boolean(std::string_view label) {
  return expect(FieldType::kBool, label).boolv;
}

std::string Reader::str(std::string_view label) {
  return std::move(expect(FieldType::kString, label).strv);
}

std::vector<std::uint64_t> Reader::u64_vec(std::string_view label) {
  return std::move(expect(FieldType::kU64Vec, label).vecv);
}

// ---------------------------------------------------------------------------
// diff / section table
// ---------------------------------------------------------------------------

std::string FieldView::render() const {
  std::ostringstream os;
  switch (type) {
    case FieldType::kU64:
      os << u64v;
      break;
    case FieldType::kF64:
      os.precision(17);
      os << f64v << " (bits 0x" << std::hex << std::bit_cast<std::uint64_t>(f64v)
         << ")";
      break;
    case FieldType::kBool:
      os << (boolv ? "true" : "false");
      break;
    case FieldType::kString:
      os << quoted(strv);
      break;
    case FieldType::kU64Vec:
      os << "u64[" << vecv.size() << "]";
      break;
  }
  return os.str();
}

namespace {

bool same_value(const FieldView& a, const FieldView& b, std::string* why) {
  switch (a.type) {
    case FieldType::kU64:
      if (a.u64v != b.u64v) {
        *why = a.render() + " != " + b.render();
        return false;
      }
      return true;
    case FieldType::kF64:
      // Bit-pattern comparison: the guarantee is bit-identical resume.
      if (std::bit_cast<std::uint64_t>(a.f64v) !=
          std::bit_cast<std::uint64_t>(b.f64v)) {
        *why = a.render() + " != " + b.render();
        return false;
      }
      return true;
    case FieldType::kBool:
      if (a.boolv != b.boolv) {
        *why = a.render() + " != " + b.render();
        return false;
      }
      return true;
    case FieldType::kString:
      if (a.strv != b.strv) {
        *why = a.render() + " != " + b.render();
        return false;
      }
      return true;
    case FieldType::kU64Vec:
      if (a.vecv.size() != b.vecv.size()) {
        std::ostringstream os;
        os << "length " << a.vecv.size() << " != " << b.vecv.size();
        *why = os.str();
        return false;
      }
      for (std::size_t i = 0; i < a.vecv.size(); ++i) {
        if (a.vecv[i] != b.vecv[i]) {
          std::ostringstream os;
          os << "element [" << i << "]: " << a.vecv[i] << " != " << b.vecv[i];
          *why = os.str();
          return false;
        }
      }
      return true;
  }
  *why = "unknown field type";
  return false;
}

}  // namespace

Diff diff(const std::vector<std::uint8_t>& a,
          const std::vector<std::uint8_t>& b) {
  Reader ra(a);
  Reader rb(b);
  Diff d;
  while (true) {
    const bool more_a = ra.sections_entered() < ra.section_count();
    const bool more_b = rb.sections_entered() < rb.section_count();
    if (!more_a && !more_b) return d;
    if (more_a != more_b) {
      std::ostringstream os;
      os << "section counts differ: " << ra.section_count()
         << " != " << rb.section_count();
      d.identical = false;
      d.first_divergence = os.str();
      return d;
    }
    const std::string tag_a = ra.enter_any_section();
    const std::string tag_b = rb.enter_any_section();
    if (tag_a != tag_b) {
      d.identical = false;
      d.first_divergence = "section order differs: '" + tag_a + "' vs '" +
                           tag_b + "'";
      return d;
    }
    while (ra.more_fields() || rb.more_fields()) {
      if (ra.more_fields() != rb.more_fields()) {
        d.identical = false;
        d.first_divergence =
            "section '" + tag_a + "': field counts differ";
        return d;
      }
      const FieldView fa = ra.next_field();
      const FieldView fb = rb.next_field();
      if (fa.label != fb.label || fa.type != fb.type) {
        d.identical = false;
        d.first_divergence = "section '" + tag_a + "': field '" + fa.label +
                             "' (" + to_string(fa.type) + ") vs '" + fb.label +
                             "' (" + to_string(fb.type) + ")";
        return d;
      }
      std::string why;
      if (!same_value(fa, fb, &why)) {
        d.identical = false;
        d.first_divergence =
            "section '" + tag_a + "' field '" + fa.label + "': " + why;
        return d;
      }
    }
    ra.leave_section();
    rb.leave_section();
  }
}

std::vector<SectionSpan> section_spans(
    const std::vector<std::uint8_t>& bytes) {
  SGXPL_CHECK_MSG(bytes.size() >= kMagic.size() + 8,
                  "snapshot: file too small to hold a snapshot header");
  std::vector<SectionSpan> spans;
  std::size_t pos = kMagic.size() + 8;
  while (pos < bytes.size()) {
    SGXPL_CHECK_MSG(pos + 16 <= bytes.size(),
                    "snapshot: truncated section header");
    SectionSpan s;
    s.tag.assign(reinterpret_cast<const char*>(bytes.data() + pos), 4);
    s.offset = pos;
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) {
      len |= static_cast<std::uint64_t>(bytes[pos + 4 +
                                              static_cast<std::size_t>(i)])
             << (8 * i);
    }
    SGXPL_CHECK_MSG(len <= bytes.size() - (pos + 16),
                    "snapshot: section '" + s.tag + "' overruns the file");
    s.size = 16 + static_cast<std::size_t>(len);
    spans.push_back(std::move(s));
    pos += spans.back().size;
  }
  return spans;
}

FrameProbe probe_frame(const std::vector<std::uint8_t>& bytes) noexcept {
  FrameProbe p;
  const auto le32 = [&bytes](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes[at + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    return v;
  };
  const std::size_t header = kMagic.size() + 8;
  if (bytes.size() < header) {
    p.reason = "file too small to hold a snapshot header";
    p.offset = bytes.size();
    return p;
  }
  if (std::string_view(reinterpret_cast<const char*>(bytes.data()),
                       kMagic.size()) != kMagic) {
    p.reason = "bad magic (not a snapshot file)";
    p.offset = 0;
    return p;
  }
  const std::uint32_t version = le32(kMagic.size());
  if (version != kFormatVersion) {
    p.reason = "unsupported format version " + std::to_string(version);
    p.offset = kMagic.size();
    return p;
  }
  const std::uint32_t declared = le32(kMagic.size() + 4);
  std::size_t pos = header;
  std::uint32_t walked = 0;
  while (pos < bytes.size()) {
    if (pos + 16 > bytes.size()) {
      p.reason = "truncated section header";
      p.offset = pos;
      return p;
    }
    const std::string tag(reinterpret_cast<const char*>(bytes.data() + pos),
                          4);
    std::uint64_t len = 0;
    for (int i = 0; i < 8; ++i) {
      len |= static_cast<std::uint64_t>(
                 bytes[pos + 4 + static_cast<std::size_t>(i)])
             << (8 * i);
    }
    if (len > bytes.size() - (pos + 16)) {
      p.reason = "section " + quoted(tag) + " overruns the file";
      p.section = tag;
      p.offset = pos + 4;
      return p;
    }
    const std::uint32_t stored = le32(pos + 12);
    const std::uint32_t actual =
        crc32c(bytes.data() + pos + 16, static_cast<std::size_t>(len));
    if (stored != actual) {
      p.reason = "section " + quoted(tag) + " payload CRC mismatch";
      p.section = tag;
      p.offset = pos + 16;
      return p;
    }
    ++walked;
    pos += 16 + static_cast<std::size_t>(len);
  }
  if (walked != declared) {
    p.reason = "header declares " + std::to_string(declared) +
               " sections but the section table holds " +
               std::to_string(walked);
    p.offset = kMagic.size() + 4;
    return p;
  }
  p.ok = true;
  return p;
}

// ---------------------------------------------------------------------------
// Chain header
// ---------------------------------------------------------------------------

const char* to_string(FrameKind k) noexcept {
  switch (k) {
    case FrameKind::kFull:
      return "full";
    case FrameKind::kDelta:
      return "delta";
  }
  return "?";
}

namespace {

void write_chain_header(Writer& w, const ChainHeader& h) {
  w.begin_section("CHNH");
  w.str("chain.kind", to_string(h.kind));
  w.u64("chain.id", h.chain_id);
  w.u64("chain.seq", h.seq);
  w.u64("chain.prev_crc", h.prev_crc);
  w.end_section();
}

ChainHeader read_chain_header(Reader& r) {
  r.enter_section("CHNH");
  ChainHeader h;
  const std::string kind = r.str("chain.kind");
  if (kind == "full") {
    h.kind = FrameKind::kFull;
  } else if (kind == "delta") {
    h.kind = FrameKind::kDelta;
  } else {
    throw CheckFailure("snapshot: chain header holds unknown frame kind '" +
                       kind + "'");
  }
  h.chain_id = r.u64("chain.id");
  h.seq = r.u64("chain.seq");
  const std::uint64_t prev = r.u64("chain.prev_crc");
  SGXPL_CHECK_MSG(prev <= 0xFFFFFFFFull,
                  "snapshot: chain.prev_crc out of CRC32 range");
  h.prev_crc = static_cast<std::uint32_t>(prev);
  r.leave_section();
  if (h.kind == FrameKind::kFull) {
    SGXPL_CHECK_MSG(h.seq == 0 && h.prev_crc == 0,
                    "snapshot: a full frame must carry seq 0 and prev_crc 0");
  } else {
    SGXPL_CHECK_MSG(h.seq > 0,
                    "snapshot: a delta frame must carry a nonzero seq");
  }
  return h;
}

}  // namespace

ChainHeader read_chain_header_bytes(const std::vector<std::uint8_t>& bytes) {
  Reader r(bytes);
  return read_chain_header(r);
}

std::vector<std::uint64_t> encode_runs(const std::vector<std::uint64_t>& ids) {
  std::vector<std::uint64_t> runs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) {
      SGXPL_CHECK_MSG(ids[i] > ids[i - 1],
                      "encode_runs: ids must be sorted and duplicate-free");
    }
    if (!runs.empty() &&
        runs[runs.size() - 2] + runs.back() == ids[i]) {
      ++runs.back();
    } else {
      runs.push_back(ids[i]);
      runs.push_back(1);
    }
  }
  return runs;
}

std::vector<std::uint64_t> decode_runs(const std::vector<std::uint64_t>& runs,
                                       std::uint64_t limit,
                                       std::string_view what) {
  const std::string name(what);
  SGXPL_CHECK_MSG(runs.size() % 2 == 0,
                  "snapshot: " + name +
                      " delta runs must be [start, len] pairs");
  std::vector<std::uint64_t> ids;
  std::uint64_t next_min = 0;
  bool first = true;
  for (std::size_t i = 0; i < runs.size(); i += 2) {
    const std::uint64_t start = runs[i];
    const std::uint64_t len = runs[i + 1];
    SGXPL_CHECK_MSG(len > 0, "snapshot: " + name + " delta run of length 0");
    SGXPL_CHECK_MSG(first || start >= next_min,
                    "snapshot: " + name +
                        " delta runs overlap or are out of order");
    SGXPL_CHECK_MSG(start <= limit && len <= limit - start,
                    "snapshot: " + name + " delta run overruns the id space");
    for (std::uint64_t k = 0; k < len; ++k) ids.push_back(start + k);
    next_min = start + len + 1;  // adjacent runs must have been merged
    first = false;
  }
  return ids;
}

void check_page_list(const std::vector<std::uint64_t>& pages,
                     std::uint64_t limit, std::string_view label) {
  for (std::size_t i = 0; i < pages.size(); ++i) {
    SGXPL_CHECK_MSG(pages[i] < limit, label << "[" << i << "] = " << pages[i]
                                            << " is beyond the ELRANGE of "
                                            << limit << " pages");
    SGXPL_CHECK_MSG(i == 0 || pages[i - 1] < pages[i],
                    label << "[" << i << "] = " << pages[i]
                          << " does not follow " << label << "[" << i - 1
                          << "] = " << pages[i - 1]
                          << " in strictly ascending order");
  }
}

// ---------------------------------------------------------------------------
// RunMeta
// ---------------------------------------------------------------------------

std::string RunMeta::incompatibility(const RunMeta& other) const {
  const auto mismatch = [](std::string_view what, const std::string& a,
                           const std::string& b) {
    return std::string(what) + " mismatch: snapshot has " + quoted(a) +
           ", this run has " + quoted(b);
  };
  const auto nmismatch = [](std::string_view what, std::uint64_t a,
                            std::uint64_t b) {
    std::ostringstream os;
    os << what << " mismatch: snapshot has " << a << ", this run has " << b;
    return os.str();
  };
  if (kind != other.kind) return mismatch("run kind", kind, other.kind);
  if (scheme != other.scheme) return mismatch("scheme", scheme, other.scheme);
  if (trace_name != other.trace_name) {
    return mismatch("trace", trace_name, other.trace_name);
  }
  if (trace_accesses != other.trace_accesses) {
    return nmismatch("trace length", trace_accesses, other.trace_accesses);
  }
  if (elrange_pages != other.elrange_pages) {
    return nmismatch("ELRANGE pages", elrange_pages, other.elrange_pages);
  }
  if (epc_pages != other.epc_pages) {
    return nmismatch("EPC pages", epc_pages, other.epc_pages);
  }
  if (chaos_spec != other.chaos_spec) {
    return mismatch("chaos plan", chaos_spec, other.chaos_spec);
  }
  if (chaos_seed != other.chaos_seed) {
    return nmismatch("chaos seed", chaos_seed, other.chaos_seed);
  }
  if (hardening_spec != other.hardening_spec) {
    return mismatch("hardening config", hardening_spec, other.hardening_spec);
  }
  return {};
}

void write_meta(Writer& w, const RunMeta& meta) {
  w.begin_section("META");
  w.str("meta.kind", meta.kind);
  w.str("meta.scheme", meta.scheme);
  w.str("meta.trace", meta.trace_name);
  w.u64("meta.trace_accesses", meta.trace_accesses);
  w.u64("meta.elrange_pages", meta.elrange_pages);
  w.u64("meta.epc_pages", meta.epc_pages);
  w.str("meta.chaos_spec", meta.chaos_spec);
  w.u64("meta.chaos_seed", meta.chaos_seed);
  w.str("meta.hardening_spec", meta.hardening_spec);
  w.u64("meta.cursor", meta.cursor);
  w.end_section();
}

RunMeta read_meta(Reader& r) {
  r.enter_section("META");
  RunMeta m;
  m.kind = r.str("meta.kind");
  m.scheme = r.str("meta.scheme");
  m.trace_name = r.str("meta.trace");
  m.trace_accesses = r.u64("meta.trace_accesses");
  m.elrange_pages = r.u64("meta.elrange_pages");
  m.epc_pages = r.u64("meta.epc_pages");
  m.chaos_spec = r.str("meta.chaos_spec");
  m.chaos_seed = r.u64("meta.chaos_seed");
  m.hardening_spec = r.str("meta.hardening_spec");
  m.cursor = r.u64("meta.cursor");
  r.leave_section();
  return m;
}

// ---------------------------------------------------------------------------
// Run frames
// ---------------------------------------------------------------------------

void write_frame_head(Writer& w, const ChainHeader& chain,
                      const RunMeta& meta) {
  write_chain_header(w, chain);
  write_meta(w, meta);
}

namespace {

/// Cheap whole-frame structural check run before any load path touches a
/// frame: the section table must walk exactly to end-of-file and its length
/// must match the header's declared section count (the count field itself is
/// outside any CRC, so this closes the one hole per-section CRCs leave).
/// Returns `bytes`.
const std::vector<std::uint8_t>& validated(
    const std::vector<std::uint8_t>& bytes) {
  Reader header_probe(bytes);  // magic + version checks
  const std::vector<SectionSpan> spans = section_spans(bytes);
  if (spans.size() != header_probe.section_count()) {
    std::ostringstream os;
    os << "snapshot: the header declares " << header_probe.section_count()
       << " sections but the section table holds " << spans.size()
       << " — the frame is corrupt";
    throw CheckFailure(os.str());
  }
  return bytes;
}

}  // namespace

RunFrame::RunFrame(const std::vector<std::uint8_t>& bytes)
    : body(validated(bytes)),
      chain(read_chain_header(body)),
      meta(read_meta(body)) {}

void RunFrame::require(FrameKind kind, const RunMeta& expect) const {
  SGXPL_CHECK_MSG(chain.kind == kind || kind == FrameKind::kDelta,
                  "this frame is delta "
                      << chain.seq
                      << " of a checkpoint chain and cannot be restored on "
                         "its own; restore the chain from its base frame");
  SGXPL_CHECK_MSG(chain.kind == kind,
                  "a full frame cannot be applied as a delta; restore it "
                  "with load_bytes()");
  const std::string mismatch = meta.incompatibility(expect);
  SGXPL_CHECK_MSG(mismatch.empty(),
                  "snapshot does not match this run: " << mismatch);
}

void RunFrame::finish() const {
  SGXPL_CHECK_MSG(body.sections_entered() == body.section_count(),
                  "snapshot holds " << body.section_count()
                                    << " sections but this run consumes "
                                    << body.sections_entered());
}

// ---------------------------------------------------------------------------
// File IO
// ---------------------------------------------------------------------------

namespace {

/// Size-capped failing sink for tests (0 = off): writes larger than the cap
/// fail as if the disk filled mid-write.
std::uint64_t g_io_write_cap = 0;

}  // namespace

const char* to_string(IoResult r) noexcept {
  switch (r) {
    case IoResult::kOk:
      return "ok";
    case IoResult::kIoError:
      return "io-error";
  }
  return "?";
}

void set_io_write_cap_for_testing(std::uint64_t cap) { g_io_write_cap = cap; }

IoResult try_write_file_atomic(const std::string& path,
                               const std::vector<std::uint8_t>& bytes,
                               std::string* detail) {
  const auto fail = [detail](const std::string& why) {
    if (detail != nullptr) *detail = why;
    return IoResult::kIoError;
  };
  const std::string tmp = path + ".tmp";
  std::size_t writable = bytes.size();
  bool sink_full = false;
  if (g_io_write_cap != 0 && bytes.size() > g_io_write_cap) {
    writable = static_cast<std::size_t>(g_io_write_cap);
    sink_full = true;
  }
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return fail("snapshot: cannot open '" + tmp + "' for writing");
  }
  std::size_t written = 0;
  if (writable > 0) {
    written = std::fwrite(bytes.data(), 1, writable, f);
  }
  const bool flushed = std::fflush(f) == 0;
  // Push the data to the disk before publishing the name: renaming a file
  // whose blocks are still only in the page cache re-opens the torn-write
  // window the temp-and-rename dance exists to close.
  bool synced = flushed;
#if defined(__unix__) || defined(__APPLE__)
  if (flushed) {
    synced = ::fsync(fileno(f)) == 0;
  }
#endif
  std::fclose(f);
  if (sink_full || written != bytes.size() || !flushed || !synced) {
    std::remove(tmp.c_str());
    if (sink_full) {
      return fail("snapshot: short write to '" + tmp + "' (sink full after " +
                  std::to_string(writable) + " of " +
                  std::to_string(bytes.size()) + " bytes)");
    }
    if (!synced && flushed && written == bytes.size()) {
      return fail("snapshot: cannot fsync '" + tmp + "'");
    }
    return fail("snapshot: short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail("snapshot: cannot rename '" + tmp + "' to '" + path + "'");
  }
  return IoResult::kOk;
}

void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  std::string why;
  if (try_write_file_atomic(path, bytes, &why) != IoResult::kOk) {
    throw CheckFailure(why);
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  SGXPL_CHECK_MSG(f != nullptr,
                  "snapshot: cannot open '" + path + "' for reading");
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 1 << 16> buf;
  while (true) {
    const std::size_t n = std::fread(buf.data(), 1, buf.size(), f);
    bytes.insert(bytes.end(), buf.begin(), buf.begin() + n);
    if (n < buf.size()) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  SGXPL_CHECK_MSG(ok, "snapshot: read error on '" + path + "'");
  return bytes;
}

bool file_readable(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace sgxpl::snapshot
