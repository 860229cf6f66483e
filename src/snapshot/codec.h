// Versioned, checksummed binary snapshot format for crash-consistent
// checkpoint/restore of the simulator (see docs/ROBUSTNESS.md, "Checkpoint
// & recovery").
//
// Layout (all integers little-endian, byte-serialized explicitly so a
// snapshot written on any host restores on any other):
//
//   magic   8 bytes  "SGXPLSNP"
//   version u32      format version (kFormatVersion); unknown versions are
//                    rejected, never guessed at
//   count   u32      number of sections
//   section*:
//     tag     4 bytes   ASCII section tag (e.g. "DRVR")
//     length  u64       payload length in bytes
//     crc     u32       CRC32C (Castagnoli) of the payload
//     payload length bytes
//
// A payload is a sequence of self-describing fields — type byte, labeled
// name, value — so that (a) any structural drift between writer and reader
// fails with an error naming the field, and (b) snapshot::diff can localize
// the first diverging field between two snapshots without knowing what was
// serialized. Every malformed input (truncation, bit flip, reordered or
// unknown section, version mismatch) is rejected with a diagnostic
// sgxpl::CheckFailure; no input may crash the process or invoke UB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sgxpl::snapshot {

/// The one format version this build reads and writes.
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::string_view kMagic = "SGXPLSNP";

/// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected). Runs the SSE4.2
/// crc32 instruction, 8 bytes at a time, when the CPU reports it at run
/// time, and detail::crc32c_portable otherwise. Both compute the same
/// function, so the checksum never depends on the host.
std::uint32_t crc32c(const std::uint8_t* data, std::size_t len) noexcept;

namespace detail {
/// The portable slicing-by-8 software CRC32C: the only path on hosts
/// without SSE4.2, and callable directly so tests cover it on every host.
std::uint32_t crc32c_portable(const std::uint8_t* data,
                              std::size_t len) noexcept;
}  // namespace detail

enum class FieldType : std::uint8_t {
  kU64 = 1,
  kF64 = 2,  // stored as the IEEE-754 bit pattern; restores bit-identically
  kBool = 3,
  kString = 4,
  kU64Vec = 5,
};

const char* to_string(FieldType t) noexcept;

struct FieldView;

/// Serializes sections of labeled fields into a framed snapshot.
class Writer {
 public:
  /// Open a section; `tag` must be exactly 4 ASCII characters.
  void begin_section(std::string_view tag);
  /// Close the current section, patching its length and CRC.
  void end_section();

  void u64(std::string_view label, std::uint64_t v);
  void f64(std::string_view label, double v);
  void boolean(std::string_view label, bool v);
  void str(std::string_view label, std::string_view v);
  void u64_vec(std::string_view label, const std::vector<std::uint64_t>& v);

  /// Re-emit a generically decoded field byte-identically (the enclave
  /// carves copy sections from one frame into another through this).
  void field(const FieldView& f);

  /// Finalize the snapshot (patches the section count). The writer must
  /// not be reused afterwards.
  std::vector<std::uint8_t> finish();

 private:
  void field_header(FieldType type, std::string_view label);
  void put_bytes(std::string_view s);
  /// Append `n` zero bytes and return where they start (the integer
  /// writers fill them in little-endian order).
  std::uint8_t* grow(std::size_t n);
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void patch_u32(std::size_t at, std::uint32_t v);
  void patch_u64(std::size_t at, std::uint64_t v);

  std::vector<std::uint8_t> bytes_;
  std::size_t section_header_ = 0;  // offset of the open section's header
  bool in_section_ = false;
  bool finished_ = false;
  std::uint32_t sections_ = 0;
};

/// A generically decoded field (used by diff and by tools that walk a
/// snapshot without knowing its schema).
struct FieldView {
  FieldType type = FieldType::kU64;
  std::string label;
  std::uint64_t u64v = 0;
  double f64v = 0.0;
  bool boolv = false;
  std::string strv;
  std::vector<std::uint64_t> vecv;

  /// Value rendered for diagnostics ("123", "0.5", "true", ...).
  std::string render() const;
};

/// Validates and decodes a framed snapshot. All reads are bounds- and
/// CRC-checked; every violation throws CheckFailure with the section tag
/// and field label in the message. Reads are strictly sequential: sections
/// and fields must be consumed in the order they were written (a reordered
/// section is a tag mismatch, not silent misinterpretation).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size);
  explicit Reader(const std::vector<std::uint8_t>& bytes)
      : Reader(bytes.data(), bytes.size()) {}
  // The reader is a view over the caller's buffer; a temporary would dangle.
  explicit Reader(std::vector<std::uint8_t>&&) = delete;

  std::uint32_t version() const noexcept { return version_; }
  std::uint32_t section_count() const noexcept { return section_count_; }
  std::uint32_t sections_entered() const noexcept { return sections_entered_; }

  /// Enter the next section; its tag must equal `expected`.
  void enter_section(std::string_view expected);
  /// Enter the next section whatever its tag; returns the tag.
  std::string enter_any_section();
  /// Leave the current section; throws if any payload bytes were unread.
  void leave_section();

  /// Tag of the next section without entering it; empty string when the
  /// section table is exhausted. Lets a loader probe for the optional delta
  /// sections of a delta frame.
  std::string peek_section_tag() const;

  /// True while fields remain in the current section.
  bool more_fields() const noexcept;
  /// Decode the next field generically. Requires more_fields().
  FieldView next_field();

  std::uint64_t u64(std::string_view label);
  double f64(std::string_view label);
  bool boolean(std::string_view label);
  std::string str(std::string_view label);
  std::vector<std::uint64_t> u64_vec(std::string_view label);

 private:
  [[noreturn]] void corrupt(const std::string& why) const;
  std::uint8_t take_u8();
  std::uint16_t take_u16();
  std::uint32_t take_u32();
  std::uint64_t take_u64();
  void need(std::size_t n, const char* what) const;
  FieldView expect(FieldType type, std::string_view label);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = 0;
  std::uint32_t section_count_ = 0;
  std::uint32_t sections_entered_ = 0;
  std::string section_tag_;     // empty when not inside a section
  std::size_t section_end_ = 0; // payload end of the current section
};

/// Result of comparing two snapshots field-by-field.
struct Diff {
  bool identical = true;
  /// Human-readable description of the first divergence, e.g.
  /// "section 'DRVR' field 'stats.faults': 120 != 121". Empty if identical.
  std::string first_divergence;
};

/// Compare two well-formed snapshots; localizes the first diverging
/// section/field (the state-diff reporter behind the kill-restore oracle).
/// Throws CheckFailure if either input is malformed.
Diff diff(const std::vector<std::uint8_t>& a,
          const std::vector<std::uint8_t>& b);

/// One section's position within a framed snapshot (for corruption tests
/// and tooling; offsets cover the header + payload).
struct SectionSpan {
  std::string tag;
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// Table of section spans. Validates framing but not payload CRCs.
std::vector<SectionSpan> section_spans(const std::vector<std::uint8_t>& bytes);

/// Verdict of probe_frame: where (byte offset) and why a frame is bad, so
/// chain tooling (verify-chain, salvage) can report the fault position
/// instead of just failing.
struct FrameProbe {
  bool ok = false;
  std::string reason;   // typed one-liner; empty when ok
  std::string section;  // 4-char tag when the fault is section-scoped
  std::uint64_t offset = 0;  // byte offset within the frame where detected
};

/// Non-throwing structural + integrity probe of a framed snapshot: magic,
/// format version, section-table walk, declared-count match, and every
/// section's payload CRC32C (RunFrame leaves CRCs to the decoder; this
/// checks them up front). Catches every truncation and every payload
/// bit flip; the only corruption it cannot see is a flip inside a section
/// header's tag bytes, which the typed decode path rejects instead.
FrameProbe probe_frame(const std::vector<std::uint8_t>& bytes) noexcept;

/// Placement of one tenant's ELRANGE inside a multi-enclave co-run's
/// combined page space, plus the tenant's own trace length — the inputs the
/// resumable carve (snapshot::extract_resumable) needs to rebase shared
/// driver state into a standalone single-tenant frame.
struct TenantGeometry {
  std::uint64_t lo = 0;     // first combined page of the tenant's ELRANGE
  std::uint64_t pages = 0;  // tenant ELRANGE size in pages
  std::uint64_t trace_accesses = 0;
};

// ---------------------------------------------------------------------------
// Chain header
// ---------------------------------------------------------------------------

enum class FrameKind : std::uint8_t {
  kFull = 1,   // complete state; the base of a chain
  kDelta = 2,  // changed sections only; applies on top of the previous frame
};

const char* to_string(FrameKind k) noexcept;

/// First section ("CHNH") of every run frame: identifies the checkpoint chain
/// the frame belongs to and its position within it. CRC-protected like any
/// other section.
struct ChainHeader {
  FrameKind kind = FrameKind::kFull;
  /// Chain identity: deterministic content-derived id shared by a base and
  /// all deltas stacked on it (0 for standalone full snapshots).
  std::uint64_t chain_id = 0;
  /// 0 for the base; deltas count 1, 2, ... with no gaps.
  std::uint64_t seq = 0;
  /// CRC32C of the complete previous frame's bytes (0 for the base); restore
  /// refuses a delta whose predecessor does not hash to this.
  std::uint32_t prev_crc = 0;
};

/// Decode just the chain header of a framed snapshot.
ChainHeader read_chain_header_bytes(const std::vector<std::uint8_t>& bytes);

/// Run-length encode a sorted, duplicate-free id list as flattened
/// [start, len] pairs (the sparse-delta encoding for page ids / slot ids /
/// word indices). Checks the precondition.
std::vector<std::uint64_t> encode_runs(const std::vector<std::uint64_t>& ids);
/// Inverse of encode_runs; validates pair structure, monotonicity, and that
/// every id is < `limit`. `what` names the id space for diagnostics.
std::vector<std::uint64_t> decode_runs(const std::vector<std::uint64_t>& runs,
                                       std::uint64_t limit,
                                       std::string_view what);
/// Validate a page list read from a snapshot: strictly ascending (so
/// duplicate-free) and every page below `limit`, the ELRANGE size. `label`
/// names the field; a rejection reads "<label>[i] = <page> ...".
void check_page_list(const std::vector<std::uint64_t>& pages,
                     std::uint64_t limit, std::string_view label);

/// Identifying metadata written as a snapshot's first section ("META") so a
/// restore can verify it is being applied to a compatible run before any
/// state is touched.
struct RunMeta {
  std::string kind;        // "enclave-sim" / "multi-enclave"
  std::string scheme;      // scheme name(s)
  std::string trace_name;  // trace name(s)
  std::uint64_t trace_accesses = 0;
  std::uint64_t elrange_pages = 0;
  std::uint64_t epc_pages = 0;
  std::string chaos_spec;  // empty = no chaos
  std::uint64_t chaos_seed = 0;
  /// Overload-hardening fingerprint (sgxsim::overload_spec); empty = seed
  /// defaults. A hardened run carries retry/admission state a seed snapshot
  /// lacks (and vice versa), so the configs must match exactly.
  std::string hardening_spec;
  std::uint64_t cursor = 0;  // accesses completed when the snapshot was taken

  /// Empty string when compatible with `other` (cursor excluded); otherwise
  /// a description of the first mismatching attribute.
  std::string incompatibility(const RunMeta& other) const;
};

/// Write `meta` as a "META" section.
void write_meta(Writer& w, const RunMeta& meta);
/// Read the "META" section (must be the next section of `r`).
RunMeta read_meta(Reader& r);

// ---------------------------------------------------------------------------
// Run frames
// ---------------------------------------------------------------------------

/// Write the head every run frame opens with: the CHNH chain header, then
/// the META run identity. The run's body sections follow.
void write_frame_head(Writer& w, const ChainHeader& chain,
                      const RunMeta& meta);

/// A run frame opened for reading. Only this codec knows a run frame's
/// layout (CHNH, then META, then the body); every other module writes the
/// head with write_frame_head and reads a frame through RunFrame. The
/// constructor checks the whole frame's section table against the
/// header's declared count (the count field is outside any CRC) and decodes
/// its head, leaving `body` at the first body section; any corruption
/// throws CheckFailure. A view over the caller's buffer, like Reader.
struct RunFrame {
  explicit RunFrame(const std::vector<std::uint8_t>& bytes);
  explicit RunFrame(std::vector<std::uint8_t>&&) = delete;

  /// The gate before a run applies the body: throws CheckFailure unless
  /// this is a `kind` frame whose META is compatible with `expect`.
  void require(FrameKind kind, const RunMeta& expect) const;
  /// Throws CheckFailure unless the body's sections were all consumed.
  void finish() const;

  Reader body;
  ChainHeader chain;
  RunMeta meta;
};

/// Typed outcome of a non-throwing atomic file write.
enum class IoResult : std::uint8_t {
  kOk,
  kIoError,  // open / short-write / fsync / rename failure
};

const char* to_string(IoResult r) noexcept;

/// Write `bytes` to `path` atomically: temp file, fsync, then rename. The
/// fsync before the rename closes the torn-write window — without it a
/// power cut after the rename could publish a file whose data blocks never
/// reached the disk. On kIoError the temp file is removed, any previous
/// file at `path` is untouched, and `detail` (when non-null) gets a typed
/// one-liner (disk-full and short-write failures land here rather than as
/// CHECK failures).
IoResult try_write_file_atomic(const std::string& path,
                               const std::vector<std::uint8_t>& bytes,
                               std::string* detail = nullptr);

/// Throwing wrapper around try_write_file_atomic (CheckFailure on IO
/// errors) for call sites where a failed checkpoint write is fatal.
void write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

/// Testing hook for the size-capped failing sink: any single write whose
/// payload exceeds `cap` bytes fails with kIoError as if the disk filled
/// mid-write. 0 (the default) disables the cap.
void set_io_write_cap_for_testing(std::uint64_t cap);

/// Read a whole file. Throws CheckFailure if it cannot be opened/read.
std::vector<std::uint8_t> read_file(const std::string& path);

/// True if `path` exists and is readable.
bool file_readable(const std::string& path);

}  // namespace sgxpl::snapshot
