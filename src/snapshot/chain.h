// Checkpoint chains.
//
// A chain is one full base frame plus zero or more delta frames stacked on
// it. The Snapshotter decides per checkpoint whether to emit a base or a
// delta (CheckpointOptions::full_every bounds the chain length), stamps the
// CHNH chain header, and clears the run's dirty tracking after every frame,
// so a delta skips the sections whose state did not move since the last.
//
// probe_chain() is the only code that checks a chain's linkage:
//
//   - frame 0 must be a full base,
//   - every later frame must be a delta of the SAME chain id,
//   - delta seq numbers must run 1, 2, ... with no gap or reorder,
//   - each delta's prev_crc must equal the CRC32C of the complete previous
//     frame's bytes (so a substituted or regenerated frame is rejected even
//     if its own CRCs are internally consistent).
//
// It returns a typed report and never touches a run. restore_chain() probes
// the whole chain first and throws on the first fault — ChainError (a
// CheckFailure subtype the recovery tests can assert on) for a linkage
// fault, plain CheckFailure for a corrupt frame — so a chain that fails the
// probe leaves the run exactly as it was. Only then does it apply the
// frames. A frame that passes the probe but fails to apply still throws its
// CheckFailure, and the run's state is then unspecified (restore_chain_salvage
// instead drops that frame and keeps the prefix before it). Everything here
// is a template over the run type so the core library can drive chains for
// both SimulationRun and MultiEnclaveRun without a layering inversion (this
// header depends only on the codec).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "snapshot/codec.h"
#include "snapshot/fwd.h"

namespace sgxpl::snapshot {

/// A broken checkpoint chain: missing, reordered, mixed, or substituted
/// frames. Distinct from plain CheckFailure so tests can tell "the chain is
/// wrong" apart from "a frame is corrupt".
class ChainError : public CheckFailure {
 public:
  explicit ChainError(const std::string& what) : CheckFailure(what) {}
};

/// File layout of an on-disk chain: the base at `base_path`, deltas beside
/// it at `base_path`.delta-1, .delta-2, ...
inline std::string delta_path(const std::string& base_path,
                              std::uint64_t seq) {
  return base_path + ".delta-" + std::to_string(seq);
}

/// Best-effort removal of delta files left behind by a previous chain after
/// a new base was written at `base_path` (a stale delta would otherwise be
/// picked up by the next resume scan; the chain-id check would reject it,
/// but cleaning up keeps the directory honest).
inline void remove_stale_deltas(const std::string& base_path) {
  for (std::uint64_t seq = 1;; ++seq) {
    if (std::remove(delta_path(base_path, seq).c_str()) != 0) break;
  }
}

/// Write one frame of the on-disk chain rooted at `base_path`. Slot 0 is
/// the base: it replaces the file atomically and then drops the previous
/// chain's deltas. Slot N is the file of the N-th delta beside it.
inline void write_chain_file(const std::string& base_path, std::uint64_t slot,
                             const std::vector<std::uint8_t>& bytes) {
  if (slot == 0) {
    write_file_atomic(base_path, bytes);
    remove_stale_deltas(base_path);
  } else {
    write_file_atomic(delta_path(base_path, slot), bytes);
  }
}

/// One emitted checkpoint frame.
struct ChainFrame {
  std::vector<std::uint8_t> bytes;
  ChainHeader header;
};

/// Emits the checkpoint stream for one run: a full base every `full_every`
/// checkpoints, deltas in between. Owns the chain bookkeeping (chain id,
/// sequence numbers, previous-frame CRC) and clears the run's dirty
/// tracking after every frame.
///
/// Requires of `Run`: save(Writer&, const ChainHeader&),
/// save_delta(Writer&, const ChainHeader&), clear_dirty(), meta().
template <class Run>
class Snapshotter {
 public:
  /// `full_every` = 1 means every checkpoint is a full snapshot; N > 1
  /// stacks N-1 deltas on each base. 0 is treated as 1.
  explicit Snapshotter(std::uint64_t full_every = 1)
      : full_every_(full_every == 0 ? 1 : full_every) {}

  ChainFrame checkpoint(Run& run) {
    const bool full = emitted_ % full_every_ == 0;
    ChainFrame f;
    Writer w;
    if (full) {
      seq_ = 0;
      chain_id_ = derive_chain_id(run);
      f.header = ChainHeader{
          .kind = FrameKind::kFull, .chain_id = chain_id_, .seq = 0,
          .prev_crc = 0};
      run.save(w, f.header);
    } else {
      f.header = ChainHeader{
          .kind = FrameKind::kDelta, .chain_id = chain_id_, .seq = ++seq_,
          .prev_crc = prev_crc_};
      run.save_delta(w, f.header);
    }
    f.bytes = w.finish();
    prev_crc_ = crc32c(f.bytes.data(), f.bytes.size());
    run.clear_dirty();
    ++emitted_;
    if (full) {
      full_bytes_ += f.bytes.size();
    } else {
      ++delta_frames_;
      delta_bytes_ += f.bytes.size();
    }
    return f;
  }

  std::uint64_t frames() const noexcept { return emitted_; }
  std::uint64_t delta_frames() const noexcept { return delta_frames_; }
  std::uint64_t full_bytes() const noexcept { return full_bytes_; }
  std::uint64_t delta_bytes() const noexcept { return delta_bytes_; }

 private:
  /// Content-derived chain identity: CRC of the serialized META frame mixed
  /// with the cut cursor. Deterministic (no clock, no randomness) so chain
  /// goldens are byte-stable, yet distinct across bases of the same run.
  std::uint64_t derive_chain_id(const Run& run) const {
    const RunMeta m = run.meta();
    Writer w;
    write_meta(w, m);
    const std::vector<std::uint8_t> bytes = w.finish();
    const std::uint64_t h = crc32c(bytes.data(), bytes.size());
    return (h << 32) ^ (m.cursor + 1);  // +1: never 0, the standalone id
  }

  std::uint64_t full_every_;
  std::uint64_t emitted_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t chain_id_ = 0;
  std::uint32_t prev_crc_ = 0;
  std::uint64_t delta_frames_ = 0;
  std::uint64_t full_bytes_ = 0;
  std::uint64_t delta_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// The chain walk: probe, strict restore, salvage
// ---------------------------------------------------------------------------

/// Why a chain walk stopped before the end of the offered chain.
enum class ChainFault : std::uint8_t {
  kNone,             // whole chain valid and restored
  kEmptyChain,       // no frames offered
  kNoBase,           // frame 0 is not a full base frame
  kCorruptFrame,     // truncation / bit flip / undecodable header
  kWrongKind,        // a full base appeared mid-chain
  kChainIdMismatch,  // frame belongs to a different chain
  kSeqGap,           // delta sequence skipped or reordered
  kPrevCrcMismatch,  // frame does not link to its predecessor
  kApplyFailed,      // structurally valid but semantically unloadable
};

inline const char* to_string(ChainFault f) noexcept {
  switch (f) {
    case ChainFault::kNone:
      return "none";
    case ChainFault::kEmptyChain:
      return "empty-chain";
    case ChainFault::kNoBase:
      return "no-base";
    case ChainFault::kCorruptFrame:
      return "corrupt-frame";
    case ChainFault::kWrongKind:
      return "wrong-kind";
    case ChainFault::kChainIdMismatch:
      return "chain-id-mismatch";
    case ChainFault::kSeqGap:
      return "seq-gap";
    case ChainFault::kPrevCrcMismatch:
      return "prev-crc-mismatch";
    case ChainFault::kApplyFailed:
      return "apply-failed";
  }
  return "?";
}

/// Typed result of a salvage walk: how much of the chain survives, and the
/// exact position and nature of the first fault. `first_bad_index` is the
/// 0-based frame position (== the delta seq for a well-formed chain) and
/// `byte_offset` the fault's offset within that frame (0 for pure linkage
/// faults, which have no single corrupt byte).
struct ChainSalvageReport {
  std::uint64_t frames_offered = 0;
  /// Longest structurally valid prefix (probe_chain) / frames actually
  /// restored into the run (restore_chain_salvage).
  std::uint64_t frames_restored = 0;
  ChainFault fault = ChainFault::kNone;
  std::uint64_t first_bad_index = 0;
  std::uint64_t first_bad_seq = 0;  // declared seq if decodable, else expected
  std::uint64_t byte_offset = 0;
  std::string detail;  // typed one-liner, empty when fault == kNone

  bool complete() const noexcept { return fault == ChainFault::kNone; }
  bool restored_any() const noexcept { return frames_restored > 0; }

  /// "salvage: 2/3 frame(s) valid; dropped at frame 2 (seq 2), byte 117:
  /// prev-crc-mismatch — ..." — the one-line report the tool prints.
  std::string describe() const {
    std::string s = "salvage: " + std::to_string(frames_restored) + "/" +
                    std::to_string(frames_offered) + " frame(s) valid";
    if (fault != ChainFault::kNone) {
      s += "; dropped at frame " + std::to_string(first_bad_index) +
           " (seq " + std::to_string(first_bad_seq) + "), byte " +
           std::to_string(byte_offset) + ": " +
           std::string(to_string(fault));
      if (!detail.empty()) {
        s += " — " + detail;
      }
    }
    return s;
  }
};

/// Pure structural walk of an in-memory chain: compute the longest valid
/// prefix (frame integrity + kind + chain id + seq + prev-CRC linkage)
/// without touching any run. Never throws; every corruption maps to a typed
/// fault with its frame index and byte offset.
inline ChainSalvageReport probe_chain(
    const std::vector<std::vector<std::uint8_t>>& frames) {
  ChainSalvageReport rep;
  rep.frames_offered = frames.size();
  const auto stop = [&rep](std::uint64_t index, std::uint64_t seq,
                           ChainFault fault, std::uint64_t offset,
                           std::string detail) {
    rep.fault = fault;
    rep.first_bad_index = index;
    rep.first_bad_seq = seq;
    rep.byte_offset = offset;
    rep.detail = std::move(detail);
  };
  if (frames.empty()) {
    stop(0, 0, ChainFault::kEmptyChain, 0,
         "checkpoint chain is empty — nothing to restore");
    return rep;
  }
  std::uint32_t prev = 0;
  std::uint64_t base_id = 0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::uint64_t expect_seq = i;  // base 0, deltas 1, 2, ...
    const FrameProbe probe = probe_frame(frames[i]);
    if (!probe.ok) {
      stop(i, expect_seq, ChainFault::kCorruptFrame, probe.offset,
           probe.reason);
      return rep;
    }
    ChainHeader h;
    try {
      h = read_chain_header_bytes(frames[i]);
    } catch (const CheckFailure& e) {
      stop(i, expect_seq, ChainFault::kCorruptFrame, 0, e.what());
      return rep;
    }
    if (i == 0) {
      if (h.kind != FrameKind::kFull) {
        stop(0, h.seq, ChainFault::kNoBase, 0,
             "checkpoint chain does not start with a full base frame (found "
             "delta " +
                 std::to_string(h.seq) +
                 ") — the base is missing or the frames are reordered");
        return rep;
      }
      base_id = h.chain_id;
    } else {
      if (h.kind != FrameKind::kDelta) {
        stop(i, h.seq, ChainFault::kWrongKind, 0,
             "frame " + std::to_string(i) +
                 " of the checkpoint chain is a full base — chains hold one "
                 "base followed by deltas only");
        return rep;
      }
      if (h.chain_id != base_id) {
        stop(i, h.seq, ChainFault::kChainIdMismatch, 0,
             "delta " + std::to_string(h.seq) +
                 " belongs to a different checkpoint chain (id " +
                 std::to_string(h.chain_id) + ", base chain is " +
                 std::to_string(base_id) +
                 ") — frames from separate chains were mixed");
        return rep;
      }
      if (h.seq != expect_seq) {
        stop(i, h.seq, ChainFault::kSeqGap, 0,
             "expected delta seq " + std::to_string(expect_seq) +
                 " but found " + std::to_string(h.seq) +
                 " — the checkpoint chain is missing a frame or reordered");
        return rep;
      }
      if (h.prev_crc != prev) {
        stop(i, h.seq, ChainFault::kPrevCrcMismatch, 0,
             "delta " + std::to_string(h.seq) +
                 " does not link to the preceding frame (prev-CRC mismatch) "
                 "— a frame was substituted or reordered");
        return rep;
      }
    }
    prev = crc32c(frames[i].data(), frames[i].size());
    rep.frames_restored = i + 1;
  }
  return rep;
}

/// Throw the strict-restore exception for a failed probe: CheckFailure for
/// a corrupt frame, ChainError for every linkage fault.
[[noreturn]] inline void throw_chain_fault(const ChainSalvageReport& rep) {
  if (rep.fault == ChainFault::kCorruptFrame) {
    throw CheckFailure("frame " + std::to_string(rep.first_bad_index) +
                       " of the checkpoint chain is corrupt at byte " +
                       std::to_string(rep.byte_offset) + ": " + rep.detail);
  }
  throw ChainError(rep.detail);
}

/// Apply frames[begin, end) of a probed chain to `run`: frame 0 loads as
/// the base, every later frame applies as a delta on top of its
/// predecessors. The one apply loop behind every restore; callers check the
/// linkage with probe_chain first. Requires of `Run`: load_bytes(),
/// apply_delta_bytes().
template <class Run>
void apply_chain_frames(Run& run,
                        const std::vector<std::vector<std::uint8_t>>& frames,
                        std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (i == 0) {
      run.load_bytes(frames[0]);
    } else {
      run.apply_delta_bytes(frames[i]);
    }
  }
}

/// Restore `run` from a chain given as in-memory frames (base first).
/// Throws ChainError on linkage violations and CheckFailure on corrupt
/// frames, in both cases before touching the run.
template <class Run>
void restore_chain(Run& run,
                   const std::vector<std::vector<std::uint8_t>>& frames) {
  const ChainSalvageReport rep = probe_chain(frames);
  if (!rep.complete()) throw_chain_fault(rep);
  apply_chain_frames(run, frames, 0, frames.size());
}

/// Salvage-restore: restore the longest valid prefix of `frames` into `run`
/// instead of aborting on the first bad frame (the torn-chain recovery path;
/// contrast restore_chain, which throws). The prefix is computed up front
/// (probe_chain), so a torn tail never touches the run. If a structurally
/// valid frame still fails to apply (e.g. a bit flip in an un-CRC'd section
/// tag), that frame and everything after it are dropped, the prefix before
/// it is re-applied from the base, and the report says kApplyFailed. When
/// nothing is restorable (frames_restored == 0) the run is untouched —
/// unless the base itself failed mid-load, in which case the run's state is
/// unspecified and the report says so; callers must treat restored_any() ==
/// false as fatal.
template <class Run>
ChainSalvageReport restore_chain_salvage(
    Run& run, const std::vector<std::vector<std::uint8_t>>& frames) {
  ChainSalvageReport rep = probe_chain(frames);
  const std::uint64_t valid = rep.frames_restored;
  rep.frames_restored = 0;
  for (std::size_t i = 0; i < valid; ++i) {
    try {
      apply_chain_frames(run, frames, i, i + 1);
    } catch (const CheckFailure& e) {
      // Drop the frame that refused to load (and everything after it), and
      // replay the good prefix so the run never keeps its half-applied
      // state.
      rep.fault = ChainFault::kApplyFailed;
      rep.first_bad_index = i;
      rep.first_bad_seq = i;
      rep.byte_offset = 0;
      rep.detail = e.what();
      apply_chain_frames(run, frames, 0, i);
      return rep;
    }
    rep.frames_restored = i + 1;
  }
  return rep;
}

/// The on-disk chain rooted at `base_path`: the base plus every
/// consecutive `.delta-N` file beside it, read whatever their content (the
/// chain walk classifies it). Empty when the base file is unreadable.
inline std::vector<std::vector<std::uint8_t>> read_chain_files(
    const std::string& base_path) {
  std::vector<std::vector<std::uint8_t>> frames;
  if (!file_readable(base_path)) return frames;
  frames.push_back(read_file(base_path));
  for (std::uint64_t seq = 1;; ++seq) {
    const std::string path = delta_path(base_path, seq);
    if (!file_readable(path)) break;
    frames.push_back(read_file(path));
  }
  return frames;
}

/// Salvage the on-disk chain rooted at `base_path`: restores the longest
/// valid prefix of read_chain_files(base_path).
template <class Run>
ChainSalvageReport salvage_chain_from_files(Run& run,
                                            const std::string& base_path) {
  return restore_chain_salvage(run, read_chain_files(base_path));
}

/// Resume `run` from the on-disk chain rooted at `base_path`: the base file
/// plus every consecutive `.delta-N` beside it up to the first one that is
/// not a delta of the same chain (stale deltas left over from an older
/// chain end the chain and are ignored). Returns false — leaving the run
/// untouched — when the base file is absent or identifies a different run
/// configuration; throws like restore_chain on corrupt frames or a broken
/// chain.
template <class Run>
bool restore_chain_from_files(Run& run, const std::string& base_path) {
  const std::vector<std::vector<std::uint8_t>> frames =
      read_chain_files(base_path);
  if (frames.empty()) return false;
  const RunFrame base(frames[0]);
  if (base.chain.kind != FrameKind::kFull) {
    throw ChainError("'" + base_path +
                     "' holds a delta frame, not a chain base — restore "
                     "from the chain's base file");
  }
  if (!base.meta.incompatibility(run.meta()).empty()) return false;
  const ChainSalvageReport rep = probe_chain(frames);
  const bool stale_tail = rep.fault == ChainFault::kWrongKind ||
                          rep.fault == ChainFault::kChainIdMismatch;
  if (!rep.complete() && !stale_tail) throw_chain_fault(rep);
  apply_chain_frames(run, frames, 0, rep.frames_restored);
  return true;
}

}  // namespace sgxpl::snapshot
