// snapshot_tool — inspect, migrate, and dissect snapshot files offline.
//
//   snapshot_tool info <file>                 header, chain position, META,
//                                             per-section payload sizes
//   snapshot_tool extract <n> <in> <out>      lift enclave <n> out of a
//                                             multi-enclave frame as a
//                                             standalone snapshot
//   snapshot_tool migrate <in> <n> <out> [<lo> <pages> <accesses>]
//                                             carve enclave <n> as a
//                                             *resumable* single-tenant
//                                             frame (the live-migration
//                                             payload); the optional triple
//                                             gives a co-tenant's placement,
//                                             default is a sole occupant
//   snapshot_tool diff <a> <b>                first diverging field of two
//                                             frames (exit 1 when they
//                                             differ)
//   snapshot_tool verify-chain <base>         validate the delta chain
//                                             rooted at <base> (the
//                                             `<base>.delta-N` files):
//                                             headers, CRC linkage,
//                                             ordering; a bad frame is
//                                             reported with its seq number
//                                             and byte offset
//   snapshot_tool salvage <base> <out-base>   copy the longest valid prefix
//                                             of a torn chain to <out-base>
//                                             (+ .delta-N) and report what
//                                             was dropped; exit 1 when
//                                             nothing is restorable
//   snapshot_tool fleet-info <dir>            health of every host chain a
//                                             FleetSupervisor mirrored into
//                                             <dir> (host-<n>.snap + deltas,
//                                             consecutive n from 0): frames
//                                             valid, cursor, torn tails;
//                                             exit 1 when no chains exist or
//                                             any host is unrecoverable
//
// Every command works on files alone — no simulation run is needed, so a
// snapshot from a dead service can be examined on any machine with this
// build. The tool reads exactly the format version this build writes.
// Every failure (unreadable file, corrupt frame, any other format version,
// bad argument) exits nonzero with a one-line `error:` diagnostic; no input
// may abort or crash the process. See docs/ROBUSTNESS.md, "Snapshot format"
// and "Live migration & torn-chain salvage".
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common/check.h"
#include "snapshot/chain.h"
#include "snapshot/codec.h"
#include "snapshot/snapshotter.h"

using namespace sgxpl;

namespace {

int usage() {
  std::cerr
      << "usage: snapshot_tool info <file>\n"
         "       snapshot_tool extract <enclave> <in> <out>\n"
         "       snapshot_tool migrate <in> <enclave> <out> [<lo> <pages> "
         "<accesses>]\n"
         "       snapshot_tool diff <a> <b>\n"
         "       snapshot_tool verify-chain <base>\n"
         "       snapshot_tool salvage <base> <out-base>\n"
         "       snapshot_tool fleet-info <dir>\n"
         "every command reads snapshot format v"
      << snapshot::kFormatVersion << " only\n";
  return 2;
}

/// Strict decimal parse with a typed failure (std::stoull would abort the
/// command with an unhelpful std::invalid_argument).
std::uint64_t parse_u64(const std::string& what, const std::string& text) {
  SGXPL_CHECK_MSG(!text.empty(), what << " is empty, want an integer");
  std::uint64_t v = 0;
  for (const char c : text) {
    SGXPL_CHECK_MSG(c >= '0' && c <= '9',
                    what << " '" << text << "' is not a decimal integer");
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    SGXPL_CHECK_MSG(v <= (~0ull - digit) / 10,
                    what << " '" << text << "' overflows 64 bits");
    v = v * 10 + digit;
  }
  return v;
}

int cmd_info(const std::string& path) {
  const auto bytes = snapshot::read_file(path);
  const snapshot::RunFrame f(bytes);
  std::cout << path << ": format v" << f.body.version() << ", "
            << bytes.size() << " bytes\n";
  const snapshot::ChainHeader& chain = f.chain;
  std::cout << "chain: " << snapshot::to_string(chain.kind) << " frame, id "
            << chain.chain_id << ", seq " << chain.seq;
  if (chain.kind == snapshot::FrameKind::kDelta) {
    std::cout << ", prev-crc " << chain.prev_crc;
  }
  std::cout << "\n";
  const snapshot::RunMeta& meta = f.meta;
  std::cout << "meta: " << meta.kind << " / " << meta.scheme << " on "
            << meta.trace_name << " (" << meta.trace_accesses
            << " accesses, ELRANGE " << meta.elrange_pages << " pages, EPC "
            << meta.epc_pages << " pages), cursor " << meta.cursor << "\n";
  if (!meta.chaos_spec.empty()) {
    std::cout << "chaos: " << meta.chaos_spec << " (seed " << meta.chaos_seed
              << ")\n";
  }
  if (!meta.hardening_spec.empty()) {
    std::cout << "hardening: " << meta.hardening_spec << "\n";
  }
  std::cout << "sections:\n";
  for (const snapshot::SectionSpan& s : snapshot::section_spans(bytes)) {
    std::printf("  %-4s %8zu bytes\n", s.tag.c_str(), s.size - 16);
  }
  return 0;
}

int cmd_extract(const std::string& index, const std::string& in,
                const std::string& out) {
  const std::uint64_t enclave = parse_u64("enclave index", index);
  const auto bytes = snapshot::read_file(in);
  const auto frame = snapshot::extract_enclave(bytes, enclave);
  snapshot::write_file_atomic(out, frame);
  const snapshot::ExtractedEnclave e = snapshot::read_extracted(frame);
  std::cout << "wrote " << out << ": enclave " << e.index << " (" << e.scheme
            << " on " << e.trace << "), cursor " << e.cursor << ", "
            << frame.size() << " bytes\n";
  return 0;
}

int cmd_migrate(const std::vector<std::string>& args) {
  const std::string& in = args[1];
  const std::uint64_t enclave = parse_u64("enclave index", args[2]);
  const std::string& out = args[3];
  const auto bytes = snapshot::read_file(in);
  snapshot::TenantGeometry geo;
  if (args.size() == 7) {
    geo.lo = parse_u64("tenant lo page", args[4]);
    geo.pages = parse_u64("tenant page count", args[5]);
    geo.trace_accesses = parse_u64("tenant trace accesses", args[6]);
  } else {
    // Sole occupant: the tenant owns the whole combined space described by
    // the frame's META (the identity carve — byte-exact).
    const snapshot::RunMeta meta = snapshot::RunFrame(bytes).meta;
    geo.lo = 0;
    geo.pages = meta.elrange_pages;
    geo.trace_accesses = meta.trace_accesses;
  }
  const auto frame = snapshot::extract_resumable(bytes, enclave, geo);
  snapshot::write_file_atomic(out, frame);
  std::cout << "wrote " << out << ": resumable enclave " << enclave
            << " at pages [" << geo.lo << ", " << (geo.lo + geo.pages)
            << "), " << frame.size() << " bytes\n";
  return 0;
}

int cmd_diff(const std::string& a, const std::string& b) {
  const snapshot::Diff d =
      snapshot::diff(snapshot::read_file(a), snapshot::read_file(b));
  if (d.identical) {
    std::cout << "identical\n";
    return 0;
  }
  std::cout << "differ: " << d.first_divergence << "\n";
  return 1;
}

/// Read the chain rooted at `base` (snapshot::read_chain_files); a missing
/// base file is a typed error.
std::vector<std::vector<std::uint8_t>> read_chain(const std::string& base) {
  auto frames = snapshot::read_chain_files(base);
  if (frames.empty()) {
    throw CheckFailure("snapshot: cannot open '" + base + "' for reading");
  }
  return frames;
}

/// On-disk name of frame `i` of the chain rooted at `base`.
std::string frame_path(const std::string& base, std::uint64_t i) {
  return i == 0 ? base : snapshot::delta_path(base, i);
}

int cmd_verify_chain(const std::string& base) {
  const auto frames = read_chain(base);
  const snapshot::ChainSalvageReport rep = snapshot::probe_chain(frames);
  for (std::uint64_t i = 0; i < rep.frames_restored; ++i) {
    const snapshot::ChainHeader h =
        snapshot::read_chain_header_bytes(frames[i]);
    if (i == 0) {
      std::cout << base << ": full base, chain id " << h.chain_id << ", "
                << frames[i].size() << " bytes\n";
    } else {
      std::cout << frame_path(base, i) << ": delta " << h.seq << ", "
                << frames[i].size() << " bytes, linkage OK\n";
    }
  }
  if (!rep.complete()) {
    // A stale delta of an older chain is a benign leftover, not corruption
    // (the resume scan ignores it); everything else fails the chain.
    if (rep.fault == snapshot::ChainFault::kChainIdMismatch) {
      std::cout << frame_path(base, rep.first_bad_index)
                << ": different chain — stale leftover, chain ends at seq "
                << (rep.first_bad_index - 1) << "\n";
      std::cout << "chain OK: " << rep.frames_restored << " frame(s)\n";
      return 0;
    }
    std::cerr << "error: " << frame_path(base, rep.first_bad_index)
              << ": frame "
              << rep.first_bad_index << " (seq " << rep.first_bad_seq
              << "), byte offset " << rep.byte_offset << ": "
              << snapshot::to_string(rep.fault) << " — " << rep.detail
              << "\n";
    return 1;
  }
  std::cout << "chain OK: " << rep.frames_restored << " frame(s)\n";
  return 0;
}

int cmd_salvage(const std::string& base, const std::string& out_base) {
  const auto frames = read_chain(base);
  const snapshot::ChainSalvageReport rep = snapshot::probe_chain(frames);
  std::cout << rep.describe() << "\n";
  if (!rep.restored_any()) {
    std::cerr << "error: nothing restorable: " << rep.detail << "\n";
    return 1;
  }
  for (std::uint64_t i = 0; i < rep.frames_restored; ++i) {
    const std::string out = frame_path(out_base, i);
    snapshot::write_file_atomic(out, frames[i]);
    std::cout << "wrote " << out << " (" << frames[i].size() << " bytes)\n";
  }
  return 0;
}

int cmd_fleet_info(const std::string& dir) {
  // A FleetSupervisor with a chain dir mirrors host n's checkpoint chain
  // to <dir>/host-<n>.snap (+ .delta-N), hosts numbered consecutively
  // from 0 — so the fleet's disk footprint is exactly the consecutive
  // bases this scan finds.
  std::size_t hosts = 0;
  std::size_t healthy = 0;
  std::size_t torn = 0;
  std::size_t dead = 0;
  for (std::size_t n = 0;; ++n) {
    const std::string base = dir + "/host-" + std::to_string(n) + ".snap";
    if (!snapshot::file_readable(base)) {
      break;
    }
    ++hosts;
    const auto frames = read_chain(base);
    const snapshot::ChainSalvageReport rep = snapshot::probe_chain(frames);
    std::uint64_t bytes = 0;
    for (const auto& f : frames) {
      bytes += f.size();
    }
    std::cout << "host " << n << ": " << rep.frames_restored << "/"
              << rep.frames_offered << " frame(s) valid, " << bytes
              << " bytes";
    if (rep.restored_any()) {
      // The restore point an operator would get back: the META of the
      // base names the run; the chain length bounds the replay window.
      const snapshot::RunMeta meta = snapshot::RunFrame(frames[0]).meta;
      std::cout << " — " << meta.kind << " / " << meta.scheme << " on "
                << meta.trace_name << ", base cursor " << meta.cursor;
    }
    std::cout << "\n";
    if (rep.complete()) {
      ++healthy;
    } else if (rep.restored_any()) {
      ++torn;
      std::cout << "  torn: dropped at "
                << frame_path(base, rep.first_bad_index)
                << " (seq " << rep.first_bad_seq << "): "
                << snapshot::to_string(rep.fault)
                << " — recoverable to the salvaged prefix\n";
    } else {
      ++dead;
      std::cout << "  UNRECOVERABLE: " << snapshot::to_string(rep.fault)
                << " — " << rep.detail << "\n";
    }
  }
  if (hosts == 0) {
    std::cerr << "error: " << dir
              << ": no fleet chains found (want host-0.snap, host-1.snap, "
                 "... as mirrored by a supervisor chain dir)\n";
    return 1;
  }
  std::cout << "fleet: " << hosts << " host(s), " << healthy << " healthy, "
            << torn << " torn (salvageable), " << dead << " unrecoverable\n";
  if (dead > 0) {
    std::cerr << "error: " << dead
              << " host chain(s) have no restorable frame — those hosts can "
                 "only cold-start\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "info") {
      return cmd_info(args[1]);
    }
    if (args.size() == 4 && args[0] == "extract") {
      return cmd_extract(args[1], args[2], args[3]);
    }
    if ((args.size() == 4 || args.size() == 7) && args[0] == "migrate") {
      return cmd_migrate(args);
    }
    if (args.size() == 3 && args[0] == "diff") {
      return cmd_diff(args[1], args[2]);
    }
    if (args.size() == 2 && args[0] == "verify-chain") {
      return cmd_verify_chain(args[1]);
    }
    if (args.size() == 3 && args[0] == "salvage") {
      return cmd_salvage(args[1], args[2]);
    }
    if (args.size() == 2 && args[0] == "fleet-info") {
      return cmd_fleet_info(args[1]);
    }
  } catch (const CheckFailure& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
