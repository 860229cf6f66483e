#include "sgxsim/paging_channel.h"

#include <algorithm>

#include "common/check.h"
#include "snapshot/codec.h"

namespace sgxpl::sgxsim {

const char* to_string(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kDemandLoad:
      return "demand";
    case OpKind::kDfpPreload:
      return "dfp-preload";
    case OpKind::kSipLoad:
      return "sip-load";
  }
  return "?";
}

std::optional<OpKind> parse_op_kind(std::string_view name) noexcept {
  for (const OpKind k :
       {OpKind::kDemandLoad, OpKind::kDfpPreload, OpKind::kSipLoad}) {
    if (name == to_string(k)) {
      return k;
    }
  }
  return std::nullopt;
}

const char* to_string(AdmissionResult r) noexcept {
  switch (r) {
    case AdmissionResult::kAdmitted:
      return "admitted";
    case AdmissionResult::kRejectedFull:
      return "rejected-full";
    case AdmissionResult::kRejectedQuota:
      return "rejected-quota";
    case AdmissionResult::kRejectedDegraded:
      return "rejected-degraded";
  }
  return "?";
}

std::optional<AdmissionResult> parse_admission_result(
    std::string_view name) noexcept {
  for (const AdmissionResult r :
       {AdmissionResult::kAdmitted, AdmissionResult::kRejectedFull,
        AdmissionResult::kRejectedQuota, AdmissionResult::kRejectedDegraded}) {
    if (name == to_string(r)) {
      return r;
    }
  }
  return std::nullopt;
}

const ChannelOp& PagingChannel::schedule(Cycles earliest, Cycles duration,
                                         PageNum page, OpKind kind,
                                         ProcessId pid, std::uint32_t attempt,
                                         Cycles deadline_slack) {
  SGXPL_CHECK_MSG(duration > 0, "zero-length channel op");
  SGXPL_DCHECK(!find(page).has_value());
  ChannelOp op;
  op.id = next_id_++;
  op.page = page;
  op.kind = kind;
  op.start = next_free(earliest);
  op.end = op.start + duration;
  op.deadline = op.end + deadline_slack;
  op.attempt = attempt;
  op.pid = pid;
  queue_.push_back(op);
  return queue_.back();
}

const ChannelOp& PagingChannel::schedule_priority(
    Cycles earliest, Cycles duration, PageNum page, OpKind kind, ProcessId pid,
    std::uint32_t attempt, Cycles deadline_slack) {
  SGXPL_CHECK_MSG(duration > 0, "zero-length channel op");
  SGXPL_DCHECK(!find(page).has_value());
  if (!serial_) {
    return schedule(earliest, duration, page, kind, pid, attempt,
                    deadline_slack);
  }
  // Find the insertion point: after every op already started by `earliest`.
  auto it = queue_.begin();
  Cycles prev_end = 0;
  while (it != queue_.end() && it->start <= earliest) {
    prev_end = it->end;
    ++it;
  }
  ChannelOp op;
  op.id = next_id_++;
  op.page = page;
  op.kind = kind;
  op.start = std::max(earliest, prev_end);
  op.end = op.start + duration;
  op.deadline = op.end + deadline_slack;
  op.attempt = attempt;
  op.pid = pid;
  it = queue_.insert(it, op);
  repack(earliest);
  return *it;
}

AdmissionResult PagingChannel::try_schedule(Cycles earliest, Cycles duration,
                                            PageNum page, OpKind kind,
                                            ProcessId pid,
                                            std::uint32_t attempt,
                                            Cycles deadline_slack,
                                            const ChannelOp** out) {
  if (full()) {
    ++rejected_;
    return AdmissionResult::kRejectedFull;
  }
  const ChannelOp& op =
      schedule(earliest, duration, page, kind, pid, attempt, deadline_slack);
  if (out != nullptr) {
    *out = &op;
  }
  return AdmissionResult::kAdmitted;
}

std::optional<ChannelOp> PagingChannel::shed_newest_preload(Cycles now) {
  for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
    if (it->kind == OpKind::kDfpPreload && it->start > now) {
      const ChannelOp op = *it;
      queue_.erase(std::next(it).base());
      ++shed_;
      if (serial_) {
        repack(now);
      }
      return op;
    }
  }
  return std::nullopt;
}

void PagingChannel::repack(Cycles now) {
  Cycles prev_end = 0;
  for (auto& op : queue_) {
    if (op.start > now) {
      const Cycles dur = op.end - op.start;
      const Cycles slack = op.deadline - op.end;  // deadline rides the end
      op.start = std::max(now, prev_end);
      op.end = op.start + dur;
      op.deadline = op.end + slack;
    }
    prev_end = op.end;
  }
}

std::size_t PagingChannel::queued_preloads_for(ProcessId pid) const noexcept {
  std::size_t n = 0;
  for (const auto& op : queue_) {
    if (op.kind == OpKind::kDfpPreload && op.pid == pid) {
      ++n;
    }
  }
  return n;
}

Cycles PagingChannel::next_free(Cycles earliest) const noexcept {
  if (!serial_ || queue_.empty()) {
    return earliest;
  }
  return std::max(earliest, queue_.back().end);
}

const std::vector<ChannelOp>& PagingChannel::collect_completed(Cycles now) {
  // Guard on queue_.empty() so the hottest path (every clock advance with
  // an idle channel) never pays the span's steady_clock read.
  obs::ScopedSpan span(queue_.empty() ? nullptr : prof_,
                       obs::Phase::kChannelService);
  completed_.clear();
  if (serial_) {
    while (!queue_.empty() && queue_.front().end <= now) {
      completed_.push_back(queue_.front());
      queue_.pop_front();
    }
  } else {
    // Parallel (ablation) mode: completion order is end-time order.
    auto it = queue_.begin();
    while (it != queue_.end()) {
      if (it->end <= now) {
        completed_.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(completed_.begin(), completed_.end(),
              [](const ChannelOp& a, const ChannelOp& b) {
                return a.end < b.end || (a.end == b.end && a.id < b.id);
              });
  }
  return completed_;
}

std::vector<ChannelOp> PagingChannel::abort_not_started(
    Cycles now, std::optional<OpKind> only_kind) {
  std::vector<ChannelOp> aborted;
  auto it = queue_.begin();
  while (it != queue_.end()) {
    const bool not_started = it->start > now;
    const bool kind_matches = !only_kind.has_value() || it->kind == *only_kind;
    if (not_started && kind_matches) {
      aborted.push_back(*it);
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  aborted_ += aborted.size();
  // Close the holes the aborted ops left: surviving not-yet-started ops
  // slide forward (never before `now`, and never into an op in flight).
  if (serial_ && !aborted.empty()) {
    repack(now);
  }
  return aborted;
}

bool PagingChannel::cancel_not_started(PageNum page, Cycles now) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->page == page) {
      if (it->start <= now) {
        return false;  // in flight: non-preemptible
      }
      queue_.erase(it);
      ++aborted_;
      if (serial_) {
        repack(now);
      }
      return true;
    }
  }
  return false;
}

std::optional<ChannelOp> PagingChannel::find(PageNum page) const {
  for (const auto& op : queue_) {
    if (op.page == page) {
      return op;
    }
  }
  return std::nullopt;
}

Cycles PagingChannel::completion_time() const noexcept {
  if (serial_) {
    return queue_.empty() ? 0 : queue_.back().end;
  }
  Cycles end = 0;
  for (const auto& op : queue_) {
    end = std::max(end, op.end);
  }
  return end;
}

void PagingChannel::save(snapshot::Writer& w) const {
  w.boolean("channel.serial", serial_);
  w.u64("channel.max_queued", config_.max_queued);
  w.u64("channel.next_id", next_id_);
  w.u64("channel.aborted", aborted_);
  w.u64("channel.rejected", rejected_);
  w.u64("channel.shed", shed_);
  std::vector<std::uint64_t> ids, pages, kinds, starts, ends, deadlines,
      attempts, pids;
  ids.reserve(queue_.size());
  for (const auto& op : queue_) {
    ids.push_back(op.id);
    pages.push_back(op.page);
    kinds.push_back(static_cast<std::uint64_t>(op.kind));
    starts.push_back(op.start);
    ends.push_back(op.end);
    deadlines.push_back(op.deadline);
    attempts.push_back(op.attempt);
    pids.push_back(op.pid);
  }
  w.u64_vec("channel.op_ids", ids);
  w.u64_vec("channel.op_pages", pages);
  w.u64_vec("channel.op_kinds", kinds);
  w.u64_vec("channel.op_starts", starts);
  w.u64_vec("channel.op_ends", ends);
  w.u64_vec("channel.op_deadlines", deadlines);
  w.u64_vec("channel.op_attempts", attempts);
  w.u64_vec("channel.op_pids", pids);
}

void PagingChannel::load(snapshot::Reader& r) {
  const bool serial = r.boolean("channel.serial");
  SGXPL_CHECK_MSG(serial == serial_,
                  "snapshot channel serial-ness does not match this channel");
  const std::uint64_t max_queued = r.u64("channel.max_queued");
  SGXPL_CHECK_MSG(max_queued == config_.max_queued,
                  "snapshot channel queue bound "
                      << max_queued << " does not match this channel's "
                      << config_.max_queued);
  next_id_ = r.u64("channel.next_id");
  aborted_ = r.u64("channel.aborted");
  rejected_ = r.u64("channel.rejected");
  shed_ = r.u64("channel.shed");
  const std::vector<std::uint64_t> ids = r.u64_vec("channel.op_ids");
  const std::vector<std::uint64_t> pages = r.u64_vec("channel.op_pages");
  const std::vector<std::uint64_t> kinds = r.u64_vec("channel.op_kinds");
  const std::vector<std::uint64_t> starts = r.u64_vec("channel.op_starts");
  const std::vector<std::uint64_t> ends = r.u64_vec("channel.op_ends");
  const std::vector<std::uint64_t> deadlines =
      r.u64_vec("channel.op_deadlines");
  const std::vector<std::uint64_t> attempts = r.u64_vec("channel.op_attempts");
  const std::vector<std::uint64_t> pids = r.u64_vec("channel.op_pids");
  SGXPL_CHECK_MSG(ids.size() == pages.size() && ids.size() == kinds.size() &&
                      ids.size() == starts.size() &&
                      ids.size() == ends.size() &&
                      ids.size() == deadlines.size() &&
                      ids.size() == attempts.size() &&
                      ids.size() == pids.size(),
                  "snapshot channel op columns are misaligned");
  queue_.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    SGXPL_CHECK_MSG(kinds[i] <= static_cast<std::uint64_t>(OpKind::kSipLoad),
                    "snapshot channel op " << ids[i] << " has invalid kind "
                                           << kinds[i]);
    // The serial queue is packed: each op starts once its predecessor has
    // ended, which completion_time() and next_due() rely on.
    SGXPL_CHECK_MSG(starts[i] < ends[i] &&
                        (!serial_ || i == 0 || ends[i - 1] <= starts[i]),
                    "snapshot channel op " << ids[i] << " [" << starts[i]
                                           << ", " << ends[i]
                                           << ") breaks the queue order");
    ChannelOp op;
    op.id = ids[i];
    op.page = pages[i];
    op.kind = static_cast<OpKind>(kinds[i]);
    op.start = starts[i];
    op.end = ends[i];
    op.deadline = deadlines[i];
    op.attempt = static_cast<std::uint32_t>(attempts[i]);
    op.pid = static_cast<ProcessId>(pids[i]);
    queue_.push_back(op);
  }
}

}  // namespace sgxpl::sgxsim
