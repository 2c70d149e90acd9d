#include "core/log_ops.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/manager.hpp"
#include "core/parallel_checkpoint.hpp"
#include "core/recovery_note.hpp"
#include "core/retention.hpp"
#include "io/byte_sink.hpp"
#include "io/data_writer.hpp"
#include "io/file_io.hpp"
#include "io/stable_storage.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ickpt::core {

namespace {

std::string not_retained_message(const std::string& path, Epoch target,
                                 std::optional<Epoch> below,
                                 std::optional<Epoch> above) {
  std::string msg = "epoch " + std::to_string(target) +
                    " is not retained on '" + path + "'";
  if (below.has_value() && above.has_value()) {
    msg += "; nearest retained epochs: " + std::to_string(*below) +
           " (below) and " + std::to_string(*above) + " (above)";
  } else if (below.has_value()) {
    msg += "; nearest retained epoch: " + std::to_string(*below) +
           " (below), none above";
  } else if (above.has_value()) {
    msg += "; nearest retained epoch: " + std::to_string(*above) +
           " (above), none below";
  } else {
    msg += "; the log holds no parseable epochs at all";
  }
  return msg + " — run `ickptctl history` for the full retained set";
}

/// Salvage-index the log without materializing payloads. Holding a few
/// dozen bytes per frame instead of payloads is what bounds recovery memory
/// by the largest frame rather than the log size.
io::FrameIndex index_log(const std::string& path) {
  return io::index_frames(path, {.salvage = true}, stream_header_probe());
}

/// A frame that can anchor a window: its stream header parsed as full.
bool is_full(const io::IndexedFrame& f) {
  return f.header_ok && static_cast<Mode>(f.mode) == Mode::kFull;
}

/// Replay frames [begin, end) of the indexed log at `path` into a fresh
/// Recovery. Each attempt opens the log at the window's full checkpoint —
/// the offset the index recorded; a window never crosses a salvage resync,
/// so that is a valid frame boundary — and decodes one payload at a time.
/// Every frame still passes the iterator's magic and CRC tests and must be
/// the frame the index recorded at that position. On a decode failure
/// *after* the full checkpoint, trims the window at the failing frame and
/// replays — the surviving prefix is still consistent (recovery applies
/// frames in order, so frames before the bad one are unaffected by it).
/// Returns false when the full checkpoint itself is undecodable. Trims are
/// collected into `note`; `records` receives the record count of the
/// finally-applied window; `passes` counts the log opens.
bool apply_window(const std::string& path, const io::FrameIndex& index,
                  std::size_t begin, std::size_t end_limit,
                  const TypeRegistry& registry, RecoveredState& out,
                  std::size_t& applied, RecoveryNote& note,
                  std::size_t& records, std::size_t& passes) {
  std::size_t end = end_limit;
  while (end > begin) {
    Recovery recovery(registry);
    std::size_t at = begin;
    std::string what;
    bool failed = false;
    {
      io::FrameIterator it(path, {}, index.frames[begin].offset);
      ++passes;
      io::Frame frame;
      for (; at < end; ++at) {
        const io::IndexedFrame& want = index.frames[at];
        if (!it.next(frame) || frame.offset != want.offset ||
            frame.seq != want.seq)
          throw CorruptionError("log '" + path +
                                "' changed while recovering from it: frame "
                                "seq " +
                                std::to_string(want.seq) + " at byte " +
                                std::to_string(want.offset) +
                                " no longer reads back");
        try {
          io::DataReader reader(frame.payload);
          recovery.apply(reader);
        } catch (const Error& e) {
          failed = true;
          what = e.what();
          break;
        }
      }
    }
    if (!failed) {
      try {
        out = recovery.finish();
        applied = end - begin;
        records = recovery.records_applied();
        return true;
      } catch (const Error& e) {
        // A dangling link etc. — dropping the last frame may close the
        // window again.
        failed = true;
        what = e.what();
        at = end - 1;
      }
    }
    if (at == begin) return false;
    note.trims.push_back(
        RecoveryNote::Trim{index.frames[at].seq, what, end_limit - at});
    end = at;
  }
  return false;
}

/// Recover from one log file (no generation walking): the newest usable
/// state, or with `target` the state as of exactly that epoch (time
/// travel). recover_chain wraps this with the fall-back across quarantined
/// generations. `shared`, when given, is index_log(path): compaction builds
/// it once for all its recoveries. Otherwise this builds its own.
/// `anchor_bytes`, when given, receives the payload size of the full
/// checkpoint the recovered window starts at.
RecoverResult recover_one(const std::string& path,
                          const TypeRegistry& registry,
                          std::optional<Epoch> target,
                          const io::FrameIndex* shared,
                          std::size_t* anchor_bytes = nullptr) {
  obs::Span span("checkpoint.recover", "recovery");

  // Pass 1: index the log without materializing payloads.
  io::FrameIndex own;
  if (shared == nullptr) own = index_log(path);
  const io::FrameIndex& index = shared != nullptr ? *shared : own;
  std::size_t passes = shared != nullptr ? 0 : 1;

  // Time-travel: locate the newest parseable frame carrying the target
  // epoch. Its absence is an EpochNotRetainedError naming the nearest
  // parseable neighbors — never a silent fall-forward to different state.
  std::optional<std::size_t> target_at;
  if (target.has_value()) {
    target_at = index.find_epoch(*target);
    if (!target_at.has_value())
      throw EpochNotRetainedError(path, *target, index.nearest_below(*target),
                                  index.nearest_above(*target));
  }
  if (index.frames.empty())
    throw CorruptionError("no recoverable checkpoint in '" + path + "'" +
                          (index.clean ? "" : " (" + index.stop_reason + ")"));

  RecoverResult result;
  result.recovered_path = path;
  result.log_clean = index.clean;
  result.frames_total = index.frames.size();
  result.corrupt_regions = index.regions_skipped;
  result.bytes_skipped = index.bytes_skipped;
  result.damage_offset = index.stop_offset;

  RecoveryNote note;
  if (!index.clean) {
    note.stop_reason = index.stop_reason;
    note.damage_offset = index.stop_offset;
    note.regions_skipped = index.regions_skipped;
    note.bytes_skipped = index.bytes_skipped;
    obs::instant("recover.salvage", "recovery",
                 index.stop_reason + " at byte " +
                     std::to_string(index.stop_offset) + ", " +
                     std::to_string(index.regions_skipped) +
                     " region(s) skipped");
  }

  // Contiguous runs of frames: a corrupt region (resync frame) starts a new
  // segment. Incrementals can only be applied onto a full checkpoint from
  // the *same* segment — across a gap, deltas may be missing.
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 1; i < index.frames.size(); ++i)
    if (index.frames[i].resync) starts.push_back(i);
  starts.push_back(index.frames.size());

  // Candidate ranges [segment begin, window end), newest first. Time travel
  // has one: the target's segment, ending right after the target's frame.
  // Otherwise the newest usable window wins: every segment from the back,
  // each ending at the segment's end.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  if (target_at.has_value()) {
    const auto seg = std::upper_bound(starts.begin(), starts.end(), *target_at);
    ranges.emplace_back(*std::prev(seg), *target_at + 1);
  } else {
    for (std::size_t s = starts.size() - 1; s-- > 0;)
      ranges.emplace_back(starts[s], starts[s + 1]);
  }

  // Inside a range, prefer the latest full checkpoint. Pass 2..n: each
  // candidate window opens the log at its full checkpoint (frame payloads
  // decoded one at a time).
  bool recovered = false;
  bool saw_empty_window = false;
  std::size_t records_applied = 0;
  for (const auto& [seg_begin, end_limit] : ranges) {
    for (std::size_t i = end_limit; i-- > seg_begin && !recovered;) {
      if (!is_full(index.frames[i])) continue;
      std::size_t applied = 0;
      obs::Span apply_span("recover.apply_window", "recovery");
      if (!apply_window(path, index, i, end_limit, registry, result.state,
                        applied, note, records_applied, passes))
        continue;
      // The window's frames may decode but hold no object records (e.g. a
      // bare stream header): never return an empty graph as recovered
      // state. And apply_window trims damaged tails; a trimmed window no
      // longer reaches a time-travel target, and time travel must never
      // report success with a different epoch's state.
      const bool empty =
          result.state.by_id.empty() && result.state.roots.empty();
      if (empty || (target.has_value() && result.state.epoch != *target)) {
        saw_empty_window = saw_empty_window || empty;
        result.state = RecoveredState{};
        continue;
      }
      result.checkpoints_applied = applied;
      if (anchor_bytes != nullptr) *anchor_bytes = index.frames[i].payload_bytes;
      recovered = true;
    }
    if (recovered) break;
  }
  result.stream_passes = passes;
  if (!recovered) {
    if (target_at.has_value())
      throw CorruptionError(
          "epoch " + std::to_string(*target) + " is on log '" + path +
          "' but no undamaged window reaches it (its full-checkpoint anchor "
          "or an intervening delta is unreadable)");
    if (saw_empty_window)
      throw CorruptionError(
          "log '" + path +
          "' contains only empty checkpoint frames (stream headers with no "
          "object records) — nothing to recover; restore the log or recover "
          "from an older generation");
    throw CorruptionError("log '" + path +
                          "' contains no usable full checkpoint" +
                          (index.clean ? "" : " (" + index.stop_reason + ")"));
  }

  result.frames_dropped = result.frames_total - result.checkpoints_applied;
  note.frames_outside_window = result.frames_dropped;
  result.log_note = note.render();

  obs::counter("ickpt_recoveries_total",
               {{"log", index.clean ? "clean" : "damaged"}})
      .inc();
  // Deltas replayed on top of the window's full-checkpoint anchor. For
  // time-travel recoveries this is the quantity RetentionPolicy bounds
  // (strictly below 2*granularity(age)); for newest-state recoveries it
  // tracks full_interval. Cold path, per-call lookup.
  if (result.checkpoints_applied > 0)
    obs::histogram("ickpt_recover_replay_depth")
        .observe(static_cast<double>(result.checkpoints_applied - 1));
  obs::counter("ickpt_recover_frames_total", {{"result", "applied"}})
      .inc(result.checkpoints_applied);
  obs::counter("ickpt_recover_frames_total", {{"result", "dropped"}})
      .inc(result.frames_dropped);
  obs::counter("ickpt_recover_records_total").inc(records_applied);
  if (result.corrupt_regions > 0) {
    obs::counter("ickpt_recover_salvage_regions_total")
        .inc(result.corrupt_regions);
    obs::counter("ickpt_recover_salvage_bytes_total")
        .inc(result.bytes_skipped);
  }
  if (span.active())
    span.note(std::to_string(result.checkpoints_applied) +
              " checkpoint(s) applied, " +
              std::to_string(result.state.by_id.size()) + " object(s); " +
              note.trace_note());
  return result;
}

/// recover_one over the generation chain of `path`: the live log first,
/// then — when it yields nothing usable — the quarantined generations
/// rotation left behind, newest first.
RecoverResult recover_chain(const std::string& path,
                            const TypeRegistry& registry,
                            std::optional<Epoch> target) {
  // Neighbor knowledge accumulated across the chain while a target epoch is
  // being hunted: the best lower neighbor is the max over files, the best
  // upper the min — so the final EpochNotRetainedError names the tightest
  // bracket any file can offer.
  std::optional<Epoch> below;
  std::optional<Epoch> above;
  bool target_found_damaged = false;
  std::exception_ptr damaged_failure;
  auto note_failure = [&](const CorruptionError& e) {
    if (const auto* missing = dynamic_cast<const EpochNotRetainedError*>(&e)) {
      if (missing->below() && (!below || *missing->below() > *below))
        below = missing->below();
      if (missing->above() && (!above || *missing->above() < *above))
        above = missing->above();
    } else if (target.has_value()) {
      // The file carried the target but its window is damaged: if nothing
      // recovers, report the damage, not "not retained".
      target_found_damaged = true;
      damaged_failure = std::current_exception();
    }
  };
  std::exception_ptr live_failure;
  std::string live_error;
  try {
    return recover_one(path, registry, target, nullptr);
  } catch (const CorruptionError& e) {
    note_failure(e);
    live_failure = std::current_exception();
    live_error = e.what();
  }
  // The live log yielded nothing usable. Rotation preserves damaged
  // generations as `<path>.quarantine.<n>`; walk them newest first — the
  // newest one that still holds a usable full window wins.
  const std::vector<std::string> chain =
      io::StableStorage::generation_chain(path);
  std::size_t tried = 1;
  for (const std::string& gen : chain) {
    ++tried;
    try {
      RecoverResult result = recover_one(gen, registry, target, nullptr);
      result.recovered_path = gen;
      result.generations_tried = tried;
      result.log_clean = false;  // the chain as a whole carried damage
      result.log_note = "live log unusable (" + live_error +
                        "); recovered from quarantined generation '" + gen +
                        "'" +
                        (result.log_note.empty() ? ""
                                                 : "; " + result.log_note);
      obs::counter("ickpt_recover_generation_fallbacks_total").inc();
      obs::instant("recover.generation_fallback", "recovery", gen);
      return result;
    } catch (const CorruptionError& e) {
      // Fall through to the next (older) generation.
      note_failure(e);
    }
  }
  if (target.has_value()) {
    // The whole chain was consulted. Damage outranks absence: a file that
    // held the target but could not replay it is the actionable failure.
    if (target_found_damaged) std::rethrow_exception(damaged_failure);
    throw EpochNotRetainedError(path, *target, below, above);
  }
  if (chain.empty()) std::rethrow_exception(live_failure);
  throw CorruptionError(
      "no recoverable checkpoint on the generation chain of '" + path +
      "' (" + std::to_string(tried) + " file(s) tried; live log: " +
      live_error + ")");
}

/// Serialize `state` as one full-checkpoint payload carrying its epoch into
/// `sink`, sharded like a full take: full_capture_threads_for the size of
/// the full frame the state was recovered from, which a rewrite of the same
/// state closely matches. The stream is the serial walk's byte for byte.
void full_payload_of(RecoveredState& state, std::size_t anchor_bytes,
                     io::ChunkSink& sink) {
  std::vector<Checkpointable*> roots;
  roots.reserve(state.roots.size());
  for (ObjectId id : state.roots) {
    Checkpointable* obj = state.find(id);
    if (obj == nullptr)
      throw CorruptionError("compaction: root vanished during recovery");
    roots.push_back(obj);
  }
  sink.clear();
  ParallelOptions popts;
  popts.mode = Mode::kFull;
  popts.threads = full_capture_threads_for(anchor_bytes);
  ParallelCheckpoint::run(sink, state.epoch, roots, popts);
}

}  // namespace

EpochNotRetainedError::EpochNotRetainedError(const std::string& path,
                                             Epoch target,
                                             std::optional<Epoch> below,
                                             std::optional<Epoch> above)
    : CorruptionError(not_retained_message(path, target, below, above)),
      target_(target),
      below_(below),
      above_(above) {}

RecoverResult CheckpointManager::recover(const std::string& path,
                                         const TypeRegistry& registry) {
  return recover_chain(path, registry, std::nullopt);
}

RecoverResult CheckpointManager::recover_to_epoch(const std::string& path,
                                                  const TypeRegistry& registry,
                                                  Epoch target) {
  return recover_chain(path, registry, target);
}

std::vector<HistoryEntry> CheckpointManager::history(const std::string& path) {
  std::vector<HistoryEntry> out;
  auto list_file = [&out](const std::string& file, bool live) {
    const io::FrameIndex index = index_log(file);
    // Newest frame per epoch within a file wins (a rebase can rewrite an
    // epoch); walk backwards and keep first-seen.
    std::unordered_set<Epoch> seen;
    for (std::size_t i = index.frames.size(); i-- > 0;) {
      const io::IndexedFrame& f = index.frames[i];
      if (!f.header_ok || !seen.insert(f.epoch).second) continue;
      HistoryEntry entry;
      entry.epoch = f.epoch;
      entry.mode = static_cast<Mode>(f.mode);
      entry.seq = f.seq;
      entry.bytes = f.payload_bytes;
      entry.file = file;
      entry.live = live;
      entry.resync = f.resync;
      out.push_back(entry);
    }
  };
  list_file(path, true);
  for (const std::string& gen : io::StableStorage::generation_chain(path))
    list_file(gen, false);
  std::stable_sort(out.begin(), out.end(),
                   [](const HistoryEntry& a, const HistoryEntry& b) {
                     if (a.epoch != b.epoch) return a.epoch < b.epoch;
                     return a.live && !b.live;
                   });
  return out;
}

CompactResult CheckpointManager::compact(const std::string& path,
                                         const TypeRegistry& registry,
                                         CompactOptions opts) {
  obs::Span span("checkpoint.compact", "checkpoint");
  const bool binomial = opts.policy == CompactPolicy::kBinomial;
  obs::Histogram compact_seconds = obs::histogram("ickpt_compact_seconds");
  const bool timed = compact_seconds.live();
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();

  CompactResult result;
  result.bytes_before = io::file_size(path);

  // Only the live log is read and rewritten — quarantined generations are
  // post-mortem artifacts, never a source of compacted state. This one
  // index serves every kept state's recovery below, each of which opens the
  // log at its own window.
  const io::FrameIndex index = index_log(path);
  // What to keep. Squash: the newest usable state (no target) — exactly
  // what recover() replays from this file. Binomial: the schedule's epochs
  // that are actually here.
  std::vector<std::optional<Epoch>> keep{std::nullopt};
  Epoch newest = 0;
  if (binomial) {
    const std::vector<Epoch> present = index.epochs();
    if (present.empty())
      throw CorruptionError("no parseable epochs on '" + path +
                            "' to retain");
    newest = present.back();
    keep.clear();
    for (Epoch e : RetentionPolicy::schedule(newest)) {
      if (std::binary_search(present.begin(), present.end(), e))
        keep.emplace_back(e);
    }
  }

  // The replacement log is built in a sibling file and atomically published
  // over the original: temp write + fsync + rename + directory fsync. A
  // crash anywhere before the rename loses only the compaction; the
  // original log is not touched until then (recovery reads it while the
  // replacement grows).
  const std::string tmp_path = path + ".compact";
  std::remove(tmp_path.c_str());  // stale leftover of a crashed compaction
  try {
    io::StableStorage fresh(tmp_path,
                            io::StorageOptions{.durable = true,
                                               .fault = opts.fault});
    // The rewrite's chunks: mapped on the first kept state, reused by the
    // next, unmapped when the compaction returns.
    io::ChunkPool pool;
    io::ChunkSink payload(pool);
    // Materialize each kept state as a full frame with seq == epoch: every
    // retained epoch then recovers in one frame, and epoch numbering
    // (epoch_ = next_seq()) resumes correctly past the rewrite. Oldest
    // first, one recovered state in memory at a time.
    for (const std::optional<Epoch>& target : keep) {
      RecoveredState state;
      std::size_t anchor_bytes = 0;
      try {
        state = recover_one(path, registry, target, &index, &anchor_bytes)
                    .state;
      } catch (const CorruptionError&) {
        // A squash has nothing else to keep. A scheduled epoch whose window
        // is damaged cannot be carried forward; drop it rather than fail
        // the whole compaction.
        if (!binomial) throw;
        ++result.epochs_dropped;
        continue;
      }
      full_payload_of(state, anchor_bytes, payload);
      result.objects = state.by_id.size();  // newest survives the loop
      result.bytes_after = payload.size();  // kBinomial: file size, below
      fresh.set_next_seq(state.epoch);
      fresh.append(payload.ranges());
      result.retained.push_back(state.epoch);
    }
    if (result.retained.empty())
      throw CorruptionError("policy compaction of '" + path +
                            "': no scheduled epoch is recoverable");
  } catch (const CorruptionError&) {
    // Nothing to keep: the log stays as it was, and so does the directory.
    // A CrashFault is no CorruptionError and leaves the file, as a real
    // crash would.
    std::remove(tmp_path.c_str());
    throw;
  }
  io::rename_durable(tmp_path, path);
  if (binomial) {
    result.bytes_after = io::file_size(path);
    // Declare what was kept. Published after the log so a crash between the
    // two leaves a *stale* manifest — safe by schedule monotonicity (a
    // newer schedule only drops epochs the stale one already declared), and
    // exactly what fsck's retention audit checks for.
    RetentionManifest manifest;
    manifest.newest = newest;
    manifest.epochs = result.retained;
    manifest.save(path);
    obs::gauge("ickpt_retained_epochs")
        .set(static_cast<std::int64_t>(result.retained.size()));
  } else {
    // A squashed log has no history; a leftover declaration would make
    // fsck audit the fresh single-frame log against a dead schedule.
    RetentionManifest::remove(path);
  }
  obs::counter("ickpt_compacts_total",
               {{"policy", binomial ? "binomial" : "squash"}})
      .inc();
  if (timed)
    compact_seconds.observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  if (span.active())
    span.note(std::to_string(result.objects) + " object(s), " +
              std::to_string(result.bytes_before) + " -> " +
              std::to_string(result.bytes_after) + " byte(s), " +
              std::to_string(result.retained.size()) +
              " epoch(s) retained");
  return result;
}

LogReport inspect_log(const std::string& path, const TypeRegistry& registry) {
  io::FrameIterator it(path);
  LogReport report;

  // One Recovery accumulates objects across frames so incremental records
  // type-check against their earlier definitions, exactly as real recovery
  // would; finish() is never called.
  Recovery recovery(registry);
  io::Frame frame;
  while (it.next(frame)) {
    ApplyStats stats;
    io::DataReader reader(frame.payload);
    StreamHeader header = recovery.apply(reader, &stats);
    FrameInfo info;
    info.seq = frame.seq;
    info.epoch = header.epoch;
    info.mode = header.mode;
    info.bytes = frame.payload.size();
    info.records = stats.records;
    for (const auto& [type, count] : stats.records_by_type)
      info.records_by_type.emplace_back(registry.lookup(type).name, count);
    std::sort(info.records_by_type.begin(), info.records_by_type.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    report.total_bytes += info.bytes;
    report.frames.push_back(std::move(info));
  }
  report.clean = it.clean();
  report.note = it.stop_reason();
  return report;
}

std::string LogReport::to_string() const {
  std::ostringstream out;
  out << frames.size() << " checkpoint(s), " << total_bytes << " bytes"
      << (clean ? "" : " (log tail dropped: " + note + ")") << "\n";
  for (const FrameInfo& frame : frames) {
    out << "  seq " << frame.seq << " epoch " << frame.epoch << " "
        << (frame.mode == Mode::kFull ? "full" : "incr") << " "
        << frame.bytes << "B " << frame.records << " records";
    if (!frame.records_by_type.empty()) {
      out << " [";
      for (std::size_t i = 0; i < frame.records_by_type.size(); ++i) {
        if (i != 0) out << ", ";
        out << frame.records_by_type[i].first << ":"
            << frame.records_by_type[i].second;
      }
      out << "]";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace ickpt::core
