#include "verify/fsck.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/recovery.hpp"
#include "core/retention.hpp"
#include "io/frame_index.hpp"
#include "io/stable_storage.hpp"

namespace ickpt::verify {

namespace {

// Streams frames one at a time off the iterator, so fsck memory is
// O(largest frame) + O(ids in the final recovery window) — never the whole
// log (io::FrameIterator reads the file in chunks; frames are validated and
// discarded as they pass).
Report fsck_frames(io::FrameIterator& frames,
                   const core::TypeRegistry& registry) {
  Report report;
  report.pass = "fsck";

  // State of the current recovery window (most recent full checkpoint and
  // the incrementals after it). Only the final window feeds recovery, so
  // closure is judged once, at end of log, over that window.
  std::unordered_set<ObjectId> defined;
  std::unordered_map<ObjectId, TypeId> types;
  // child id -> frame seq of the first reference (dedup: one finding per id)
  std::unordered_map<ObjectId, std::int64_t> refs;

  core::StreamHeader last_header;
  bool have_header = false;
  bool have_epoch = false;
  Epoch prev_epoch = 0;
  std::size_t records = 0;
  std::size_t windows = 0;
  std::size_t frame_count = 0;

  io::Frame frame;
  for (bool first = true; frames.next(frame); first = false) {
    ++frame_count;
    const auto seq = static_cast<std::int64_t>(frame.seq);
    const auto at = static_cast<std::int64_t>(frame.offset);

    core::StreamHeader header;
    try {
      header = core::peek_header(frame.payload);
    } catch (const Error& e) {
      Finding finding;
      finding.severity = Severity::kError;
      finding.code = "frame-decode";
      finding.frame_seq = seq;
      finding.byte_offset = at;
      finding.message = e.what();
      report.add(std::move(finding));
      continue;
    }

    if (have_epoch && header.epoch <= prev_epoch) {
      Finding finding;
      finding.severity = Severity::kError;
      finding.code = "epoch-order";
      finding.frame_seq = seq;
      finding.byte_offset = at;
      finding.message = "epoch " + std::to_string(header.epoch) +
                        " does not increase over the preceding frame's epoch " +
                        std::to_string(prev_epoch);
      report.add(std::move(finding));
    }
    prev_epoch = header.epoch;
    have_epoch = true;

    if (first && header.mode != core::Mode::kFull) {
      Finding finding;
      finding.severity = Severity::kWarning;
      finding.code = "chain-start";
      finding.frame_seq = seq;
      finding.byte_offset = at;
      finding.message =
          "chain begins with an incremental checkpoint; objects unmodified "
          "since before this log have no record";
      report.add(std::move(finding));
    }

    if (header.mode == core::Mode::kFull) {
      // A full checkpoint re-records everything reachable: new window.
      defined.clear();
      types.clear();
      refs.clear();
      ++windows;
    }

    std::unordered_set<ObjectId> in_frame;
    core::Recovery scanner(registry, core::Recovery::ApplyMode::kScan);
    scanner.set_record_observer([&](const core::RecordEvent& event) {
      ++records;
      if (!in_frame.insert(event.id).second) {
        Finding finding;
        finding.severity = Severity::kWarning;
        finding.code = "dup-record";
        finding.frame_seq = seq;
        finding.byte_offset = at;
        finding.object_id = event.id;
        finding.message = "object " + std::to_string(event.id) +
                          " recorded twice within one frame (unguarded "
                          "shared subobject?); recovery keeps the last "
                          "record";
        report.add(std::move(finding));
      }
      auto [it, inserted] = types.emplace(event.id, event.type);
      if (!inserted && it->second != event.type) {
        Finding finding;
        finding.severity = Severity::kError;
        finding.code = "type-change";
        finding.frame_seq = seq;
        finding.byte_offset = at;
        finding.object_id = event.id;
        finding.message = "object " + std::to_string(event.id) +
                          " changes type (" + std::to_string(it->second) +
                          " -> " + std::to_string(event.type) +
                          ") within one recovery window";
        report.add(std::move(finding));
      }
      defined.insert(event.id);
      for (ObjectId child : event.children) refs.emplace(child, seq);
    });

    try {
      io::DataReader reader(frame.payload);
      header = scanner.apply(reader);
      last_header = header;
      have_header = true;
    } catch (const Error& e) {
      Finding finding;
      finding.severity = Severity::kError;
      finding.code = "frame-decode";
      finding.frame_seq = seq;
      finding.byte_offset = at;
      finding.message = e.what();
      report.add(std::move(finding));
    }
  }

  if (!frames.clean()) {
    Finding finding;
    finding.severity = Severity::kError;
    finding.code = "log-tail";
    finding.byte_offset = static_cast<std::int64_t>(frames.stop_offset());
    finding.message = "log damaged after " + std::to_string(frame_count) +
                      " valid frame(s): " + frames.stop_reason() +
                      " at byte " + std::to_string(frames.stop_offset());
    report.add(std::move(finding));
  }

  // Referential closure of the final recovery window.
  for (const auto& [child, seq] : refs) {
    if (defined.count(child) != 0) continue;
    Finding finding;
    finding.severity = Severity::kError;
    finding.code = "dangling-child";
    finding.frame_seq = seq;
    finding.object_id = child;
    finding.message = "child reference to object " + std::to_string(child) +
                      " which no record in the recovery window defines; "
                      "recovery would fail to link it";
    report.add(std::move(finding));
  }
  if (have_header) {
    for (ObjectId root : last_header.roots) {
      if (root == kNullObjectId || defined.count(root) != 0) continue;
      Finding finding;
      finding.severity = Severity::kError;
      finding.code = "missing-root";
      finding.object_id = root;
      finding.message = "header names root object " + std::to_string(root) +
                        " but no record in the recovery window defines it";
      report.add(std::move(finding));
    }
  }

  std::ostringstream summary;
  summary << frame_count << " frame(s), " << records << " record(s), "
          << windows << " full-checkpoint window(s)";
  report.summary = summary.str();
  return report;
}

/// Retention audit: when a `<log>.retain` manifest declares what a policy
/// compaction kept, the log must honor the declaration exactly. An epoch on
/// the log (at or below the declared newest) that the manifest does not
/// declare is a half-applied policy — damage, not tidiness; a declared
/// epoch missing from the log is lost history; a declared epoch off the
/// binomial schedule means the manifest itself lies. Epochs *above* the
/// declared newest are ordinary post-compaction appends and exempt.
void audit_retention(Report& report, const std::string& path) {
  std::optional<core::RetentionManifest> manifest;
  try {
    manifest = core::RetentionManifest::load(path);
  } catch (const CorruptionError& e) {
    Finding finding;
    finding.severity = Severity::kError;
    finding.code = "retention-policy";
    finding.message = e.what();
    report.add(std::move(finding));
    return;
  }
  if (!manifest.has_value()) return;  // never policy-compacted: nothing due

  const io::FrameIndex index =
      io::index_frames(path, {.salvage = true}, core::stream_header_probe());

  for (const io::IndexedFrame& f : index.frames) {
    if (!f.header_ok || f.epoch > manifest->newest) continue;
    if (manifest->declares(f.epoch)) continue;
    Finding finding;
    finding.severity = Severity::kError;
    finding.code = "retention-undeclared";
    finding.frame_seq = static_cast<std::int64_t>(f.seq);
    finding.byte_offset = static_cast<std::int64_t>(f.offset);
    finding.message =
        "epoch " + std::to_string(f.epoch) +
        " is on the log but absent from the declared retention schedule "
        "(newest " +
        std::to_string(manifest->newest) +
        "); a half-applied policy compaction left undeclared history";
    report.add(std::move(finding));
  }

  for (Epoch e : manifest->epochs) {
    if (!core::RetentionPolicy::retained(e, manifest->newest)) {
      Finding finding;
      finding.severity = Severity::kError;
      finding.code = "retention-policy";
      finding.message = "manifest declares epoch " + std::to_string(e) +
                        " which is not on the binomial schedule for newest "
                        "epoch " +
                        std::to_string(manifest->newest);
      report.add(std::move(finding));
    }
    const std::optional<std::size_t> at = index.find_epoch(e);
    if (!at.has_value()) {
      Finding finding;
      finding.severity = Severity::kError;
      finding.code = "retention-missing";
      finding.message = "declared retained epoch " + std::to_string(e) +
                        " has no parseable frame on the log; retained "
                        "history was lost";
      report.add(std::move(finding));
      continue;
    }
    // Reachability: the epoch's frame must be a full checkpoint, or sit in
    // an unbroken run of parseable frames below an anchoring full — the
    // exact window recover_to_epoch would replay.
    bool reachable = false;
    for (std::size_t j = *at + 1; j-- > 0;) {
      const io::IndexedFrame& f = index.frames[j];
      if (!f.header_ok) break;  // undecodable frame breaks the replay window
      if (static_cast<core::Mode>(f.mode) == core::Mode::kFull) {
        reachable = true;
        break;
      }
      if (f.resync) break;  // a corrupt gap precedes: deltas may be missing
    }
    if (!reachable) {
      Finding finding;
      finding.severity = Severity::kError;
      finding.code = "retention-unreachable";
      finding.frame_seq =
          static_cast<std::int64_t>(index.frames[*at].seq);
      finding.message =
          "declared retained epoch " + std::to_string(e) +
          " is on the log but no undamaged full-checkpoint window reaches "
          "it; recover --epoch " +
          std::to_string(e) + " would fail";
      report.add(std::move(finding));
    }
  }
}

}  // namespace

Report fsck_log(const std::string& path, const core::TypeRegistry& registry) {
  io::FrameIterator frames(path);
  Report report = fsck_frames(frames, registry);
  audit_retention(report, path);
  return report;
}

Report fsck_bytes(const std::vector<std::uint8_t>& bytes,
                  const core::TypeRegistry& registry) {
  io::FrameIterator frames(bytes.data(), bytes.size());
  return fsck_frames(frames, registry);
}

namespace {

/// Structural pass over one generation: epochs and full-checkpoint layout
/// from its salvage index (tolerant — quarantined generations are damaged
/// by definition and still need summarizing).
GenerationSummary summarize_generation(const std::string& path, bool live) {
  GenerationSummary summary;
  summary.path = path;
  summary.live = live;
  const io::FrameIndex index =
      io::index_frames(path, {.salvage = true}, core::stream_header_probe());
  summary.frames = index.frames.size();
  summary.scan_clean = index.clean;
  bool first = true;
  for (const io::IndexedFrame& f : index.frames) {
    // An undecodable payload is counted as a frame but is invisible to the
    // epoch range; fsck_log reports it in detail.
    if (!f.header_ok) continue;
    const bool full = static_cast<core::Mode>(f.mode) == core::Mode::kFull;
    if (first) {
      summary.first_epoch = f.epoch;
      summary.starts_full = full;
      first = false;
    }
    summary.last_epoch = f.epoch;
    summary.has_full = summary.has_full || full;
  }
  return summary;
}

}  // namespace

ChainReport fsck_chain(const std::string& path,
                       const core::TypeRegistry& registry) {
  ChainReport chain;
  chain.report.pass = "fsck-chain";

  // Oldest first: quarantine slots ascending, live log last.
  std::vector<std::string> files = io::StableStorage::generation_chain(path);
  std::reverse(files.begin(), files.end());
  files.push_back(path);

  for (const std::string& file : files) {
    const bool live = file == path;
    chain.generations.push_back(summarize_generation(file, live));
    Report sub = fsck_log(file, registry);
    for (Finding finding : sub.findings) {
      finding.message = file + ": " + finding.message;
      chain.report.add(std::move(finding));
    }
  }

  // Chain-level invariants across non-empty generations.
  const GenerationSummary* prev = nullptr;
  for (const GenerationSummary& gen : chain.generations) {
    if (gen.frames == 0) {
      Finding finding;
      finding.severity = Severity::kNote;
      finding.code = "generation-empty";
      finding.message =
          gen.path + ": empty generation (a crash between quarantine rename "
                     "and rebase leaves this; recovery falls back past it)";
      chain.report.add(std::move(finding));
      continue;
    }
    if (prev != nullptr) {
      if (gen.first_epoch <= prev->last_epoch) {
        Finding finding;
        finding.severity = Severity::kError;
        finding.code = "generation-order";
        finding.message =
            gen.path + ": epoch range [" + std::to_string(gen.first_epoch) +
            ", " + std::to_string(gen.last_epoch) + "] does not follow " +
            prev->path + " (ends at epoch " +
            std::to_string(prev->last_epoch) +
            "); generations must partition the epoch line";
        chain.report.add(std::move(finding));
      }
      if (!gen.starts_full) {
        Finding finding;
        finding.severity = Severity::kError;
        finding.code = "generation-rebase";
        finding.message =
            gen.path + ": generation does not begin with a full checkpoint; "
                       "its incremental chain spans the rotation from " +
            prev->path + " and cannot be replayed from this file alone";
        chain.report.add(std::move(finding));
      }
    }
    prev = &gen;
  }

  std::ostringstream summary;
  std::size_t frames = 0;
  for (const GenerationSummary& gen : chain.generations)
    frames += gen.frames;
  summary << chain.generations.size() << " generation(s), " << frames
          << " frame(s) on the chain";
  chain.report.summary = summary.str();
  return chain;
}

std::string ChainReport::to_string() const {
  std::ostringstream out;
  out << "generation chain (" << generations.size() << " file(s)):\n";
  for (const GenerationSummary& gen : generations) {
    out << "  [" << (gen.live ? "live" : "quarantine") << "] " << gen.path
        << ": " << gen.frames << " frame(s)";
    if (gen.frames > 0) {
      out << ", epochs " << gen.first_epoch << ".." << gen.last_epoch
          << (gen.starts_full ? ", starts full" : ", starts incremental")
          << (gen.has_full ? "" : ", no full checkpoint");
    }
    out << (gen.scan_clean ? "" : ", damaged") << "\n";
  }
  out << report.to_string();
  return out.str();
}

}  // namespace ickpt::verify
