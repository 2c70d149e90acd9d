// Recovery: rebuild an object graph from a full checkpoint plus the
// incremental deltas that follow it.
//
// Records are applied in stream order with last-writer-wins semantics per
// ObjectId: the full checkpoint materializes every object, and each
// incremental checkpoint overwrites the local state of the objects it
// contains (and materializes objects created since the previous checkpoint).
// Child references, recorded as ids, are resolved in a final pass once every
// object exists, so forward references inside a checkpoint are fine. That
// pass replays the links in stream order, so the newest record of each slot
// wins — a link a later delta cleared stays cleared.
//
// Memory while replaying is the objects themselves, one IdTable over them
// and one 24-byte fixup per queued link; finish() frees the fixups and
// hands the table and the objects over without copying either.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/error.hpp"
#include "core/checkpoint_format.hpp"
#include "core/checkpointable.hpp"
#include "core/id_table.hpp"
#include "core/type_registry.hpp"
#include "io/data_reader.hpp"
#include "io/frame_index.hpp"

namespace ickpt::core {

/// Everything recovery produces: an owning heap (objects in the order the
/// stream first recorded them), the id index, and the roots named by the
/// most recent checkpoint header.
struct RecoveredState {
  Heap heap;
  IdTable by_id;
  std::vector<ObjectId> roots;
  Epoch epoch = 0;

  [[nodiscard]] Checkpointable* find(ObjectId id) const {
    return by_id.find(id);
  }

  /// Drop every object not reachable from the roots (the "objects awaiting
  /// garbage collection" the paper notes can bloat checkpoints: an
  /// incremental chain happily carries records of objects the program has
  /// since unlinked). Returns the number of objects discarded.
  std::size_t prune_unreachable();

  /// Typed access to the i-th root. Throws TypeError on a type mismatch and
  /// CorruptionError if the root is missing.
  template <class T>
  [[nodiscard]] T* root_as(std::size_t i = 0) const {
    if (i >= roots.size())
      throw CorruptionError("checkpoint names no root #" + std::to_string(i));
    Checkpointable* obj = find(roots[i]);
    if (obj == nullptr)
      throw CorruptionError("root object " + std::to_string(roots[i]) +
                            " absent from recovered heap");
    T* typed = dynamic_cast<T*>(obj);
    if (typed == nullptr)
      throw TypeError("root object " + std::to_string(roots[i]) +
                      " has unexpected dynamic type");
    return typed;
  }
};

/// Header of one applied checkpoint payload.
struct StreamHeader {
  Mode mode = Mode::kFull;
  Epoch epoch = 0;
  std::vector<ObjectId> roots;
};

/// Parse just the header of a checkpoint payload (cheap; used to locate the
/// most recent full checkpoint in a log without decoding records).
StreamHeader peek_header(const std::vector<std::uint8_t>& payload);

/// The adapter that lets the storage layer's epoch-addressed frame index
/// (io::index_frames) read stream headers without knowing the checkpoint
/// format. It asks for the header's fixed fields only — magic, version,
/// mode and epoch — and accepts a payload whose fixed fields parse; the
/// list of roots is checked when the frame is applied, like every record.
io::HeaderProbe stream_header_probe();

/// Per-checkpoint record statistics (filled by Recovery::apply on request;
/// the basis of the log-inspection tooling).
struct ApplyStats {
  std::size_t records = 0;
  std::unordered_map<TypeId, std::size_t> records_by_type;
};

/// One record's facts as surfaced by a scan-mode apply (verify::fsck): the
/// record's type and id plus every non-null child id its payload references.
struct RecordEvent {
  TypeId type = 0;
  ObjectId id = kNullObjectId;
  std::vector<ObjectId> children;
};

class Recovery {
 public:
  /// kMaterialize (the default) accumulates the object graph across applied
  /// checkpoints — normal recovery. kScan validates the same byte streams
  /// without materializing a graph: each record is parsed through a
  /// transient factory instance that is discarded immediately (O(1) live
  /// objects regardless of log size) and reported to the record observer;
  /// finish() is invalid.
  enum class ApplyMode : std::uint8_t { kMaterialize, kScan };

  using RecordObserver = std::function<void(const RecordEvent&)>;

  explicit Recovery(const TypeRegistry& registry,
                    ApplyMode mode = ApplyMode::kMaterialize)
      : registry_(&registry), mode_(mode) {}

  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;

  /// Scan mode only: called once per record, after its payload parsed.
  void set_record_observer(RecordObserver observer) {
    observer_ = std::move(observer);
  }

  /// Apply one checkpoint payload (full or incremental), in log order.
  /// `stats`, when given, receives this payload's record counts.
  StreamHeader apply(io::DataReader& r, ApplyStats* stats = nullptr);

  /// Called from restore_record() implementations: read a child id from the
  /// stream and schedule `slot` to be pointed at that object (or nullptr).
  template <class T>
  void link(io::DataReader& d, T*& slot) {
    ObjectId id = d.read_varint();
    slot = nullptr;
    if (mode_ == ApplyMode::kScan) {
      if (id != kNullObjectId) event_children_.push_back(id);
      return;
    }
    // Fixups replay in stream order, so the newest record of each slot
    // wins. A null link needs a fixup only when this record overwrites an
    // object restored earlier: an older record's fixup may target `slot`.
    if (id == kNullObjectId && !overwriting_) return;
    fixups_.push_back(Fixup{id, &slot, &set_link<T>});
  }

  /// Resolve all child links and hand the graph over. The Recovery object
  /// is spent afterwards.
  RecoveredState finish();

  [[nodiscard]] std::size_t objects_materialized() const noexcept {
    return objects_.size();
  }

  /// Records applied so far, over every apply() call.
  [[nodiscard]] std::size_t records_applied() const noexcept {
    return records_applied_;
  }

 private:
  struct Fixup {
    ObjectId id;  ///< kNullObjectId: the slot is cleared
    void* slot;   ///< a T*, written through `set`
    void (*set)(void* slot, Checkpointable* obj);
  };

  /// Point the T* at `slot` to `obj`, which must be a T (or null).
  template <class T>
  static void set_link(void* slot, Checkpointable* obj) {
    T* typed = nullptr;
    if (obj != nullptr && (typed = dynamic_cast<T*>(obj)) == nullptr)
      throw TypeError("child link resolves to object of unexpected dynamic "
                      "type");
    *static_cast<T**>(slot) = typed;
  }

  const TypeRegistry* registry_;
  ApplyMode mode_ = ApplyMode::kMaterialize;
  RecordObserver observer_;
  std::vector<ObjectId> event_children_;  // scan mode, current record
  /// Owns every materialized object, in the order the stream first
  /// recorded it; table_ indexes them by id.
  std::vector<std::unique_ptr<Checkpointable>> objects_;
  IdTable table_;
  std::vector<Fixup> fixups_;
  std::size_t records_applied_ = 0;
  /// The record being restored belongs to an object an earlier record
  /// already materialized.
  bool overwriting_ = false;
  StreamHeader last_header_;
  bool has_header_ = false;
};

}  // namespace ickpt::core
