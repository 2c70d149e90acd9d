#include "core/recovery.hpp"

#include <span>
#include <utility>

#include "core/checkpoint.hpp"
#include "io/byte_sink.hpp"

namespace ickpt::core {

std::size_t RecoveredState::prune_unreachable() {
  // Reachability = what a cycle-guarded dry traversal from the roots visits.
  io::VectorSink sink;
  io::DataWriter writer(sink);
  CheckpointOptions opts;
  opts.dry_run = true;
  opts.cycle_guard = true;
  std::vector<Checkpointable*> root_objs;
  root_objs.reserve(roots.size());
  for (ObjectId id : roots) {
    Checkpointable* obj = find(id);
    if (obj != nullptr) root_objs.push_back(obj);
  }
  Checkpoint walker(writer, opts);
  for (Checkpointable* root : root_objs) walker.checkpoint(*root);
  const auto& live = walker.visited_ids();

  IdTable kept;
  for (const auto& [id, obj] : by_id)
    if (live.count(id) != 0) kept.insert(id, obj);
  by_id = std::move(kept);
  return heap.retain_if(
      [&](const Checkpointable& obj) { return live.count(obj.info().id()) != 0; });
}

namespace {

/// Magic, version, mode byte and epoch: the fixed-size head of every
/// stream header.
constexpr std::size_t kFixedHeaderBytes = 3 + sizeof(Epoch);

/// Parse the fixed fields into `header` (mode and epoch).
void read_fixed_header(io::DataReader& r, StreamHeader& header) {
  if (r.read_u8() != kStreamMagic)
    throw CorruptionError("bad checkpoint stream magic");
  std::uint8_t version = r.read_u8();
  if (version != kFormatVersion)
    throw CorruptionError("unsupported checkpoint format version " +
                          std::to_string(version));
  std::uint8_t mode_byte = r.read_u8();
  if (mode_byte > static_cast<std::uint8_t>(Mode::kIncremental))
    throw CorruptionError("invalid checkpoint mode byte");
  header.mode = static_cast<Mode>(mode_byte);
  header.epoch = r.read_u64();
}

StreamHeader read_header(io::DataReader& r) {
  StreamHeader header;
  read_fixed_header(r, header);
  std::uint64_t nroots = r.read_varint();
  header.roots.reserve(nroots);
  for (std::uint64_t i = 0; i < nroots; ++i)
    header.roots.push_back(r.read_varint());
  return header;
}

}  // namespace

StreamHeader peek_header(const std::vector<std::uint8_t>& payload) {
  io::DataReader r(payload);
  return read_header(r);
}

io::HeaderProbe stream_header_probe() {
  return {kFixedHeaderBytes,
          [](std::span<const std::uint8_t> prefix, std::uint64_t& epoch,
             std::uint8_t& mode) {
            io::DataReader r(prefix.data(), prefix.size());
            StreamHeader h;
            try {
              read_fixed_header(r, h);
            } catch (const CorruptionError&) {
              return false;
            }
            epoch = h.epoch;
            mode = static_cast<std::uint8_t>(h.mode);
            return true;
          }};
}

StreamHeader Recovery::apply(io::DataReader& r, ApplyStats* stats) {
  StreamHeader header = read_header(r);
  for (;;) {
    std::uint8_t tag = r.read_u8();
    if (tag == kEndTag) break;
    if (tag != kRecordTag)
      throw CorruptionError("unknown record tag " + std::to_string(tag));
    TypeId type = static_cast<TypeId>(r.read_varint());
    ObjectId oid = r.read_varint();
    ++records_applied_;
    if (stats != nullptr) {
      ++stats->records;
      ++stats->records_by_type[type];
    }
    if (oid == kNullObjectId)
      throw CorruptionError("record carries null object id");
    // No process hands out 2^64 - 1 (IdAllocator::kMaxId), and resuming
    // the allocator past it would wrap to the null id.
    if (oid > IdAllocator::kMaxId)
      throw CorruptionError("record carries object id 2^64 - 1");
    if (mode_ == ApplyMode::kScan) {
      // Parse through a transient instance: full payload validation, no
      // graph. The instance dies here; link() collected the child ids.
      const TypeRegistry::Entry& entry = registry_->lookup(type);
      auto scratch = entry.factory(oid);
      event_children_.clear();
      scratch->restore_record(r, *this);
      if (observer_)
        observer_(RecordEvent{type, oid, std::move(event_children_)});
      event_children_.clear();
      continue;
    }
    Checkpointable* obj = table_.find(oid);
    overwriting_ = obj != nullptr;
    if (!overwriting_) {
      objects_.push_back(registry_->lookup(type).factory(oid));
      obj = objects_.back().get();
      table_.insert(oid, obj);
    } else if (obj->type_id() != type) {
      throw TypeError("object " + std::to_string(oid) +
                      " changes type across checkpoints");
    }
    obj->restore_record(r, *this);
    // Recovered state corresponds to a moment just after a checkpoint, when
    // every recorded object's flag had been reset.
    obj->info().reset_modified();
  }
  if (!r.at_end())
    throw CorruptionError("trailing bytes after checkpoint end tag");
  last_header_ = header;
  has_header_ = true;
  return header;
}

RecoveredState Recovery::finish() {
  if (mode_ == ApplyMode::kScan)
    throw Error("Recovery::finish() is invalid in scan mode");
  if (!has_header_) throw Error("Recovery::finish() with no checkpoint applied");
  for (const Fixup& fixup : fixups_) {
    Checkpointable* obj = nullptr;
    if (fixup.id != kNullObjectId && (obj = table_.find(fixup.id)) == nullptr)
      throw CorruptionError("dangling child reference to object " +
                            std::to_string(fixup.id));
    fixup.set(fixup.slot, obj);
  }
  std::vector<Fixup>().swap(fixups_);  // frees the capacity, not just size

  RecoveredState state;
  state.heap = Heap(std::move(objects_));
  state.by_id = std::exchange(table_, {});
  state.roots = std::move(last_header_.roots);
  state.epoch = last_header_.epoch;
  return state;
}

}  // namespace ickpt::core
