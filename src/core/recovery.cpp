#include "core/recovery.hpp"

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

  std::size_t dropped = heap.retain_if(
      [&](const Checkpointable& obj) { return live.count(obj.info().id()) != 0; });
  for (auto it = by_id.begin(); it != by_id.end();) {
    if (live.count(it->first) == 0)
      it = by_id.erase(it);
    else
      ++it;
  }
  return dropped;
}

namespace {

StreamHeader read_header(io::DataReader& r) {
  if (r.read_u8() != kStreamMagic)
    throw CorruptionError("bad checkpoint stream magic");
  std::uint8_t version = r.read_u8();
  if (version != kFormatVersion)
    throw CorruptionError("unsupported checkpoint format version " +
                          std::to_string(version));
  std::uint8_t mode_byte = r.read_u8();
  if (mode_byte > static_cast<std::uint8_t>(Mode::kIncremental))
    throw CorruptionError("invalid checkpoint mode byte");
  StreamHeader header;
  header.mode = static_cast<Mode>(mode_byte);
  header.epoch = r.read_u64();
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
  return [](const std::vector<std::uint8_t>& payload, std::uint64_t& epoch,
            std::uint8_t& mode) {
    try {
      const StreamHeader h = peek_header(payload);
      epoch = h.epoch;
      mode = static_cast<std::uint8_t>(h.mode);
      return true;
    } catch (const Error&) {
      return false;
    }
  };
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
    if (stats != nullptr) {
      ++stats->records;
      ++stats->records_by_type[type];
    }
    if (oid == kNullObjectId)
      throw CorruptionError("record carries null object id");
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
    Checkpointable* obj;
    auto it = objects_.find(oid);
    overwriting_ = it != objects_.end();
    if (!overwriting_) {
      const TypeRegistry::Entry& entry = registry_->lookup(type);
      auto created = entry.factory(oid);
      obj = created.get();
      objects_.emplace(oid, std::move(created));
    } else {
      obj = it->second.get();
      if (obj->type_id() != type)
        throw TypeError("object " + std::to_string(oid) +
                        " changes type across checkpoints");
    }
    obj->restore_record(r, *this);
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
    if (fixup.id == kNullObjectId) {
      fixup.set(nullptr);
      continue;
    }
    auto it = objects_.find(fixup.id);
    if (it == objects_.end())
      throw CorruptionError("dangling child reference to object " +
                            std::to_string(fixup.id));
    fixup.set(it->second.get());
  }
  fixups_.clear();

  RecoveredState state;
  state.roots = last_header_.roots;
  state.epoch = last_header_.epoch;
  state.by_id.reserve(objects_.size());
  for (auto& [oid, obj] : objects_) {
    // Recovered state corresponds to a moment just after a checkpoint, when
    // every recorded object's flag had been reset.
    obj->info().reset_modified();
    state.by_id.emplace(oid, obj.get());
    state.heap.adopt(std::move(obj));
  }
  objects_.clear();
  return state;
}

}  // namespace ickpt::core
