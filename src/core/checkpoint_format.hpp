// On-the-wire layout of one checkpoint payload (the bytes inside one
// stable-storage frame), and its one writer. Every capture engine frames
// through the functions below: the generic walker (core/checkpoint.hpp),
// sharded capture (core/parallel_checkpoint.hpp, spec's sharded plan path),
// the plan executor and the compile-time static checkpointer (src/spec/),
// and the hand-written synth and analysis residuals. Recovery
// (core/recovery.cpp) is the one reader. Engines must emit byte-identical
// streams for the same state, so recovery cannot tell which one ran.
//
//   header:  [u8 kStreamMagic][u8 version][u8 mode][u64 epoch]
//            [varint nroots][varint root id]*
//   records: ([u8 kRecordTag][varint type_id][varint object_id]
//             <record() payload, format defined by the class>)*
//   end:     [u8 kEndTag]
//
// Record payloads carry no length prefix: restore_record() mirrors record()
// exactly, and the frame CRC already guards integrity. This matches the
// paper's raw DataOutputStream encoding.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/types.hpp"
#include "io/data_writer.hpp"

namespace ickpt::core {

inline constexpr std::uint8_t kStreamMagic = 0xC5;
inline constexpr std::uint8_t kFormatVersion = 1;

enum class Mode : std::uint8_t {
  kFull = 0,         // record every object (paper: "full checkpointing")
  kIncremental = 1,  // record only objects whose modified flag is set
};

inline constexpr std::uint8_t kRecordTag = 0x01;
inline constexpr std::uint8_t kEndTag = 0x00;

/// The stream header for `roots`: `id_of(root)` projects each root to the
/// object id the header carries (the generic engines pass core::ref_id,
/// which maps a null root to kNullObjectId).
template <class Roots, class IdOf>
inline void write_stream_header(io::DataWriter& d, Mode mode, Epoch epoch,
                                const Roots& roots, IdOf&& id_of) {
  d.write_u8(kStreamMagic);
  d.write_u8(kFormatVersion);
  d.write_u8(static_cast<std::uint8_t>(mode));
  d.write_u64(epoch);
  d.write_varint(roots.size());
  for (const auto& root : roots) d.write_varint(id_of(root));
}

/// One record's header; the class's record() payload follows it. `type`
/// and `id` are each a value or a nullary callable returning one. A
/// callable runs only after the bytes before it are buffered, so the
/// generic walker (whose type id is a virtual call) and the plan executor
/// (whose id load may alias the output buffer) keep their tag-first order
/// of stores and loads, with nothing held across the buffer check.
template <class Type, class Id>
inline void write_record_header(io::DataWriter& d, Type&& type, Id&& id) {
  auto value = [](auto&& v) -> std::uint64_t {
    if constexpr (std::is_invocable_v<decltype(v)>)
      return v();
    else
      return v;
  };
  d.write_u8(kRecordTag);
  d.write_varint(value(type));
  d.write_varint(value(id));
}

inline void write_end(io::DataWriter& d) { d.write_u8(kEndTag); }

/// A whole stream: the header, `per_root(root)` for every root in order,
/// and the end tag.
template <class Roots, class IdOf, class PerRoot>
inline void write_stream(io::DataWriter& d, Mode mode, Epoch epoch,
                         const Roots& roots, IdOf&& id_of,
                         PerRoot&& per_root) {
  write_stream_header(d, mode, epoch, roots, id_of);
  for (const auto& root : roots) per_root(root);
  write_end(d);
}

}  // namespace ickpt::core
