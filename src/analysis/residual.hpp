// Hand-written specialized checkpointing of an Attributes structure — the
// direct C++ transcription of the paper's residual programs:
//
//   * checkpoint_attr         — Fig. 5, specialization w.r.t. structure:
//     virtual calls replaced by direct (devirtualized) calls and the
//     traversal of the fixed Attributes shape inlined into one routine.
//   * checkpoint_attr_btmodif — Fig. 6, + the binding-time phase's
//     modification pattern: the se and et subtrees disappear entirely.
//   * checkpoint_attr_etmodif — same for the evaluation-time phase.
//
// Output is byte-identical to the generic driver on the same state.
#pragma once

#include <span>

#include "analysis/attributes.hpp"
#include "core/checkpoint_format.hpp"

namespace ickpt::analysis::residual {

namespace detail {

template <class T>
inline void record_if_modified(T& obj, io::DataWriter& d) {
  core::CheckpointInfo& info = obj.info();
  if (info.modified()) {
    core::write_record_header(d, T::kTypeId, info.id());
    obj.T::record(d);  // qualified: direct call, no dispatch
    info.reset_modified();
  }
}

}  // namespace detail

/// Paper Fig. 5: structure specialization of checkpoint() for Attributes.
inline void checkpoint_attr(Attributes& attr, io::DataWriter& d) {
  detail::record_if_modified(attr, d);
  detail::record_if_modified(*attr.se(), d);  // records both lists
  BTEntry& bt_entry = *attr.bt();
  detail::record_if_modified(bt_entry, d);
  detail::record_if_modified(*bt_entry.leaf(), d);
  ETEntry& et_entry = *attr.et();
  detail::record_if_modified(et_entry, d);
  detail::record_if_modified(*et_entry.leaf(), d);
}

/// Paper Fig. 6: + the binding-time phase's modification pattern.
inline void checkpoint_attr_btmodif(Attributes& attr, io::DataWriter& d) {
  detail::record_if_modified(attr, d);
  BTEntry& bt_entry = *attr.bt();
  detail::record_if_modified(bt_entry, d);
  detail::record_if_modified(*bt_entry.leaf(), d);
}

/// Evaluation-time phase analog of Fig. 6.
inline void checkpoint_attr_etmodif(Attributes& attr, io::DataWriter& d) {
  detail::record_if_modified(attr, d);
  ETEntry& et_entry = *attr.et();
  detail::record_if_modified(et_entry, d);
  detail::record_if_modified(*et_entry.leaf(), d);
}

/// Wrap a per-Attributes residual into a complete checkpoint stream.
template <class PerRoot>
inline void run_residual_checkpoint(io::DataWriter& d, Epoch epoch,
                                    std::span<Attributes* const> roots,
                                    PerRoot&& per_root) {
  core::write_stream(
      d, core::Mode::kIncremental, epoch, roots,
      [](const Attributes* attr) { return attr->info().id(); },
      [&](Attributes* attr) { per_root(*attr, d); });
}

}  // namespace ickpt::analysis::residual
