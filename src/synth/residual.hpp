// Hand-written specialized checkpointing routines for the synthetic
// structures — the C++ analog of the residual programs JSpec emits
// (paper Figs. 5/6 show the same style of monolithic code for the analysis
// engine). Everything is a template over the structural constants, so the
// compiler fully inlines and unrolls: no virtual calls, no interpretation.
//
// In the engine substitution (DESIGN.md §2) these functions are the
// "inlined" engine; the PlanExecutor is the "plan" engine; the generic
// driver is the "virtual" engine. For identical state all three emit
// byte-identical checkpoint streams.
#pragma once

#include <span>

#include "common/error.hpp"
#include "core/checkpoint_format.hpp"
#include "io/data_writer.hpp"
#include "synth/structures.hpp"

namespace ickpt::synth::residual {

/// Record one element with a compile-time value count (the count is written
/// as the constant V, which specialization proved equal to nvals).
template <int V>
inline void record_elem(ListElem& e, io::DataWriter& d) {
  core::write_record_header(d, ListElem::kTypeId, e.info().id());
  d.write_i32(V);
  d.write_i32_run(e.values_data(), V);  // fused, count proven == V
  core::write_child_id(d, e.next());
  e.info().reset_modified();
}

[[noreturn]] inline void structure_violation() {
  throw SpecError("synthetic structure shorter/longer than the residual "
                  "code's compile-time list length");
}

/// Structure-only specialization (Fig. 8): inlined traversal, every
/// modified-test kept, compound tested and recorded like the generic driver.
template <int L, int V>
inline void checkpoint_compound_uniform(Compound& c, io::DataWriter& d) {
  if (c.info().modified()) {
    core::write_record_header(d, Compound::kTypeId, c.info().id());
    for (int i = 0; i < Compound::kLists; ++i)
      core::write_child_id(d, c.list(i));
    c.info().reset_modified();
  }
  for (int i = 0; i < Compound::kLists; ++i) {
    ListElem* e = c.list(i);
    for (int k = 0; k < L; ++k) {
      if (e == nullptr) structure_violation();
      if (e->info().modified()) record_elem<V>(*e, d);
      e = e->next();
    }
    if (e != nullptr) structure_violation();
  }
}

/// Full specialization (Figs. 9/10, Table 2): the compound and — when
/// LastOnly — every non-tail element are provably unmodified (no test, no
/// record); lists beyond ModLists are not even traversed.
template <int L, int V, int ModLists, bool LastOnly>
inline void checkpoint_compound_specialized(Compound& c, io::DataWriter& d) {
  static_assert(ModLists >= 0 && ModLists <= Compound::kLists);
  for (int i = 0; i < ModLists; ++i) {
    ListElem* e = c.list(i);
    if (e == nullptr) structure_violation();
    if constexpr (LastOnly) {
      for (int k = 0; k < L - 1; ++k) {
        e = e->next();
        if (e == nullptr) structure_violation();
      }
      if (e->info().modified()) record_elem<V>(*e, d);
      if (e->next() != nullptr) structure_violation();
    } else {
      for (int k = 0; k < L; ++k) {
        if (e == nullptr) structure_violation();
        if (e->info().modified()) record_elem<V>(*e, d);
        e = e->next();
      }
      if (e != nullptr) structure_violation();
    }
  }
}

/// Wrap a per-compound residual routine into a complete checkpoint stream
/// (same header/end framing as the generic driver and the plan executor).
template <class PerRoot>
inline void run_residual_checkpoint(io::DataWriter& d, Epoch epoch,
                                    std::span<Compound* const> roots,
                                    PerRoot&& per_root) {
  core::write_stream(
      d, core::Mode::kIncremental, epoch, roots,
      [](const Compound* c) { return c->info().id(); },
      [&](Compound* c) { per_root(*c, d); });
}

}  // namespace ickpt::synth::residual
