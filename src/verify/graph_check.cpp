#include "verify/graph_check.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "io/byte_sink.hpp"

namespace ickpt::verify {

namespace {

std::string join_path(const std::vector<ObjectId>& ids) {
  std::string out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += "->";
    out += std::to_string(ids[i]);
  }
  return out;
}

}  // namespace

Report check_graph(std::span<core::Checkpointable* const> roots,
                   const GraphCheckOptions& options) {
  Report report;
  report.pass = "graph";

  std::vector<ObjectId> stack;
  std::unordered_set<ObjectId> on_stack;
  // First-seen parent of every visited id (kNullObjectId for roots); lets
  // the sharing diagnostic reconstruct the original path without storing a
  // path per object.
  std::unordered_map<ObjectId, ObjectId> parent;
  std::size_t objects = 0;
  std::size_t cycles = 0;
  std::size_t shared = 0;
  std::size_t suppressed = 0;

  auto first_path = [&](ObjectId id) {
    std::vector<ObjectId> ids{id};
    auto it = parent.find(id);
    while (it != parent.end() && it->second != kNullObjectId) {
      ids.push_back(it->second);
      it = parent.find(it->second);
    }
    std::reverse(ids.begin(), ids.end());
    return join_path(ids);
  };
  auto add = [&](Finding finding) {
    if (report.findings.size() >= options.max_findings) {
      ++suppressed;
      return;
    }
    report.add(std::move(finding));
  };

  core::VisitHooks hooks;
  hooks.enter = [&](core::Checkpointable& o) {
    ObjectId id = o.info().id();
    parent.emplace(id, stack.empty() ? kNullObjectId : stack.back());
    stack.push_back(id);
    on_stack.insert(id);
    ++objects;
  };
  hooks.leave = [&](core::Checkpointable& o) {
    stack.pop_back();
    on_stack.erase(o.info().id());
  };
  hooks.revisit = [&](core::Checkpointable& o) {
    ObjectId id = o.info().id();
    Finding finding;
    finding.object_id = id;
    if (on_stack.count(id) != 0) {
      ++cycles;
      // The cycle is the stack suffix from the earlier occurrence of id,
      // closed by the revisit edge.
      auto from = std::find(stack.begin(), stack.end(), id);
      std::vector<ObjectId> loop(from, stack.end());
      loop.push_back(id);
      finding.severity = Severity::kError;
      finding.code = "cycle";
      finding.position = join_path(loop);
      finding.message = "cycle through object " + std::to_string(id) +
                        " (" + finding.position +
                        "); an unguarded checkpoint of this graph does not "
                        "terminate";
    } else {
      ++shared;
      std::vector<ObjectId> here = stack;
      here.push_back(id);
      finding.severity = Severity::kWarning;
      finding.code = "shared";
      finding.position = join_path(here);
      finding.message = "object " + std::to_string(id) +
                        " is shared: first reached via " + first_path(id) +
                        ", again via " + finding.position +
                        "; an unguarded checkpoint records it once per path";
    }
    add(std::move(finding));
  };

  io::VectorSink sink;
  io::DataWriter writer(sink);
  core::CheckpointOptions opts;
  opts.dry_run = true;
  opts.cycle_guard = true;  // termination on cyclic graphs + revisit events
  opts.hooks = &hooks;
  core::Checkpoint walker(writer, opts);
  for (core::Checkpointable* root : roots)
    if (root != nullptr) walker.checkpoint(*root);

  std::ostringstream summary;
  summary << objects << " object(s) under " << roots.size() << " root(s): "
          << cycles << " cycle(s), " << shared << " shared subobject(s)";
  if (suppressed != 0)
    summary << " (" << suppressed << " finding(s) suppressed past the cap)";
  report.summary = summary.str();
  return report;
}

}  // namespace ickpt::verify
