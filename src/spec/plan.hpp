// Plan: the residual checkpointing program produced by the PlanCompiler.
//
// A plan is a flat op sequence over one concrete root type. Executing it
// performs zero virtual calls: every access is a direct offset into the
// current object, child traversal is an explicit pointer push/pop, and every
// test or traversal the pattern proved unnecessary simply is not in the op
// stream. This is the runtime analog of the monolithic specialized methods
// of paper Fig. 5/6.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ickpt::spec {

enum class OpCode : std::uint8_t {
  /// if !modified(cur.info@a) then ip += b  (skips the record block only).
  kTestSkip,
  /// write a record header (core::write_record_header): type id imm,
  /// object id of cur.info@a.
  kWriteHeader,
  kWriteU8,    // a = offset
  kWriteBool,  // a = offset
  kWriteI32,   // a = offset
  kWriteI32Var,  // a = offset; LEB128 zigzag (encoding ablation)
  kWriteI64,   // a = offset
  kWriteU64,   // a = offset
  kWriteF32,   // a = offset
  kWriteF64,   // a = offset
  /// write b int32s starting at offset a.
  kWriteI32ArrayFixed,
  /// fused run: write b contiguous int32 fields starting at offset a
  /// (compiler peephole over adjacent i32 scalars/fixed arrays).
  kWriteI32Run,
  /// write *(i32*)(cur+b) int32s starting at offset a.
  kWriteI32ArrayRuntime,
  /// write varint(child id) for child pointer at offset a (null -> 0).
  kWriteChildId,
  /// reset modified flag of cur.info@a.
  kResetFlag,
  /// push cur; cur = *(void**)(cur+a); if cur == null, don't push, ip += b.
  kPushChild,
  kPop,
  /// follow b hops: cur = *(void**)(cur+a) per hop, no stack traffic.
  /// Compiled for pure pass-through chain prefixes (interior elements that
  /// are provably unmodified and carry nothing else); a null mid-chain is a
  /// structure violation and throws.
  kFollow,
  /// throw SpecError if *(void**)(cur+a) != null (structure assertion).
  kAssertNull,
  kEnd,
};

struct Op {
  OpCode code;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t imm = 0;
};

struct Plan {
  std::vector<Op> ops;
  /// Deepest kPushChild nesting; the executor sizes its stack from this.
  std::uint32_t max_depth = 0;
  /// Structure nodes the pattern covers per instance — including
  /// skip-pruned subtrees and fused follow hops, i.e. the nodes the generic
  /// driver would have to test. nodes_covered minus the plan's kTestSkip
  /// count is the per-run number of modification tests specialization
  /// elided (paper Table 1's argument, observable at runtime).
  std::size_t nodes_covered = 0;
  /// info offset of the root object (for writing root ids in the header).
  std::size_t root_info_offset = 0;
  std::string shape_name;

  [[nodiscard]] std::size_t size() const noexcept { return ops.size(); }

  /// Human-readable disassembly, for debugging and the docs.
  [[nodiscard]] std::string disassemble() const;
};

}  // namespace ickpt::spec
