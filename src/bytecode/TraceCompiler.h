//===- TraceCompiler.h - Hot-trace superinstruction compiler ----*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second execution tier's compiler: turns a hot straight-line
/// bytecode region (a superblock starting at one entry pc) into a
/// sequence of superinstructions the interpreter executes without
/// per-opcode dispatch overhead. Shape analysis reuses the Verifier's
/// stack-effect table to compute the trace's operand floor (the entry
/// depth it needs). Arena headroom needs no per-trace check: every
/// activation reserves its method's peak operand depth.
///
/// Legality is deliberately conservative — a trace must be
/// observationally equivalent to flat dispatch, instruction by
/// instruction, under every profiling observer:
///  - Invoke / Return* / AllocHook* end trace formation (frame switches
///    and agent hook dispatches stay in the flat loop).
///  - Conditional branches are *side exits*: fall-through continues the
///    trace, taken deopts back to the flat loop at the target.
///  - Goto terminates the trace with an exit to its target.
///  - Allocations are included (they dominate the catalog's hot loops)
///    but compile to ops that sync frame state first, preserving the
///    peek-then-commit contract so a GcRequest unwind re-executes the
///    faulting instruction in the flat loop.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_BYTECODE_TRACECOMPILER_H
#define DJX_BYTECODE_TRACECOMPILER_H

#include "bytecode/ClassFile.h"

#include <optional>
#include <string>
#include <vector>

namespace djx {

/// Which tier executes bytecode (`--tier {interp,super}`).
enum class ExecTier : uint8_t {
  Interp, ///< Flat dispatch loop only (the reference semantics).
  Super,  ///< Hot-region detection + superinstruction traces.
};

/// Tier selection plus the tuning knob the CLI exposes.
struct TierConfig {
  ExecTier Tier = ExecTier::Interp;
  /// Flat dispatches of a trace-head pc before it compiles
  /// (`--hot-threshold`). Counted per interpreter, per (method, pc).
  uint32_t HotThreshold = 16;
};

/// "interp" / "super".
const char *execTierName(ExecTier Tier);

/// Parses an ExecTier name; returns false (Out untouched) when unknown.
bool parseExecTier(const std::string &Name, ExecTier &Out);

/// Superinstruction kinds: one per shared opcode handler the executing
/// tier calls, plus the fused idioms the workload catalog's hot loops are
/// built from. Src selects the opcode within a base kind.
enum class SuperOp : uint8_t {
  Nop,
  Move,       ///< iconst/iload/aload/istore/astore/pop/dup/swap;
              ///< A = immediate or local slot.
  Alu,        ///< IAdd..IShr and INeg.
  Br,         ///< Side exit. Src selects the If*; A = taken target.
  GotoExit,   ///< Unconditional exit; A = target.
  Access,     ///< Simulated memory access; A/B carry the opcode's
              ///< immediates (field offset/width).
  Alloc,      ///< Allocation; A = TypeId, B = MultiANewArray dim count.
  // --- Fused idioms -----------------------------------------------------
  CmpBranchLL, ///< iload A; iload B; if_icmp<Src> C  (side exit).
  IncLocal,    ///< iload A; iconst; iadd/isub; istore A  => L[A] += B.
  AccumLocal,  ///< iload A; iadd; istore A  => L[A] += pop().
  PALoadLL,    ///< aload A; iload B; paload  (one simulated access).
  PAStoreLLL,  ///< aload A; iload B; iload C; pastore  (one access).
};

/// One compiled superinstruction.
struct TraceOp {
  SuperOp Kind = SuperOp::Nop;
  /// Source opcode (selector for the base kinds and CmpBranchLL;
  /// informational for the rest).
  Opcode Src = Opcode::Nop;
  /// Constituent flat instructions this op retires — its step and
  /// dispatch-tick charge.
  uint16_t NumSteps = 1;
  /// Bci of the first constituent.
  uint32_t Pc = 0;
  /// Constituents retired by the ops after this one when the trace runs
  /// to its fall-through end; the executing tier's post-allocation
  /// budget check uses it to decide whether to deopt.
  uint32_t StepsAfter = 0;
  int64_t A = 0;
  int64_t B = 0;
  int64_t C = 0;
};

/// One compiled trace: the superblock's ops plus the static shape facts
/// the executing tier needs.
struct CompiledTrace {
  uint32_t EntryPc = 0;
  /// Flat pc after the last constituent (the fall-through exit target).
  uint32_t EndPc = 0;
  /// Total constituent instructions when the trace runs end-to-end; the
  /// quantum/step-deadline admission check charges this worst case.
  uint32_t NumSteps = 0;
  /// Operands consumed below the entry depth (entry Sp must cover it).
  uint32_t MinStackDepth = 0;
  std::vector<TraceOp> Ops;
};

/// Compiles the superblock starting at \p EntryPc in \p M, up to 64
/// constituent instructions. Returns nullopt when the region is too
/// short to pay for trace entry (the site is dead — e.g. the pc sits
/// right before an Invoke).
std::optional<CompiledTrace> compileTrace(const BytecodeMethod &M,
                                          uint32_t EntryPc);

} // namespace djx

#endif // DJX_BYTECODE_TRACECOMPILER_H
