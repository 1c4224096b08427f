//===- TraceCompiler.cpp - Hot-trace superinstruction compiler ------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/TraceCompiler.h"

#include "analysis/MethodAnalysis.h"
#include "bytecode/Verifier.h"

#include <algorithm>
#include <cassert>

using namespace djx;

const char *djx::execTierName(ExecTier Tier) {
  return Tier == ExecTier::Super ? "super" : "interp";
}

bool djx::parseExecTier(const std::string &Name, ExecTier &Out) {
  if (Name == "interp") {
    Out = ExecTier::Interp;
    return true;
  }
  if (Name == "super") {
    Out = ExecTier::Super;
    return true;
  }
  return false;
}

namespace {

/// Opcodes a trace must stop before: frame switches and agent hook
/// dispatches execute only in the flat loop (hooks may re-enter run()).
bool endsTrace(Opcode Op) {
  switch (Op) {
  case Opcode::Invoke:
  case Opcode::Return:
  case Opcode::IReturn:
  case Opcode::AReturn:
  case Opcode::AllocHookPre:
  case Opcode::AllocHookPost:
    return true;
  default:
    return false;
  }
}

bool isICmpBranch(Opcode Op) {
  switch (Op) {
  case Opcode::IfICmpEq:
  case Opcode::IfICmpNe:
  case Opcode::IfICmpLt:
  case Opcode::IfICmpGe:
  case Opcode::IfICmpGt:
  case Opcode::IfICmpLe:
    return true;
  default:
    return false;
  }
}

/// Running operand-stack depth relative to trace entry, tracked at
/// constituent granularity via the Verifier's stack-effect table. Min
/// bounds the operands the trace consumes below its entry depth
/// (conservative for fused ops, which skip the intermediate pushes).
struct ShapeTracker {
  int Depth = 0;
  int Min = 0;

  void apply(const Instruction &I) {
    StackEffect E = instructionStackEffect(I);
    Depth -= static_cast<int>(E.Pops);
    Min = std::min(Min, Depth);
    Depth += static_cast<int>(E.Pushes);
  }
};

/// Below this many constituents a trace cannot pay for its entry
/// (budget admission + frame sync), so the site is marked dead.
constexpr uint32_t kMinTraceSteps = 3;

} // namespace

std::optional<CompiledTrace> djx::compileTrace(const BytecodeMethod &M,
                                               uint32_t EntryPc,
                                               const TierConfig &Cfg,
                                               const MethodAnalysis *MA) {
  const std::vector<Instruction> &Code = M.Code;
  const uint32_t N = static_cast<uint32_t>(Code.size());
  CompiledTrace T;
  T.EntryPc = EntryPc;
  ShapeTracker Shape;
  uint32_t Pc = EntryPc;
  uint32_t Steps = 0;
  bool Ended = false; // Goto reached: the trace carries its own exit.

  auto emit = [&](SuperOp Kind, Opcode Src, uint32_t Len, int64_t A = 0,
                  int64_t B = 0, int64_t C = 0) {
    TraceOp O;
    O.Kind = Kind;
    O.Src = Src;
    O.NumSteps = static_cast<uint16_t>(Len);
    O.Pc = Pc;
    O.A = A;
    O.B = B;
    O.C = C;
    T.Ops.push_back(O);
    for (uint32_t K = 0; K < Len; ++K)
      Shape.apply(Code[Pc + K]);
    Pc += Len;
    Steps += Len;
  };

  while (!Ended && Pc < N && Steps < Cfg.MaxTraceLength) {
    const Instruction &I = Code[Pc];
    const uint32_t Left = Cfg.MaxTraceLength - Steps;

    // Analysis-proven superblock extension: an instrumented allocation
    // (allochook_pre; alloc; allochook_post) whose site the escape
    // analysis proves never leaves this method keeps the trace going
    // instead of ending it. The hook superops dispatch the agent
    // callbacks with full frame sync, so the profile is byte-identical
    // to flat dispatch; escape is the admission predicate (an escaping
    // object may be relocated or observed concurrently mid-trace, so
    // those sites stay in the flat loop).
    if (I.Op == Opcode::AllocHookPre && MA && Left >= 3 && Pc + 2 < N &&
        isAllocation(Code[Pc + 1].Op) &&
        Code[Pc + 2].Op == Opcode::AllocHookPost && !MA->Types.Incomplete &&
        MA->Types.reachable(Pc + 1)) {
      const AllocSiteFact *Site = MA->Types.siteAtPc(Pc + 1);
      if (Site && !Site->escapes()) {
        emit(SuperOp::HookPre, Opcode::AllocHookPre, 1, I.A);
        const Instruction &AI = Code[Pc]; // emit() advanced to the alloc.
        emit(SuperOp::Alloc, AI.Op, 1, AI.A,
             AI.Op == Opcode::MultiANewArray ? AI.B : 0);
        emit(SuperOp::HookPost, Opcode::AllocHookPost, 1, Code[Pc].A);
        continue;
      }
    }
    if (endsTrace(I.Op))
      break;

    // Fused idioms first, longest match wins; a pattern that does not fit
    // the remaining length budget falls back to its base encodings.
    if (I.Op == Opcode::ALoad && Left >= 4 && Pc + 3 < N &&
        Code[Pc + 1].Op == Opcode::ILoad &&
        Code[Pc + 2].Op == Opcode::ILoad &&
        Code[Pc + 3].Op == Opcode::PAStore) {
      emit(SuperOp::PAStoreLLL, Opcode::PAStore, 4, I.A, Code[Pc + 1].A,
           Code[Pc + 2].A);
      continue;
    }
    if (I.Op == Opcode::ALoad && Left >= 3 && Pc + 2 < N &&
        Code[Pc + 1].Op == Opcode::ILoad &&
        Code[Pc + 2].Op == Opcode::PALoad) {
      emit(SuperOp::PALoadLL, Opcode::PALoad, 3, I.A, Code[Pc + 1].A);
      continue;
    }
    if (I.Op == Opcode::ILoad && Left >= 4 && Pc + 3 < N &&
        Code[Pc + 1].Op == Opcode::IConst &&
        (Code[Pc + 2].Op == Opcode::IAdd ||
         Code[Pc + 2].Op == Opcode::ISub) &&
        Code[Pc + 3].Op == Opcode::IStore && Code[Pc + 3].A == I.A) {
      // Negated in uint64_t: isub of Long.MIN_VALUE wraps, as in Java.
      uint64_t Imm = static_cast<uint64_t>(Code[Pc + 1].A);
      int64_t Delta = static_cast<int64_t>(
          Code[Pc + 2].Op == Opcode::IAdd ? Imm : 0 - Imm);
      emit(SuperOp::IncLocal, Code[Pc + 2].Op, 4, I.A, Delta);
      continue;
    }
    if (I.Op == Opcode::ILoad && Left >= 3 && Pc + 2 < N &&
        Code[Pc + 1].Op == Opcode::ILoad && isICmpBranch(Code[Pc + 2].Op)) {
      emit(SuperOp::CmpBranchLL, Code[Pc + 2].Op, 3, I.A, Code[Pc + 1].A,
           Code[Pc + 2].A);
      continue;
    }
    // Local-vs-immediate compare: admitted only under the analysis
    // proof that the side exit elides no observable stack traffic —
    // the type-state depth at the taken target equals the depth
    // entering the pattern, and liveness shows nothing live above the
    // materialised depth there. (Holds for every well-formed loop
    // guard; the proof is what lets the fused form skip the two pushes
    // without a flat-state mismatch at the deopt point.)
    if (I.Op == Opcode::ILoad && MA && Left >= 3 && Pc + 2 < N &&
        Code[Pc + 1].Op == Opcode::IConst && isICmpBranch(Code[Pc + 2].Op)) {
      uint32_t Target = static_cast<uint32_t>(Code[Pc + 2].A);
      int D0 = MA->Types.depthAt(Pc);
      if (D0 >= 0 && MA->Types.depthAt(Target) == D0 &&
          MA->Live.knownAt(Target) &&
          MA->Live.liveStackSlotsAbove(Target,
                                       static_cast<uint32_t>(D0)) == 0) {
        emit(SuperOp::CmpBranchLI, Code[Pc + 2].Op, 3, I.A, Code[Pc + 1].A,
             Target);
        continue;
      }
    }
    if (I.Op == Opcode::ILoad && Left >= 3 && Pc + 2 < N &&
        Code[Pc + 1].Op == Opcode::IAdd &&
        Code[Pc + 2].Op == Opcode::IStore && Code[Pc + 2].A == I.A) {
      emit(SuperOp::AccumLocal, Opcode::IAdd, 3, I.A);
      continue;
    }

    switch (I.Op) {
    case Opcode::Nop:
      emit(SuperOp::Nop, I.Op, 1);
      break;
    case Opcode::IConst:
      emit(SuperOp::IConst, I.Op, 1, I.A);
      break;
    case Opcode::ILoad:
      emit(SuperOp::ILoad, I.Op, 1, I.A);
      break;
    case Opcode::ALoad:
      emit(SuperOp::ALoad, I.Op, 1, I.A);
      break;
    case Opcode::IStore:
      emit(SuperOp::IStore, I.Op, 1, I.A);
      break;
    case Opcode::AStore:
      emit(SuperOp::AStore, I.Op, 1, I.A);
      break;
    case Opcode::Pop:
      emit(SuperOp::PopV, I.Op, 1);
      break;
    case Opcode::Dup:
      emit(SuperOp::DupV, I.Op, 1);
      break;
    case Opcode::Swap:
      emit(SuperOp::SwapV, I.Op, 1);
      break;
    case Opcode::IAdd:
    case Opcode::ISub:
    case Opcode::IMul:
    case Opcode::IDiv:
    case Opcode::IRem:
    case Opcode::IAnd:
    case Opcode::IOr:
    case Opcode::IXor:
    case Opcode::IShl:
    case Opcode::IShr:
      emit(SuperOp::Alu, I.Op, 1);
      break;
    case Opcode::INeg:
      emit(SuperOp::INeg, I.Op, 1);
      break;
    case Opcode::Goto:
      emit(SuperOp::GotoExit, I.Op, 1, I.A);
      Ended = true;
      break;
    case Opcode::IfEq:
    case Opcode::IfNe:
    case Opcode::IfLt:
    case Opcode::IfGe:
    case Opcode::IfICmpEq:
    case Opcode::IfICmpNe:
    case Opcode::IfICmpLt:
    case Opcode::IfICmpGe:
    case Opcode::IfICmpGt:
    case Opcode::IfICmpLe:
    case Opcode::IfNull:
    case Opcode::IfNonNull:
      emit(SuperOp::Br, I.Op, 1, I.A);
      break;
    case Opcode::New:
    case Opcode::NewArray:
    case Opcode::ANewArray:
      emit(SuperOp::Alloc, I.Op, 1, I.A);
      break;
    case Opcode::MultiANewArray:
      emit(SuperOp::Alloc, I.Op, 1, I.A, I.B);
      break;
    case Opcode::PALoad:
    case Opcode::PAStore:
    case Opcode::AALoad:
    case Opcode::AAStore:
    case Opcode::ArrayLength:
    case Opcode::GetField:
    case Opcode::PutField:
    case Opcode::GetRefField:
    case Opcode::PutRefField:
      emit(SuperOp::Access, I.Op, 1, I.A, I.B);
      break;
    case Opcode::Invoke:
    case Opcode::Return:
    case Opcode::IReturn:
    case Opcode::AReturn:
    case Opcode::AllocHookPre:
    case Opcode::AllocHookPost:
      assert(false && "endsTrace() filtered these");
      Ended = true;
      break;
    }
  }

  if (Steps < kMinTraceSteps)
    return std::nullopt;
  T.EndPc = Pc;
  T.NumSteps = Steps;
  T.MinStackDepth = static_cast<uint32_t>(std::max(0, -Shape.Min));
  uint32_t Remaining = Steps;
  for (TraceOp &O : T.Ops) {
    Remaining -= O.NumSteps;
    O.StepsAfter = Remaining;
  }
  return T;
}
