//===- TraceCompiler.cpp - Hot-trace superinstruction compiler ------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/TraceCompiler.h"

#include "bytecode/Verifier.h"

#include <algorithm>

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

/// The base kind that runs \p Op alone: the shared handler execTrace
/// calls for it. Frame switches and agent hook dispatches have none:
/// they execute only in the flat loop (hooks may re-enter run()), so
/// they end trace formation.
std::optional<SuperOp> baseKind(Opcode Op) {
  switch (Op) {
  case Opcode::Nop:
    return SuperOp::Nop;
  case Opcode::IConst:
  case Opcode::ILoad:
  case Opcode::ALoad:
  case Opcode::IStore:
  case Opcode::AStore:
  case Opcode::Pop:
  case Opcode::Dup:
  case Opcode::Swap:
    return SuperOp::Move;
  case Opcode::IAdd:
  case Opcode::ISub:
  case Opcode::IMul:
  case Opcode::IDiv:
  case Opcode::IRem:
  case Opcode::INeg:
  case Opcode::IAnd:
  case Opcode::IOr:
  case Opcode::IXor:
  case Opcode::IShl:
  case Opcode::IShr:
    return SuperOp::Alu;
  case Opcode::Goto:
    return SuperOp::GotoExit;
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
    return SuperOp::Br;
  case Opcode::New:
  case Opcode::NewArray:
  case Opcode::ANewArray:
  case Opcode::MultiANewArray:
    return SuperOp::Alloc;
  case Opcode::PALoad:
  case Opcode::PAStore:
  case Opcode::AALoad:
  case Opcode::AAStore:
  case Opcode::ArrayLength:
  case Opcode::GetField:
  case Opcode::PutField:
  case Opcode::GetRefField:
  case Opcode::PutRefField:
    return SuperOp::Access;
  case Opcode::Invoke:
  case Opcode::Return:
  case Opcode::IReturn:
  case Opcode::AReturn:
  case Opcode::AllocHookPre:
  case Opcode::AllocHookPost:
    break;
  }
  return std::nullopt;
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

/// Cap on constituent instructions per trace. The catalog's longest
/// trace has 18.
constexpr uint32_t kMaxTraceSteps = 64;

} // namespace

std::optional<CompiledTrace> djx::compileTrace(const BytecodeMethod &M,
                                               uint32_t EntryPc) {
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

  while (!Ended && Pc < N && Steps < kMaxTraceSteps) {
    const Instruction &I = Code[Pc];
    const uint32_t Left = kMaxTraceSteps - Steps;
    const std::optional<SuperOp> Kind = baseKind(I.Op);
    if (!Kind)
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
    if (I.Op == Opcode::ILoad && Left >= 3 && Pc + 2 < N &&
        Code[Pc + 1].Op == Opcode::IAdd &&
        Code[Pc + 2].Op == Opcode::IStore && Code[Pc + 2].A == I.A) {
      emit(SuperOp::AccumLocal, Opcode::IAdd, 3, I.A);
      continue;
    }

    emit(*Kind, I.Op, 1, I.A, I.B);
    Ended = *Kind == SuperOp::GotoExit;
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
