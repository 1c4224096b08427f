//===- Verifier.cpp - Structural bytecode checks ---------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"

#include "analysis/TypeState.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <unordered_map>

using namespace djx;

static void addError(VerifyResult &R, size_t Bci, const std::string &Msg) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "bci %zu: ", Bci);
  R.Errors.push_back(Buf + Msg);
}

StackEffect djx::instructionStackEffect(const Instruction &Inst) {
  switch (Inst.Op) {
  case Opcode::Nop:
  case Opcode::Goto:
  case Opcode::Return:
  case Opcode::AllocHookPre:
    return {0, 0};
  case Opcode::IConst:
  case Opcode::ILoad:
  case Opcode::ALoad:
  case Opcode::New:
    return {0, 1};
  case Opcode::IStore:
  case Opcode::AStore:
  case Opcode::Pop:
  case Opcode::IfEq:
  case Opcode::IfNe:
  case Opcode::IfLt:
  case Opcode::IfGe:
  case Opcode::IfNull:
  case Opcode::IfNonNull:
  case Opcode::IReturn:
  case Opcode::AReturn:
    return {1, 0};
  case Opcode::Dup:
    return {1, 2};
  case Opcode::Swap:
    return {2, 2};
  case Opcode::INeg:
  case Opcode::NewArray:
  case Opcode::ANewArray:
  case Opcode::ArrayLength:
  case Opcode::GetField:
  case Opcode::GetRefField:
    return {1, 1};
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
    return {2, 1};
  case Opcode::IfICmpEq:
  case Opcode::IfICmpNe:
  case Opcode::IfICmpLt:
  case Opcode::IfICmpGe:
  case Opcode::IfICmpGt:
  case Opcode::IfICmpLe:
    return {2, 0};
  case Opcode::PALoad:
  case Opcode::AALoad:
    return {2, 1};
  case Opcode::PutField:
  case Opcode::PutRefField:
    return {2, 0};
  case Opcode::PAStore:
  case Opcode::AAStore:
    return {3, 0};
  case Opcode::MultiANewArray:
    return {Inst.B > 0 ? static_cast<unsigned>(Inst.B) : 0u, 1};
  case Opcode::AllocHookPost:
    return {1, 1}; // Peeks the freshly allocated ref.
  case Opcode::Invoke:
    // Pops handled here; pushes resolved by the caller.
    return {Inst.B > 0 ? static_cast<unsigned>(Inst.B) : 0u, 0};
  }
  return {0, 0};
}

namespace {

bool isTerminal(Opcode Op) {
  return Op == Opcode::Return || Op == Opcode::IReturn ||
         Op == Opcode::AReturn;
}

/// Abstract operand-stack depth interval at one bci. The only source of
/// uncertainty is an Invoke whose callee return kind is unresolved
/// (verifyMethod on a lone method): it may push 0 or 1. With a resolver
/// (verifyProgram) the interval stays exact.
struct DepthRange {
  unsigned Lo = 0;
  unsigned Hi = 0;
  bool Visited = false;
};

/// Depth cap: deeper means an unbalanced loop is pumping the stack.
constexpr unsigned kMaxTrackedDepth = 1 << 16;

/// Worklist dataflow over depth intervals. \p InvokePush returns 0 or 1
/// for a resolved callee, -1 for unknown. Reports definite underflow
/// (even the maximal depth cannot feed the instruction's pops) — the
/// "bad operand count" class of malformed programs — without false
/// positives on valid code. Returns the peak depth bound reached.
unsigned verifyStackDepths(const BytecodeMethod &M,
                           int (*InvokePush)(const void *,
                                             const Instruction &),
                           const void *Ctx, VerifyResult &R) {
  size_t N = M.Code.size();
  std::vector<DepthRange> At(N);
  std::deque<size_t> Work;
  unsigned Peak = 0;
  At[0] = {0, 0, true};
  Work.push_back(0);
  while (!Work.empty()) {
    size_t I = Work.front();
    Work.pop_front();
    const Instruction &Inst = M.Code[I];
    DepthRange Cur = At[I];
    StackEffect E = instructionStackEffect(Inst);
    if (Cur.Hi < E.Pops) {
      addError(R, I,
               "stack underflow: pops " + std::to_string(E.Pops) +
                   " with at most " + std::to_string(Cur.Hi) +
                   " on the stack");
      continue; // Successors of a broken state would cascade noise.
    }
    unsigned PushLo = E.Pushes;
    unsigned PushHi = E.Pushes;
    if (Inst.Op == Opcode::Invoke) {
      int P = InvokePush ? InvokePush(Ctx, Inst) : -1;
      PushLo = P < 0 ? 0 : static_cast<unsigned>(P);
      PushHi = P < 0 ? 1 : static_cast<unsigned>(P);
    }
    // Lo may dip below the pops when the uncertainty came from earlier
    // unresolved pushes; clamp at zero rather than flag a maybe.
    unsigned NextLo = Cur.Lo > E.Pops ? Cur.Lo - E.Pops + PushLo : PushLo;
    unsigned NextHi = Cur.Hi - E.Pops + PushHi;
    if (NextHi > kMaxTrackedDepth) {
      addError(R, I, "stack depth grows without bound (unbalanced loop?)");
      continue;
    }
    // Pops precede pushes, so no instruction peaks above its out-depth.
    Peak = std::max(Peak, NextHi);
    auto Flow = [&](size_t Succ) {
      if (Succ >= N)
        return; // Range errors are reported by the structural pass.
      DepthRange &D = At[Succ];
      if (D.Visited && D.Lo <= NextLo && D.Hi >= NextHi)
        return;
      D.Lo = D.Visited ? std::min(D.Lo, NextLo) : NextLo;
      D.Hi = D.Visited ? std::max(D.Hi, NextHi) : NextHi;
      D.Visited = true;
      Work.push_back(Succ);
    };
    if (isTerminal(Inst.Op))
      continue;
    if (Inst.Op == Opcode::Goto) {
      if (Inst.A >= 0)
        Flow(static_cast<size_t>(Inst.A));
      continue;
    }
    Flow(I + 1);
    if (isBranch(Inst.Op) && Inst.A >= 0)
      Flow(static_cast<size_t>(Inst.A));
  }
  return Peak;
}

/// Program-level context for resolving Invoke callees by qualified name
/// (unlinked) or flattened method index (linked).
struct ProgramContext {
  std::unordered_map<std::string, const BytecodeMethod *> ByName;
  std::vector<const BytecodeMethod *> ByIndex;

  const BytecodeMethod *callee(const BytecodeMethod &Caller,
                               const Instruction &Inst) const {
    if (Inst.A < 0)
      return nullptr;
    if (Caller.RegistryId == kInvalidMethod) {
      if (static_cast<size_t>(Inst.A) >= Caller.CalleeRefs.size())
        return nullptr;
      auto It = ByName.find(Caller.CalleeRefs[Inst.A]);
      return It == ByName.end() ? nullptr : It->second;
    }
    return static_cast<size_t>(Inst.A) < ByIndex.size()
               ? ByIndex[Inst.A]
               : nullptr;
  }
};

} // namespace

VerifyResult djx::verifyMethod(const BytecodeMethod &M) {
  VerifyResult R;
  if (M.Code.empty()) {
    R.Errors.push_back("empty code");
    R.MaxStackDepths.push_back(0);
    return R;
  }
  if (M.NumArgs > M.NumLocals)
    R.Errors.push_back("argument count exceeds local slots");
  size_t N = M.Code.size();
  for (size_t I = 0; I < N; ++I) {
    const Instruction &Inst = M.Code[I];
    if (isBranch(Inst.Op)) {
      if (Inst.A < 0 || static_cast<size_t>(Inst.A) >= N)
        addError(R, I, "branch target out of range");
    }
    switch (Inst.Op) {
    case Opcode::ILoad:
    case Opcode::IStore:
    case Opcode::ALoad:
    case Opcode::AStore:
      if (Inst.A < 0 || static_cast<size_t>(Inst.A) >= M.NumLocals)
        addError(R, I, "local slot out of range");
      break;
    case Opcode::Invoke:
      if (Inst.B < 0)
        addError(R, I, "negative argument count");
      // Unlinked methods index the callee table; linked ones index the
      // program, which the interpreter checks at call time.
      if (M.RegistryId == kInvalidMethod &&
          (Inst.A < 0 || static_cast<size_t>(Inst.A) >= M.CalleeRefs.size()))
        addError(R, I, "callee table index out of range");
      break;
    case Opcode::MultiANewArray:
      if (Inst.B < 1)
        addError(R, I, "multianewarray needs >= 1 dimension");
      break;
    default:
      break;
    }
  }
  Opcode LastOp = M.Code.back().Op;
  if (LastOp != Opcode::Return && LastOp != Opcode::IReturn &&
      LastOp != Opcode::AReturn && LastOp != Opcode::Goto)
    R.Errors.push_back("code does not end with a return or goto");
  for (size_t I = 1; I < M.LineTable.size(); ++I)
    if (M.LineTable[I - 1].Bci >= M.LineTable[I].Bci)
      R.Errors.push_back("line table not sorted by BCI");
  // Operand-count / stack-shape pass, only once the structure is sound
  // (the dataflow assumes in-range branch targets). Without a program,
  // Invoke pushes are unknown; the interval analysis stays conservative.
  R.MaxStackDepths.push_back(
      R.ok() ? verifyStackDepths(M, nullptr, nullptr, R) : 0);
  return R;
}

VerifyResult djx::verifyProgram(const BytecodeProgram &P) {
  // Walk classes directly so unloaded programs can be verified before
  // linking, like a class-load-time verifier.
  VerifyResult All;
  ProgramContext Ctx;
  for (const ClassFile &C : P.classes())
    for (const BytecodeMethod &M : C.Methods) {
      Ctx.ByName.emplace(M.qualifiedName(), &M);
      Ctx.ByIndex.push_back(&M);
    }
  for (const ClassFile &C : P.classes())
    for (const BytecodeMethod &M : C.Methods) {
      VerifyResult R = verifyMethod(M);
      // Cross-method checks: Invoke operand counts against the callee's
      // declared arity, and a second depth pass with callee return
      // kinds resolved (exact where verifyMethod's was conservative).
      bool InvokesOk = true;
      for (size_t I = 0; I < M.Code.size(); ++I) {
        const Instruction &Inst = M.Code[I];
        if (Inst.Op != Opcode::Invoke)
          continue;
        const BytecodeMethod *Callee = Ctx.callee(M, Inst);
        if (!Callee) {
          std::string Name = "(bad callee table index)";
          if (M.RegistryId == kInvalidMethod && Inst.A >= 0 &&
              static_cast<size_t>(Inst.A) < M.CalleeRefs.size())
            Name = "'" + M.CalleeRefs[Inst.A] + "'";
          addError(R, I, "unresolved callee " + Name);
          InvokesOk = false;
          continue;
        }
        if (Inst.B < 0 || static_cast<uint32_t>(Inst.B) != Callee->NumArgs) {
          addError(R, I,
                   "invoke passes " + std::to_string(Inst.B) +
                       " arguments but " + Callee->qualifiedName() +
                       " takes " + std::to_string(Callee->NumArgs));
          InvokesOk = false;
        }
      }
      if (R.ok() && InvokesOk) {
        // Full type-state pass (src/analysis/): exact stack depths with
        // callee return kinds resolved, plus type-confusion checks
        // mirroring the dispatch loop's runtime asserts, merge-depth
        // conflicts, and unreachable-code detection. Subsumes the old
        // exact depth-only second pass; verifyMethod's conservative
        // interval pass already rejected definite underflow, so this
        // only runs on structurally sound methods.
        Cfg G = Cfg::build(M);
        CalleeResolver Resolve =
            [&Ctx, &M](const Instruction &Inst) -> const BytecodeMethod * {
          return Ctx.callee(M, Inst);
        };
        TypeStateResult TS = inferTypeStates(M, G, Resolve);
        for (const TypeStateError &E : TS.Errors)
          addError(R, E.Pc, E.Msg);
      }
      for (const std::string &E : R.Errors)
        All.Errors.push_back(M.qualifiedName() + ": " + E);
      All.MaxStackDepths.push_back(R.MaxStackDepths.front());
    }
  return All;
}
