//===- AllocationInstrumenter.cpp - Java-agent bytecode rewriting ---------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "instrument/AllocationInstrumenter.h"

#include "bytecode/Verifier.h"

#include <cassert>

using namespace djx;

static uint32_t lineAt(const BytecodeMethod &M, uint32_t Bci) {
  uint32_t Line = 0;
  for (const LineEntry &E : M.LineTable) {
    if (E.Bci > Bci)
      break;
    Line = E.Line;
  }
  return Line;
}

unsigned djx::instrumentAllocations(BytecodeMethod &M,
                                    AllocationSiteTable &Table) {
  assert(M.RegistryId != kInvalidMethod &&
         "instrument after the program is loaded");
  unsigned Count = 0;
  transformMethod(M, [&](const Instruction &I, uint32_t OldBci,
                         std::vector<Instruction> &Out) {
    if (!isAllocation(I.Op)) {
      Out.push_back(I);
      return;
    }
    AllocationSite Site;
    Site.Method = M.RegistryId;
    Site.OriginalBci = OldBci;
    Site.Line = lineAt(M, OldBci);
    Site.AllocOp = I.Op;
    Site.TypeOperand = I.A;
    uint64_t Id = Table.addSite(Site);
    Out.push_back(
        Instruction{Opcode::AllocHookPre, static_cast<int64_t>(Id), 0});
    Out.push_back(I);
    Out.push_back(
        Instruction{Opcode::AllocHookPost, static_cast<int64_t>(Id), 0});
    ++Count;
  });
  // This pass runs after load, which recorded the peak operand depth the
  // interpreter reserves per activation. The hooks must leave it alone:
  // allochook_pre touches no operand and allochook_post peeks the fresh
  // ref in place.
  assert(verifyMethod(M).MaxStackDepths.front() == M.MaxStack &&
         "allocation hooks changed the method's operand depth");
  return Count;
}

unsigned djx::instrumentProgram(BytecodeProgram &P,
                                AllocationSiteTable &Table) {
  unsigned Count = 0;
  for (size_t I = 0; I < P.numMethods(); ++I)
    Count += instrumentAllocations(P.method(I), Table);
  return Count;
}
