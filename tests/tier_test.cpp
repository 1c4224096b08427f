//===- tier_test.cpp - Tiered execution: golden parity + trace compiler ----===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The super tier's contract is absolute: hot-trace superinstructions are
/// a *wall-clock* optimisation and may not move one observable byte.
/// These tests pin that contract from every angle the repo knows how to
/// disturb it — serial and multi-threaded golden diffs against the interp
/// tier, --jobs sweeps, NUMA placement policies, fuzzed schedules, fault
/// campaigns, quantum pause trajectories, and mid-trace GcRequest
/// re-execution — plus unit tests for the trace compiler's fusion and
/// shape analysis, the per-interpreter trace cache's state machine, and
/// deopt-at-safepoint invalidation.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Disassembler.h"
#include "bytecode/MethodBuilder.h"
#include "bytecode/TraceCompiler.h"
#include "core/DjxPerf.h"
#include "core/Report.h"
#include "instrument/AllocationInstrumenter.h"
#include "interp/Interpreter.h"
#include "runtime/Executor.h"
#include "support/FaultInjector.h"
#include "support/VmError.h"
#include "workloads/BytecodePrograms.h"
#include "workloads/Parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(tier_test, 93.0, 70.0,
    "src/bytecode/TraceCompiler.cpp",
    "src/bytecode/TraceCompiler.h",
    "src/interp/TraceCache.cpp",
    "src/interp/TraceCache.h");

TierConfig superTier(uint32_t HotThreshold = 4) {
  TierConfig Cfg;
  Cfg.Tier = ExecTier::Super;
  Cfg.HotThreshold = HotThreshold;
  return Cfg;
}

/// Builds a one-method program shaped like the catalog's hot loops:
///   for (i = 0; i < n; ++i) a[i] = i;   over a fresh float[n]
/// — the iload/if_icmpge head, pastore body, and iinc idiom the fused
/// superinstructions target. Locals: 0 = n, 1 = a, 2 = i.
BytecodeProgram sweepProgram(TypeRegistry &Types, int64_t N) {
  MethodBuilder B("T", "main", 0, 4);
  B.iconst(N).istore(0);
  B.iload(0).newArray(Types.floatArray()).astore(1);
  B.iconst(0).istore(2);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(2).iload(0).ifICmp(Opcode::IfICmpGe, End);
  B.aload(1).iload(2).iload(2).paStore();
  B.iload(2).iconst(1).iadd().istore(2);
  B.jmp(Head);
  B.bind(End);
  B.iload(2).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

/// Pc of the loop head in sweepProgram's method (first instruction after
/// the two-instruction init prologues: 2 + 3 + 2 = 7).
constexpr uint32_t kSweepLoopHead = 7;

/// Allocation-churn loop: 2000 iterations each allocating a fresh
/// float[64] that dies immediately. On a tiny heap every few iterations
/// fault into a GC; on a large heap none do. Locals: 0 = i, 1 = scratch.
BytecodeProgram churnProgram(TypeRegistry &Types) {
  MethodBuilder B("T", "main", 0, 4);
  B.iconst(0).istore(0);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(0).iconst(2000).ifICmp(Opcode::IfICmpGe, End);
  B.iconst(64).newArray(Types.floatArray()).astore(1);
  B.iload(0).iconst(1).iadd().istore(0);
  B.jmp(Head);
  B.bind(End);
  B.iconst(0).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

// --- Trace compiler ------------------------------------------------------

TEST(TraceCompiler, FusesHotLoopIdioms) {
  JavaVm Vm;
  BytecodeProgram P = sweepProgram(Vm.types(), 64);
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];

  auto T = compileTrace(M, kSweepLoopHead);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->EntryPc, kSweepLoopHead);

  std::vector<SuperOp> Kinds;
  for (const TraceOp &O : T->Ops)
    Kinds.push_back(O.Kind);
  EXPECT_EQ(Kinds,
            (std::vector<SuperOp>{SuperOp::CmpBranchLL, SuperOp::PAStoreLLL,
                                  SuperOp::IncLocal, SuperOp::GotoExit}));
  // The whole loop body fuses into 4 superops retiring 12 instructions.
  EXPECT_EQ(T->NumSteps, 12u);
  // The backward goto exits to the loop head; the side exit targets the
  // instruction after the loop.
  EXPECT_EQ(T->Ops.back().A, kSweepLoopHead);
  EXPECT_EQ(T->Ops.front().Src, Opcode::IfICmpGe);
  // Step accounting invariants the executing tier's budget checks rely
  // on: NumSteps is the sum of per-op charges and StepsAfter is the
  // suffix sum that follows each op.
  uint32_t Sum = 0, After = T->NumSteps;
  for (const TraceOp &O : T->Ops) {
    Sum += O.NumSteps;
    After -= O.NumSteps;
    EXPECT_EQ(O.StepsAfter, After);
  }
  EXPECT_EQ(Sum, T->NumSteps);
  // The loop body never holds operands across iterations.
  EXPECT_EQ(T->MinStackDepth, 0u);
}

TEST(TraceCompiler, TierNamesRoundTrip) {
  EXPECT_STREQ(execTierName(ExecTier::Interp), "interp");
  EXPECT_STREQ(execTierName(ExecTier::Super), "super");
  ExecTier T = ExecTier::Interp;
  EXPECT_TRUE(parseExecTier("super", T));
  EXPECT_EQ(T, ExecTier::Super);
  EXPECT_TRUE(parseExecTier("interp", T));
  EXPECT_EQ(T, ExecTier::Interp);
  T = ExecTier::Super;
  EXPECT_FALSE(parseExecTier("jit", T));
  EXPECT_EQ(T, ExecTier::Super); // Unknown names leave the output alone.
}

/// Builds a method exercising the base (non-fused) encodings: stack
/// shuffles, negation, a decrementing inc_local, and a 2-D allocation.
/// Returns ((-(5)) computed via dup/swap shuffling, then counts down).
BytecodeProgram shuffleProgram(TypeRegistry &Types) {
  MethodBuilder B("T", "main", 0, 4);
  B.iconst(3).istore(0);
  Label Head = B.newLabel(), End = B.newLabel();
  B.bind(Head);
  B.iload(0).ifEq(End);
  B.iconst(5).dup().iadd().ineg();   // -(5+5)
  B.iconst(2).swap().pop().pop();    // Shuffle, then discard both.
  B.iconst(2).iconst(3).multiANewArray(Types.intArray(), 2).astore(1);
  B.iload(0).iconst(1).isub().istore(0); // Decrementing inc_local.
  B.jmp(Head);
  B.bind(End);
  B.iload(0).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  return P;
}

TEST(TraceCompiler, BaseEncodingsCoverStackShufflesAndMultiArrays) {
  JavaVm Vm;
  BytecodeProgram P = shuffleProgram(Vm.types());
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];
  // Compile at the loop head (pc 2, after the two-instruction prologue).
  auto T = compileTrace(M, 2);
  ASSERT_TRUE(T.has_value());
  auto Has = [&](SuperOp K, Opcode Src) {
    return std::any_of(T->Ops.begin(), T->Ops.end(), [&](const TraceOp &O) {
      return O.Kind == K && O.Src == Src;
    });
  };
  EXPECT_TRUE(Has(SuperOp::Move, Opcode::Dup));
  EXPECT_TRUE(Has(SuperOp::Move, Opcode::Swap));
  EXPECT_TRUE(Has(SuperOp::Alu, Opcode::INeg));
  EXPECT_TRUE(Has(SuperOp::Move, Opcode::Pop));
  EXPECT_TRUE(Has(SuperOp::Alloc, Opcode::MultiANewArray));
  // The iload/iconst/isub/istore run.
  EXPECT_TRUE(Has(SuperOp::IncLocal, Opcode::ISub));
  // A move prints as its opcode; an ALU op names its opcode.
  std::string Text = disassembleTrace(M, *T);
  EXPECT_NE(Text.find(": iconst 5\n"), std::string::npos) << Text;
  EXPECT_NE(Text.find(": dup\n"), std::string::npos) << Text;
  EXPECT_NE(Text.find(": alu (ineg)\n"), std::string::npos) << Text;
  EXPECT_NE(Text.find(": astore L1\n"), std::string::npos) << Text;

  // And the program runs identically in both tiers, exercising the
  // executing side of every base encoding above.
  auto Run = [&](ExecTier Tier) {
    JavaVm RunVm;
    BytecodeProgram RunP = shuffleProgram(RunVm.types());
    RunP.load(RunVm);
    JavaThread &Th = RunVm.startThread("shuffle", 0);
    Interpreter I(RunVm, RunP, Th);
    if (Tier == ExecTier::Super)
      I.setTier(superTier(/*HotThreshold=*/1));
    auto R = I.run("T.main");
    uint64_t Cycles = RunVm.totalCycles();
    uint64_t Steps = I.stepsExecuted();
    RunVm.endThread(Th);
    EXPECT_TRUE(R.has_value());
    return std::make_tuple(R->asInt(), Steps, Cycles);
  };
  EXPECT_EQ(Run(ExecTier::Super), Run(ExecTier::Interp));
}

TEST(TraceCache, SiteCountIsBoundsChecked) {
  TraceCache Cache(superTier());
  EXPECT_EQ(Cache.siteCount(0, 0), 0u);   // No method arrays yet.
  (void)Cache.sitesFor(0, 4);
  EXPECT_EQ(Cache.siteCount(0, 9), 0u);   // Pc past the code size.
  EXPECT_EQ(Cache.siteCount(7, 0), 0u);   // Method never touched.
}

TEST(TraceCompiler, RejectsRegionsTooShortToPay) {
  JavaVm Vm;
  MethodBuilder B("T", "main", 0, 2);
  B.iconst(7).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];
  // IRet ends trace formation immediately: a one-instruction region does
  // not pay for trace entry, and the iret pc itself yields zero steps.
  EXPECT_FALSE(compileTrace(M, 0).has_value());
  EXPECT_FALSE(compileTrace(M, 1).has_value());
}

TEST(TraceCompiler, MaxTraceLengthCapsFormation) {
  // 80 straight-line instructions before the return: the 64-step cap
  // ends the trace.
  MethodBuilder B("T", "main", 0, 2);
  for (int I = 0; I < 40; ++I)
    B.iconst(I).pop();
  B.iconst(0).iret();
  BytecodeMethod M = B.build();
  auto T = compileTrace(M, 0);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->NumSteps, 64u);
  EXPECT_EQ(T->EndPc, 64u); // Falls through to the flat loop mid-method.
  EXPECT_EQ(T->Ops.size(), 64u);
}

TEST(TraceCompiler, FusedIdiomCutByTheCapFallsBackToBaseEncodings) {
  // Each fused idiom starts two steps before the cap: too long to fuse,
  // so its first two constituents compile one by one and the trace ends
  // at the cap. Two nops ahead of it are carried as nop superops.
  struct Idiom {
    const char *Name;
    std::function<void(MethodBuilder &)> Emit;
    Opcode Head[2]; ///< The constituents left in the trace.
  };
  JavaVm Vm;
  const TypeId IntArr = Vm.types().intArray();
  const Idiom Idioms[] = {
      {"pa_store_lll",
       [](MethodBuilder &B) { B.aload(1).iload(0).iload(0).paStore(); },
       {Opcode::ALoad, Opcode::ILoad}},
      {"pa_load_ll",
       [](MethodBuilder &B) { B.aload(1).iload(0).paLoad().pop(); },
       {Opcode::ALoad, Opcode::ILoad}},
      {"inc_local",
       [](MethodBuilder &B) { B.iload(0).iconst(1).iadd().istore(0); },
       {Opcode::ILoad, Opcode::IConst}},
      {"cmp_branch_ll",
       [](MethodBuilder &B) {
         Label Next = B.newLabel();
         B.iload(0).iload(0).ifICmp(Opcode::IfICmpNe, Next);
         B.bind(Next);
       },
       {Opcode::ILoad, Opcode::ILoad}},
      {"accum_local",
       [](MethodBuilder &B) { B.iconst(1).iload(0).iadd().istore(0); },
       {Opcode::IConst, Opcode::ILoad}},
  };
  for (const Idiom &Id : Idioms) {
    // Locals: 0 = int, 1 = int[]. Pcs 0-7 set them up, 8-61 pad with
    // iconst/pop pairs (the last pair becomes two nops), the idiom
    // starts at pc 62.
    MethodBuilder B("T", "main", 0, 2);
    B.iconst(0).istore(0).iconst(4).newArray(IntArr).astore(1);
    B.iconst(1).ineg().pop();
    for (int I = 0; I < 27; ++I)
      B.iconst(I).pop();
    Id.Emit(B);
    B.iconst(0).iret();
    BytecodeMethod M = B.build();
    M.Code[60] = Instruction{Opcode::Nop};
    M.Code[61] = Instruction{Opcode::Nop};
    // The idiom fuses when the cap leaves room for it...
    auto Mid = compileTrace(M, 40);
    ASSERT_TRUE(Mid.has_value()) << Id.Name;
    EXPECT_NE(disassembleTrace(M, *Mid).find(Id.Name), std::string::npos)
        << disassembleTrace(M, *Mid);
    // ...and is cut into base encodings when it does not.
    auto T = compileTrace(M, 0);
    ASSERT_TRUE(T.has_value()) << Id.Name;
    EXPECT_EQ(T->NumSteps, 64u) << Id.Name;
    ASSERT_EQ(T->Ops.size(), 64u) << Id.Name;
    EXPECT_EQ(T->Ops[60].Kind, SuperOp::Nop) << Id.Name;
    EXPECT_EQ(T->Ops[61].Kind, SuperOp::Nop) << Id.Name;
    for (size_t K = 0; K < 2; ++K) {
      EXPECT_EQ(T->Ops[62 + K].Kind, SuperOp::Move) << Id.Name;
      EXPECT_EQ(T->Ops[62 + K].Src, Id.Head[K]) << Id.Name;
    }
    EXPECT_EQ(disassembleTrace(M, *T).find(Id.Name), std::string::npos)
        << disassembleTrace(M, *T);
  }
}

TEST(TraceCompiler, InstrumentedAllocationSiteEndsTheTrace) {
  // allochook_pre dispatches an agent hook, which runs only in the flat
  // loop: the trace stops right before it.
  JavaVm Vm;
  BytecodeProgram P = churnProgram(Vm.types());
  P.load(Vm);
  AllocationSiteTable Sites;
  ASSERT_EQ(instrumentProgram(P, Sites), 1u);
  const BytecodeMethod &M = P.method(0);
  // Loop head: iload/iconst/if_icmpge after the two-instruction prologue.
  auto T = compileTrace(M, 2);
  ASSERT_TRUE(T.has_value());
  ASSERT_LT(T->EndPc, M.Code.size());
  EXPECT_EQ(M.Code[T->EndPc].Op, Opcode::AllocHookPre);
  EXPECT_EQ(T->Ops.back().Kind, SuperOp::Move);
  EXPECT_EQ(T->Ops.back().Src, Opcode::IConst); // The array length.
  for (const TraceOp &O : T->Ops)
    EXPECT_NE(O.Kind, SuperOp::Alloc);
}

TEST(TraceCompiler, ShapeAnalysisTracksEntryDepthAndGrowth) {
  JavaVm Vm;
  MethodBuilder B("T", "main", 0, 2);
  B.iconst(1).iconst(2);
  // Entry pc 2: consumes the two operands already on the stack at entry.
  B.iadd().istore(0);
  B.iconst(3).iconst(4).iconst(5).pop().pop().pop();
  B.iconst(0).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];

  auto T = compileTrace(M, 2);
  ASSERT_TRUE(T.has_value());
  // iadd pops 2 below the entry depth; the iconst run later nets only
  // +1 relative to entry, so the floor stays at the iadd's two operands.
  EXPECT_EQ(T->MinStackDepth, 2u);
  // Growth is covered by the method-wide peak every activation reserves
  // (the iconst run's depth 3), so the trace records none of its own.
  EXPECT_EQ(M.MaxStack, 3u);
}

// --- Disassembler --------------------------------------------------------

TEST(Disassembler, RendersCompiledTraces) {
  JavaVm Vm;
  BytecodeProgram P = sweepProgram(Vm.types(), 64);
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];
  auto T = compileTrace(M, kSweepLoopHead);
  ASSERT_TRUE(T.has_value());

  std::string Text = disassembleTrace(M, *T);
  EXPECT_NE(Text.find("trace T.main @7"), std::string::npos) << Text;
  EXPECT_NE(Text.find("cmp_branch_ll"), std::string::npos) << Text;
  EXPECT_NE(Text.find("[side exit]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("pa_store_lll"), std::string::npos) << Text;
  EXPECT_NE(Text.find("inc_local"), std::string::npos) << Text;
  EXPECT_NE(Text.find("goto_exit"), std::string::npos) << Text;
}

// --- Trace cache ---------------------------------------------------------

TEST(TraceCache, WarmsCompilesInvalidatesRecompiles) {
  JavaVm Vm;
  BytecodeProgram P = sweepProgram(Vm.types(), 64);
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];

  TraceCache Cache(superTier(/*HotThreshold=*/3));
  TraceCache::Site *Sites = Cache.sitesFor(0, M.Code.size());

  // Two dispatches warm the counter without compiling.
  EXPECT_EQ(Cache.bump(Sites[kSweepLoopHead], M, kSweepLoopHead), nullptr);
  EXPECT_EQ(Cache.bump(Sites[kSweepLoopHead], M, kSweepLoopHead), nullptr);
  EXPECT_EQ(Cache.siteCount(0, kSweepLoopHead), 2u);
  EXPECT_EQ(Sites[kSweepLoopHead].St, TraceCache::Site::Cold);

  // The third crosses the threshold and compiles.
  const CompiledTrace *T =
      Cache.bump(Sites[kSweepLoopHead], M, kSweepLoopHead);
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(Sites[kSweepLoopHead].St, TraceCache::Site::Compiled);
  EXPECT_EQ(Cache.stats().Compiles, 1u);

  // Safepoint invalidation frees the trace but keeps the counter
  // saturated, so the next flat visit recompiles immediately.
  Cache.invalidate();
  EXPECT_EQ(Sites[kSweepLoopHead].St, TraceCache::Site::Cold);
  EXPECT_EQ(Cache.stats().Invalidations, 1u);
  EXPECT_EQ(Cache.siteCount(0, kSweepLoopHead),
            Cache.config().HotThreshold);
  ASSERT_NE(Cache.bump(Sites[kSweepLoopHead], M, kSweepLoopHead), nullptr);
  EXPECT_EQ(Cache.stats().Compiles, 2u);
}

TEST(TraceCache, UncompilableSitesGoDead) {
  JavaVm Vm;
  MethodBuilder B("T", "main", 0, 2);
  B.iconst(7).iret();
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  BytecodeProgram P;
  P.addClass(std::move(C));
  P.load(Vm);
  const BytecodeMethod &M = P.classes()[0].Methods[0];

  TraceCache Cache(superTier(/*HotThreshold=*/1));
  TraceCache::Site *Sites = Cache.sitesFor(0, M.Code.size());
  EXPECT_EQ(Cache.bump(Sites[0], M, 0), nullptr);
  EXPECT_EQ(Sites[0].St, TraceCache::Site::Dead);
  EXPECT_EQ(Cache.stats().DeadSites, 1u);
  EXPECT_EQ(Cache.stats().Compiles, 0u);
}

// --- Golden parity: serial ----------------------------------------------

/// Everything observable from one profiled serial batik run.
struct SerialOutcome {
  std::string ObjectReport;
  std::string CodeReport;
  uint64_t Steps = 0;
  uint64_t TotalCycles = 0;
  uint64_t PeakHeap = 0;
  uint64_t Samples = 0;
  uint64_t AllocCallbacks = 0;
  uint64_t Compiles = 0;

  bool operator==(const SerialOutcome &O) const {
    return ObjectReport == O.ObjectReport && CodeReport == O.CodeReport &&
           Steps == O.Steps && TotalCycles == O.TotalCycles &&
           PeakHeap == O.PeakHeap && Samples == O.Samples &&
           AllocCallbacks == O.AllocCallbacks;
  }
};

SerialOutcome runSerialBatik(ExecTier Tier) {
  VmConfig Cfg;
  Cfg.HeapBytes = 4 << 20; // Small: inline AutoGc collections happen.
  JavaVm Vm(Cfg);
  BytecodeProgram Program = buildBatikProgram(Vm.types());
  Program.load(Vm);
  JavaThread &T = Vm.startThread("tier", 0);
  Interpreter Interp(Vm, Program, T);
  if (Tier == ExecTier::Super)
    Interp.setTier(superTier());
  DjxPerf Prof(Vm);
  Prof.instrument(Program, Interp);
  Prof.start();
  Interp.run("Main.run", {Value::fromInt(400), Value::fromInt(512)});
  Prof.stop();

  SerialOutcome O;
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.CodeReport = renderCodeCentric(P, Vm.methods());
  O.Steps = Interp.stepsExecuted();
  O.TotalCycles = Vm.totalCycles();
  O.PeakHeap = Vm.peakHeapBytes();
  O.Samples = Prof.samplesHandled();
  O.AllocCallbacks = Prof.allocationCallbacks();
  if (const TraceCache *Cache = Interp.traceCache())
    O.Compiles = Cache->stats().Compiles;
  Vm.endThread(T);
  return O;
}

TEST(TierParity, SerialReportsByteIdenticalAcrossTiers) {
  SerialOutcome Interp = runSerialBatik(ExecTier::Interp);
  SerialOutcome Super = runSerialBatik(ExecTier::Super);
  EXPECT_TRUE(Super == Interp)
      << "--- interp ---\n" << Interp.ObjectReport
      << "\n--- super ---\n" << Super.ObjectReport;
  // Sanity: the super run actually ran traces, not just the flat loop.
  EXPECT_EQ(Interp.Compiles, 0u);
  EXPECT_GT(Super.Compiles, 0u);
  EXPECT_GT(Super.Samples, 0u);
  EXPECT_GT(Super.AllocCallbacks, 0u);
}

// --- Golden parity: multi-threaded --------------------------------------

/// Everything observable from one profiled MT run.
struct MtOutcome {
  std::string ObjectReport;
  std::string CodeReport;
  uint64_t Steps = 0;
  uint64_t Safepoints = 0;
  uint64_t Rounds = 0;
  uint64_t TotalCycles = 0;
  uint64_t PeakHeap = 0;
  uint64_t Samples = 0;
  uint64_t AllocCallbacks = 0;
  uint64_t Collections = 0;
  HierarchyStats Machine;

  bool operator==(const MtOutcome &O) const {
    return ObjectReport == O.ObjectReport && CodeReport == O.CodeReport &&
           Steps == O.Steps && Safepoints == O.Safepoints &&
           Rounds == O.Rounds && TotalCycles == O.TotalCycles &&
           PeakHeap == O.PeakHeap && Samples == O.Samples &&
           AllocCallbacks == O.AllocCallbacks &&
           Collections == O.Collections &&
           Machine.Accesses == O.Machine.Accesses &&
           Machine.L1Misses == O.Machine.L1Misses &&
           Machine.TlbMisses == O.Machine.TlbMisses &&
           Machine.RemoteAccesses == O.Machine.RemoteAccesses &&
           Machine.TotalLatency == O.Machine.TotalLatency;
  }
};

ParallelConfig mtWorkload() {
  ParallelConfig Pc;
  Pc.SimThreads = 4;
  Pc.QuantumSteps = 8192;
  Pc.Iters = 500;
  Pc.Nlen = 256;
  Pc.HotElems = 16384;               // 128 KiB: sweeps miss L1.
  Pc.HeapBytesPerThread = 512 << 10; // Churn forces safepoint GCs.
  return Pc;
}

MtOutcome runMt(ParallelConfig Pc, bool NumaRemote = false) {
  JavaVm Vm(NumaRemote ? numaRemoteVmConfig(Pc) : parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  ParallelOutcome Run = NumaRemote ? runNumaRemoteWorkload(Vm, &Prof, Pc)
                                   : runParallelWorkload(Vm, &Prof, Pc);
  Prof.stop();

  MtOutcome O;
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.CodeReport = renderCodeCentric(P, Vm.methods());
  O.Steps = Run.Steps;
  O.Safepoints = Run.Safepoints;
  O.Rounds = Run.Rounds;
  O.TotalCycles = Vm.totalCycles();
  O.PeakHeap = Vm.peakHeapBytes();
  O.Samples = Prof.samplesHandled();
  O.AllocCallbacks = Prof.allocationCallbacks();
  O.Collections = Vm.gcTotals().Collections;
  O.Machine = Run.Machine;
  return O;
}

/// The tentpole acceptance test: `--tier super` is byte-identical to
/// `--tier interp` on the parallel workload for every --jobs value, with
/// safepoint GCs (= mid-trace GcRequest unwinds and deopt-at-safepoint
/// invalidation) in play.
TEST(TierParity, MtWorkloadByteIdenticalAcrossTiersAndJobs) {
  ParallelConfig Golden = mtWorkload();
  Golden.Jobs = 1;
  MtOutcome Interp = runMt(Golden);
  // Sanity: safepoint GCs actually interrupted traces.
  EXPECT_GT(Interp.Safepoints, 0u);
  EXPECT_GT(Interp.Collections, 0u);
  EXPECT_GT(Interp.Samples, 0u);

  for (unsigned Jobs : {1u, 2u, 4u}) {
    ParallelConfig Pc = mtWorkload();
    Pc.Jobs = Jobs;
    Pc.Tier = superTier();
    MtOutcome Super = runMt(Pc);
    EXPECT_TRUE(Super == Interp)
        << "jobs=" << Jobs << "\n--- interp ---\n" << Interp.ObjectReport
        << "\n--- super ---\n" << Super.ObjectReport;
  }
}

/// NUMA placement policies change simulated placement, not the schedule;
/// the super tier must reproduce the interp tier under each of them.
TEST(TierParity, NumaWorkloadByteIdenticalAcrossPolicies) {
  for (NumaPolicy Policy :
       {NumaPolicy::FirstTouch, NumaPolicy::Interleave, NumaPolicy::Bind}) {
    ParallelConfig Pc;
    Pc.SimThreads = 4;
    Pc.Jobs = 2;
    Pc.Iters = 150;
    Pc.Nlen = 256;
    Pc.HotElems = 32768; // 256 KiB: above the scaled L3, sweeps hit DRAM.
    Pc.HeapBytesPerThread = 512 << 10;
    Pc.Policy = Policy;
    MtOutcome Interp = runMt(Pc, /*NumaRemote=*/true);
    Pc.Tier = superTier();
    MtOutcome Super = runMt(Pc, /*NumaRemote=*/true);
    EXPECT_TRUE(Super == Interp)
        << "policy=" << static_cast<int>(Policy) << "\n--- interp ---\n"
        << Interp.ObjectReport << "\n--- super ---\n" << Super.ObjectReport;
  }
}

/// Fuzzed logical schedules (per-round quantum draws, forced GC rounds,
/// drain splits) are still workloads; the tier may not show through any
/// of them. Fixed seeds keep the property stable in CI.
TEST(TierParity, FuzzedSchedulesAreTierInvariant) {
  for (uint64_t Seed : {0x9E3779B97F4A7C15ULL, 0xBF58476D1CE4E5B9ULL,
                        0x94D049BB133111EBULL, 0x2545F4914F6CDD1DULL,
                        0xD1342543DE82EF95ULL, 0xAF251AF3B0F025B5ULL}) {
    ParallelConfig Pc;
    Pc.SimThreads = 3;
    Pc.Iters = 100;
    Pc.Nlen = 128;
    Pc.HotElems = 8192;
    Pc.HeapBytesPerThread = 256 << 10;
    Pc.Fuzz.Enabled = true;
    Pc.Fuzz.Seed = Seed;
    Pc.Jobs = 1;
    MtOutcome Interp = runMt(Pc);
    Pc.Jobs = 2;
    Pc.Tier = superTier();
    MtOutcome Super = runMt(Pc);
    EXPECT_TRUE(Super == Interp)
        << "seed=0x" << std::hex << Seed << "\n--- interp ---\n"
        << Interp.ObjectReport << "\n--- super ---\n" << Super.ObjectReport;
  }
}

// --- Fault-injection parity ----------------------------------------------

/// Clears the process-global injector on scope exit so a failing
/// assertion cannot leak an armed plan into the next test.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::clear(); }
};

/// Outcome of one fault-campaign run: whether it failed, how, and what
/// the salvaged profile says.
struct FaultOutcome {
  bool Failed = false;
  int ErrorKind = -1;
  std::string Describe;
  std::string ObjectReport;
  uint64_t Samples = 0;

  bool operator==(const FaultOutcome &O) const {
    return Failed == O.Failed && ErrorKind == O.ErrorKind &&
           Describe == O.Describe && ObjectReport == O.ObjectReport &&
           Samples == O.Samples;
  }
};

FaultOutcome runFaulted(const FaultPlan &Plan, ExecTier Tier) {
  InjectorGuard Guard;
  FaultInjector::install(Plan);
  ParallelConfig Pc;
  Pc.SimThreads = 3;
  Pc.Iters = 60;
  Pc.Nlen = 128;
  Pc.HotElems = 8192;
  Pc.HeapBytesPerThread = 256 << 10;
  Pc.Jobs = 2;
  if (Tier == ExecTier::Super)
    Pc.Tier = superTier();
  JavaVm Vm(parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  FaultOutcome O;
  try {
    runParallelWorkload(Vm, &Prof, Pc);
  } catch (const VmError &E) {
    O.Failed = true;
    O.ErrorKind = static_cast<int>(E.Kind);
    O.Describe = E.describe();
  }
  Prof.stop();
  FaultInjector::clear();
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.Samples = Prof.samplesHandled();
  return O;
}

/// Every fault key is a logical coordinate, so a campaign's outcome —
/// including whether it fails at all, the error kind, and the salvaged
/// partial profile — must agree between tiers: traces re-execute the
/// faulting instruction in the flat loop without re-drawing any fault.
TEST(TierParity, FaultCampaignsAreTierInvariant) {
  int Compared = 0;
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    for (int Preset = 0; Preset < 2; ++Preset) {
      FaultPlan Plan;
      Plan.Seed = 0x9E3779B97F4A7C15ULL * Seed;
      if (Preset == 0)
        Plan.rate(FaultSite::HeapAlloc) = 2e-4;
      else
        Plan.rate(FaultSite::GcCollect) = 0.5;
      FaultOutcome Interp = runFaulted(Plan, ExecTier::Interp);
      FaultOutcome Super = runFaulted(Plan, ExecTier::Super);
      EXPECT_TRUE(Super == Interp)
          << "seed=" << Seed << " preset=" << Preset
          << " interp failed=" << Interp.Failed << " '" << Interp.Describe
          << "' super failed=" << Super.Failed << " '" << Super.Describe
          << "'";
      ++Compared;
    }
  }
  EXPECT_EQ(Compared, 8);
}

// --- Quantum accounting ---------------------------------------------------

/// resume(MaxSteps) must pause at exactly the same step trajectory in
/// both tiers: trace admission charges the whole trace against the
/// quantum up front and declines when it does not fit, so quantum
/// boundaries land on identical instructions.
TEST(TierParity, QuantumPauseTrajectoryMatchesInterp) {
  auto Trajectory = [](ExecTier Tier, uint64_t Quantum) {
    VmConfig Cfg;
    Cfg.HeapBytes = 8 << 20;
    JavaVm Vm(Cfg);
    BytecodeProgram Program = buildBatikProgram(Vm.types());
    Program.load(Vm);
    JavaThread &T = Vm.startThread("tier", 0);
    Interpreter Interp(Vm, Program, T);
    if (Tier == ExecTier::Super)
      Interp.setTier(superTier());
    Interp.startCall("Main.run", {Value::fromInt(50), Value::fromInt(128)});
    std::vector<uint64_t> Pauses;
    while (Interp.resume(Quantum) == RunState::Paused)
      Pauses.push_back(Interp.stepsExecuted());
    Pauses.push_back(Interp.stepsExecuted());
    uint64_t Cycles = Vm.totalCycles();
    Vm.endThread(T);
    return std::make_tuple(Pauses, Cycles);
  };
  // An odd quantum guarantees boundaries land mid-loop, inside would-be
  // traces, so admission control is really exercised.
  for (uint64_t Quantum : {257u, 1031u, 8192u}) {
    auto Interp = Trajectory(ExecTier::Interp, Quantum);
    auto Super = Trajectory(ExecTier::Super, Quantum);
    EXPECT_EQ(std::get<0>(Super), std::get<0>(Interp)) << "q=" << Quantum;
    EXPECT_EQ(std::get<1>(Super), std::get<1>(Interp)) << "q=" << Quantum;
    EXPECT_GT(std::get<0>(Interp).size(), 2u) << "q=" << Quantum;
  }
}

// --- GcRequest re-execution accounting ------------------------------------

/// Regression test for the hot-counter double-bump: a GcRequest unwind
/// re-executes the faulting allocation in the flat loop, and that retry
/// dispatch must NOT bump the site counter again — otherwise trace
/// selection depends on GC timing and the profile stops being
/// heap-size-invariant in the warming phase. With a threshold too high
/// to ever compile, the counters are a pure dispatch census: one bump
/// per *logical* execution, so a GC-heavy tiny-heap run must census
/// identically to a GC-free large-heap one.
TEST(TierParity, GcRetryDoesNotDoubleBumpHotCounters) {
  auto Census = [](uint64_t HeapBytes, uint64_t *CollectionsOut) {
    VmConfig Cfg;
    Cfg.HeapBytes = HeapBytes;
    Cfg.HeapShards = 1;
    JavaVm Vm(Cfg);
    BytecodeProgram P = churnProgram(Vm.types());
    P.load(Vm);
    ExecutorConfig Ec;
    Ec.Jobs = 1;
    Ec.QuantumSteps = 4096;
    Ec.Tier = superTier(/*HotThreshold=*/1u << 30);
    Executor Ex(Vm, Ec);
    size_t Task = Ex.addThread(P, "T.main", {}, "census");
    Ex.run();
    EXPECT_FALSE(Ex.error().has_value());
    const TraceCache *Cache = Ex.interpreter(Task).traceCache();
    EXPECT_NE(Cache, nullptr);
    uint64_t Sum = 0;
    for (uint32_t Pc = 0; Pc < 64; ++Pc)
      Sum += Cache->siteCount(0, Pc);
    *CollectionsOut = Vm.gcTotals().Collections;
    Vm.endThread(Ex.thread(Task));
    return Sum;
  };
  uint64_t BigHeapGcs = 0, TinyHeapGcs = 0;
  uint64_t Big = Census(16ULL << 20, &BigHeapGcs);
  uint64_t Tiny = Census(64ULL << 10, &TinyHeapGcs);
  EXPECT_EQ(BigHeapGcs, 0u);
  EXPECT_GT(TinyHeapGcs, 0u) << "tiny heap never collected; the retry "
                                "path was not exercised";
  EXPECT_EQ(Tiny, Big) << "GC retries changed the dispatch census: the "
                          "faulting instruction's re-execution bumped its "
                          "hot-site counter twice";
  EXPECT_GT(Big, 0u);
}

// --- Deopt at safepoint ---------------------------------------------------

/// Safepoints invalidate every compiled trace (the flat loop owns all
/// resumed frames) and hot sites recompile on their next visit.
TEST(TierParity, SafepointsInvalidateAndRecompileTraces) {
  ParallelConfig Pc = mtWorkload();
  Pc.SimThreads = 2;
  JavaVm Vm(parallelVmConfig(Pc));
  BytecodeProgram Program = buildParallelWorkerProgram(Vm.types());
  Program.load(Vm);
  ExecutorConfig Ec;
  Ec.Jobs = 1;
  Ec.QuantumSteps = Pc.QuantumSteps;
  Ec.Tier = superTier();
  Executor Ex(Vm, Ec);
  for (unsigned I = 0; I < Pc.SimThreads; ++I)
    Ex.addThread(Program, "Main.run",
                 {Value::fromInt(Pc.Iters), Value::fromInt(Pc.Nlen),
                  Value::fromInt(Pc.HotElems)},
                 "worker-" + std::to_string(I));
  Ex.run();
  EXPECT_FALSE(Ex.error().has_value());
  EXPECT_GT(Ex.safepoints(), 0u);

  for (size_t Task = 0; Task < Ex.numTasks(); ++Task) {
    const TraceCache *Cache = Ex.interpreter(Task).traceCache();
    ASSERT_NE(Cache, nullptr);
    // Every stop-the-world pause swept this cache...
    EXPECT_EQ(Cache->stats().Invalidations, Ex.safepoints());
    // ...and the hot loops recompiled afterwards: strictly more compiles
    // than the warm-up alone would produce.
    EXPECT_GT(Cache->stats().Compiles, 0u);
    EXPECT_FALSE(Ex.interpreter(Task).renderTraces().empty());
  }
  for (size_t Task = 0; Task < Ex.numTasks(); ++Task)
    Vm.endThread(Ex.thread(Task));
}

} // namespace
