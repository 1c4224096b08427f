//===- Interpreter.cpp - Bytecode interpreter ------------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "interp/Interpreter.h"

#include <algorithm>
#include <cassert>

using namespace djx;

Interpreter::Interpreter(JavaVm &Vm, BytecodeProgram &Program,
                         JavaThread &Thread)
    : Vm(Vm), Program(Program), Thread(Thread) {
  assert(Program.isLoaded() && "program must be linked before execution");
  Arena.resize(256);
  RootToken = Vm.addRootProvider(
      [this](std::vector<ObjectRef *> &Slots) { collectRoots(Slots); });
}

Interpreter::~Interpreter() { Vm.removeRootProvider(RootToken); }

void Interpreter::setPublishVmAllocationEvents(bool On) {
  Vm.setAllocationEventsEnabled(On);
}

void Interpreter::setTier(const TierConfig &Cfg) {
  assert(Steps == 0 && CallStack.empty() &&
         "the tier must be selected before any instruction executes");
  Traces.reset();
  if (Cfg.Tier == ExecTier::Super)
    Traces = std::make_unique<TraceCache>(Cfg);
}

void Interpreter::collectRoots(std::vector<ObjectRef *> &Slots) {
  for (Frame &F : CallStack) {
    Value *L = Arena.data() + F.LocalsBase;
    for (uint32_t I = 0, N = F.M->NumLocals; I < N; ++I)
      if (L[I].IsRef && L[I].Bits != kNullRef)
        Slots.push_back(&L[I].Bits);
    Value *S = Arena.data() + F.StackBase;
    for (uint32_t I = 0, N = F.Sp; I < N; ++I)
      if (S[I].IsRef && S[I].Bits != kNullRef)
        Slots.push_back(&S[I].Bits);
  }
}

void Interpreter::growArena(size_t Needed) {
  Arena.resize(std::max(Arena.size() * 2, Needed));
}

Interpreter::Frame &Interpreter::pushActivation(size_t MethodIndex,
                                                uint32_t ArgsBase) {
  const BytecodeMethod &M = Program.method(MethodIndex);
  // Reserve the locals plus the method's peak operand depth (recorded by
  // BytecodeProgram::load): pushes in either tier are then single stores.
  size_t Needed = static_cast<size_t>(ArgsBase) + M.NumLocals + M.MaxStack;
  if (Needed > Arena.size())
    growArena(Needed);
  // Non-argument locals start zeroed (and must: the GC scans them).
  std::fill(Arena.begin() + ArgsBase + M.NumArgs,
            Arena.begin() + ArgsBase + M.NumLocals, Value{});
  Frame F;
  F.M = &M;
  F.MethodIndex = MethodIndex;
  F.LocalsBase = ArgsBase;
  F.StackBase = ArgsBase + M.NumLocals;
  F.Sp = 0;
  F.Pc = 0;
  CallStack.push_back(F);
  ArenaTop = F.StackBase;
  return CallStack.back();
}

void Interpreter::fatal(VmErrorKind Kind, const std::string &Msg) const {
  VmError E(Kind, Msg);
  E.ThreadId = Thread.id();
  E.Steps = Steps;
  throw E;
}

void Interpreter::fatalStepLimit() const {
  fatal(VmErrorKind::StepLimit, "interpreter step limit (" +
                                    std::to_string(StepLimit) +
                                    ") exceeded (runaway loop?)");
}

void Interpreter::fatalZeroDivisor(uint32_t Pc) {
  const BytecodeMethod &M = *CallStack.back().M;
  Thread.setBci(Pc);
  fatal(VmErrorKind::InvalidBytecode,
        std::string(M.Code[Pc].Op == Opcode::IDiv ? "division" : "remainder") +
            " by zero in " + M.qualifiedName() + " at bci " +
            std::to_string(Pc));
}

std::optional<Value> Interpreter::run(const std::string &QualifiedName,
                                      const std::vector<Value> &Args) {
  return execute(Program.methodIndex(QualifiedName), Args);
}

void Interpreter::beginCall(size_t MethodIndex,
                            const std::vector<Value> &Args) {
  assert(Args.size() == Program.method(MethodIndex).NumArgs &&
         "argument count mismatch");
  const uint32_t BaseTop = ArenaTop;
  // The step limit is per run(): budget from the cumulative counter at
  // top-level entry (nested entries inherit the outer budget).
  if (CallStack.empty())
    StepDeadline =
        Steps > ~0ULL - StepLimit ? ~0ULL : Steps + StepLimit;

  // Materialise the entry arguments in the arena, then push the activation
  // over them (pushActivation treats them as in-place locals 0..N-1).
  if (ArenaTop + Args.size() > Arena.size())
    growArena(ArenaTop + Args.size());
  std::copy(Args.begin(), Args.end(), Arena.begin() + BaseTop);
  Frame &F0 = pushActivation(MethodIndex, BaseTop);
  Thread.pushFrame(F0.M->RegistryId, 0);
}

std::optional<Value> Interpreter::execute(size_t MethodIndex,
                                          const std::vector<Value> &Args) {
  const size_t BaseDepth = CallStack.size();
  const uint32_t BaseTop = ArenaTop;
  beginCall(MethodIndex, Args);
  std::optional<Value> Out;
  bool Returned = loop(BaseDepth, BaseTop, ~0ULL, Out);
  assert(Returned && "unbounded loop() paused");
  (void)Returned;
  return Out;
}

void Interpreter::startCall(const std::string &QualifiedName,
                            const std::vector<Value> &Args) {
  assert(CallStack.empty() && "a call is already pending");
  SessionResult.reset();
  beginCall(Program.methodIndex(QualifiedName), Args);
}

RunState Interpreter::resume(uint64_t MaxSteps) {
  assert(!CallStack.empty() && "no pending call to resume");
  assert(MaxSteps > 0 && "resume needs a positive step budget");
  uint64_t QuantumEnd =
      Steps > ~0ULL - MaxSteps ? ~0ULL : Steps + MaxSteps;
  std::optional<Value> Out;
  try {
    if (!loop(/*BaseDepth=*/0, /*BaseTop=*/0, QuantumEnd, Out))
      return RunState::Paused;
  } catch (const GcRequest &) {
    // Executor mode: a shard allocation faulted. The opcode's operands
    // are still on the stack (peek-then-commit) and its frame state was
    // synced before the VM call — roll back its step count and dispatch
    // tick too, so the re-execution after the safepoint GC is observed
    // exactly once by every counter (and so the Executor can detect a
    // fault that repeats at the same step count as OutOfMemory). The
    // hot-site counter must skip the re-execution's dispatch for the same
    // reason: a double bump would make trace selection GC-timing-
    // dependent and break --jobs invariance.
    --Steps;
    Thread.subCycles(1);
    GcRetryPending = true;
    throw;
  }
  SessionResult = Out;
  return RunState::Done;
}

std::optional<Value> Interpreter::takeResult() {
  std::optional<Value> Out = SessionResult;
  SessionResult.reset();
  return Out;
}

// --- Opcode semantics -------------------------------------------------------
//
// Each opcode's effect is defined once, here, and both tiers call these
// handlers: the flat loop once per dispatched instruction, execTrace for
// the trace ops that mirror single opcodes and, with operands read from
// locals instead of the stack, for the fused idioms. Pushes are single
// stores because pushActivation reserved the frame's peak operand depth.
// The handlers are forced inline so each call site compiles to the code a
// per-tier copy would, with the stack pointer kept in a register.

#define DJX_HANDLER [[gnu::always_inline]] inline

namespace {

DJX_HANDLER Value pop(Value *S, uint32_t &Sp) {
  assert(Sp > 0 && "operand stack underflow");
  return S[--Sp];
}

/// iload's operand: local \p Slot, which must hold an int.
DJX_HANDLER int64_t intLocal(const Value *L, int64_t Slot) {
  assert(!L[Slot].IsRef && "iload of a reference slot");
  return L[Slot].asInt();
}

/// aload's operand: local \p Slot, a reference (or the zero default).
DJX_HANDLER ObjectRef refLocal(const Value *L, int64_t Slot) {
  assert((L[Slot].IsRef || L[Slot].Bits == kNullRef) &&
         "aload of a non-reference slot");
  return L[Slot].Bits;
}

/// Java `long` arithmetic for the binary ALU opcodes (MiniJVM ints are
/// 64-bit). add, sub, mul and shl wrap in two's complement; they are
/// computed in uint64_t because signed overflow and left-shifting a
/// negative value are undefined in C++17. Shift counts use their low six
/// bits and shr is arithmetic. Long.MIN_VALUE / -1 wraps to MIN_VALUE
/// with remainder 0. The caller has rejected a zero divisor.
DJX_HANDLER int64_t javaArith(Opcode Op, int64_t A, int64_t B) {
  const uint64_t UA = static_cast<uint64_t>(A);
  const uint64_t UB = static_cast<uint64_t>(B);
  switch (Op) {
  case Opcode::IAdd:
    return static_cast<int64_t>(UA + UB);
  case Opcode::ISub:
    return static_cast<int64_t>(UA - UB);
  case Opcode::IMul:
    return static_cast<int64_t>(UA * UB);
  case Opcode::IDiv:
    return B == -1 ? static_cast<int64_t>(0 - UA) : A / B;
  case Opcode::IRem:
    return B == -1 ? 0 : A % B;
  case Opcode::IAnd:
    return A & B;
  case Opcode::IOr:
    return A | B;
  case Opcode::IXor:
    return A ^ B;
  case Opcode::IShl:
    return static_cast<int64_t>(UA << (B & 63));
  case Opcode::IShr:
    return A >> (B & 63);
  default:
    assert(false && "not an ALU opcode");
    return 0;
  }
}

/// An ALU opcode (ineg included) on the operand stack. Returns false,
/// with the operands still in place, on a zero divisor: the caller syncs
/// its frame and raises the typed error.
DJX_HANDLER bool alu(Opcode Op, Value *S, uint32_t &Sp) {
  if (Op == Opcode::INeg) {
    Value V = pop(S, Sp);
    S[Sp++] = Value::fromInt(javaArith(Opcode::ISub, 0, V.asInt()));
    return true;
  }
  assert(Sp > 1 && "operand stack underflow");
  int64_t B = S[Sp - 1].asInt();
  if (B == 0 && (Op == Opcode::IDiv || Op == Opcode::IRem))
    return false;
  --Sp;
  S[Sp - 1] = Value::fromInt(javaArith(Op, S[Sp - 1].asInt(), B));
  return true;
}

/// The if_icmp<cond> comparison of \p A against \p B.
DJX_HANDLER bool icmpTaken(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case Opcode::IfICmpEq:
    return A == B;
  case Opcode::IfICmpNe:
    return A != B;
  case Opcode::IfICmpLt:
    return A < B;
  case Opcode::IfICmpGe:
    return A >= B;
  case Opcode::IfICmpGt:
    return A > B;
  case Opcode::IfICmpLe:
    return A <= B;
  default:
    assert(false && "not an if_icmp opcode");
    return false;
  }
}

/// Pops a conditional branch's operands; true when it is taken.
DJX_HANDLER bool branchTaken(Opcode Op, Value *S, uint32_t &Sp) {
  switch (Op) {
  case Opcode::IfEq:
    return pop(S, Sp).asInt() == 0;
  case Opcode::IfNe:
    return pop(S, Sp).asInt() != 0;
  case Opcode::IfLt:
    return pop(S, Sp).asInt() < 0;
  case Opcode::IfGe:
    return pop(S, Sp).asInt() >= 0;
  case Opcode::IfNull:
    return pop(S, Sp).asRef() == kNullRef;
  case Opcode::IfNonNull:
    return pop(S, Sp).asRef() != kNullRef;
  default: {
    int64_t B = pop(S, Sp).asInt();
    int64_t A = pop(S, Sp).asInt();
    return icmpTaken(Op, A, B);
  }
  }
}

/// The operand-stack and local-slot moves; \p A is the immediate or slot.
DJX_HANDLER void moveOp(Opcode Op, int64_t A, Value *L, Value *S,
                        uint32_t &Sp) {
  switch (Op) {
  case Opcode::IConst:
    S[Sp++] = Value::fromInt(A);
    break;
  case Opcode::ILoad:
    S[Sp++] = Value::fromInt(intLocal(L, A));
    break;
  case Opcode::ALoad:
    S[Sp++] = Value::fromRef(refLocal(L, A));
    break;
  case Opcode::IStore:
    assert(Sp > 0 && !S[Sp - 1].IsRef && "istore of a reference");
    L[A] = pop(S, Sp);
    break;
  case Opcode::AStore:
    assert(Sp > 0 && S[Sp - 1].IsRef && "astore of a non-reference");
    L[A] = pop(S, Sp);
    break;
  case Opcode::Pop:
    pop(S, Sp);
    break;
  case Opcode::Dup:
    assert(Sp > 0 && "operand stack underflow");
    S[Sp] = S[Sp - 1];
    ++Sp;
    break;
  case Opcode::Swap:
    assert(Sp > 1 && "operand stack underflow");
    std::swap(S[Sp - 1], S[Sp - 2]);
    break;
  default:
    assert(false && "not a stack/local move");
  }
}

/// Byte offset of element \p Idx of the primitive array \p Arr, and its
/// width through \p Size (bounds and kind asserted).
DJX_HANDLER uint64_t elementOffset(JavaVm &Vm, JavaThread &T, ObjectRef Arr,
                                   int64_t Idx, uint64_t &Size) {
  const TypeDescriptor &Desc = Vm.objectType(T, Arr);
  assert(Desc.IsArray && !Desc.ElemIsRef && "needs a primitive array");
  assert(Idx >= 0 &&
         static_cast<uint64_t>(Idx) < Vm.objectInfo(T, Arr).Length &&
         "array index out of bounds");
  Size = Desc.ElemSize;
  return static_cast<uint64_t>(Idx) * Desc.ElemSize;
}

/// paload: one simulated access, zero-extended from the 1/4/8-byte
/// element width.
DJX_HANDLER int64_t loadElement(JavaVm &Vm, JavaThread &T, ObjectRef Arr,
                                int64_t Idx) {
  uint64_t Size = 0;
  uint64_t Off = elementOffset(Vm, T, Arr, Idx, Size);
  uint64_t V = Size == 1   ? Vm.readU8(T, Arr, Off)
               : Size == 4 ? Vm.readU32(T, Arr, Off)
                           : Vm.readWord(T, Arr, Off);
  return static_cast<int64_t>(V);
}

/// pastore: one simulated access, truncating \p V to the element width.
DJX_HANDLER void storeElement(JavaVm &Vm, JavaThread &T, ObjectRef Arr,
                              int64_t Idx, uint64_t V) {
  uint64_t Size = 0;
  uint64_t Off = elementOffset(Vm, T, Arr, Idx, Size);
  if (Size == 1)
    Vm.writeU8(T, Arr, Off, static_cast<uint8_t>(V));
  else if (Size == 4)
    Vm.writeU32(T, Arr, Off, static_cast<uint32_t>(V));
  else
    Vm.writeWord(T, Arr, Off, V);
}

/// For asserts: \p Arr is a reference array and \p Idx is in bounds.
DJX_HANDLER bool isRefSlot(JavaVm &Vm, JavaThread &T, ObjectRef Arr,
                           int64_t Idx) {
  return Vm.objectType(T, Arr).ElemIsRef && Idx >= 0 &&
         static_cast<uint64_t>(Idx) < Vm.objectInfo(T, Arr).Length;
}

/// The heap-access opcodes on the operand stack, each one simulated
/// access; \p A and \p B are the field offset and width.
DJX_HANDLER void access(JavaVm &Vm, JavaThread &T, Opcode Op, int64_t A,
                        int64_t B, Value *S, uint32_t &Sp) {
  const uint64_t FieldOff = static_cast<uint64_t>(A);
  switch (Op) {
  case Opcode::PALoad: {
    int64_t Idx = pop(S, Sp).asInt();
    ObjectRef Arr = pop(S, Sp).asRef();
    S[Sp++] = Value::fromInt(loadElement(Vm, T, Arr, Idx));
    break;
  }
  case Opcode::PAStore: {
    uint64_t V = static_cast<uint64_t>(pop(S, Sp).asInt());
    int64_t Idx = pop(S, Sp).asInt();
    storeElement(Vm, T, pop(S, Sp).asRef(), Idx, V);
    break;
  }
  case Opcode::AALoad: {
    int64_t Idx = pop(S, Sp).asInt();
    ObjectRef Arr = pop(S, Sp).asRef();
    assert(isRefSlot(Vm, T, Arr, Idx) && "bad aaload");
    S[Sp++] =
        Value::fromRef(Vm.readRef(T, Arr, static_cast<uint64_t>(Idx) * 8));
    break;
  }
  case Opcode::AAStore: {
    ObjectRef V = pop(S, Sp).asRef();
    int64_t Idx = pop(S, Sp).asInt();
    ObjectRef Arr = pop(S, Sp).asRef();
    assert(isRefSlot(Vm, T, Arr, Idx) && "bad aastore");
    Vm.writeRef(T, Arr, static_cast<uint64_t>(Idx) * 8, V);
    break;
  }
  case Opcode::ArrayLength: {
    ObjectRef Arr = pop(S, Sp).asRef();
    // Length lives in the header word; touching it is a real access.
    Vm.readWord(T, Arr, 0);
    S[Sp++] =
        Value::fromInt(static_cast<int64_t>(Vm.objectInfo(T, Arr).Length));
    break;
  }
  case Opcode::GetField: {
    ObjectRef Obj = pop(S, Sp).asRef();
    uint64_t V = B == 4 ? Vm.readU32(T, Obj, FieldOff)
                        : Vm.readWord(T, Obj, FieldOff);
    S[Sp++] = Value::fromInt(static_cast<int64_t>(V));
    break;
  }
  case Opcode::PutField: {
    uint64_t V = static_cast<uint64_t>(pop(S, Sp).asInt());
    ObjectRef Obj = pop(S, Sp).asRef();
    if (B == 4)
      Vm.writeU32(T, Obj, FieldOff, static_cast<uint32_t>(V));
    else
      Vm.writeWord(T, Obj, FieldOff, V);
    break;
  }
  case Opcode::GetRefField: {
    ObjectRef Obj = pop(S, Sp).asRef();
    S[Sp++] = Value::fromRef(Vm.readRef(T, Obj, FieldOff));
    break;
  }
  case Opcode::PutRefField: {
    ObjectRef V = pop(S, Sp).asRef();
    Vm.writeRef(T, pop(S, Sp).asRef(), FieldOff, V);
    break;
  }
  default:
    assert(false && "not a heap-access opcode");
  }
}

} // namespace

void Interpreter::allocate(Opcode Op, int64_t A, int64_t B) {
  const Frame &F = CallStack.back();
  const Value *S = Arena.data() + F.StackBase;
  // Peek-then-commit: the operands stay on the stack until the VM call
  // returns, so a GcRequest unwind (executor mode) leaves the instruction
  // intact to re-execute after the safepoint GC. (Dims are ints, so
  // leaving them there adds no GC roots.)
  auto Length = [&](uint32_t Depth) {
    assert(F.Sp >= Depth && "operand stack underflow");
    int64_t Len = S[F.Sp - Depth].asInt();
    assert(Len >= 0 && "negative array length");
    return static_cast<uint64_t>(Len);
  };
  const TypeId Type = static_cast<TypeId>(A);
  uint32_t NPops = 1;
  ObjectRef Obj = kNullRef;
  if (Op == Opcode::New) {
    NPops = 0;
    Obj = Vm.allocateObject(Thread, Type);
  } else if (Op == Opcode::MultiANewArray) {
    NPops = static_cast<uint32_t>(B);
    std::vector<uint64_t> Dims(NPops);
    for (uint32_t D = 0; D < NPops; ++D)
      Dims[D] = Length(NPops - D);
    Obj = Vm.allocateMultiArray(Thread, Type, Dims);
  } else {
    Obj = Vm.allocateArray(Thread, Type, Length(1));
  }
  // An allocation observer may have re-entered run() and moved the arena
  // or the call stack: commit through the re-derived top frame.
  Frame &Top = CallStack.back();
  Top.Sp -= NPops;
  Arena[Top.StackBase + Top.Sp++] = Value::fromRef(Obj);
  ArenaTop = Top.StackBase + Top.Sp;
}

void Interpreter::dispatchHook(Opcode Op, uint64_t Site) {
  const Frame &F = CallStack.back();
  const uint32_t Depth = F.Sp;
  if (Op == Opcode::AllocHookPre) {
    if (Hooks.Pre)
      Hooks.Pre(Site);
  } else if (Hooks.Post) {
    assert(Depth > 0 && Arena[F.StackBase + Depth - 1].IsRef &&
           "allochook_post expects the fresh ref on TOS");
    Hooks.Post(Site, Arena[F.StackBase + Depth - 1].asRef());
  }
  assert(CallStack.back().Sp == Depth &&
         "an agent hook changed the operand depth");
  (void)Depth;
}

bool Interpreter::loop(size_t BaseDepth, uint32_t BaseTop,
                       uint64_t QuantumEnd, std::optional<Value> &Out) {
  // Cached execution registers for the top frame; Reload refreshes them
  // after any frame switch or arena growth, SyncTop publishes them back
  // before anything that can trigger a GC (the root scan reads frames).
  Frame *F = nullptr;
  const Instruction *Code = nullptr;
  uint32_t CodeSize = 0;
  Value *L = nullptr; // Locals base.
  Value *S = nullptr; // Operand stack base.
  uint32_t Sp = 0;
  uint32_t Pc = 0;
  // Super tier: the top frame's hot-site array (null in the interp tier).
  // Site storage mutates in place, so the pointer survives compiles and
  // invalidations; only a frame switch refreshes it.
  TraceCache::Site *TraceSites = nullptr;

  auto Reload = [&] {
    F = &CallStack.back();
    Code = F->M->Code.data();
    CodeSize = static_cast<uint32_t>(F->M->Code.size());
    L = Arena.data() + F->LocalsBase;
    S = Arena.data() + F->StackBase;
    Sp = F->Sp;
    Pc = F->Pc;
    ArenaTop = F->StackBase + Sp;
    TraceSites =
        Traces ? Traces->sitesFor(F->MethodIndex, CodeSize) : nullptr;
  };
  auto SyncTop = [&] {
    F->Pc = Pc;
    F->Sp = Sp;
    ArenaTop = F->StackBase + Sp;
  };
  Reload();

  for (;;) {
    assert(Sp <= F->M->MaxStack && "operand depth above the reserved peak");
    // Quantum boundary: pause *before* the next instruction so it has not
    // been counted or charged; the frame sync makes the pause a clean GC /
    // resume point. run() passes ~0 and never pauses.
    if (Steps >= QuantumEnd) {
      SyncTop();
      return false;
    }
    if (Pc >= CodeSize) {
      SyncTop();
      fatal(VmErrorKind::InvalidBytecode,
            "control fell off the end of " + F->M->qualifiedName());
    }
    if (TraceSites) {
      TraceCache::Site &TS = TraceSites[Pc];
      const bool SkipBump = GcRetryPending;
      GcRetryPending = false;
      const CompiledTrace *T = nullptr;
      if (TS.St == TraceCache::Site::Compiled)
        T = TS.Trace.get();
      else if (TS.St == TraceCache::Site::Cold && !SkipBump)
        T = Traces->bump(TS, *F->M, Pc);
      // Admission is all-or-nothing against both budgets: the full trace
      // must fit, else it runs flat this quantum — observationally
      // identical, since a trace is the same instruction stream.
      if (T && Steps + T->NumSteps <= QuantumEnd &&
          Steps + T->NumSteps <= StepDeadline) {
        Traces->noteEntry();
        SyncTop();
        execTrace(*T, QuantumEnd);
        Reload();
        continue;
      }
    }
    if (++Steps > StepDeadline)
      fatalStepLimit();
    const Instruction &I = Code[Pc];
    Thread.setBci(Pc);
    Vm.tick(Thread, 1);
    uint32_t NextPc = Pc + 1;

    switch (I.Op) {
    case Opcode::Nop:
      break;
    case Opcode::IConst:
    case Opcode::ILoad:
    case Opcode::ALoad:
    case Opcode::IStore:
    case Opcode::AStore:
    case Opcode::Pop:
    case Opcode::Dup:
    case Opcode::Swap:
      moveOp(I.Op, I.A, L, S, Sp);
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
    case Opcode::INeg:
      if (!alu(I.Op, S, Sp)) {
        SyncTop();
        fatalZeroDivisor(Pc);
      }
      break;
    case Opcode::Goto:
      NextPc = static_cast<uint32_t>(I.A);
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
      if (branchTaken(I.Op, S, Sp))
        NextPc = static_cast<uint32_t>(I.A);
      break;
    case Opcode::New:
    case Opcode::NewArray:
    case Opcode::ANewArray:
    case Opcode::MultiANewArray:
      SyncTop();
      allocate(I.Op, I.A, I.B);
      Reload();
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
      access(Vm, Thread, I.Op, I.A, I.B, S, Sp);
      break;
    case Opcode::Invoke: {
      size_t Callee = static_cast<size_t>(I.A);
      const BytecodeMethod &CM = Program.method(Callee);
      assert(static_cast<uint32_t>(I.B) == CM.NumArgs &&
             "invoke argument count mismatch");
      assert(Sp >= CM.NumArgs && "operand stack underflow at invoke");
      // Consume the arguments in place: they become the callee's first
      // locals without being copied (the activation overlaps them).
      Sp -= CM.NumArgs;
      F->Pc = NextPc;
      F->Sp = Sp;
      uint32_t ArgsBase = F->StackBase + Sp;
      pushActivation(Callee, ArgsBase);
      Thread.pushFrame(CM.RegistryId, 0);
      Reload();
      continue;
    }
    case Opcode::Return:
    case Opcode::IReturn:
    case Opcode::AReturn: {
      bool HasValue = I.Op != Opcode::Return;
      Value RV;
      if (HasValue) {
        RV = pop(S, Sp);
        assert((I.Op == Opcode::IReturn ? !RV.IsRef : RV.IsRef) &&
               "return value tag mismatch");
      }
      Thread.popFrame();
      CallStack.pop_back();
      if (CallStack.size() == BaseDepth) {
        ArenaTop = BaseTop;
        if (HasValue)
          Out = RV;
        else
          Out = std::nullopt;
        return true;
      }
      Reload(); // Caller frame: Pc already advanced past the Invoke.
      if (HasValue)
        S[Sp++] = RV;
      continue;
    }
    case Opcode::AllocHookPre:
    case Opcode::AllocHookPost:
      // Sync/reload around the dispatch: a hook may re-enter run() (the
      // old recursive interpreter allowed it), which needs fresh frame
      // state and may grow the arena under our cached pointers.
      SyncTop();
      dispatchHook(I.Op, static_cast<uint64_t>(I.A));
      Reload();
      break;
    }
    Pc = NextPc;
  }
}

void Interpreter::execTrace(const CompiledTrace &T, uint64_t QuantumEnd) {
  Frame *F = &CallStack.back();
  assert(F->Pc == T.EntryPc && "trace entered at the wrong pc");
  assert(F->Sp >= T.MinStackDepth &&
         "trace entered below its operand floor");
  Value *L = Arena.data() + F->LocalsBase;
  Value *S = Arena.data() + F->StackBase;
  uint32_t Sp = F->Sp;

  // Steps and dispatch ticks are batched: Pending counts retired
  // constituent instructions and is flushed before anything that can
  // observe the step counter or the simulated clock — memory accesses
  // (PMU sampling reads both, plus Bci), allocations, and every exit.
  uint64_t Pending = 0;
  auto Flush = [&] {
    Steps += Pending;
    Vm.tick(Thread, Pending);
    Pending = 0;
  };
  // Every exit (and every sync for a VM call) first retires the batch.
  auto Exit = [&](uint32_t Pc) {
    Flush();
    F->Pc = Pc;
    F->Sp = Sp;
    ArenaTop = F->StackBase + Sp;
  };
  // Before an allocation, which observes Steps/cycles/Bci and whose
  // observers may re-enter run(): flush and fully sync, as flat dispatch
  // would be at that instruction.
  auto SyncFor = [&](const TraceOp &O) {
    Exit(O.Pc);
    Thread.setBci(O.Pc);
  };
  // After it: re-derive the cached pointers. A nested re-entry burns
  // shared Steps, so deopt (true) when the trace remainder no longer fits
  // a budget: the flat loop then pauses (or hits the step limit) at
  // exactly the instruction it would have anyway.
  auto ResumeAfter = [&](const TraceOp &O) {
    F = &CallStack.back();
    L = Arena.data() + F->LocalsBase;
    S = Arena.data() + F->StackBase;
    Sp = F->Sp;
    if (Steps + O.StepsAfter <= QuantumEnd &&
        Steps + O.StepsAfter <= StepDeadline)
      return false;
    Exit(O.Pc + 1);
    return true;
  };

  for (const TraceOp &O : T.Ops) {
    Pending += O.NumSteps;
    switch (O.Kind) {
    case SuperOp::Nop:
      break;
    case SuperOp::Move:
      moveOp(O.Src, O.A, L, S, Sp);
      break;
    case SuperOp::Alu:
      if (!alu(O.Src, S, Sp)) {
        Exit(O.Pc);
        fatalZeroDivisor(O.Pc);
      }
      break;
    case SuperOp::GotoExit:
      Exit(static_cast<uint32_t>(O.A));
      return;
    case SuperOp::Br:
      if (branchTaken(O.Src, S, Sp)) {
        Exit(static_cast<uint32_t>(O.A));
        return;
      }
      break;
    case SuperOp::CmpBranchLL:
      if (icmpTaken(O.Src, intLocal(L, O.A), intLocal(L, O.B))) {
        Exit(static_cast<uint32_t>(O.C));
        return;
      }
      break;
    case SuperOp::IncLocal:
      L[O.A] = Value::fromInt(javaArith(Opcode::IAdd, intLocal(L, O.A), O.B));
      break;
    case SuperOp::AccumLocal: {
      int64_t V = pop(S, Sp).asInt();
      L[O.A] = Value::fromInt(javaArith(Opcode::IAdd, intLocal(L, O.A), V));
      break;
    }
    case SuperOp::PALoadLL:
    case SuperOp::PAStoreLLL:
      // The access constituent is the fused run's last instruction; the
      // sample a PMU overflow captures must carry its bci and the exact
      // pre-access step/cycle counts, as in flat dispatch.
      Flush();
      Thread.setBci(O.Pc + O.NumSteps - 1);
      if (O.Kind == SuperOp::PALoadLL)
        S[Sp++] = Value::fromInt(
            loadElement(Vm, Thread, refLocal(L, O.A), intLocal(L, O.B)));
      else
        storeElement(Vm, Thread, refLocal(L, O.A), intLocal(L, O.B),
                     static_cast<uint64_t>(intLocal(L, O.C)));
      break;
    case SuperOp::Access:
      Flush();
      Thread.setBci(O.Pc);
      access(Vm, Thread, O.Src, O.A, O.B, S, Sp);
      break;
    case SuperOp::Alloc:
      // With the operands still on the stack (peek-then-commit), so a
      // GcRequest unwind re-executes this constituent flat after the
      // safepoint GC.
      SyncFor(O);
      allocate(O.Src, O.A, O.B);
      if (ResumeAfter(O))
        return;
      break;
    }
  }
  Exit(T.EndPc);
}
