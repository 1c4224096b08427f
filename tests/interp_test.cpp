//===- interp_test.cpp - Unit tests for src/interp ---------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "bytecode/MethodBuilder.h"
#include "interp/Interpreter.h"
#include "support/VmError.h"

#include <gtest/gtest.h>

#include <limits>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(interp_test, 76.0, 45.0,
    "src/interp/Interpreter.cpp",
    "src/interp/Interpreter.h");

/// Builds, loads and runs a single 0-arg method, returning its result.
std::optional<Value> runSingle(JavaVm &Vm,
                               std::function<void(MethodBuilder &)> Body,
                               uint32_t NumLocals = 4) {
  BytecodeProgram P;
  MethodBuilder B("T", "main", 0, NumLocals);
  Body(B);
  ClassFile C;
  C.Name = "T";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  JavaThread &T = Vm.startThread("interp", 0);
  Interpreter I(Vm, P, T);
  return I.run("T.main");
}

/// The op-semantics tests take the execution tier as a parameter. Each
/// body is a 0-arg method "T.body" returning an int; a driver calls it
/// kReps times, so in the super tier (hot threshold 2) its code turns hot
/// and runs as compiled traces. Every run is checked against the interp
/// tier: the same result or VmError, stepsExecuted() and thread cycles.
class OpSemantics : public ::testing::TestWithParam<ExecTier> {
protected:
  static constexpr int64_t kReps = 4;

  using BodyFn = std::function<void(JavaVm &, MethodBuilder &)>;
  /// Runs after load, before execution (code splicing, hooks).
  using SetupFn =
      std::function<void(JavaVm &, BytecodeProgram &, Interpreter &)>;

  struct Outcome {
    int64_t Result = 0;
    std::optional<VmError> Error;
    uint64_t Steps = 0;
    uint64_t Cycles = 0;
    uint64_t TraceEntries = 0;
  };

  static Outcome runIn(ExecTier Tier, const BodyFn &Body,
                       const SetupFn &Setup) {
    JavaVm Vm;
    BytecodeProgram P;
    ClassFile C;
    C.Name = "T";
    MethodBuilder B("T", "body", 0, 4);
    Body(Vm, B);
    C.Methods.push_back(B.build());
    MethodBuilder D("T", "main", 0, 2);
    Label Head = D.newLabel(), End = D.newLabel();
    D.iconst(0).istore(0).iconst(0).istore(1);
    D.bind(Head);
    D.iload(0).iconst(kReps).ifICmp(Opcode::IfICmpGe, End);
    D.invoke("T.body", 0).istore(1);
    D.iload(0).iconst(1).iadd().istore(0);
    D.jmp(Head);
    D.bind(End);
    D.iload(1).iret();
    C.Methods.push_back(D.build());
    P.addClass(std::move(C));
    P.load(Vm);
    JavaThread &T = Vm.startThread("t", 0);
    Interpreter I(Vm, P, T);
    TierConfig Cfg;
    Cfg.Tier = Tier;
    Cfg.HotThreshold = 2;
    I.setTier(Cfg);
    if (Setup)
      Setup(Vm, P, I);
    Outcome O;
    try {
      O.Result = I.run("T.main")->asInt();
    } catch (const VmError &E) {
      O.Error = E;
    }
    O.Steps = I.stepsExecuted();
    O.Cycles = T.cycles();
    if (I.traceCache())
      O.TraceEntries = I.traceCache()->stats().Entries;
    return O;
  }

  /// Runs \p Body in the parameter tier and checks it against interp.
  Outcome run(const BodyFn &Body, const SetupFn &Setup = nullptr) {
    Outcome Ref = runIn(ExecTier::Interp, Body, Setup);
    Outcome O = runIn(GetParam(), Body, Setup);
    EXPECT_EQ(O.Result, Ref.Result);
    EXPECT_EQ(O.Steps, Ref.Steps);
    EXPECT_EQ(O.Cycles, Ref.Cycles);
    EXPECT_EQ(O.Error.has_value(), Ref.Error.has_value());
    if (O.Error && Ref.Error) {
      EXPECT_EQ(O.Error->Kind, Ref.Error->Kind);
      EXPECT_STREQ(O.Error->what(), Ref.Error->what());
      EXPECT_EQ(O.Error->ThreadId, Ref.Error->ThreadId);
      EXPECT_EQ(O.Error->Steps, Ref.Error->Steps);
    }
    if (GetParam() == ExecTier::Super) {
      EXPECT_GT(O.TraceEntries, 0u) << "no trace executed";
    }
    return O;
  }

  /// Result of a body that must complete.
  int64_t result(const BodyFn &Body, const SetupFn &Setup = nullptr) {
    Outcome O = run(Body, Setup);
    EXPECT_FALSE(O.Error.has_value()) << O.Error->what();
    return O.Result;
  }

  /// Result of the one-instruction body `iconst A; iconst B; <Op>`.
  int64_t binary(int64_t A, int64_t B,
                 MethodBuilder &(MethodBuilder::*Op)()) {
    return result([&](JavaVm &, MethodBuilder &MB) {
      (MB.iconst(A).iconst(B).*Op)().iret();
    });
  }
};

INSTANTIATE_TEST_SUITE_P(Tiers, OpSemantics,
                         ::testing::Values(ExecTier::Interp, ExecTier::Super),
                         [](const ::testing::TestParamInfo<ExecTier> &I) {
                           return std::string(execTierName(I.param));
                         });

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// Java long semantics: add, sub, mul, neg and the fused local increment
/// wrap in two's complement, and Long.MIN_VALUE / -1 wraps to MIN_VALUE
/// with remainder 0.
TEST_P(OpSemantics, ArithmeticChain) {
  EXPECT_EQ(result([](JavaVm &, MethodBuilder &B) {
              // ((10 - 3) * 4 + 2) / 3 % 4 = 30/3 % 4 = 10 % 4 = 2.
              B.iconst(10).iconst(3).isub();
              B.iconst(4).imul();
              B.iconst(2).iadd();
              B.iconst(3).idiv();
              B.iconst(4).irem();
              B.iret();
            }),
            2);
  EXPECT_EQ(binary(kMax, 1, &MethodBuilder::iadd), kMin);
  EXPECT_EQ(binary(kMin, 1, &MethodBuilder::isub), kMax);
  EXPECT_EQ(binary(kMax, 2, &MethodBuilder::imul), -2);
  EXPECT_EQ(binary(kMin, -1, &MethodBuilder::imul), kMin);
  EXPECT_EQ(binary(kMin, -1, &MethodBuilder::idiv), kMin);
  EXPECT_EQ(binary(kMin, -1, &MethodBuilder::irem), 0);
  EXPECT_EQ(result([](JavaVm &, MethodBuilder &B) {
              B.iconst(kMin).ineg().iret();
            }),
            kMin);
  // iload; iconst; iadd/isub; istore fuses to one local increment.
  EXPECT_EQ(result([](JavaVm &, MethodBuilder &B) {
              B.iconst(kMax).istore(0);
              B.iload(0).iconst(1).iadd().istore(0);
              B.iload(0).iret();
            }),
            kMin);
  EXPECT_EQ(result([](JavaVm &, MethodBuilder &B) {
              B.iconst(0).istore(0);
              B.iload(0).iconst(kMin).isub().istore(0);
              B.iload(0).iret();
            }),
            kMin);
}

/// A zero divisor is a typed InvalidBytecode error naming the method and
/// bci. The divisor counts down to zero in a loop, so in the super tier
/// the faulting instruction runs inside a hot trace.
TEST_P(OpSemantics, ZeroDivisorRaisesInvalidBytecode) {
  for (bool Div : {true, false}) {
    Outcome O = run([&](JavaVm &, MethodBuilder &B) {
      Label Head = B.newLabel(), End = B.newLabel();
      B.iconst(3).istore(0);
      B.bind(Head);
      B.iload(0).ifLt(End);
      B.iconst(100).iload(0); // bci 4, 5.
      (Div ? B.idiv() : B.irem()).istore(1);
      B.iload(0).iconst(1).isub().istore(0);
      B.jmp(Head);
      B.bind(End);
      B.iload(1).iret();
    });
    ASSERT_TRUE(O.Error.has_value());
    EXPECT_EQ(O.Error->Kind, VmErrorKind::InvalidBytecode);
    EXPECT_EQ(std::string(O.Error->what()),
              std::string(Div ? "division" : "remainder") +
                  " by zero in T.body at bci 6");
    EXPECT_GT(O.Error->Steps, 0u);
  }
}

/// Shift counts use their low six bits, so counts of 64 and above and
/// negative counts are taken mod 64; ishr is arithmetic.
TEST_P(OpSemantics, BitwiseAndShifts) {
  EXPECT_EQ(result([](JavaVm &, MethodBuilder &B) {
              // ((0xF0 & 0x3C) | 0x01) ^ 0x02 = (0x30|0x01)^0x02 = 0x33.
              B.iconst(0xF0).iconst(0x3C).iand();
              B.iconst(0x01).ior();
              B.iconst(0x02).ixor();
              B.iconst(2).ishl(); // 0x33 << 2 = 0xCC.
              B.iconst(1).ishr(); // 0xCC >> 1 = 0x66.
              B.iret();
            }),
            0x66);
  EXPECT_EQ(binary(1, 64, &MethodBuilder::ishl), 1);
  EXPECT_EQ(binary(1, 65, &MethodBuilder::ishl), 2);
  EXPECT_EQ(binary(1, -1, &MethodBuilder::ishl), kMin);
  EXPECT_EQ(binary(-1, 1, &MethodBuilder::ishl), -2);
  EXPECT_EQ(binary(5, 64, &MethodBuilder::ishr), 5);
  EXPECT_EQ(binary(-16, 2, &MethodBuilder::ishr), -4);
  EXPECT_EQ(binary(-16, -62, &MethodBuilder::ishr), -4);
  EXPECT_EQ(binary(kMin, 63, &MethodBuilder::ishr), -1);
}

TEST(Interpreter, NegationAndLocals) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    B.iconst(42).ineg().istore(0);
    B.iload(0).ineg().iret();
  });
  EXPECT_EQ(R->asInt(), 42);
}

TEST(Interpreter, StackOps) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    B.iconst(1).iconst(2).swap(); // 2, 1 on stack (1 on top).
    B.isub();                     // 2 - 1 = 1.
    B.dup().iadd();               // 2.
    B.iconst(9).pop();
    B.iret();
  });
  EXPECT_EQ(R->asInt(), 2);
}

TEST(Interpreter, LoopComputesSum) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) {
    // for (i = 0, s = 0; i < 10; i++) s += i; return s; // 45
    B.iconst(0).istore(0);
    B.iconst(0).istore(1);
    Label Loop = B.newLabel(), End = B.newLabel();
    B.bind(Loop);
    B.iload(0).iconst(10).ifICmp(Opcode::IfICmpGe, End);
    B.iload(1).iload(0).iadd().istore(1);
    B.iload(0).iconst(1).iadd().istore(0);
    B.jmp(Loop);
    B.bind(End);
    B.iload(1).iret();
  });
  EXPECT_EQ(R->asInt(), 45);
}

/// The zero/null tests, then every if_icmp<cond> taken and not taken,
/// with its operands pushed as constants, loaded from two locals, and
/// local-vs-constant: the trace tier compiles two locals to CmpBranchLL
/// and the other shapes to Br. Bit k of the second bodies' result is set
/// when compare k falls through.
TEST_P(OpSemantics, ConditionalBranchKinds) {
  EXPECT_EQ(result([](JavaVm &, MethodBuilder &B) {
              Label A = B.newLabel(), B2 = B.newLabel(), C = B.newLabel(),
                    Done = B.newLabel();
              B.iconst(0).ifEq(A);
              B.iconst(-1).iret();
              B.bind(A);
              B.iconst(-5).ifLt(B2);
              B.iconst(-2).iret();
              B.bind(B2);
              B.iconst(3).ifGe(C);
              B.iconst(-3).iret();
              B.bind(C);
              B.iconst(4).ifNe(Done);
              B.iconst(-4).iret();
              B.bind(Done);
              B.iconst(7).iret();
            }),
            7);
  const Opcode Ops[] = {Opcode::IfICmpEq, Opcode::IfICmpNe,
                        Opcode::IfICmpLt, Opcode::IfICmpGe,
                        Opcode::IfICmpGt, Opcode::IfICmpLe};
  const std::pair<int64_t, int64_t> Pairs[] = {
      {1, 2}, {2, 2}, {3, 2}, {kMin, kMax}};
  auto Taken = [](Opcode Op, int64_t A, int64_t B) {
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
    default:
      return A <= B;
    }
  };
  int64_t Expected = 0;
  int Bit = 0;
  for (Opcode Op : Ops)
    for (auto [A, B] : Pairs) {
      if (!Taken(Op, A, B))
        Expected |= int64_t{1} << Bit;
      ++Bit;
    }
  for (int Shape = 0; Shape < 3; ++Shape) {
    EXPECT_EQ(result([&](JavaVm &, MethodBuilder &MB) {
                MB.iconst(0).istore(2);
                int K = 0;
                for (Opcode Op : Ops)
                  for (auto [A, B] : Pairs) {
                    Label Skip = MB.newLabel();
                    MB.iconst(A).istore(0).iconst(B).istore(1);
                    if (Shape == 0)
                      MB.iconst(A).iconst(B);
                    else if (Shape == 1)
                      MB.iload(0).iload(1);
                    else
                      MB.iload(0).iconst(B);
                    MB.ifICmp(Op, Skip);
                    MB.iload(2).iconst(int64_t{1} << K).ior().istore(2);
                    MB.bind(Skip);
                    ++K;
                  }
                MB.iload(2).iret();
              }),
              Expected)
        << "operand shape " << Shape;
  }
}

TEST_P(OpSemantics, PrimArrayRoundTrip) {
  EXPECT_EQ(result([](JavaVm &Vm, MethodBuilder &B) {
              B.iconst(10).newArray(Vm.types().intArray()).astore(0);
              // a[3] = 77; return a[3] + a.length.
              B.aload(0).iconst(3).iconst(77).paStore();
              B.aload(0).iconst(3).paLoad();
              B.aload(0).arrayLength().iadd();
              B.iret();
            }),
            87);
}

/// 1-, 4- and 8-byte elements: stores truncate to the element width and
/// loads zero-extend, through both the stack form and the fused
/// local-operand form (aload; iload; iload; pastore / aload; iload;
/// paload).
TEST_P(OpSemantics, ByteAndLongArrays) {
  struct Case {
    TypeId (TypeRegistry::*Array)() const;
    int64_t Stored;
    int64_t Loaded;
  };
  const Case Cases[] = {
      {&TypeRegistry::byteArray, 0x1FF, 0xFF},
      {&TypeRegistry::byteArray, -1, 0xFF},
      {&TypeRegistry::intArray, 0x100000005, 5},
      {&TypeRegistry::intArray, -1, 0xFFFFFFFF},
      {&TypeRegistry::longArray, kMin, kMin},
      {&TypeRegistry::longArray, -1, -1},
  };
  for (const Case &C : Cases)
    for (bool Fused : {false, true})
      EXPECT_EQ(result([&](JavaVm &Vm, MethodBuilder &B) {
                  B.iconst(4).newArray((Vm.types().*C.Array)()).astore(0);
                  B.iconst(2).istore(1).iconst(C.Stored).istore(2);
                  if (Fused) {
                    B.aload(0).iload(1).iload(2).paStore();
                    B.aload(0).iload(1).paLoad();
                  } else {
                    B.aload(0).iconst(2).iconst(C.Stored).paStore();
                    B.aload(0).iconst(2).paLoad();
                  }
                  B.iret();
                }),
                C.Loaded)
          << "stored " << C.Stored << (Fused ? " (fused)" : "");
}

TEST_P(OpSemantics, RefArraysAndNullChecks) {
  EXPECT_EQ(result([](JavaVm &Vm, MethodBuilder &B) {
              TypeId Obj = Vm.types().defineClass("Obj", 16);
              TypeId ObjArr = Vm.types().refArrayType("Obj");
              B.iconst(4).aNewArray(ObjArr).astore(0);
              // arr[1] = new Obj(); return arr[1] != null && arr[0] == null.
              B.aload(0).iconst(1).newObject(Obj).aaStore();
              Label NonNull = B.newLabel(), Fail = B.newLabel();
              B.aload(0).iconst(1).aaLoad().ifNonNull(NonNull);
              B.bind(Fail);
              B.iconst(0).iret();
              B.bind(NonNull);
              Label Null2 = B.newLabel();
              B.aload(0).iconst(0).aaLoad().ifNull(Null2);
              B.jmp(Fail);
              B.bind(Null2);
              B.iconst(1).iret();
            }),
            1);
}

/// Fields are 4 or 8 bytes wide: a 4-byte field truncates and
/// zero-extends, an 8-byte field keeps all 64 bits.
TEST_P(OpSemantics, FieldsOnInstances) {
  EXPECT_EQ(result([](JavaVm &Vm, MethodBuilder &B) {
              B.newObject(Vm.types().defineClass("Pair", 16)).astore(0);
              B.aload(0).iconst(11).putField(0, 8);
              B.aload(0).iconst(31).putField(8, 4);
              B.aload(0).getField(0, 8);
              B.aload(0).getField(8, 4);
              B.iadd().iret();
            }),
            42);
  auto Field = [&](uint32_t Width, int64_t Stored) {
    return result([&](JavaVm &Vm, MethodBuilder &B) {
      B.newObject(Vm.types().defineClass("Box", 16)).astore(0);
      B.aload(0).iconst(Stored).putField(8, Width);
      B.aload(0).getField(8, Width).iret();
    });
  };
  EXPECT_EQ(Field(4, -1), 0xFFFFFFFF);
  EXPECT_EQ(Field(4, 0x100000007), 7);
  EXPECT_EQ(Field(8, kMin), kMin);
  EXPECT_EQ(Field(8, -1), -1);
}

TEST_P(OpSemantics, MultiANewArrayBuildsMatrix) {
  EXPECT_EQ(result([](JavaVm &Vm, MethodBuilder &B) {
              // int[2][3] m; m[1][2] = 9; return m[1][2] + m.length.
              B.iconst(2).iconst(3);
              B.multiANewArray(Vm.types().intArray(), 2).astore(0);
              B.aload(0).iconst(1).aaLoad().astore(1);
              B.aload(1).iconst(2).iconst(9).paStore();
              B.aload(1).iconst(2).paLoad();
              B.aload(0).arrayLength().iadd();
              B.iret();
            }),
            11);
}

TEST_P(OpSemantics, AllocationHooksFire) {
  std::vector<std::pair<uint64_t, ObjectRef>> Posts;
  int Pres = 0;
  int64_t R = result(
      [](JavaVm &Vm, MethodBuilder &B) {
        B.iconst(4).newArray(Vm.types().intArray()).astore(0);
        B.aload(0).arrayLength().iret();
      },
      [&](JavaVm &Vm, BytecodeProgram &P, Interpreter &I) {
        Pres = 0;
        Posts.clear();
        // Splice hooks around the allocation (what the instrumenter does
        // automatically).
        BytecodeMethod &M = P.method(P.methodIndex("T.body"));
        std::vector<Instruction> NewCode;
        for (const Instruction &Inst : M.Code) {
          if (isAllocation(Inst.Op))
            NewCode.push_back(Instruction{Opcode::AllocHookPre, 7, 0});
          NewCode.push_back(Inst);
          if (isAllocation(Inst.Op))
            NewCode.push_back(Instruction{Opcode::AllocHookPost, 7, 0});
        }
        M.Code = std::move(NewCode);
        AllocationHooks Hooks;
        Hooks.Pre = [&](uint64_t Site) {
          ++Pres;
          EXPECT_EQ(Site, 7u);
        };
        Hooks.Post = [&Vm, &Posts](uint64_t Site, ObjectRef Obj) {
          EXPECT_TRUE(Vm.heap().isObjectStart(Obj));
          Posts.emplace_back(Site, Obj);
        };
        I.setAllocationHooks(std::move(Hooks));
      });
  EXPECT_EQ(R, 4);
  EXPECT_EQ(Pres, kReps);
  ASSERT_EQ(Posts.size(), static_cast<size_t>(kReps));
  EXPECT_EQ(Posts[0].first, 7u);
}

TEST(Interpreter, RefFieldsLinkObjects) {
  JavaVm Vm;
  TypeId Node = Vm.types().defineClass("Node", 16, {8});
  auto R = runSingle(Vm, [&](MethodBuilder &B) {
    B.newObject(Node).astore(0); // head
    B.newObject(Node).astore(1); // tail
    B.aload(1).iconst(5).putField(0, 8);
    B.aload(0).aload(1).putRefField(8);
    B.aload(0).getRefField(8).getField(0, 8);
    B.iret();
  });
  EXPECT_EQ(R->asInt(), 5);
}

TEST(Interpreter, MethodCallsWithArguments) {
  JavaVm Vm;
  BytecodeProgram P;
  {
    MethodBuilder B("M", "add3", 3, 3);
    B.iload(0).iload(1).iadd().iload(2).iadd().iret();
    ClassFile C;
    C.Name = "M";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
  }
  {
    MethodBuilder B("M2", "main", 0, 0);
    B.iconst(1).iconst(2).iconst(3);
    B.invoke("M.add3", 3).iret();
    ClassFile C;
    C.Name = "M2";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
  }
  P.load(Vm);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  EXPECT_EQ(I.run("M2.main")->asInt(), 6);
}

TEST(Interpreter, RecursionFactorial) {
  JavaVm Vm;
  BytecodeProgram P;
  MethodBuilder B("R", "fact", 1, 1);
  Label Base = B.newLabel();
  B.iload(0).iconst(2).ifICmp(Opcode::IfICmpLt, Base);
  B.iload(0);
  B.iload(0).iconst(1).isub();
  B.invoke("R.fact", 1);
  B.imul().iret();
  B.bind(Base);
  B.iconst(1).iret();
  ClassFile C;
  C.Name = "R";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  EXPECT_EQ(I.run("R.fact", {Value::fromInt(10)})->asInt(), 3628800);
}

TEST(Interpreter, VoidMethodsReturnNothing) {
  JavaVm Vm;
  auto R = runSingle(Vm, [](MethodBuilder &B) { B.ret(); });
  EXPECT_FALSE(R.has_value());
}

TEST(Interpreter, ShadowStackTracksBci) {
  JavaVm Vm;
  BytecodeProgram P;
  MethodBuilder B("S", "main", 0, 0);
  B.iconst(1).pop().ret();
  ClassFile C;
  C.Name = "S";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  I.run("S.main");
  EXPECT_EQ(T.stackDepth(), 0u) << "frames popped after return";
  EXPECT_GT(I.stepsExecuted(), 0u);
}

TEST(InterpreterDeathTest, StepLimitRaisesVmError) {
  // The step limit must fire in every build mode (it used to live in an
  // assert that NDEBUG compiled out, letting release builds spin
  // forever) — and it raises a typed, salvageable error, not an abort.
  JavaVm Vm;
  BytecodeProgram P;
  MethodBuilder B("R", "spin", 0, 0);
  Label Loop = B.newLabel();
  B.bind(Loop);
  B.jmp(Loop);
  ClassFile C;
  C.Name = "R";
  C.Methods.push_back(B.build());
  P.addClass(std::move(C));
  P.load(Vm);
  JavaThread &T = Vm.startThread("t", 0);
  Interpreter I(Vm, P, T);
  I.setStepLimit(10000);
  try {
    I.run("R.spin");
    FAIL() << "runaway loop must raise VmError";
  } catch (const VmError &E) {
    EXPECT_EQ(E.Kind, VmErrorKind::StepLimit);
    EXPECT_NE(std::string(E.what()).find("step limit"), std::string::npos);
    EXPECT_EQ(E.ThreadId, T.id());
    EXPECT_GT(E.Steps, 10000u);
  }
}

TEST(Interpreter, GcDuringExecutionRelocatesOperands) {
  // Tiny heap: the loop's allocations force collections while references
  // live in interpreter locals; the root provider must keep them valid.
  VmConfig Cfg;
  Cfg.HeapBytes = 8 * 1024;
  JavaVm Vm(Cfg);
  TypeId IntArr = Vm.types().intArray();
  auto R = runSingle(Vm, [&](MethodBuilder &B) {
    // keep = new int[8]; keep[0] = 123;
    B.iconst(8).newArray(IntArr).astore(0);
    B.aload(0).iconst(0).iconst(123).paStore();
    // for (i = 0; i < 200; i++) { garbage = new int[200]; }
    B.iconst(0).istore(1);
    Label Loop = B.newLabel(), End = B.newLabel();
    B.bind(Loop);
    B.iload(1).iconst(200).ifICmp(Opcode::IfICmpGe, End);
    B.iconst(200).newArray(IntArr).astore(2);
    B.iload(1).iconst(1).iadd().istore(1);
    B.jmp(Loop);
    B.bind(End);
    B.aload(0).iconst(0).paLoad().iret();
  });
  ASSERT_TRUE(R.has_value());
  EXPECT_EQ(R->asInt(), 123);
  EXPECT_GT(Vm.gcTotals().Collections, 5u);
}

TEST(Interpreter, ExecutionChargesCycles) {
  JavaVm Vm;
  JavaThread *Thread = nullptr;
  {
    BytecodeProgram P;
    MethodBuilder B("C", "main", 0, 1);
    B.iconst(0).istore(0);
    for (int I = 0; I < 10; ++I)
      B.iload(0).iconst(1).iadd().istore(0);
    B.ret();
    ClassFile C;
    C.Name = "C";
    C.Methods.push_back(B.build());
    P.addClass(std::move(C));
    P.load(Vm);
    Thread = &Vm.startThread("t", 0);
    Interpreter I(Vm, P, *Thread);
    I.run("C.main");
  }
  EXPECT_GE(Thread->cycles(), 43u); // At least one cycle per instruction.
}

} // namespace
