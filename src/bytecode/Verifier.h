//===- Verifier.h - Structural bytecode checks ------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight structural verifier run before a method executes or is
/// instrumented: branch targets in range, local indices in range, code
/// ends on an unconditional control transfer, and line table sorted.
/// Returns diagnostics instead of aborting so tests can assert on them.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_BYTECODE_VERIFIER_H
#define DJX_BYTECODE_VERIFIER_H

#include "bytecode/ClassFile.h"

#include <string>
#include <vector>

namespace djx {

/// Structural problems found in one method.
struct VerifyResult {
  std::vector<std::string> Errors;
  /// Peak operand-stack depth of each verified method, in program order
  /// (0 where the depth pass did not run). An upper bound where a
  /// callee's return kind is unresolved (verifyMethod on a lone method).
  std::vector<uint32_t> MaxStackDepths;
  bool ok() const { return Errors.empty(); }
};

/// Static stack effect of one instruction: operands popped and results
/// pushed. Invoke is the one opcode whose push count depends on the
/// callee (void vs value return) and is handled by the caller.
struct StackEffect {
  unsigned Pops = 0;
  unsigned Pushes = 0;
};

/// The stack effect table behind the verifier's depth dataflow; also the
/// legality oracle for the trace compiler's shape analysis (a trace's
/// operand floor and peak growth are running sums of these).
StackEffect instructionStackEffect(const Instruction &Inst);

/// Verifies one method body.
VerifyResult verifyMethod(const BytecodeMethod &M);

/// Verifies every method of \p P; aggregates errors with method prefixes.
VerifyResult verifyProgram(const BytecodeProgram &P);

} // namespace djx

#endif // DJX_BYTECODE_VERIFIER_H
