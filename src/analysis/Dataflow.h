//===- Dataflow.h - Generic worklist dataflow solver ------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worklist fixpoint engine shared by every pass in src/analysis/.
/// A problem supplies its lattice as a state type plus three callbacks;
/// the solver owns iteration order (reverse postorder for forward
/// problems, its mirror for backward ones) and the convergence loop.
/// Type-state inference and escape analysis run it forward.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_ANALYSIS_DATAFLOW_H
#define DJX_ANALYSIS_DATAFLOW_H

#include "analysis/Cfg.h"

#include <deque>
#include <vector>

namespace djx {

enum class DataflowDirection : uint8_t {
  Forward,  ///< Facts flow entry -> exit along CFG edges.
  Backward, ///< Facts flow exit -> entry against CFG edges.
};

/// Solves a dataflow problem to fixpoint over \p G and returns the
/// per-block input state (block entry for forward problems, block exit
/// for backward ones).
///
/// \p Problem must provide:
///   using State = ...;                 // copyable lattice element
///   State boundary();                  // entry (fwd) / exit (bwd) state
///   State initial();                   // bottom, for not-yet-reached
///   // Applies the block body; In is the block's input state.
///   State transfer(uint32_t Block, const State &In);
///   // Joins Src into Dest; returns true when Dest changed.
///   bool join(State &Dest, const State &Src);
template <typename P>
std::vector<typename P::State> solveDataflow(const Cfg &G,
                                             DataflowDirection Dir,
                                             P &Problem) {
  const std::vector<BasicBlock> &Blocks = G.blocks();
  const uint32_t NumBlocks = static_cast<uint32_t>(Blocks.size());
  std::vector<typename P::State> In(NumBlocks, Problem.initial());

  // Seed boundary blocks and build the visit order. Backward problems
  // seed every block with a terminal-ended body (no successors) — a
  // method can have several Return blocks.
  std::deque<uint32_t> Work;
  std::vector<bool> Queued(NumBlocks, false);
  auto Enqueue = [&](uint32_t B) {
    if (!Queued[B]) {
      Queued[B] = true;
      Work.push_back(B);
    }
  };
  if (Dir == DataflowDirection::Forward) {
    In[0] = Problem.boundary();
    Enqueue(0);
  } else {
    for (uint32_t B : G.rpo()) {
      if (Blocks[B].Succs.empty())
        In[B] = Problem.boundary();
      Enqueue(B); // Mirror of RPO would be ideal; a deque converges too.
    }
  }

  while (!Work.empty()) {
    uint32_t B = Work.front();
    Work.pop_front();
    Queued[B] = false;
    typename P::State Out = Problem.transfer(B, In[B]);
    const std::vector<uint32_t> &Edges = Dir == DataflowDirection::Forward
                                             ? Blocks[B].Succs
                                             : Blocks[B].Preds;
    for (uint32_t Next : Edges)
      if (Problem.join(In[Next], Out))
        Enqueue(Next);
  }
  return In;
}

} // namespace djx

#endif // DJX_ANALYSIS_DATAFLOW_H
