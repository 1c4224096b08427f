//===- StaticReport.cpp - Static + dynamic allocation-site report ----------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticReport.h"

#include "analysis/Cfg.h"
#include "analysis/TypeState.h"
#include "pmu/PerfEvent.h"
#include "support/TextTable.h"

#include <algorithm>
#include <map>
#include <sstream>

using namespace djx;

std::vector<StaticSiteFacts>
djx::collectStaticSiteFacts(const BytecodeProgram &P,
                            const AllocationSiteTable &Sites) {
  // Linked Invoke operands are global method indices, so the resolver is
  // a table lookup; unlinked programs fall back to Incomplete analyses.
  CalleeResolver Resolve = nullptr;
  if (P.isLoaded())
    Resolve = [&P](const Instruction &I) -> const BytecodeMethod * {
      size_t Idx = static_cast<size_t>(I.A);
      return Idx < P.numMethods() ? &P.method(Idx) : nullptr;
    };

  std::vector<StaticSiteFacts> Facts(Sites.size());
  for (size_t I = 0; I < Sites.size(); ++I) {
    const AllocationSite &S = Sites.get(I);
    Facts[I].SiteId = S.SiteId;
    Facts[I].Method = S.Method;
    Facts[I].Line = S.Line;
    Facts[I].AllocOp = S.AllocOp;
  }

  for (const ClassFile &C : P.classes()) {
    for (const BytecodeMethod &M : C.Methods) {
      bool Instrumented = false;
      for (const Instruction &I : M.Code)
        if (I.Op == Opcode::AllocHookPre) {
          Instrumented = true;
          break;
        }
      if (!Instrumented)
        continue;

      const Cfg G = Cfg::build(M);
      const TypeStateResult Types = inferTypeStates(M, G, Resolve);
      for (uint32_t Pc = 0; Pc + 1 < M.Code.size(); ++Pc) {
        if (M.Code[Pc].Op != Opcode::AllocHookPre)
          continue;
        uint64_t SiteId = static_cast<uint64_t>(M.Code[Pc].A);
        if (SiteId >= Facts.size())
          continue; // Site table from a different instrumentation run.
        uint32_t AllocPc = Pc + 1;
        StaticSiteFacts &F = Facts[SiteId];
        F.MethodName = M.qualifiedName();
        F.LoopDepth = G.loopDepth(AllocPc);
        const AllocSiteFact *Site = Types.siteAtPc(AllocPc);
        // Proven facts require the fixpoint to have reached the site
        // with its ordinal tracked and every callee resolved; anything
        // less reports as unknown rather than falsely local.
        if (Site && Site->Tracked && !Types.Incomplete &&
            Types.reachable(AllocPc)) {
          F.Analyzed = true;
          F.Routes = Site->Routes;
        }
      }
    }
  }
  return Facts;
}

std::string djx::renderStaticReport(const std::vector<StaticSiteFacts> &Facts,
                                    const MergedProfile &Prof,
                                    const MethodRegistry &Methods,
                                    PerfEventKind Kind) {
  std::ostringstream OS;
  OS << "=== DJXPerf static allocation-site report ===\n";
  if (Facts.empty()) {
    OS << "no instrumented allocation sites (static analysis runs over "
          "bytecode-instrumented workloads)\n\n";
    return OS.str();
  }

  // Dynamic side of the join: aggregate every merged group under the
  // (method, line) of its allocation-context leaf frame. Instrumentation
  // shifts bcis but preserves source lines, so line is the stable key
  // shared with the AllocationSiteTable.
  struct DynAgg {
    uint64_t AllocCount = 0;
    uint64_t AllocBytes = 0;
    uint64_t Samples = 0;
  };
  std::map<std::pair<MethodId, uint32_t>, DynAgg> Dynamic;
  for (const auto &[Node, G] : Prof.Groups) {
    if (G.AllocNode == kCctRoot)
      continue;
    MethodId Leaf = Prof.Tree.methodOf(G.AllocNode);
    uint32_t Line = Methods.lineForBci(Leaf, Prof.Tree.bciOf(G.AllocNode));
    DynAgg &D = Dynamic[{Leaf, Line}];
    D.AllocCount += G.AllocCount;
    D.AllocBytes += G.AllocBytes;
    D.Samples += G.Metrics.get(Kind);
  }

  unsigned ProvenLocal = 0, Escaping = 0, Unknown = 0;
  for (const StaticSiteFacts &F : Facts) {
    if (!F.Analyzed)
      ++Unknown;
    else if (F.Routes == 0)
      ++ProvenLocal;
    else
      ++Escaping;
  }
  OS << Facts.size() << " instrumented site(s): " << ProvenLocal
     << " proven method-local, " << Escaping << " escaping, " << Unknown
     << " unknown\n";

  TextTable T({"site", "method", "line", "alloc", "loop", "escape",
               "allocs", "bytes", perfEventName(Kind)});
  uint64_t TotalSamples = Prof.Totals.get(Kind);
  for (const StaticSiteFacts &F : Facts) {
    std::string Escape = !F.Analyzed ? "unknown" : escapeRoutesStr(F.Routes);
    DynAgg D;
    auto It = Dynamic.find({F.Method, F.Line});
    if (It != Dynamic.end())
      D = It->second;
    std::string Samples = std::to_string(D.Samples);
    if (TotalSamples > 0 && D.Samples > 0)
      Samples += " (" +
                 TextTable::fmtPercent(static_cast<double>(D.Samples) /
                                       static_cast<double>(TotalSamples)) +
                 ")";
    T.addRow({"#" + std::to_string(F.SiteId),
              F.MethodName.empty() ? Methods.qualifiedName(F.Method)
                                   : F.MethodName,
              std::to_string(F.Line), opcodeName(F.AllocOp),
              "depth " + std::to_string(F.LoopDepth), Escape,
              std::to_string(D.AllocCount), std::to_string(D.AllocBytes),
              Samples});
  }
  OS << T.render() << "\n";
  return OS.str();
}
