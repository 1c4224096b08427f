//===- ThreadProfile.cpp - Per-thread object-centric profile --------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/ThreadProfile.h"

#include <algorithm>
#include <cassert>
#include <istream>
#include <ostream>
#include <sstream>

using namespace djx;

void ThreadProfile::recordAllocation(CctNodeId AllocNode,
                                     const std::string &TypeName,
                                     uint64_t Bytes) {
  AllocKey Key{ThreadId, AllocNode};
  ObjectGroupStats &G = Groups[Key];
  if (G.TypeName.empty())
    G.TypeName = TypeName;
  ++G.AllocCount;
  G.AllocBytes += Bytes;
  ++Version;
}

void ThreadProfile::recordObjectSample(const AllocKey &Key,
                                       const std::string &TypeName,
                                       PerfEventKind Kind,
                                       CctNodeId AccessNode, bool Remote,
                                       NumaNodeId HomeNode,
                                       NumaNodeId CpuNode) {
  ObjectGroupStats &G = Groups[Key];
  if (G.TypeName.empty())
    G.TypeName = TypeName;
  G.Metrics.add(Kind);
  G.AccessBreakdown[AccessNode].add(Kind);
  ++G.AddressSamples;
  if (Remote)
    ++G.RemoteSamples;
  if (HomeNode != kInvalidNode)
    ++G.HomeNodeSamples[HomeNode];
  if (CpuNode != kInvalidNode)
    ++G.AccessNodeSamples[CpuNode];
  Totals.add(Kind);
  ++Version;
}

void ThreadProfile::recordCodeSample(CctNodeId AccessNode,
                                     PerfEventKind Kind) {
  CodeCentric[AccessNode].add(Kind);
  ++Version;
}

void ThreadProfile::recordUnattributed(PerfEventKind Kind) {
  Totals.add(Kind);
  ++Unattributed;
  ++Version;
}

size_t ThreadProfile::memoryFootprint() const {
  size_t Bytes = Tree.memoryFootprint();
  for (const auto &[Key, G] : Groups) {
    (void)Key;
    Bytes += sizeof(AllocKey) + sizeof(ObjectGroupStats) +
             G.TypeName.size() +
             G.AccessBreakdown.size() *
                 (sizeof(CctNodeId) + sizeof(MetricCounts) + 32) +
             (G.HomeNodeSamples.size() + G.AccessNodeSamples.size()) *
                 (sizeof(NumaNodeId) + sizeof(uint64_t) + 32);
  }
  Bytes += CodeCentric.size() *
           (sizeof(CctNodeId) + sizeof(MetricCounts) + 32);
  return Bytes;
}

bool ThreadProfile::remapIds(uint64_t ThreadOffset,
                             const std::vector<MethodId> &MethodMap) {
  Cct Mapped;
  for (CctNodeId N = 1; N < Tree.size(); ++N) {
    MethodId M = Tree.methodOf(N);
    if (M >= MethodMap.size() ||
        Mapped.child(Tree.parentOf(N), MethodMap[M], Tree.bciOf(N)) != N)
      return false;
  }
  auto MapTid = [&](uint64_t Tid) {
    return Tid == 0 ? 0 : Tid + ThreadOffset;
  };
  std::map<AllocKey, ObjectGroupStats> Rekeyed;
  for (auto &[Key, G] : Groups)
    Rekeyed.emplace(AllocKey{MapTid(Key.AllocThread), Key.AllocNode},
                    std::move(G));
  Tree = std::move(Mapped);
  Groups = std::move(Rekeyed);
  ThreadId = MapTid(ThreadId);
  return true;
}

// --- Serialisation ---------------------------------------------------------

static void writeMetrics(std::ostream &OS, const MetricCounts &M) {
  for (size_t I = 0; I < kNumPerfEventKinds; ++I)
    OS << ' ' << M.Counts[I];
}

static bool readMetrics(std::istringstream &IS, MetricCounts &M) {
  for (size_t I = 0; I < kNumPerfEventKinds; ++I)
    if (!(IS >> M.Counts[I]))
      return false;
  return true;
}

void ThreadProfile::writeTo(std::ostream &OS) const {
  OS << "djxprofile v1\n";
  OS << "thread " << ThreadId << ' ' << ThreadName << '\n';
  OS << "cct " << Tree.size() << '\n';
  for (CctNodeId N = 1; N < Tree.size(); ++N)
    OS << "node " << N << ' ' << Tree.parentOf(N) << ' ' << Tree.methodOf(N)
       << ' ' << Tree.bciOf(N) << '\n';
  for (const auto &[Key, G] : Groups) {
    OS << "group " << Key.AllocThread << ' ' << Key.AllocNode << ' '
       << (G.TypeName.empty() ? "?" : G.TypeName) << ' ' << G.AllocCount
       << ' ' << G.AllocBytes << ' ' << G.RemoteSamples << ' '
       << G.AddressSamples;
    writeMetrics(OS, G.Metrics);
    OS << '\n';
    for (const auto &[Node, M] : G.AccessBreakdown) {
      OS << "access " << Key.AllocThread << ' ' << Key.AllocNode << ' '
         << Node;
      writeMetrics(OS, M);
      OS << '\n';
    }
    // NUMA residency histograms (absent when NUMA tracking is off).
    for (const auto &[Node, Count] : G.HomeNodeSamples)
      OS << "homenode " << Key.AllocThread << ' ' << Key.AllocNode << ' '
         << Node << ' ' << Count << '\n';
    for (const auto &[Node, Count] : G.AccessNodeSamples)
      OS << "cpunode " << Key.AllocThread << ' ' << Key.AllocNode << ' '
         << Node << ' ' << Count << '\n';
  }
  for (const auto &[Node, M] : CodeCentric) {
    OS << "code " << Node;
    writeMetrics(OS, M);
    OS << '\n';
  }
  OS << "totals";
  writeMetrics(OS, Totals);
  OS << '\n';
  OS << "unattributed " << Unattributed << '\n';
  OS << "end\n";
}

bool ThreadProfile::readFrom(std::istream &IS) {
  *this = ThreadProfile();
  std::string Line;
  if (!std::getline(IS, Line) || Line != "djxprofile v1")
    return false;
  bool SawEnd = false;
  while (std::getline(IS, Line)) {
    std::istringstream LS(Line);
    std::string Tag;
    if (!(LS >> Tag))
      continue;
    if (Tag == "thread") {
      if (!(LS >> ThreadId >> ThreadName))
        return false;
    } else if (Tag == "cct") {
      uint64_t N;
      if (!(LS >> N))
        return false;
    } else if (Tag == "node") {
      CctNodeId Id, Parent;
      MethodId Method;
      uint32_t Bci;
      if (!(LS >> Id >> Parent >> Method >> Bci))
        return false;
      CctNodeId Got = Tree.child(Parent, Method, Bci);
      if (Got != Id)
        return false; // Nodes must arrive in id order.
    } else if (Tag == "group") {
      AllocKey Key;
      ObjectGroupStats G;
      if (!(LS >> Key.AllocThread >> Key.AllocNode >> G.TypeName >>
            G.AllocCount >> G.AllocBytes >> G.RemoteSamples >>
            G.AddressSamples))
        return false;
      if (!readMetrics(LS, G.Metrics))
        return false;
      if (G.TypeName == "?")
        G.TypeName.clear();
      Groups[Key] = std::move(G);
    } else if (Tag == "access") {
      AllocKey Key;
      CctNodeId Node;
      MetricCounts M;
      if (!(LS >> Key.AllocThread >> Key.AllocNode >> Node))
        return false;
      if (!readMetrics(LS, M))
        return false;
      Groups[Key].AccessBreakdown[Node] = M;
    } else if (Tag == "homenode" || Tag == "cpunode") {
      AllocKey Key;
      NumaNodeId Node;
      uint64_t Count;
      if (!(LS >> Key.AllocThread >> Key.AllocNode >> Node >> Count))
        return false;
      ObjectGroupStats &G = Groups[Key];
      (Tag == "homenode" ? G.HomeNodeSamples
                         : G.AccessNodeSamples)[Node] = Count;
    } else if (Tag == "code") {
      CctNodeId Node;
      MetricCounts M;
      if (!(LS >> Node))
        return false;
      if (!readMetrics(LS, M))
        return false;
      CodeCentric[Node] = M;
    } else if (Tag == "totals") {
      if (!readMetrics(LS, Totals))
        return false;
    } else if (Tag == "unattributed") {
      if (!(LS >> Unattributed))
        return false;
    } else if (Tag == "end") {
      SawEnd = true;
      break;
    } else {
      return false;
    }
  }
  // Access and code contexts name nodes of this profile's own tree.
  // (Allocation nodes name the allocating thread's tree; the fold checks
  // those, where the threads meet.)
  auto InTree = [&](const auto &Entry) { return Entry.first < Tree.size(); };
  if (!std::all_of(CodeCentric.begin(), CodeCentric.end(), InTree))
    return false;
  for (const auto &Entry : Groups)
    if (!std::all_of(Entry.second.AccessBreakdown.begin(),
                     Entry.second.AccessBreakdown.end(), InTree))
      return false;
  return SawEnd;
}
