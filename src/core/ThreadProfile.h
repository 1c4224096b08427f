//===- ThreadProfile.h - Per-thread object-centric profile ------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread measurement state (§5.1): each thread owns a compact CCT and
/// the object-centric metric tables keyed by allocation identity; the
/// offline analyzer merges these across threads (§5.2). A profile also
/// records the plain code-centric view (what Linux perf would report) for
/// the Figure 1 comparison.
///
/// Profiles are serialisable to a line-oriented text format, so the
/// collector can emit one file per thread and the analyzer can load them
/// back — the exact workflow of Figure 3.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_CORE_THREADPROFILE_H
#define DJX_CORE_THREADPROFILE_H

#include "core/Cct.h"
#include "core/LiveObjectIndex.h"
#include "core/Metrics.h"
#include "sim/NumaTopology.h"

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace djx {

/// Allocation identity used as the object-group key: the allocating thread
/// plus the allocation-context node in *that thread's* CCT.
struct AllocKey {
  uint64_t AllocThread = 0;
  CctNodeId AllocNode = kCctRoot;

  bool operator<(const AllocKey &O) const {
    if (AllocThread != O.AllocThread)
      return AllocThread < O.AllocThread;
    return AllocNode < O.AllocNode;
  }
  bool operator==(const AllocKey &O) const {
    return AllocThread == O.AllocThread && AllocNode == O.AllocNode;
  }
};

/// Aggregated measurements for all objects sharing one allocation context.
struct ObjectGroupStats {
  std::string TypeName;
  /// Allocation-side statistics (filled by the allocating thread only).
  uint64_t AllocCount = 0;
  uint64_t AllocBytes = 0;
  /// PMU metrics aggregated over all sampled accesses to the group.
  MetricCounts Metrics;
  /// NUMA diagnosis: sampled accesses whose page resided on a different
  /// node than the accessing CPU (§4.3).
  uint64_t RemoteSamples = 0;
  uint64_t AddressSamples = 0;
  /// Node residency histogram: per sampled access, the home node the
  /// move_pages analogue reported for the effective address.
  std::map<NumaNodeId, uint64_t> HomeNodeSamples;
  /// Accessing-side histogram: the node of the sampling CPU
  /// (PERF_SAMPLE_CPU). Together with HomeNodeSamples this drives the
  /// placement remediation hint (bind vs. interleave, §7.5/§7.6).
  std::map<NumaNodeId, uint64_t> AccessNodeSamples;
  /// Disaggregated access contexts (nodes of the owning profile's CCT).
  std::map<CctNodeId, MetricCounts> AccessBreakdown;
};

/// One thread's complete profile.
class ThreadProfile {
public:
  ThreadProfile() = default;
  ThreadProfile(uint64_t ThreadId, std::string ThreadName)
      : ThreadId(ThreadId), ThreadName(std::move(ThreadName)) {}

  uint64_t threadId() const { return ThreadId; }
  const std::string &threadName() const { return ThreadName; }

  Cct &cct() { return Tree; }
  const Cct &cct() const { return Tree; }

  /// Records an allocation of \p Bytes at context \p AllocNode (a node of
  /// this thread's CCT).
  void recordAllocation(CctNodeId AllocNode, const std::string &TypeName,
                        uint64_t Bytes);

  /// Attributes one sample to the object group identified by \p Key, with
  /// the access context \p AccessNode (a node of this thread's CCT).
  /// \p HomeNode / \p CpuNode feed the per-object NUMA residency
  /// histograms when known (kInvalidNode: NUMA tracking off or the page
  /// was never placed).
  void recordObjectSample(const AllocKey &Key, const std::string &TypeName,
                          PerfEventKind Kind, CctNodeId AccessNode,
                          bool Remote, NumaNodeId HomeNode = kInvalidNode,
                          NumaNodeId CpuNode = kInvalidNode);

  /// Records the code-centric view of one sample.
  void recordCodeSample(CctNodeId AccessNode, PerfEventKind Kind);

  /// Records a sample that hit no tracked object.
  void recordUnattributed(PerfEventKind Kind);

  const std::map<AllocKey, ObjectGroupStats> &groups() const {
    return Groups;
  }
  const std::map<CctNodeId, MetricCounts> &codeCentric() const {
    return CodeCentric;
  }
  const MetricCounts &totals() const { return Totals; }
  uint64_t unattributedSamples() const { return Unattributed; }

  /// Monotonic change counter, bumped by every record* call. The profile
  /// journal snapshots a thread only when its version moved since the
  /// last flush, so idle threads cost no journal bytes per epoch.
  uint64_t version() const { return Version; }

  size_t memoryFootprint() const;

  /// Serialises to the line-oriented profile format.
  void writeTo(std::ostream &OS) const;

  /// Parses a profile written by writeTo. \returns false on malformed
  /// input, including an access or code context that is not a node of
  /// the profile's own CCT.
  bool readFrom(std::istream &IS);

  /// Re-keys the profile into a merged id space: adds \p ThreadOffset to
  /// the thread id and every allocating thread id (id 0, unknown
  /// provenance, is kept) and maps CCT method ids through \p MethodMap
  /// (index = original id). CCT node ids are unchanged. \returns false,
  /// leaving the profile untouched, when a method id has no entry in
  /// \p MethodMap or the map would fold two sibling nodes into one.
  bool remapIds(uint64_t ThreadOffset, const std::vector<MethodId> &MethodMap);

private:
  uint64_t ThreadId = 0;
  std::string ThreadName;
  Cct Tree;
  std::map<AllocKey, ObjectGroupStats> Groups;
  std::map<CctNodeId, MetricCounts> CodeCentric;
  MetricCounts Totals;
  uint64_t Unattributed = 0;
  uint64_t Version = 0;
};

} // namespace djx

#endif // DJX_CORE_THREADPROFILE_H
