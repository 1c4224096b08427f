//===- djxbench.cpp - End-to-end benchmark of the djx library --------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one catalog workload in process through the same public entry
/// points `djxperf` uses (JavaVm, DjxPerf start/stop/analyze, the workload
/// functions, ProfileJournal, renderObjectCentric, writeHtmlReport), repeats
/// it for a fixed number of host seconds and reports medians.
///
///   djxbench --workload <numa_remote|mt_churn_journal|fig4_suites>
///            --seed <n> --seconds <s> --trace <0|1>
///            [--tiny] [--jobs <n>] [--expect-digest <hex>] [--out-dir <d>]
///
/// Measured iterations run on --jobs host workers (default 2, half of a
/// 4-core host): at 4 workers a round barrier waits for any worker the
/// host deschedules, and on a 4-vCPU Xeon VM two busy loops elsewhere
/// doubled wall_s at 4 workers while leaving it unchanged at 2. Two warm-up
/// iterations, checked but not timed, precede the timed loop.
///
/// Every measured iteration is checked against an untimed reference run of
/// the same inputs at --tier interp on one host worker: report bytes,
/// simulated cycles, merged HierarchyStats and journal bytes must be equal.
/// --trace 0 prints the end-to-end metrics; --trace 1 spends half the time
/// untraced and half traced, and prints the per-layer metrics, a self-time
/// table by span and the tracing overhead. The last stdout line is a JSON
/// object {correct, attempted, failed, metrics}; a fuller record (seed,
/// host fingerprint, inputs, deterministic counts) goes to --out-dir.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "core/DjxPerf.h"
#include "core/HtmlReport.h"
#include "core/Report.h"
#include "io/ProfileJournal.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/VmError.h"
#include "workloads/Parallel.h"
#include "workloads/Suites.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace djx;
using namespace e2e;

namespace {

enum class Kind { NumaRemote, MtChurnJournal, Fig4Suites };

const char *kindName(Kind K) {
  switch (K) {
  case Kind::NumaRemote:
    return "numa_remote";
  case Kind::MtChurnJournal:
    return "mt_churn_journal";
  case Kind::Fig4Suites:
    return "fig4_suites";
  }
  return "?";
}

std::optional<Kind> parseKind(const std::string &S) {
  for (Kind K : {Kind::NumaRemote, Kind::MtChurnJournal, Kind::Fig4Suites})
    if (S == kindName(K))
      return K;
  return std::nullopt;
}

/// Everything one workload execution needs. The program sees only these
/// generated values; the seed itself never reaches it.
struct Inputs {
  Kind K = Kind::NumaRemote;
  ParallelConfig Pc;
  VmConfig Vm;
  DjxPerfConfig Agent;
  /// fig4_suites: the catalog entries with seeded sizes.
  std::vector<SuiteEntry> Entries;
  ReportOptions Opts;
  bool Journal = false;
  bool Html = false;
  ExecTier MeasuredTier = ExecTier::Interp;
};

/// The agent `djxperf` builds from its defaults (--event l1miss,
/// --period 64).
DjxPerfConfig cliAgent() {
  DjxPerfConfig A;
  A.Events = {PerfEventAttr{PerfEventKind::L1Miss, 64, 64}};
  return A;
}

/// Seeded inputs. Each workload keeps the catalog shape and varies sizes
/// within it while holding the total work nearly fixed, so seeds change
/// the simulated results (and the digest) but not the expected run time.
Inputs makeInputs(Kind K, uint64_t Seed, bool Tiny) {
  Inputs In;
  In.K = K;
  Random R(Seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(K));
  auto Pick = [&R](int64_t Lo, int64_t Hi) {
    return Lo + static_cast<int64_t>(R.nextBelow(Hi - Lo + 1));
  };
  switch (K) {
  case Kind::NumaRemote: {
    // Catalog `numaRemote`: 4 simulated threads each sweep a neighbour's
    // hot array, kept above the scaled 128 KiB L3 (240-256 KiB) so sweeps
    // reach DRAM.
    ParallelConfig &Pc = In.Pc;
    Pc.SimThreads = 4;
    Pc.HotElems = 32768 - 256 * Pick(0, 8);
    Pc.Iters = (300 * 32768 + Pc.HotElems / 2) / Pc.HotElems;
    Pc.Nlen = 256 + 8 * Pick(-2, 2);
    Pc.HeapBytesPerThread = 512 << 10;
    Pc.Policy = NumaPolicy::FirstTouch;
    if (Tiny)
      Pc.Iters = 12;
    In.Vm = numaRemoteVmConfig(Pc);
    In.Agent = parallelAgentConfig(Pc, cliAgent());
    In.MeasuredTier = ExecTier::Super;
    break;
  }
  case Kind::MtChurnJournal: {
    // Catalog `parallel8`: 8 batik churn workers whose hot arrays
    // (120-128 KiB) fit in L2, journaled every round, HTML report written.
    ParallelConfig &Pc = In.Pc;
    Pc.SimThreads = 8;
    Pc.HotElems = 16384 - 128 * Pick(0, 8);
    Pc.Iters = (400 * 16384 + Pc.HotElems / 2) / Pc.HotElems;
    Pc.Nlen = 256 + 8 * Pick(-2, 2);
    Pc.HeapBytesPerThread = 512 << 10;
    if (Tiny)
      Pc.Iters = 24;
    In.Vm = parallelVmConfig(Pc);
    In.Agent = parallelAgentConfig(Pc, cliAgent());
    In.Journal = In.Html = true;
    In.MeasuredTier = ExecTier::Interp;
    break;
  }
  case Kind::Fig4Suites: {
    // All 50 Figure 4 entries in catalog order, with the paper-default
    // agent that bench_fig4_overhead uses; each entry's base work is
    // jittered by +-2%. The order stays fixed: it decides how the entries'
    // heaps fragment the allocator, and so peak RSS.
    In.Entries = figure4Suites();
    if (Tiny)
      In.Entries.resize(6);
    for (SuiteEntry &E : In.Entries) {
      E.HotReads = E.HotReads * static_cast<uint64_t>(Pick(980, 1020)) /
                   1000 / 16 * 16;
      if (Tiny) {
        E.SmallAllocs /= 20;
        E.TrackedAllocs /= 20;
        E.HotReads = std::max<uint64_t>(E.HotReads / 20 / 16 * 16, 16);
      }
    }
    In.Agent = DjxPerfConfig();
    break;
  }
  }
  In.Opts.SortKind = PerfEventKind::L1Miss;
  In.Opts.TopGroups = 10;
  In.Opts.ShowNuma = In.Agent.TrackNuma;
  return In;
}

struct Mode {
  ExecTier Tier = ExecTier::Interp;
  unsigned Jobs = 1;
};

/// Counts one execution produced. The self-test requires the logical ones
/// (steps, rounds, samples, journal bytes, simulator counts) to be equal
/// for any host worker count and with tracing on.
struct Counts {
  uint64_t Steps = 0, Rounds = 0, Safepoints = 0;
  uint64_t Samples = 0, Dropped = 0, Drains = 0;
  uint64_t AllocCallbacks = 0, Tracked = 0;
  uint64_t Lookups = 0, LookupMisses = 0, LockAcquisitions = 0;
  uint64_t LiveObjects = 0, ProfilerBytes = 0, PeakHeap = 0;
  uint64_t GcCount = 0, GcMoved = 0, GcFreed = 0;
  uint64_t JournalBytes = 0, JournalEpochs = 0, JournalSegments = 0;
  HierarchyStats Machine;
};

void addStats(HierarchyStats &To, const HierarchyStats &S) {
  To.Accesses += S.Accesses;
  To.L1Misses += S.L1Misses;
  To.L2Misses += S.L2Misses;
  To.L3Misses += S.L3Misses;
  To.TlbMisses += S.TlbMisses;
  To.RemoteAccesses += S.RemoteAccesses;
  To.TotalLatency += S.TotalLatency;
}

bool sameStats(const HierarchyStats &A, const HierarchyStats &B) {
  return A.Accesses == B.Accesses && A.L1Misses == B.L1Misses &&
         A.L2Misses == B.L2Misses && A.L3Misses == B.L3Misses &&
         A.TlbMisses == B.TlbMisses && A.RemoteAccesses == B.RemoteAccesses &&
         A.TotalLatency == B.TotalLatency;
}

/// One profiled execution of a workload: what is checked, what is counted
/// and what was timed (host seconds).
struct Outcome {
  std::optional<std::string> Error;
  std::string Report;
  uint64_t Cycles = 0;       ///< Profiled simulated cycles incl. aux.
  uint64_t NativeCycles = 0; ///< fig4_suites only.
  uint64_t JournalHash = 0;
  double SimOverheadX = 0, SimMemOverheadX = 0; ///< fig4_suites only.
  Counts C;
  double SetupS = 0, WallS = 0, RunS = 0;
};

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t fnv(uint64_t H, const void *Data, size_t N) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < N; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ULL;
  }
  return H;
}

uint64_t fnvU64(uint64_t H, uint64_t V) {
  unsigned char B[8];
  for (int I = 0; I < 8; ++I)
    B[I] = static_cast<unsigned char>(V >> (8 * I));
  return fnv(H, B, 8);
}

uint64_t hashFile(const std::string &Path) {
  std::ifstream F(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(F)),
                    std::istreambuf_iterator<char>());
  return fnv(kFnvBasis, Bytes.data(), Bytes.size());
}

/// Digest of everything the correctness check compares.
uint64_t digestOf(const Outcome &O) {
  uint64_t H = fnv(kFnvBasis, O.Report.data(), O.Report.size());
  const HierarchyStats &M = O.C.Machine;
  for (uint64_t V : {O.Cycles, O.NativeCycles, O.JournalHash, M.Accesses,
                     M.L1Misses, M.L2Misses, M.L3Misses, M.TlbMisses,
                     M.RemoteAccesses, M.TotalLatency})
    H = fnvU64(H, V);
  return H;
}

/// NativeCycles is compared only when \p A ran the native side too.
bool sameResult(const Outcome &A, const Outcome &Ref) {
  return !A.Error && A.Report == Ref.Report && A.Cycles == Ref.Cycles &&
         (A.NativeCycles == 0 || A.NativeCycles == Ref.NativeCycles) &&
         A.JournalHash == Ref.JournalHash &&
         sameStats(A.C.Machine, Ref.C.Machine);
}

/// Traced-run subscriber for GC start/finish. Allocation, move and free
/// events are deliberately not subscribed: a per-event subscriber would
/// sit on fig4_suites' allocation path and measure a different program.
struct GcTap {
  GcTap(JavaVm &Vm, Tracer &Tr, Counts *Into) {
    Vm.jvmti().onGcStart([this] { Start = nowNs(); });
    Vm.jvmti().onGcFinish([this, &Tr, Into](const GcStats &S) {
      Tr.add("gc", 3, Start, nowNs());
      if (Into) {
        Into->GcCount += S.Collections;
        Into->GcMoved += S.ObjectsMoved;
        Into->GcFreed += S.ObjectsFreed;
      }
    });
  }
  GcTap(const GcTap &) = delete;
  GcTap &operator=(const GcTap &) = delete;
  int64_t Start = 0;
};

/// Round clock for quantum spans. onQuantumEnd only reports the end of a
/// quantum, so a quantum starts at the later of its round's start and the
/// previous quantum end on the same host worker.
std::atomic<uint64_t> NextRoundGen{1};
thread_local uint64_t TlRoundGen = 0;
thread_local int64_t TlLastQuantumEnd = 0;
/// Distinct id of the host worker thread, assigned at its first quantum.
std::atomic<int> NextWorkerId{0};
thread_local int TlWorker = -1;

struct RoundClock {
  std::atomic<int64_t> Start{0};
  std::atomic<uint64_t> Gen{0};
  void begin(int64_t T) {
    Start.store(T, std::memory_order_release);
    Gen.store(NextRoundGen.fetch_add(1), std::memory_order_release);
  }
};

JournalMeta journalMeta(const Inputs &In) {
  JournalMeta M;
  M.Workload = kindName(In.K);
  M.Title = std::string("DJXPerf: ") + kindName(In.K);
  M.EventKind = static_cast<unsigned>(In.Opts.SortKind);
  M.TopGroups = In.Opts.TopGroups;
  M.ShowNuma = In.Opts.ShowNuma;
  return M;
}

ParallelConfig parallelConfig(const Inputs &In, Mode M) {
  ParallelConfig Pc = In.Pc;
  Pc.Tier.Tier = M.Tier;
  Pc.Jobs = M.Jobs;
  return Pc;
}

ParallelOutcome driveParallel(const Inputs &In, JavaVm &Vm, DjxPerf *Prof,
                              const ParallelConfig &Pc) {
  return In.K == Kind::NumaRemote ? runNumaRemoteWorkload(Vm, Prof, Pc)
                                  : runParallelWorkload(Vm, Prof, Pc);
}

/// numa_remote / mt_churn_journal: one profiled run as `djxperf` makes it.
Outcome runParallelProfiled(const Inputs &In, Mode M, Tracer *Tr,
                            const std::string &Dir) {
  Outcome O;
  ParallelConfig Pc = parallelConfig(In, M);
  DjxPerfConfig Agent = In.Agent;
  Agent.Tier = Pc.Tier;
  const std::string JPath = Dir + "/run.djxj";
  const std::string HPath = Dir + "/report.html";

  int64_t T0 = nowNs();
  JavaVm Vm(In.Vm);
  DjxPerf Prof(Vm, Agent);
  Prof.start();
  std::unique_ptr<ProfileJournal> Journal;
  if (In.Journal) {
    std::string Err;
    Journal = ProfileJournal::open(JPath, journalMeta(In), &Err);
    if (!Journal) {
      O.Error = "cannot open journal " + JPath + ": " + Err;
      return O;
    }
  }
  int64_t T1 = nowNs();

  // Subscribed after start() so a quantum span covers the profiler's own
  // quantum-end ring drain.
  std::optional<GcTap> Gc;
  RoundClock Clock;
  Clock.begin(T1);
  if (Tr) {
    Gc.emplace(Vm, *Tr, &O.C);
    Vm.jvmti().onQuantumEnd([Tr, &Clock](JavaThread &) {
      int64_t End = nowNs();
      uint64_t Gen = Clock.Gen.load(std::memory_order_acquire);
      int64_t Start = TlRoundGen == Gen
                          ? TlLastQuantumEnd
                          : Clock.Start.load(std::memory_order_acquire);
      TlRoundGen = Gen;
      TlLastQuantumEnd = End;
      if (TlWorker < 0)
        TlWorker = NextWorkerId.fetch_add(1);
      Tr->add("quantum", 3, Start, End, TlWorker);
    });
  }
  if (Journal || Tr)
    Pc.OnRoundEnd = [&](uint64_t Round) {
      int64_t H0 = nowNs();
      if (Tr)
        Tr->add("round", 2, Clock.Start.load(std::memory_order_acquire), H0);
      if (Journal) {
        Journal->flush(Prof, Vm.methods(), Round);
        if (Tr)
          Tr->add("flush", 2, H0, nowNs());
      }
      if (Tr)
        Clock.begin(nowNs());
      return false;
    };

  ParallelOutcome Out;
  try {
    Out = driveParallel(In, Vm, &Prof, Pc);
  } catch (VmError &E) {
    O.Error = E.describe();
  }
  int64_t T2 = nowNs();
  Prof.stop();
  int64_t T3 = nowNs();
  if (Journal)
    Journal->closeClean(Prof, Vm.methods());
  int64_t T4 = nowNs();
  MergedProfile P = Prof.analyze();
  int64_t T5 = nowNs();
  O.Report = renderObjectCentric(P, Vm.methods(), In.Opts);
  int64_t T6 = nowNs();
  if (In.Html && !writeHtmlReport(P, Vm.methods(), HPath, In.Opts,
                                  journalMeta(In).Title))
    O.Error = "cannot write " + HPath;
  int64_t T7 = nowNs();

  O.SetupS = seconds(T1 - T0);
  O.RunS = seconds(T2 - T1);
  O.WallS = seconds(T7 - T1);
  if (Tr) {
    Tr->add("iteration", 0, T0, T7);
    Tr->add("setup", 1, T0, T1);
    Tr->add("run", 1, T1, T2);
    Tr->add("stop", 1, T2, T3);
    if (Journal)
      Tr->add("close", 1, T3, T4);
    Tr->add("analyze", 1, T4, T5);
    Tr->add("render", 1, T5, T6);
    if (In.Html)
      Tr->add("html", 1, T6, T7);
  }

  O.Cycles = Vm.totalCycles() + Prof.auxOverheadCycles();
  Counts &C = O.C;
  C.Steps = Out.Steps;
  C.Rounds = Out.Rounds;
  C.Safepoints = Out.Safepoints;
  C.Machine = Out.Machine;
  C.Samples = Prof.samplesHandled();
  C.Dropped = Prof.samplesDropped();
  C.Drains = Prof.ringOverflowDrains();
  C.AllocCallbacks = Prof.allocationCallbacks();
  C.Tracked = Prof.allocationsTracked();
  C.Lookups = Prof.index().lookups();
  C.LookupMisses = Prof.index().lookupMisses();
  C.LockAcquisitions = Prof.index().lockAcquisitions();
  C.LiveObjects = Prof.index().liveCount();
  C.ProfilerBytes = Prof.memoryFootprint();
  C.PeakHeap = Vm.peakHeapBytes();
  if (Journal) {
    C.JournalBytes = Journal->bytesWritten();
    C.JournalEpochs = Journal->epochsCommitted();
    C.JournalSegments = Journal->segmentsWritten();
    Journal.reset();
    O.JournalHash = hashFile(JPath);
    std::filesystem::remove(JPath);
  }
  if (In.Html)
    std::filesystem::remove(HPath);
  return O;
}

struct NativeRun {
  uint64_t Cycles = 0;
  uint64_t PeakHeap = 0;
};

NativeRun runParallelNative(const Inputs &In, Mode M) {
  JavaVm Vm(In.Vm);
  driveParallel(In, Vm, nullptr, parallelConfig(In, M));
  return NativeRun{Vm.totalCycles(), Vm.peakHeapBytes()};
}

/// fig4_suites: every entry profiled with its object report rendered, as
/// `djxperf <suite>/<entry>` runs it. \p WithNative
/// first runs each entry without a profiler (bench_fig4_overhead's loop)
/// for the simulated overheads; the timed untraced passes skip it, since
/// native cycles are deterministic and the reference has them.
Outcome runFig4(const Inputs &In, Tracer *Tr, bool WithNative) {
  Outcome O;
  std::vector<double> Rt, Mem;
  int64_t Setup = 0, Wall = 0, Run = 0;
  int64_t IterStart = nowNs();
  try {
    for (const SuiteEntry &E : In.Entries) {
      int64_t A = nowNs();
      uint64_t NativeCycles = 0, NativePeak = 0;
      if (WithNative) {
        JavaVm Native(E.Config);
        std::optional<GcTap> NativeGc;
        if (Tr)
          NativeGc.emplace(Native, *Tr, nullptr);
        int64_t B = nowNs();
        runSuiteEntry(Native, E);
        int64_t C = nowNs();
        NativeCycles = Native.totalCycles();
        NativePeak = Native.peakHeapBytes();
        if (Tr)
          Tr->add("native_run", 2, B, C);
      }
      int64_t D = nowNs();
      JavaVm Vm(E.Config);
      DjxPerf Prof(Vm, In.Agent);
      Prof.start();
      std::optional<GcTap> Gc;
      if (Tr)
        Gc.emplace(Vm, *Tr, &O.C);
      int64_t F = nowNs();
      runSuiteEntry(Vm, E);
      int64_t G = nowNs();
      Prof.stop();
      int64_t H = nowNs();
      MergedProfile P = Prof.analyze();
      int64_t J = nowNs();
      O.Report += "== " + E.Suite + "/" + E.Name + " ==\n" +
                  renderObjectCentric(P, Vm.methods(), In.Opts);
      int64_t K = nowNs();

      Setup += F - D;
      Wall += K - F;
      Run += G - F;
      if (Tr) {
        Tr->add("entry", 1, A, K);
        Tr->add("setup", 2, D, F);
        Tr->add("profiled_run", 2, F, G);
        Tr->add("stop", 2, G, H);
        Tr->add("analyze", 2, H, J);
        Tr->add("render", 2, J, K);
      }

      uint64_t Cycles = Vm.totalCycles() + Prof.auxOverheadCycles();
      O.Cycles += Cycles;
      if (WithNative) {
        O.NativeCycles += NativeCycles;
        Rt.push_back(static_cast<double>(Cycles) /
                     static_cast<double>(NativeCycles));
        Mem.push_back(static_cast<double>(Vm.peakHeapBytes() +
                                          Prof.memoryFootprint()) /
                      static_cast<double>(NativePeak));
      }
      Counts &Ct = O.C;
      addStats(Ct.Machine, Vm.machine().stats());
      Ct.Samples += Prof.samplesHandled();
      Ct.Dropped += Prof.samplesDropped();
      Ct.Drains += Prof.ringOverflowDrains();
      Ct.AllocCallbacks += Prof.allocationCallbacks();
      Ct.Tracked += Prof.allocationsTracked();
      Ct.Lookups += Prof.index().lookups();
      Ct.LookupMisses += Prof.index().lookupMisses();
      Ct.LockAcquisitions += Prof.index().lockAcquisitions();
      Ct.LiveObjects += Prof.index().liveCount();
      Ct.ProfilerBytes = std::max<uint64_t>(Ct.ProfilerBytes,
                                            Prof.memoryFootprint());
      Ct.PeakHeap = std::max(Ct.PeakHeap, Vm.peakHeapBytes());
    }
  } catch (VmError &E) {
    O.Error = E.describe();
  }
  if (Tr)
    Tr->add("iteration", 0, IterStart, nowNs());
  O.SimOverheadX = geomean(Rt);
  O.SimMemOverheadX = geomean(Mem);
  O.SetupS = seconds(Setup);
  O.WallS = seconds(Wall);
  O.RunS = seconds(Run);
  return O;
}

/// One profiled execution; \p WithNative also runs fig4_suites' entries
/// natively (the parallel workloads' native runs are separate).
Outcome runProfiled(const Inputs &In, Mode M, Tracer *Tr,
                    const std::string &Dir, bool WithNative) {
  return In.K == Kind::Fig4Suites ? runFig4(In, Tr, WithNative)
                                  : runParallelProfiled(In, M, Tr, Dir);
}

/// Host time of MemoryHierarchy::accessMemory alone, on the workload's
/// MachineConfig, for an address stream of the workload's shape: each
/// simulated thread on its own worker-private hierarchy (as under the
/// Executor) sweeps a hot array (its neighbour's for numa_remote, homed on
/// the owner's node as first-touch places it) and bumps through a churn
/// region. \returns the median ns per access over 5 timed passes.
double kernelNsPerAccess(const Inputs &In) {
  bool Fig4 = In.K == Kind::Fig4Suites;
  MachineConfig MC = Fig4 ? In.Entries.front().Config.Machine : In.Vm.Machine;
  unsigned Threads = Fig4 ? 1 : In.Pc.SimThreads;
  uint64_t HotBytes =
      Fig4 ? In.Entries.front().HotBytes : In.Pc.HotElems * 8;
  uint64_t ChurnBytes = Fig4 ? 64 * 64 : In.Pc.Nlen * 8;
  constexpr uint64_t kAccessesPerThread = uint64_t(1) << 19;
  constexpr uint64_t kChurnWrap = 256 << 10;
  auto Base = [](unsigned T) { return (uint64_t(T) + 1) << 24; };

  std::vector<std::unique_ptr<MemoryHierarchy>> Hs;
  std::vector<uint32_t> Cpus;
  std::vector<std::vector<uint64_t>> Streams(Threads);
  const NumaConfig &N = MC.Numa;
  for (unsigned T = 0; T < Threads; ++T) {
    Hs.push_back(std::make_unique<MemoryHierarchy>(MC));
    Cpus.push_back((T % N.NumNodes) * N.CpusPerNode +
                   (T / N.NumNodes) % N.CpusPerNode);
  }
  for (unsigned T = 0; T < Threads; ++T)
    for (unsigned Owner = 0; Owner < Threads; ++Owner)
      Hs[T]->numa().bindRange(Base(Owner), 2 * kChurnWrap + HotBytes,
                              Hs[T]->numa().nodeOfCpu(Cpus[Owner]));
  for (unsigned T = 0; T < Threads; ++T) {
    unsigned Target = In.K == Kind::NumaRemote ? (T + 1) % Threads : T;
    uint64_t Hot = Base(Target), Churn = Base(T) + HotBytes, Bump = 0;
    std::vector<uint64_t> &S = Streams[T];
    while (S.size() < kAccessesPerThread) {
      for (uint64_t Off = 0; Off < HotBytes && S.size() < kAccessesPerThread;
           Off += 8)
        S.push_back(Hot + Off);
      for (uint64_t Off = 0; Off < ChurnBytes; Off += 8) {
        S.push_back(Churn + Bump);
        Bump = (Bump + 8) % kChurnWrap;
      }
    }
  }
  // Consumed through a volatile store so the timed calls are not elided.
  static volatile uint64_t KernelSink;
  uint64_t Sink = 0;
  auto Pass = [&] {
    for (unsigned T = 0; T < Threads; ++T)
      for (uint64_t A : Streams[T])
        Sink += Hs[T]->accessMemory(Cpus[T], A).LatencyCycles;
  };
  Pass(); // Warm caches, TLBs and page placement.
  std::vector<double> Ns;
  for (int Rep = 0; Rep < 5; ++Rep) {
    int64_t T0 = nowNs();
    Pass();
    Ns.push_back(static_cast<double>(nowNs() - T0) /
                 static_cast<double>(Threads * kAccessesPerThread));
  }
  KernelSink = Sink;
  return median(Ns);
}

/// One named metric with its unit, printed and emitted in this order.
struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

double ratio(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

/// Per-layer timing metrics derived from the traced iterations' spans
/// (median over iterations).
std::vector<Metric> layerTimings(const Tracer &Tr, unsigned Iterations,
                                 uint64_t Steps, uint64_t Samples) {
  const std::vector<Span> &Sp = Tr.spans();
  struct PerIter {
    std::vector<double> Rounds, Flushes;
    double BarrierWait = 0, QuantumSum = 0, GcSum = 0, RunS = 0,
           NativeS = 0, StopS = 0, AnalyzeS = 0, RenderS = 0, HtmlS = 0;
  };
  std::vector<PerIter> It(Iterations);
  // Busy time of each host worker within each round: a worker runs several
  // quanta in a round when there are more simulated threads than workers.
  std::map<std::pair<int, int>, double> WorkerBusy;
  for (const Span &S : Sp)
    if (std::strcmp(S.Name, "quantum") == 0 && S.Parent >= 0)
      WorkerBusy[{S.Parent, S.Worker}] += seconds(S.End - S.Start);
  std::vector<double> BusiestWorker(Sp.size(), 0);
  for (const auto &[Key, Busy] : WorkerBusy)
    BusiestWorker[Key.first] = std::max(BusiestWorker[Key.first], Busy);
  for (size_t I = 0; I < Sp.size(); ++I) {
    const Span &S = Sp[I];
    PerIter &P = It[S.Iteration];
    double D = seconds(S.End - S.Start);
    std::string N = S.Name;
    if (N == "round") {
      P.Rounds.push_back(D);
      P.BarrierWait += D - BusiestWorker[I];
    } else if (N == "flush") {
      P.Flushes.push_back(D);
    } else if (N == "quantum") {
      P.QuantumSum += D;
    } else if (N == "gc" && S.Parent >= 0 &&
               std::strcmp(Sp[S.Parent].Name, "native_run") != 0) {
      P.GcSum += D;
    } else if (N == "run" || N == "profiled_run") {
      P.RunS += D;
    } else if (N == "native_run") {
      P.NativeS += D;
    } else if (N == "stop") {
      P.StopS += D;
    } else if (N == "analyze") {
      P.AnalyzeS += D;
    } else if (N == "render") {
      P.RenderS += D;
    } else if (N == "html") {
      P.HtmlS += D;
    }
  }
  auto Med = [&](auto Get) {
    std::vector<double> V;
    for (const PerIter &P : It)
      V.push_back(Get(P));
    return median(V);
  };
  auto Sum = [](const std::vector<double> &V) {
    double S = 0;
    for (double X : V)
      S += X;
    return S;
  };
  double QuantumS = Med([](const PerIter &P) { return P.QuantumSum; });
  double RunS = Med([](const PerIter &P) { return P.RunS; });
  return {
      {"runtime.round_s.p50",
       Med([](const PerIter &P) { return percentile(P.Rounds, 50); }), "s"},
      {"runtime.round_s.p99",
       Med([](const PerIter &P) { return percentile(P.Rounds, 99); }), "s"},
      {"runtime.barrier_wait_s",
       Med([](const PerIter &P) { return P.BarrierWait; }), "s"},
      {"runtime.quantum_s.sum", QuantumS, "s"},
      {"interp.steps_per_quantum_s",
       QuantumS > 0 ? static_cast<double>(Steps) / QuantumS : 0, "1/s"},
      {"core.host_overhead_x",
       Med([](const PerIter &P) {
         return P.NativeS > 0 ? P.RunS / P.NativeS : 0;
       }),
       "x"},
      {"core.stop_s", Med([](const PerIter &P) { return P.StopS; }), "s"},
      {"core.analyze_s", Med([](const PerIter &P) { return P.AnalyzeS; }),
       "s"},
      {"core.render_s", Med([](const PerIter &P) { return P.RenderS; }), "s"},
      {"core.html_s", Med([](const PerIter &P) { return P.HtmlS; }), "s"},
      {"jvm.gc_s", Med([](const PerIter &P) { return P.GcSum; }), "s"},
      {"io.flush_s.sum",
       Med([&](const PerIter &P) { return Sum(P.Flushes); }), "s"},
      {"io.flush_s.p99",
       Med([](const PerIter &P) { return percentile(P.Flushes, 99); }),
       "s"},
      {"pmu.samples_per_s",
       RunS > 0 ? static_cast<double>(Samples) / RunS : 0, "1/s"},
  };
}

std::string cpuModel() {
  std::ifstream F("/proc/cpuinfo");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t C = Line.find(':');
      return C == std::string::npos ? Line : Line.substr(C + 2);
    }
  return "unknown";
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      O += C;
  }
  return O;
}

std::string num(double V) {
  char B[64];
  std::snprintf(B, sizeof B, "%.17g", std::isfinite(V) ? V : 0.0);
  return B;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string S = "{";
  for (size_t I = 0; I < Ms.size(); ++I)
    S += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " +
         num(Ms[I].Value) + ", \"unit\": \"" + Ms[I].Unit + "\"}";
  return S + "}";
}

void printMetrics(const char *Title, const std::vector<Metric> &Ms) {
  std::printf("%s\n", Title);
  for (const Metric &M : Ms)
    std::printf("  %-30s %16.6g %s\n", M.Name.c_str(), M.Value, M.Unit);
}

void printSelfTimes(const Tracer &Tr, unsigned Iterations) {
  static const std::map<std::string, const char *> Layer = {
      {"iteration", "workload"}, {"entry", "workload"},
      {"setup", "jvm+core"},     {"run", "runtime"},
      {"round", "runtime"},      {"quantum", "interp+sim+pmu"},
      {"gc", "jvm"},             {"flush", "io"},
      {"close", "io"},           {"stop", "core+pmu"},
      {"analyze", "core"},       {"render", "core"},
      {"html", "core"},          {"native_run", "jvm+sim"},
      {"profiled_run", "jvm+core+sim+pmu"}};
  std::vector<SelfTimeRow> Rows = selfTimes(Tr.spans());
  double IterTotal = 0;
  for (const SelfTimeRow &R : Rows)
    if (R.Name == "iteration")
      IterTotal = R.TotalS;
  std::printf("self time per traced iteration (%u iteration(s); quantum "
              "spans overlap across host workers, so their share of the "
              "iteration can pass 100%%):\n",
              Iterations);
  std::printf("  %-12s %-16s %10s %12s %12s %9s\n", "span", "layer",
              "count", "total_s", "self_s", "self/iter");
  for (const SelfTimeRow &R : Rows) {
    auto L = Layer.find(R.Name);
    double N = Iterations ? Iterations : 1;
    std::printf("  %-12s %-16s %10.1f %12.6f %12.6f %8.2f%%\n",
                R.Name.c_str(), L == Layer.end() ? "?" : L->second,
                static_cast<double>(R.Count) / N, R.TotalS / N,
                R.SelfS / N, IterTotal > 0 ? 100.0 * R.SelfS / IterTotal : 0);
  }
}

[[noreturn]] void usageError(const char *Msg) {
  std::fprintf(stderr,
               "djxbench: %s\nusage: djxbench --workload "
               "<numa_remote|mt_churn_journal|fig4_suites> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--jobs <n>] "
               "[--expect-digest <hex>] [--out-dir <dir>]\n",
               Msg);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  // Serve every VM heap from the main arena and never trim it, so repeated
  // set-ups reuse memory that is already mapped. Fresh mmap'd heaps would
  // put page-fault time into setup_s, and that time differs from process
  // to process on a shared host; glibc's moving mmap threshold would also
  // make peak RSS depend on allocation history.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::optional<Kind> K;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false, Tiny = false;
  unsigned Jobs = 2;
  std::optional<uint64_t> ExpectDigest;
  std::string OutDir = ".bench_build/e2ebench-out";
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usageError(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload") {
      K = parseKind(Value());
      if (!K)
        usageError("unknown workload");
    } else if (A == "--seed") {
      Seed = std::strtoull(Value().c_str(), nullptr, 0);
    } else if (A == "--seconds") {
      Seconds = std::strtod(Value().c_str(), nullptr);
    } else if (A == "--trace") {
      Trace = Value() == "1";
    } else if (A == "--tiny") {
      Tiny = true;
    } else if (A == "--jobs") {
      Jobs = static_cast<unsigned>(std::strtoul(Value().c_str(), nullptr, 0));
      if (Jobs == 0)
        usageError("--jobs must be positive");
    } else if (A == "--expect-digest") {
      ExpectDigest = std::strtoull(Value().c_str(), nullptr, 16);
    } else if (A == "--out-dir") {
      OutDir = Value();
    } else {
      usageError(("unknown argument " + A).c_str());
    }
  }
  if (!K)
    usageError("--workload is required");

  const Inputs In = makeInputs(*K, Seed, Tiny);
  const Mode Measured{In.MeasuredTier, Jobs};
  const Mode Reference{ExecTier::Interp, 1};
  std::string Dir = OutDir + "/tmp-" + kindName(*K) + "-" +
                    std::to_string(::getpid());
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec) {
    std::fprintf(stderr, "djxbench: cannot create %s\n", Dir.c_str());
    return 1;
  }

  // Untimed reference: interp tier, one host worker.
  const Outcome Ref = runProfiled(In, Reference, nullptr, Dir, true);
  const uint64_t Digest = digestOf(Ref);
  bool Correct = !Ref.Error;
  if (Ref.Error)
    std::fprintf(stderr, "djxbench: reference run failed: %s\n",
                 Ref.Error->c_str());
  // Every measured iteration is compared against the reference, so a
  // reference that misses the stored digest makes all of them wrong.
  const bool DigestMismatch = ExpectDigest && *ExpectDigest != Digest;
  if (DigestMismatch) {
    std::fprintf(stderr,
                 "djxbench: digest %016llx differs from the stored %016llx\n",
                 (unsigned long long)Digest,
                 (unsigned long long)*ExpectDigest);
    Correct = false;
  }
  double SimOverheadX = Ref.SimOverheadX, SimMemOverheadX =
                                              Ref.SimMemOverheadX;
  if (In.K != Kind::Fig4Suites && Correct) {
    NativeRun N = runParallelNative(In, Reference);
    SimOverheadX = ratio(Ref.Cycles, N.Cycles);
    SimMemOverheadX = ratio(Ref.C.PeakHeap + Ref.C.ProfilerBytes, N.PeakHeap);
  }

  uint64_t Attempted = 0, Failed = 0, Handled = 0, Dropped = 0;
  auto Check = [&](const Outcome &O) {
    ++Attempted;
    Handled += O.C.Samples;
    Dropped += O.C.Dropped;
    if (!sameResult(O, Ref)) {
      ++Failed;
      Correct = false;
      std::fprintf(stderr, "djxbench: iteration %llu differs from the "
                           "reference%s%s\n",
                   (unsigned long long)Attempted, O.Error ? ": " : "",
                   O.Error ? O.Error->c_str() : "");
    }
  };

  std::vector<double> SetupS, WallS, AccessRate;
  Tracer Tr;
  unsigned TracedIterations = 0;
  std::vector<double> TracedWall;
  Outcome LastMeasured, LastTraced;
  std::vector<Metric> LayerTimes;
  if (!Ref.Error) {
    // The first measured iterations run up to twice as long as later ones.
    for (int Warm = 0; Warm < 2; ++Warm)
      Check(runProfiled(In, Measured, nullptr, Dir, false));
    double UntracedSeconds = Trace ? Seconds / 2 : Seconds;
    int64_t Deadline = nowNs() + static_cast<int64_t>(UntracedSeconds * 1e9);
    do {
      Outcome O = runProfiled(In, Measured, nullptr, Dir, false);
      Check(O);
      SetupS.push_back(O.SetupS);
      WallS.push_back(O.WallS);
      AccessRate.push_back(O.RunS > 0 ? static_cast<double>(
                                            O.C.Machine.Accesses) /
                                            O.RunS
                                      : 0);
      LastMeasured = std::move(O);
    } while (nowNs() < Deadline);

    if (Trace) {
      Deadline = nowNs() + static_cast<int64_t>(Seconds / 2 * 1e9);
      do {
        Tr.setIteration(TracedIterations);
        if (In.K != Kind::Fig4Suites) {
          int64_t T0 = nowNs();
          runParallelNative(In, Measured);
          Tr.add("native_run", 0, T0, nowNs());
        }
        LastTraced = runProfiled(In, Measured, &Tr, Dir, true);
        Check(LastTraced);
        TracedWall.push_back(LastTraced.WallS);
        ++TracedIterations;
      } while (nowNs() < Deadline);
      Tr.linkParents();
      LayerTimes = layerTimings(Tr, TracedIterations, LastTraced.C.Steps,
                                LastTraced.C.Samples);
    }
  }
  std::filesystem::remove_all(Dir, Ec);
  if (DigestMismatch)
    Failed = Attempted;

  rusage Ru{};
  getrusage(RUSAGE_SELF, &Ru);
  std::vector<Metric> EndToEnd = {
      {"setup_s", median(SetupS), "s"},
      {"wall_s", median(WallS), "s"},
      {"accesses_per_s", median(AccessRate), "1/s"},
      {"peak_rss_mb", static_cast<double>(Ru.ru_maxrss) / 1024.0, "MB"},
      {"sim_overhead_x", SimOverheadX, "x"},
      {"sim_mem_overhead_x", SimMemOverheadX, "x"},
      {"samples_kept_share", Handled ? 1.0 - ratio(Dropped, Handled) : 0,
       "share"},
      {"ok_share", Attempted ? 1.0 - ratio(Failed, Attempted) : 0, "share"},
  };

  std::vector<Metric> PerLayer;
  if (Trace) {
    const Counts &C = LastTraced.C;
    const HierarchyStats &M = C.Machine;
    double Kernel = kernelNsPerAccess(In);
    auto Count = [](uint64_t V) { return static_cast<double>(V); };
    auto Timed = [&LayerTimes](const char *Name) {
      for (const Metric &M : LayerTimes)
        if (M.Name == Name)
          return M;
      std::fprintf(stderr, "djxbench: no timing metric %s\n", Name);
      std::abort();
    };
    PerLayer = {
        {"runtime.rounds", Count(C.Rounds), "count"},
        {"runtime.safepoints", Count(C.Safepoints), "count"},
        Timed("runtime.round_s.p50"),
        Timed("runtime.round_s.p99"),
        Timed("runtime.barrier_wait_s"),
        Timed("runtime.quantum_s.sum"),
        {"interp.steps", Count(C.Steps), "count"},
        Timed("interp.steps_per_quantum_s"),
        {"sim.accesses", Count(M.Accesses), "count"},
        {"sim.l1_miss_ratio", ratio(M.L1Misses, M.Accesses), "ratio"},
        {"sim.l2_miss_ratio", ratio(M.L2Misses, M.L1Misses), "ratio"},
        {"sim.l3_miss_ratio", ratio(M.L3Misses, M.L2Misses), "ratio"},
        {"sim.tlb_miss_ratio", ratio(M.TlbMisses, M.Accesses), "ratio"},
        {"sim.remote_dram_share", ratio(M.RemoteAccesses, M.L3Misses),
         "ratio"},
        {"sim.kernel_ns_per_access", Kernel, "ns"},
        {"pmu.samples", Count(C.Samples), "count"},
        {"pmu.samples_dropped", Count(C.Dropped), "count"},
        {"pmu.ring_overflow_drains", Count(C.Drains), "count"},
        Timed("pmu.samples_per_s"),
        {"core.alloc_callbacks", Count(C.AllocCallbacks), "count"},
        {"core.alloc_tracked", Count(C.Tracked), "count"},
        {"core.index.lookups", Count(C.Lookups), "count"},
        {"core.index.lookup_misses", Count(C.LookupMisses), "count"},
        {"core.index.lock_acquisitions", Count(C.LockAcquisitions), "count"},
        {"core.index.live_objects", Count(C.LiveObjects), "count"},
        {"core.profiler_bytes", Count(C.ProfilerBytes), "bytes"},
        Timed("core.host_overhead_x"),
        Timed("core.stop_s"),
        Timed("core.analyze_s"),
        Timed("core.render_s"),
        Timed("core.html_s"),
        {"jvm.gc_count", Count(C.GcCount), "count"},
        {"jvm.gc_objects_moved", Count(C.GcMoved), "count"},
        {"jvm.gc_objects_freed", Count(C.GcFreed), "count"},
        {"jvm.peak_heap_bytes", Count(C.PeakHeap), "bytes"},
        Timed("jvm.gc_s"),
        {"io.journal_bytes", Count(C.JournalBytes), "bytes"},
        {"io.journal_epochs", Count(C.JournalEpochs), "count"},
        {"io.journal_segments", Count(C.JournalSegments), "count"},
        Timed("io.flush_s.sum"),
        Timed("io.flush_s.p99"),
    };
  }

  // Human-readable report, then the full record, then the result line.
  std::printf("djxbench %s seed=%llu seconds=%g trace=%d digest=%016llx\n",
              kindName(In.K), (unsigned long long)Seed, Seconds, Trace ? 1 : 0,
              (unsigned long long)Digest);
  printMetrics(Trace ? "end-to-end (untraced half of this run):"
                     : "end-to-end:",
               EndToEnd);
  std::printf("  (%zu untraced iteration(s); medians; wall_s min %.6f "
              "p25 %.6f p75 %.6f max %.6f)\n",
              WallS.size(), percentile(WallS, 0), percentile(WallS, 25),
              percentile(WallS, 75), percentile(WallS, 100));
  double TraceOverhead = 0;
  if (Trace) {
    printMetrics("per-layer (traced iterations):", PerLayer);
    printSelfTimes(Tr, TracedIterations);
    TraceOverhead = median(TracedWall) - median(WallS);
    std::printf("tracing overhead: traced wall_s %.6f - untraced wall_s "
                "%.6f = %+.6f s (%+.2f%%)\n",
                median(TracedWall), median(WallS), TraceOverhead,
                median(WallS) > 0 ? 100 * TraceOverhead / median(WallS) : 0);
  }

  const std::string Tag = std::string(kindName(In.K)) + "-seed" +
                          std::to_string(Seed) + "-trace" +
                          (Trace ? "1" : "0");
  if (Trace && !Tr.writeJson(OutDir + "/spans-" + Tag + ".json"))
    std::fprintf(stderr, "djxbench: cannot write spans\n");
  {
    // Counts of the last measured iteration (traced when tracing, at the
    // measured tier and --jobs), so the self-test can compare them across
    // worker counts and between untraced and traced runs.
    const Outcome &Last = Trace ? LastTraced : LastMeasured;
    const Counts &C = Last.C;
    const HierarchyStats &M = C.Machine;
    std::ofstream R(OutDir + "/result-" + Tag + ".json");
    R << "{\n  \"workload\": \"" << kindName(In.K) << "\",\n  \"seed\": "
      << Seed << ",\n  \"tiny\": " << (Tiny ? "true" : "false")
      << ",\n  \"seconds\": " << num(Seconds) << ",\n  \"trace\": "
      << (Trace ? 1 : 0) << ",\n  \"jobs\": " << Jobs
      << ",\n  \"inputs\": {\"sim_threads\": " << In.Pc.SimThreads
      << ", \"iters\": " << In.Pc.Iters << ", \"nlen\": " << In.Pc.Nlen
      << ", \"hot_elems\": " << In.Pc.HotElems
      << ", \"suite_entries\": " << In.Entries.size() << "}"
      << ",\n  \"host\": {\"cpu_model\": \"" << jsonEscape(cpuModel())
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": \"" << DJXBENCH_COMPILER
      << "\", \"build_type\": \"" << DJXBENCH_BUILD_TYPE << "\"},\n"
      << "  \"digest\": \"" << std::hex;
    R.width(16);
    R.fill('0');
    R << Digest << std::dec << "\",\n  \"correct\": "
      << (Correct ? "true" : "false") << ",\n  \"attempted\": " << Attempted
      << ",\n  \"failed\": " << Failed
      << ",\n  \"untraced_iterations\": " << WallS.size()
      << ",\n  \"traced_iterations\": " << TracedIterations
      << ",\n  \"tracing_overhead_s\": " << num(TraceOverhead)
      << ",\n  \"untraced_wall_s\": [";
    for (size_t I = 0; I < WallS.size(); ++I)
      R << (I ? ", " : "") << num(WallS[I]);
    R << "]"
      << ",\n  \"deterministic\": {\"interp.steps\": " << C.Steps
      << ", \"runtime.rounds\": " << C.Rounds
      << ", \"pmu.samples\": " << C.Samples
      << ", \"io.journal_bytes\": " << C.JournalBytes
      << ", \"sim.accesses\": " << M.Accesses
      << ", \"sim.l1_misses\": " << M.L1Misses
      << ", \"sim.l2_misses\": " << M.L2Misses
      << ", \"sim.l3_misses\": " << M.L3Misses
      << ", \"sim.tlb_misses\": " << M.TlbMisses
      << ", \"sim.remote_accesses\": " << M.RemoteAccesses
      << ", \"cycles\": " << Last.Cycles << "},\n  \"end_to_end\": "
      << metricsJson(EndToEnd) << ",\n  \"per_layer\": "
      << metricsJson(PerLayer) << "\n}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(Attempted, 1),
              (unsigned long long)(Attempted ? Failed : 1),
              metricsJson(Trace ? PerLayer : EndToEnd).c_str());
  return 0;
}
