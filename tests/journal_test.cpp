//===- journal_test.cpp - Crash-durable journal round trips -----------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durability contract of src/io: a journaled run salvages exactly
/// the valid prefix, no matter where the byte stream tears.
///
///  - CRC32C known-answer and chaining vectors; atomic file replacement.
///  - Clean round trip: journal -> readJournal reproduces the run's
///    per-thread profile texts and merged report byte for byte, across
///    --jobs values (the journal file itself is jobs-invariant).
///  - Truncation: cutting the file after commit R recovers the same
///    state as a reference run stopped at MaxRounds = R.
///  - Fuzz corpus: seeded truncations, bit flips and segment swaps.
///    Recovery never crashes, never trusts bytes past a bad CRC, and
///    keeps exactly the commits that precede the damage. Failures
///    print DJX_JOURNAL_FUZZ_SEED for replay.
///  - Injected I/O faults: write errors degrade journaling to off
///    without touching the run; short writes leave a recoverable torn
///    prefix; corrupt bits never survive read-back.
///  - Fold: foldJournals over N journals sums exactly; a snapshot that
///    passes its CRC but does not parse, or names an unregistered
///    method, is counted and marks the recovery degraded; same-named
///    methods of different programs keep their own line tables in either
///    argument order.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/DjxPerf.h"
#include "core/Report.h"
#include "io/AtomicFile.h"
#include "io/Checksum.h"
#include "io/JournalReader.h"
#include "io/ProfileJournal.h"
#include "support/FaultInjector.h"
#include "support/VmError.h"
#include "workloads/Parallel.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(journal_test, 80.0, 50.0,
    "src/io/AtomicFile.cpp",
    "src/io/AtomicFile.h",
    "src/io/Checksum.h",
    "src/io/JournalReader.cpp",
    "src/io/JournalReader.h",
    "src/io/ProfileJournal.cpp",
    "src/io/ProfileJournal.h");

/// Fuzz iterations per mutation kind.
constexpr int kFuzzCases = 40;

uint64_t mixSeed(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// Fuzz base seed: DJX_JOURNAL_FUZZ_SEED when set (replay), fresh
/// entropy otherwise. Printed exactly once per binary run.
uint64_t fuzzSeed() {
  static uint64_t Seed = [] {
    uint64_t S;
    if (const char *Env = std::getenv("DJX_JOURNAL_FUZZ_SEED")) {
      S = std::strtoull(Env, nullptr, 0);
    } else {
      std::random_device Rd;
      S = (static_cast<uint64_t>(Rd()) << 32) ^ Rd();
    }
    std::printf("[journal] DJX_JOURNAL_FUZZ_SEED=0x%016" PRIx64
                " (export to reproduce)\n",
                S);
    return S;
  }();
  return Seed;
}

struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::clear(); }
};

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "djx_journal_" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Small-but-real journaling workload: enough rounds for many epochs,
/// churn for safepoint GCs, hot arrays past L1 so samples flow.
ParallelConfig journalWorkload() {
  ParallelConfig Pc;
  Pc.SimThreads = 2;
  Pc.Iters = 60;
  Pc.Nlen = 96;
  Pc.HotElems = 8192;
  Pc.HeapBytesPerThread = 256 << 10;
  return Pc;
}

JournalMeta testMeta() {
  JournalMeta M;
  M.Workload = "journal-test";
  M.Title = "DJXPerf: journal-test";
  M.EventKind = static_cast<unsigned>(PerfEventKind::L1Miss);
  return M;
}

/// Everything observable from one journaled in-process run.
struct JournaledRun {
  bool JournalActive = false; ///< Still on at close (no degrade).
  uint64_t Rounds = 0;
  std::string Report; ///< Merged object-centric report text.
  std::vector<std::string> ProfileTexts; ///< writeTo per thread.
};

/// Runs the journal workload with the CLI's wiring (flush at round
/// barriers, closeClean at the end) and returns the live-side state the
/// journal must reproduce. MaxRounds = 0 runs to completion. NumaRemote
/// runs the numaRemote program instead of the parallel batik one.
JournaledRun runJournaled(const std::string &Path, unsigned Jobs,
                          uint64_t MaxRounds = 0, bool NumaRemote = false) {
  ParallelConfig Pc = journalWorkload();
  Pc.Jobs = Jobs;
  Pc.MaxRounds = MaxRounds;
  JavaVm Vm(NumaRemote ? numaRemoteVmConfig(Pc) : parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  std::string Err;
  auto Journal = ProfileJournal::open(Path, testMeta(), &Err);
  EXPECT_NE(Journal, nullptr) << Err;
  Pc.OnRoundEnd = [&](uint64_t Round) {
    if (Journal)
      Journal->flush(Prof, Vm.methods(), Round);
    return false;
  };
  JournaledRun R;
  ParallelOutcome Out = NumaRemote ? runNumaRemoteWorkload(Vm, &Prof, Pc)
                                   : runParallelWorkload(Vm, &Prof, Pc);
  R.Rounds = Out.Rounds;
  Prof.stop();
  if (Journal) {
    Journal->closeClean(Prof, Vm.methods());
    R.JournalActive = Journal->active();
  }
  MergedProfile P = Prof.analyze();
  R.Report = renderObjectCentric(P, Vm.methods());
  for (const ThreadProfile *T : Prof.profiles()) {
    std::ostringstream OS;
    T->writeTo(OS);
    R.ProfileTexts.push_back(OS.str());
  }
  return R;
}

/// Renders what `recover` salvages from \p Path the same way the live
/// side did.
std::string recoveredReport(const std::string &Path) {
  JournalFold F = foldJournals({Path});
  return renderObjectCentric(F.analyze(), F.Methods);
}

/// Every sampled access context of a fold, rendered leaf first as
/// "Class.method:line <- ..." through the fold's own registry.
std::set<std::string> accessContexts(const JournalFold &F) {
  std::set<std::string> Out;
  for (const ThreadProfile &P : F.Profiles)
    for (const auto &[Key, G] : P.groups())
      for (const auto &[Node, Counts] : G.AccessBreakdown) {
        std::string S;
        for (const StackFrame &Fr : P.cct().path(Node))
          S = F.Methods.qualifiedName(Fr.Method) + ":" +
              std::to_string(F.Methods.lineForBci(Fr.Method, Fr.Bci)) +
              (S.empty() ? "" : " <- " + S);
        Out.insert(S);
      }
  return Out;
}

// --- Checksum --------------------------------------------------------------

TEST(Crc32c, KnownAnswerVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix B).
  EXPECT_EQ(Crc32c::compute("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c::compute("", 0), 0u);
  // 32 zero bytes, a common iSCSI test vector.
  unsigned char Zeros[32] = {};
  EXPECT_EQ(Crc32c::compute(Zeros, sizeof(Zeros)), 0x8A9136AAu);
}

TEST(Crc32c, SeedChainsAcrossSplits) {
  const char *Data = "the quick brown fox jumps over the lazy dog";
  size_t Len = std::strlen(Data);
  uint32_t Whole = Crc32c::compute(Data, Len);
  for (size_t Cut = 0; Cut <= Len; ++Cut) {
    uint32_t Head = Crc32c::compute(Data, Cut);
    EXPECT_EQ(Crc32c::compute(Data + Cut, Len - Cut, Head), Whole) << Cut;
  }
}

TEST(Crc32c, DetectsEverySingleBitFlip) {
  std::string Data = "journal segment payload";
  uint32_t Good = Crc32c::compute(Data.data(), Data.size());
  for (size_t I = 0; I < Data.size() * 8; ++I) {
    std::string Bad = Data;
    Bad[I / 8] = static_cast<char>(Bad[I / 8] ^ (1u << (I % 8)));
    EXPECT_NE(Crc32c::compute(Bad.data(), Bad.size()), Good) << I;
  }
}

// --- Atomic file replacement -----------------------------------------------

TEST(AtomicFile, WritesAndReplaces) {
  std::string Path = tempPath("atomic.txt");
  ASSERT_TRUE(writeFileAtomic(Path, "first\n"));
  EXPECT_EQ(slurp(Path), "first\n");
  ASSERT_TRUE(writeFileAtomic(Path, "second\n"));
  EXPECT_EQ(slurp(Path), "second\n");
  // The staging file never survives a successful replacement.
  EXPECT_FALSE(std::ifstream(Path + ".tmp").good());
  std::remove(Path.c_str());
}

TEST(AtomicFile, ReportsUnwritableTargets) {
  std::string Error;
  EXPECT_FALSE(writeFileAtomic("/nonexistent-dir/x/y.txt", "data", &Error));
  EXPECT_FALSE(Error.empty());
}

// --- Meta codec ------------------------------------------------------------

TEST(JournalMetaCodec, RoundTripsEveryField) {
  JournalMeta M;
  M.Workload = "parallel4 with spaces";
  M.Title = "DJXPerf: a title";
  M.EventKind = static_cast<unsigned>(PerfEventKind::TlbMiss);
  M.ReportMode = 2;
  M.TopGroups = 17;
  M.TopAccessContexts = 3;
  M.MinShare = 0.015625;
  M.ShowNuma = false;
  JournalMeta Back;
  ASSERT_TRUE(decodeJournalMeta(encodeJournalMeta(M), Back));
  EXPECT_EQ(Back.Workload, M.Workload);
  EXPECT_EQ(Back.Title, M.Title);
  EXPECT_EQ(Back.EventKind, M.EventKind);
  EXPECT_EQ(Back.ReportMode, M.ReportMode);
  EXPECT_EQ(Back.TopGroups, M.TopGroups);
  EXPECT_EQ(Back.TopAccessContexts, M.TopAccessContexts);
  EXPECT_EQ(Back.MinShare, M.MinShare);
  EXPECT_EQ(Back.ShowNuma, M.ShowNuma);
}

TEST(JournalMetaCodec, RejectsMalformedPayloads) {
  JournalMeta M;
  EXPECT_FALSE(decodeJournalMeta("event notanumber\n", M));
}

// --- Clean round trip ------------------------------------------------------

TEST(JournalRoundTrip, RecoversCompleteRunExactly) {
  std::string Path = tempPath("clean.djxj");
  JournaledRun Live = runJournaled(Path, 2);
  EXPECT_TRUE(Live.JournalActive);

  JournalRecovery R = readJournal(Path);
  ASSERT_TRUE(R.HeaderValid) << R.HeaderError;
  EXPECT_TRUE(R.HasMeta);
  EXPECT_EQ(R.Meta.Workload, "journal-test");
  EXPECT_TRUE(R.Closed);
  EXPECT_TRUE(R.CloseClean);
  EXPECT_FALSE(R.degraded());
  EXPECT_EQ(R.TrailingBytes, 0u);
  EXPECT_EQ(R.SegmentsUncommitted, 0u);
  EXPECT_EQ(R.LastRound, Live.Rounds);

  // Per-thread snapshots reproduce the live profiles byte for byte.
  ASSERT_EQ(R.Profiles.size(), Live.ProfileTexts.size());
  for (size_t I = 0; I < R.Profiles.size(); ++I) {
    std::ostringstream OS;
    R.Profiles[I].writeTo(OS);
    EXPECT_EQ(OS.str(), Live.ProfileTexts[I]) << "thread " << I;
  }
  EXPECT_EQ(recoveredReport(Path), Live.Report);
  std::remove(Path.c_str());
}

TEST(JournalRoundTrip, FileBytesAreJobsInvariant) {
  std::string P1 = tempPath("jobs1.djxj");
  std::string P2 = tempPath("jobs2.djxj");
  std::string P4 = tempPath("jobs4.djxj");
  runJournaled(P1, 1);
  runJournaled(P2, 2);
  runJournaled(P4, 4);
  std::string B1 = slurp(P1);
  EXPECT_FALSE(B1.empty());
  EXPECT_EQ(B1, slurp(P2));
  EXPECT_EQ(B1, slurp(P4));
  std::remove(P1.c_str());
  std::remove(P2.c_str());
  std::remove(P4.c_str());
}

// --- Truncation rule -------------------------------------------------------

TEST(JournalTruncation, CutAtCommitMatchesMaxRoundsReference) {
  std::string Path = tempPath("full.djxj");
  runJournaled(Path, 2);
  std::string Full = slurp(Path);
  JournalRecovery Whole = readJournal(Path);
  ASSERT_TRUE(Whole.Closed);

  // Pick a Commit sentinel mid-run and cut the file right after it;
  // recovery must equal a reference run stopped at that round.
  const JournalSegmentInfo *Cut = nullptr;
  for (const JournalSegmentInfo &S : Whole.Segments)
    if (S.Type == static_cast<uint32_t>(SegmentType::Commit) &&
        S.Epoch * 2 <= Whole.LastEpoch)
      Cut = &S;
  ASSERT_NE(Cut, nullptr);
  uint64_t Round = Cut->Epoch; // flush(Round) stamps Epoch == Round here.

  std::string Torn = Full.substr(0, Cut->Offset + Cut->Length);
  std::string TornPath = tempPath("torn.djxj");
  spit(TornPath, Torn);
  JournalRecovery R = readJournal(TornPath);
  ASSERT_TRUE(R.HeaderValid);
  EXPECT_FALSE(R.Closed);
  EXPECT_TRUE(R.degraded());
  EXPECT_EQ(R.LastRound, Round);
  EXPECT_EQ(R.TrailingBytes, 0u);
  EXPECT_TRUE(R.TruncationReason.empty());
  const std::string Banner = journalTruncationBanner(TornPath, R);
  EXPECT_NE(Banner.find("journal truncated, salvaged prefix only"),
            std::string::npos)
      << Banner;
  EXPECT_NE(Banner.find("\nreason:   journal ends without a Close sentinel"),
            std::string::npos)
      << Banner;

  // The reference run is jobs-invariant: the torn jobs-2 journal must
  // recover to the truncated run at any worker count.
  std::string RefPath = tempPath("ref.djxj");
  std::string Recovered = recoveredReport(TornPath);
  for (unsigned Jobs : {1u, 2u, 4u}) {
    JournaledRun Ref = runJournaled(RefPath, Jobs, Round);
    EXPECT_EQ(Ref.Rounds, Round) << "jobs " << Jobs;
    EXPECT_EQ(Recovered, Ref.Report) << "jobs " << Jobs;
  }

  std::remove(Path.c_str());
  std::remove(TornPath.c_str());
  std::remove(RefPath.c_str());
}

// --- Fuzz corpus -----------------------------------------------------------

/// Oracle for damage at byte offset \p Damage: the epoch of the last
/// Commit/Close whose bytes end at or before the damage point. The
/// scanner stops at the first violation and never resynchronizes, so it
/// must recover exactly this epoch.
uint64_t lastDurableEpochBefore(const JournalRecovery &Whole,
                                uint64_t Damage) {
  uint64_t Epoch = 0;
  for (const JournalSegmentInfo &S : Whole.Segments)
    if ((S.Type == static_cast<uint32_t>(SegmentType::Commit) ||
         S.Type == static_cast<uint32_t>(SegmentType::Close)) &&
        S.Offset + S.Length <= Damage)
      Epoch = S.Epoch;
  return Epoch;
}

TEST(JournalFuzz, SalvagesExactlyTheValidPrefix) {
  std::string Path = tempPath("fuzz.djxj");
  runJournaled(Path, 2);
  std::string Full = slurp(Path);
  JournalRecovery Whole = readJournal(Path);
  ASSERT_TRUE(Whole.Closed);
  ASSERT_GE(Whole.Segments.size(), 8u);

  uint64_t Base = fuzzSeed();
  std::string MutPath = tempPath("fuzz_mut.djxj");
  for (int Case = 0; Case < kFuzzCases; ++Case) {
    uint64_t S = mixSeed(Base + static_cast<uint64_t>(Case));
    std::string Label = "fuzz case " + std::to_string(Case);
    std::string Mut = Full;
    uint64_t Damage;
    switch (Case % 3) {
    case 0: { // Truncate at an arbitrary byte.
      Damage = S % Full.size();
      Mut.resize(Damage);
      break;
    }
    case 1: { // Flip one bit. CRC32C catches every 1-bit error, so the
              // segment containing it can never be trusted.
      uint64_t Bit = S % (Full.size() * 8);
      Damage = Bit / 8;
      Mut[Damage] = static_cast<char>(Mut[Damage] ^ (1u << (Bit % 8)));
      // The damaged *segment* starts before the damaged byte: commits
      // inside it are gone too. Walk back to its header offset.
      for (const JournalSegmentInfo &Seg : Whole.Segments)
        if (Seg.Offset <= Damage && Damage < Seg.Offset + Seg.Length)
          Damage = Seg.Offset;
      break;
    }
    default: { // Swap two adjacent segments: a sequence break.
      size_t I = S % (Whole.Segments.size() - 1);
      const JournalSegmentInfo &A = Whole.Segments[I];
      const JournalSegmentInfo &B = Whole.Segments[I + 1];
      std::string Swapped = Full.substr(0, A.Offset);
      Swapped += Full.substr(B.Offset, B.Length);
      Swapped += Full.substr(A.Offset, A.Length);
      Swapped += Full.substr(B.Offset + B.Length);
      Mut = std::move(Swapped);
      Damage = A.Offset;
      break;
    }
    }
    spit(MutPath, Mut);
    JournalRecovery R = readJournal(MutPath); // Must never crash.
    if (Damage < kJournalFileHeaderBytes) {
      EXPECT_FALSE(R.HeaderValid) << Label;
      continue;
    }
    ASSERT_TRUE(R.HeaderValid) << Label;
    EXPECT_EQ(R.LastEpoch, lastDurableEpochBefore(Whole, Damage)) << Label;
    EXPECT_LE(R.BytesKept, Mut.size()) << Label;
    // Damage never reaches the snapshot parser (the CRC rejects it
    // first), and the report renders without crashing.
    EXPECT_EQ(R.SnapshotsUnparseable, 0u) << Label;
    recoveredReport(MutPath);
  }
  std::remove(Path.c_str());
  std::remove(MutPath.c_str());
}

// --- Injected I/O faults ---------------------------------------------------

TEST(JournalFaults, WriteErrorDegradesToOffRunUnaffected) {
  InjectorGuard Guard;
  std::string Plain = tempPath("plainref.djxj");
  JournaledRun Ref = runJournaled(Plain, 2);

  FaultPlan Plan;
  Plan.Seed = 0x77;
  Plan.rate(FaultSite::JournalWriteError) = 1.0;
  FaultInjector::install(Plan);
  std::string Path = tempPath("werror.djxj");
  JournaledRun Run = runJournaled(Path, 2);
  EXPECT_GE(FaultInjector::firedCount(FaultSite::JournalWriteError), 1u);
  FaultInjector::clear();

  // Journaling is an observer: the run's own results never change.
  EXPECT_FALSE(Run.JournalActive);
  EXPECT_EQ(Run.Report, Ref.Report);
  std::remove(Plain.c_str());
  std::remove(Path.c_str());
}

TEST(JournalFaults, ShortWriteLeavesRecoverableTornPrefix) {
  InjectorGuard Guard;
  FaultPlan Plan;
  Plan.Seed = 0x99;
  // Spare the first flush (header + Meta) on this seed; fail soon after.
  Plan.rate(FaultSite::JournalShortWrite) = 0.2;
  FaultInjector::install(Plan);
  std::string Path = tempPath("short.djxj");
  JournaledRun Run = runJournaled(Path, 2);
  FaultInjector::clear();
  EXPECT_FALSE(Run.JournalActive);

  JournalRecovery R = readJournal(Path); // Must never crash.
  if (R.HeaderValid) {
    EXPECT_TRUE(R.degraded());
    EXPECT_FALSE(R.Closed);
    recoveredReport(Path);
  }
  std::remove(Path.c_str());
}

TEST(JournalFaults, CorruptBitsNeverSurviveReadBack) {
  InjectorGuard Guard;
  FaultPlan Plan;
  Plan.Seed = 0x42;
  Plan.rate(FaultSite::JournalCorruptByte) = 1.0;
  FaultInjector::install(Plan);
  std::string Path = tempPath("corrupt.djxj");
  runJournaled(Path, 2);
  FaultInjector::clear();

  // Every segment with a payload was corrupted after its CRC was
  // computed; the scanner must reject the very first one.
  JournalRecovery R = readJournal(Path);
  ASSERT_TRUE(R.HeaderValid);
  EXPECT_EQ(R.SegmentsCommitted, 0u);
  EXPECT_EQ(R.LastEpoch, 0u);
  EXPECT_FALSE(R.HasMeta);
  EXPECT_EQ(R.TruncationReason, "segment checksum mismatch");
  std::remove(Path.c_str());
}

// --- Unusable snapshots ----------------------------------------------------

/// Replaces segment \p S's payload in journal bytes \p File and re-seals
/// its length and CRC, so only the layers above the checksum can object.
std::string resealSegment(const std::string &File, const JournalSegmentInfo &S,
                          const std::string &Payload) {
  std::string Header = File.substr(S.Offset, kJournalSegmentHeaderBytes);
  for (int I = 0; I < 4; ++I)
    Header[24 + I] = static_cast<char>(Payload.size() >> (8 * I));
  uint32_t Crc =
      Crc32c::compute(Header.data() + 4, kJournalSegmentHeaderBytes - 8);
  Crc = Crc32c::compute(Payload.data(), Payload.size(), Crc);
  for (int I = 0; I < 4; ++I)
    Header[28 + I] = static_cast<char>(Crc >> (8 * I));
  return File.substr(0, S.Offset) + Header + Payload +
         File.substr(S.Offset + S.Length);
}

TEST(JournalRecover, UnusableCommittedSnapshotIsCountedAndDegrades) {
  std::string Path = tempPath("dropsnap_src.djxj");
  runJournaled(Path, 2);
  std::string Full = slurp(Path);
  JournalRecovery Whole = readJournal(Path);
  ASSERT_TRUE(Whole.Closed && Whole.CloseClean);
  ASSERT_FALSE(Whole.degraded());

  // The file's last Snapshot is its thread's last one, so no later
  // snapshot replaces it.
  const JournalSegmentInfo *Last = nullptr;
  for (const JournalSegmentInfo &S : Whole.Segments)
    if (S.Type == static_cast<uint32_t>(SegmentType::Snapshot))
      Last = &S;
  ASSERT_NE(Last, nullptr);
  const std::string Tid =
      Full.substr(Last->Offset + kJournalSegmentHeaderBytes, 8);
  const std::string Snapshot =
      Full.substr(Last->Offset + kJournalSegmentHeaderBytes + 8,
                  Last->Length - kJournalSegmentHeaderBytes - 8);
  // The snapshot with token \p Field of its first line that starts with
  // \p Prefix replaced by node id 999999.
  auto PastTree = [&](const std::string &Prefix, int Field) {
    size_t Begin = Snapshot.find("\n" + Prefix);
    EXPECT_NE(Begin, std::string::npos) << Prefix;
    if (Begin == std::string::npos)
      return Snapshot;
    for (int I = 0; I < Field; ++I)
      Begin = Snapshot.find(' ', Begin + 1);
    size_t End = Snapshot.find_first_of(" \n", Begin + 1);
    return Snapshot.substr(0, Begin + 1) + "999999" + Snapshot.substr(End);
  };
  ThreadProfile Parsed;
  std::istringstream SnapshotIn(Snapshot);
  ASSERT_TRUE(Parsed.readFrom(SnapshotIn));
  const std::string Thread = std::to_string(Parsed.threadId());
  // Parses, but names a method the journal never registered.
  ThreadProfile Unregistered(1, "t");
  Unregistered.cct().child(kCctRoot, 777777, 0);
  std::ostringstream Text;
  Unregistered.writeTo(Text);

  struct Case {
    const char *Label;
    std::string Payload;
    uint64_t DroppedByRead; ///< The rest is dropped by the fold.
  };
  const std::string Bad = tempPath("dropsnap.djxj");
  for (const Case &C :
       {Case{"unparseable", Tid + "not a profile\n", 1},
        Case{"unregistered method", Tid + Text.str(), 0},
        // An access context past the thread's own tree fails to parse.
        Case{"access node past the tree", Tid + PastTree("access ", 3), 1},
        // An allocation node past the allocating (here: the same)
        // thread's tree parses; the fold drops it.
        Case{"alloc node past the tree",
             Tid + PastTree("group " + Thread + " ", 2), 0}}) {
    spit(Bad, resealSegment(Full, *Last, C.Payload));
    JournalRecovery R = readJournal(Bad);
    ASSERT_TRUE(R.HeaderValid) << C.Label;
    EXPECT_TRUE(R.Closed && R.CloseClean) << C.Label;
    EXPECT_EQ(R.SegmentsCommitted, Whole.SegmentsCommitted) << C.Label;
    EXPECT_TRUE(R.TruncationReason.empty()) << C.Label;
    EXPECT_EQ(R.SnapshotsUnparseable, C.DroppedByRead) << C.Label;
    EXPECT_EQ(R.SnapshotsUnresolved, 0u) << C.Label;

    JournalFold F = foldJournals({Bad});
    ASSERT_EQ(F.Inputs.size(), 1u);
    const JournalRecovery &Folded = F.Inputs[0];
    EXPECT_EQ(Folded.SnapshotsUnparseable, C.DroppedByRead) << C.Label;
    EXPECT_EQ(Folded.SnapshotsUnresolved, 1 - C.DroppedByRead) << C.Label;
    EXPECT_TRUE(Folded.degraded()) << C.Label;
    EXPECT_EQ(F.Profiles.size(), Whole.Profiles.size() - 1) << C.Label;

    // The banner and the stderr line name the reason the snapshot went.
    const std::string Banner = journalTruncationBanner(Bad, Folded);
    const std::string Line = journalAccountingLine(Bad, Folded);
    const char *Note = C.DroppedByRead
                           ? ", 1 unparseable snapshot(s)"
                           : ", 1 snapshot(s) with unresolved method/CCT ids";
    const char *Reason =
        C.DroppedByRead ? "\nreason:   committed snapshot(s) failed to parse\n"
                        : "\nreason:   committed snapshot(s) name a method or "
                          "CCT node the journal does not define\n";
    EXPECT_NE(Banner.find("=== DJXPerf DEGRADED report: journal snapshot(s) "
                          "dropped ===\n"),
              std::string::npos)
        << C.Label << "\n"
        << Banner;
    EXPECT_NE(Banner.find(std::string("0 trailing byte(s)") + Note + "\n"),
              std::string::npos)
        << C.Label << "\n"
        << Banner;
    EXPECT_NE(Banner.find(Reason), std::string::npos) << C.Label << "\n"
                                                      << Banner;
    EXPECT_EQ(Line, "djxperf: " + Bad + ": kept " +
                        std::to_string(Whole.SegmentsCommitted) +
                        " committed segment(s) (" +
                        std::to_string(Folded.BytesKept) +
                        " bytes) through epoch " +
                        std::to_string(Whole.LastEpoch) + " (round " +
                        std::to_string(Whole.LastRound) +
                        "); dropped 0 uncommitted segment(s), 0 trailing "
                        "byte(s)" +
                        Note + "\n")
        << C.Label;
  }
  std::remove(Path.c_str());
  std::remove(Bad.c_str());
}

// --- Merge -----------------------------------------------------------------

TEST(JournalMerge, TwoIdenticalJournalsSumToDouble) {
  std::string P1 = tempPath("merge1.djxj");
  std::string P2 = tempPath("merge2.djxj");
  runJournaled(P1, 2);
  runJournaled(P2, 2);

  JournalFold Both = foldJournals({P1, P2});
  ASSERT_EQ(Both.Inputs.size(), 2u);
  for (const JournalRecovery &R : Both.Inputs)
    ASSERT_TRUE(R.Closed && R.CloseClean);
  JournalFold Single = foldJournals({P1});
  // Identical inputs share every method id.
  EXPECT_EQ(Both.Methods.size(), Single.Methods.size());
  // Thread ids of the second input sit past the first's.
  ASSERT_EQ(Both.Profiles.size(), 2 * Single.Profiles.size());
  for (size_t I = 0; I < Single.Profiles.size(); ++I)
    EXPECT_GT(Both.Profiles[Single.Profiles.size() + I].threadId(),
              Single.Profiles.back().threadId());

  MergedProfile Merged = Both.analyze();
  MergedProfile One = Single.analyze();
  EXPECT_EQ(Merged.ThreadsMerged, 2 * One.ThreadsMerged);
  EXPECT_EQ(Merged.UnattributedSamples, 2 * One.UnattributedSamples);
  for (size_t K = 0; K < kNumPerfEventKinds; ++K)
    EXPECT_EQ(Merged.Totals.Counts[K], 2 * One.Totals.Counts[K]) << K;
  std::remove(P1.c_str());
  std::remove(P2.c_str());
}

// The parallel batik program and numaRemote both define Main.run, with
// different line tables. Merging them must render each input's access
// contexts with that input's own lines, whatever the argument order.
TEST(JournalMerge, SameNamedMethodsOfDifferentProgramsKeepTheirLines) {
  std::string A = tempPath("het_parallel.djxj");
  std::string B = tempPath("het_numa.djxj");
  runJournaled(A, 2);
  runJournaled(B, 2, /*MaxRounds=*/0, /*NumaRemote=*/true);

  std::set<std::string> Want = accessContexts(foldJournals({A}));
  std::set<std::string> FromB = accessContexts(foldJournals({B}));
  ASSERT_FALSE(Want.empty());
  ASSERT_FALSE(FromB.empty());
  Want.insert(FromB.begin(), FromB.end());

  for (const auto &Order : {std::vector<std::string>{A, B},
                            std::vector<std::string>{B, A}}) {
    JournalFold F = foldJournals(Order);
    unsigned MainRuns = 0;
    for (MethodId M = 0; M < F.Methods.size(); ++M)
      MainRuns += F.Methods.qualifiedName(M) == "Main.run";
    EXPECT_EQ(MainRuns, 2u) << Order[0];
    EXPECT_EQ(accessContexts(F), Want) << Order[0];
  }
  std::remove(A.c_str());
  std::remove(B.c_str());
}

} // namespace
