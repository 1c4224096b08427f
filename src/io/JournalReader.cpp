//===- io/JournalReader.cpp - Journal scan/verify/recover ------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "io/JournalReader.h"

#include "io/Checksum.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_map>

using namespace djx;

namespace {

uint32_t readU32(const char *P) {
  uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(P[I]);
  return V;
}

uint64_t readU64(const char *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(P[I]);
  return V;
}

/// Bounded cursor over one payload; every read checks remaining bytes.
struct PayloadCursor {
  const char *P;
  size_t Len;
  size_t Off = 0;

  bool u32(uint32_t &V) {
    if (Len - Off < 4)
      return false;
    V = readU32(P + Off);
    Off += 4;
    return true;
  }
  bool u64(uint64_t &V) {
    if (Len - Off < 8)
      return false;
    V = readU64(P + Off);
    Off += 8;
    return true;
  }
  bool bytes(std::string &S, size_t N) {
    if (Len - Off < N)
      return false;
    S.assign(P + Off, N);
    Off += N;
    return true;
  }
  std::string rest() {
    std::string S(P + Off, Len - Off);
    Off = Len;
    return S;
  }
};

bool sameMethod(const MethodInfo &A, const MethodInfo &B) {
  return A.ClassName == B.ClassName && A.MethodName == B.MethodName &&
         std::equal(A.LineTable.begin(), A.LineTable.end(),
                    B.LineTable.begin(), B.LineTable.end(),
                    [](const LineEntry &X, const LineEntry &Y) {
                      return X.Bci == Y.Bci && X.Line == Y.Line;
                    });
}

/// True when every allocation node \p P names lies inside the allocating
/// thread's CCT, for the threads in \p TreeSizes (thread id -> tree
/// size). A key naming any other thread resolves to unknown provenance.
bool allocNodesInTrees(const ThreadProfile &P,
                       const std::unordered_map<uint64_t, size_t> &TreeSizes) {
  for (const auto &Entry : P.groups()) {
    const AllocKey &Key = Entry.first;
    auto It = TreeSizes.find(Key.AllocThread);
    if (It != TreeSizes.end() && Key.AllocNode >= It->second)
      return false;
  }
  return true;
}

} // namespace

JournalRecovery djx::readJournal(const std::string &Path) {
  JournalRecovery R;
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    R.HeaderError = "cannot open file";
    return R;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  const std::string Data = Buf.str();

  if (Data.size() < kJournalFileHeaderBytes) {
    R.HeaderError = "file shorter than the journal header";
    return R;
  }
  if (std::memcmp(Data.data(), kJournalFileMagic,
                  sizeof(kJournalFileMagic)) != 0) {
    R.HeaderError = "bad file magic";
    return R;
  }
  if (readU32(Data.data() + 8) != kJournalFormatVersion) {
    R.HeaderError = "unsupported journal version";
    return R;
  }
  if (readU32(Data.data() + 12) != Crc32c::compute(Data.data(), 12)) {
    R.HeaderError = "file header checksum mismatch";
    return R;
  }
  R.HeaderValid = true;
  R.BytesKept = kJournalFileHeaderBytes;

  // Pending state: promoted to committed only by a Commit/Close
  // sentinel, so a tear between a snapshot and its commit drops the
  // snapshot — the state is always the one at the last sentinel.
  std::vector<MethodInfo> PendingMethods;
  std::map<uint64_t, std::string> PendingSnapshots, Snapshots;
  uint64_t NextSeq = 1;
  size_t Off = kJournalFileHeaderBytes;
  size_t LastValidEnd = Off;

  auto Truncate = [&](const std::string &Why) { R.TruncationReason = Why; };

  auto Promote = [&](size_t EndOff) {
    for (auto &M : PendingMethods)
      R.Methods.push_back(std::move(M));
    PendingMethods.clear();
    for (auto &[Tid, Text] : PendingSnapshots)
      Snapshots[Tid] = std::move(Text);
    PendingSnapshots.clear();
    R.SegmentsCommitted = R.Segments.size();
    R.BytesKept = EndOff;
  };

  while (Off < Data.size() && !R.Closed) {
    if (Data.size() - Off < kJournalSegmentHeaderBytes) {
      Truncate("truncated segment header");
      break;
    }
    const char *H = Data.data() + Off;
    if (readU32(H) != kJournalSegmentMagic) {
      Truncate("bad segment magic");
      break;
    }
    uint32_t Type = readU32(H + 4);
    uint64_t Seq = readU64(H + 8);
    uint64_t Epoch = readU64(H + 16);
    uint32_t PayloadLen = readU32(H + 24);
    uint32_t Crc = readU32(H + 28);
    if (PayloadLen > kJournalMaxPayloadBytes ||
        PayloadLen > Data.size() - Off - kJournalSegmentHeaderBytes) {
      Truncate("segment length out of bounds");
      break;
    }
    const char *Payload = H + kJournalSegmentHeaderBytes;
    uint32_t Want = Crc32c::compute(H + 4, kJournalSegmentHeaderBytes - 8);
    Want = Crc32c::compute(Payload, PayloadLen, Want);
    if (Want != Crc) {
      Truncate("segment checksum mismatch");
      break;
    }
    if (Seq != NextSeq) {
      Truncate("sequence break");
      break;
    }

    PayloadCursor C{Payload, PayloadLen};
    bool Ok = true;
    switch (static_cast<SegmentType>(Type)) {
    case SegmentType::Meta: {
      JournalMeta M;
      Ok = decodeJournalMeta(C.rest(), M);
      if (Ok) {
        R.Meta = M;
        R.HasMeta = true;
      }
      break;
    }
    case SegmentType::MethodTable: {
      uint32_t First = 0, Count = 0;
      Ok = C.u32(First) && C.u32(Count) &&
           First == R.Methods.size() + PendingMethods.size();
      for (uint32_t I = 0; Ok && I < Count; ++I) {
        uint32_t ClassLen = 0, MethodLen = 0, LineCount = 0;
        Ok = C.u32(ClassLen) && C.u32(MethodLen) && C.u32(LineCount);
        if (!Ok)
          break;
        MethodInfo M;
        Ok = C.bytes(M.ClassName, ClassLen) &&
             C.bytes(M.MethodName, MethodLen);
        for (uint32_t L = 0; Ok && L < LineCount; ++L) {
          LineEntry E{0, 0};
          Ok = C.u32(E.Bci) && C.u32(E.Line);
          if (Ok)
            M.LineTable.push_back(E);
        }
        if (Ok)
          PendingMethods.push_back(std::move(M));
      }
      break;
    }
    case SegmentType::Snapshot: {
      uint64_t Tid = 0;
      Ok = C.u64(Tid);
      if (Ok)
        PendingSnapshots[Tid] = C.rest();
      break;
    }
    case SegmentType::Commit: {
      uint64_t Round = 0;
      Ok = C.u64(Round) && C.Off == C.Len;
      if (Ok) {
        R.Segments.push_back({Off, kJournalSegmentHeaderBytes + PayloadLen,
                              Type, Seq, Epoch});
        R.LastEpoch = Epoch;
        R.LastRound = Round;
        Promote(Off + kJournalSegmentHeaderBytes + PayloadLen);
      }
      break;
    }
    case SegmentType::Close: {
      uint32_t Failed = 0, Kind = 0, Shard = 0, MsgLen = 0;
      uint64_t Tid = 0, Steps = 0;
      std::string Msg;
      Ok = C.u32(Failed) && C.u32(Kind) && C.u64(Tid) && C.u64(Steps) &&
           C.u32(Shard) && C.u32(MsgLen) && C.bytes(Msg, MsgLen) &&
           C.u64(R.CloseSamplesHandled) && C.u64(R.CloseSamplesDropped);
      if (Ok) {
        R.Segments.push_back({Off, kJournalSegmentHeaderBytes + PayloadLen,
                              Type, Seq, Epoch});
        R.Closed = true;
        R.CloseClean = Failed == 0;
        if (Failed) {
          R.CloseError.Kind = static_cast<VmErrorKind>(Kind);
          R.CloseError.Message = std::move(Msg);
          R.CloseError.ThreadId = Tid;
          R.CloseError.Steps = Steps;
          R.CloseError.Shard = Shard;
        }
        Promote(Off + kJournalSegmentHeaderBytes + PayloadLen);
      }
      break;
    }
    default:
      Ok = false;
      break;
    }
    if (!Ok) {
      Truncate("malformed segment payload");
      break;
    }
    if (Type != static_cast<uint32_t>(SegmentType::Commit) &&
        Type != static_cast<uint32_t>(SegmentType::Close))
      R.Segments.push_back({Off, kJournalSegmentHeaderBytes + PayloadLen,
                            Type, Seq, Epoch});
    Off += kJournalSegmentHeaderBytes + PayloadLen;
    LastValidEnd = Off;
    ++NextSeq;
  }

  R.SegmentsUncommitted = R.Segments.size() - R.SegmentsCommitted;
  R.TrailingBytes = Data.size() - LastValidEnd;
  if (R.Closed && R.TrailingBytes != 0 && R.TruncationReason.empty())
    R.TruncationReason = "bytes after the Close sentinel";

  // Materialize the committed snapshots. A CRC-valid but unparseable
  // snapshot means a writer bug or hash collision; drop that thread and
  // count it, never crash.
  for (const auto &[Tid, Text] : Snapshots) {
    ThreadProfile P;
    std::istringstream IS(Text);
    if (P.readFrom(IS))
      R.Profiles.push_back(std::move(P));
    else
      ++R.SnapshotsUnparseable;
  }
  return R;
}

MergedProfile JournalFold::analyze() const {
  std::vector<const ThreadProfile *> Parts;
  Parts.reserve(Profiles.size());
  for (const ThreadProfile &P : Profiles)
    Parts.push_back(&P);
  return mergeProfiles(Parts);
}

JournalFold djx::foldJournals(const std::vector<std::string> &Paths) {
  JournalFold F;
  uint64_t TidOffset = 0;
  for (const std::string &Path : Paths) {
    JournalRecovery R = readJournal(Path);
    // Only earlier inputs' ids are candidates, so one input's own
    // methods are never folded together (the first input keeps its ids).
    const MethodId Earlier = static_cast<MethodId>(F.Methods.size());
    std::vector<MethodId> Map;
    Map.reserve(R.Methods.size());
    for (MethodInfo &M : R.Methods) {
      MethodId Id = 0;
      while (Id < Earlier && !sameMethod(F.Methods.get(Id), M))
        ++Id;
      if (Id == Earlier)
        Id = F.Methods.registerMethod(M.ClassName, M.MethodName,
                                      std::move(M.LineTable));
      Map.push_back(Id);
    }
    // Allocation keys name other threads' trees, so they are checked
    // here, where one input's threads meet, against the trees as read.
    std::unordered_map<uint64_t, size_t> TreeSizes;
    for (const ThreadProfile &P : R.Profiles)
      TreeSizes.emplace(P.threadId(), P.cct().size());
    uint64_t MaxTid = TidOffset;
    for (ThreadProfile &P : R.Profiles) {
      if (!allocNodesInTrees(P, TreeSizes) || !P.remapIds(TidOffset, Map)) {
        ++R.SnapshotsUnresolved;
        continue;
      }
      MaxTid = std::max(MaxTid, P.threadId());
      F.Profiles.push_back(std::move(P));
    }
    TidOffset = MaxTid;
    R.Methods.clear();
    R.Profiles.clear();
    F.Inputs.push_back(std::move(R));
  }
  return F;
}

namespace {

/// ", <n> unparseable snapshot(s), <m> snapshot(s) with unresolved ids"
/// for the snapshots \p R dropped; empty when none.
std::string droppedSnapshotNotes(const JournalRecovery &R) {
  std::string Out;
  if (R.SnapshotsUnparseable != 0)
    Out += ", " + std::to_string(R.SnapshotsUnparseable) +
           " unparseable snapshot(s)";
  if (R.SnapshotsUnresolved != 0)
    Out += ", " + std::to_string(R.SnapshotsUnresolved) +
           " snapshot(s) with unresolved method/CCT ids";
  return Out;
}

} // namespace

std::string djx::journalTruncationBanner(const std::string &Path,
                                         const JournalRecovery &R) {
  const bool Torn =
      !R.Closed || R.SegmentsUncommitted != 0 || R.TrailingBytes != 0;
  std::ostringstream OS;
  OS << "=== DJXPerf DEGRADED report: "
     << (Torn ? "journal truncated, salvaged prefix only"
              : "journal snapshot(s) dropped")
     << " ===\n";
  OS << "journal:  " << Path << '\n';
  OS << "kept:     " << R.SegmentsCommitted << " committed segment(s), "
     << R.BytesKept << " bytes, last durable epoch " << R.LastEpoch
     << " (round " << R.LastRound << ")\n";
  OS << "dropped:  " << R.SegmentsUncommitted
     << " uncommitted segment(s), " << R.TrailingBytes
     << " trailing byte(s)" << droppedSnapshotNotes(R);
  OS << "\nreason:   ";
  if (!R.TruncationReason.empty())
    OS << R.TruncationReason;
  else if (!R.Closed)
    OS << "journal ends without a Close sentinel (crash or kill before the "
          "run finished)";
  else if (R.SnapshotsUnparseable == 0 && R.SnapshotsUnresolved == 0)
    OS << "valid segment(s) after the Close sentinel";
  else {
    const char *Sep = "";
    if (R.SnapshotsUnparseable != 0) {
      OS << "committed snapshot(s) failed to parse";
      Sep = "; ";
    }
    if (R.SnapshotsUnresolved != 0)
      OS << Sep
         << "committed snapshot(s) name a method or CCT node the journal "
            "does not define";
  }
  OS << '\n';
  OS << (Torn ? "The profile below reflects the last durable epoch only; "
                "everything after it was lost.\n\n"
              : "The profile below lacks the threads of the dropped "
                "snapshot(s).\n\n");
  return OS.str();
}

std::string djx::journalAccountingLine(const std::string &Path,
                                       const JournalRecovery &R) {
  std::ostringstream OS;
  OS << "djxperf: " << Path << ": kept " << R.SegmentsCommitted
     << " committed segment(s) (" << R.BytesKept << " bytes) through epoch "
     << R.LastEpoch << " (round " << R.LastRound << "); dropped "
     << R.SegmentsUncommitted << " uncommitted segment(s), "
     << R.TrailingBytes << " trailing byte(s)" << droppedSnapshotNotes(R);
  if (!R.TruncationReason.empty())
    OS << "; stopped at: " << R.TruncationReason;
  OS << '\n';
  return OS.str();
}
