//===- Trace.cpp - In-memory span recorder for the e2e benchmark ----------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace e2e;

void Tracer::add(const char *Name, int Level, int64_t Start, int64_t End,
                 int Worker) {
  std::lock_guard<std::mutex> G(Lock);
  Spans.push_back(Span{Name, Level, Start, End, -1, Iteration, Worker});
}

void Tracer::linkParents() {
  // Above the leaf level every span comes from the driving thread, so the
  // spans of one level never overlap and form an interval list ordered by
  // start time.
  constexpr int kLevels = 4;
  std::vector<std::vector<int>> ByLevel(kLevels);
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Level >= 0 && Spans[I].Level < kLevels)
      ByLevel[Spans[I].Level].push_back(static_cast<int>(I));
  for (auto &L : ByLevel)
    std::sort(L.begin(), L.end(), [&](int A, int B) {
      return Spans[A].Start < Spans[B].Start;
    });
  for (Span &S : Spans) {
    for (int L = S.Level - 1; L >= 0 && S.Parent < 0; --L) {
      const std::vector<int> &Cand = ByLevel[L];
      auto It = std::upper_bound(
          Cand.begin(), Cand.end(), S.Start,
          [&](int64_t T, int Idx) { return T < Spans[Idx].Start; });
      if (It == Cand.begin())
        continue;
      const Span &P = Spans[*std::prev(It)];
      if (P.Start <= S.Start && S.End <= P.End)
        S.Parent = *std::prev(It);
    }
  }
}

bool Tracer::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("[\n", F);
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"iteration\":%u,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"worker\":%d}%s\n",
                 I, S.Name, S.Iteration, (long long)S.Start,
                 (long long)S.End, S.Parent, S.Worker,
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fputs("]\n", F);
  return std::fclose(F) == 0;
}

std::vector<SelfTimeRow> e2e::selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<int>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Children[Spans[I].Parent].push_back(static_cast<int>(I));

  std::vector<SelfTimeRow> Rows;
  std::map<std::string, size_t> RowOf;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Children may overlap (quanta run on several host workers at once),
    // so subtract the union of their intervals, not their sum.
    std::vector<std::pair<int64_t, int64_t>> Iv;
    for (int C : Children[I])
      Iv.emplace_back(std::max(Spans[C].Start, S.Start),
                      std::min(Spans[C].End, S.End));
    std::sort(Iv.begin(), Iv.end());
    int64_t Covered = 0, CurS = 0, CurE = 0;
    bool Open = false;
    for (auto [A, B] : Iv) {
      if (B <= A)
        continue;
      if (Open && A <= CurE) {
        CurE = std::max(CurE, B);
        continue;
      }
      if (Open)
        Covered += CurE - CurS;
      CurS = A;
      CurE = B;
      Open = true;
    }
    if (Open)
      Covered += CurE - CurS;

    auto [It, New] = RowOf.try_emplace(S.Name, Rows.size());
    if (New)
      Rows.push_back(SelfTimeRow{S.Name});
    SelfTimeRow &R = Rows[It->second];
    ++R.Count;
    R.TotalS += seconds(S.End - S.Start);
    R.SelfS += seconds(S.End - S.Start - Covered);
  }
  return Rows;
}

double e2e::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}
