//===- Cache.cpp - Set-associative cache model ----------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"

#include "support/Bits.h"

#include <algorithm>
#include <cassert>

using namespace djx;

Cache::Cache(const CacheConfig &Cfg) : Config(Cfg) {
  assert(Config.Ways > 0 && "cache needs at least one way");
  assert(Config.LineBytes > 1 && isPowerOfTwo(Config.LineBytes) &&
         "line size must be a power of two of at least two bytes");
  uint64_t NumSets = Config.numSets();
  assert(NumSets > 0 && "cache too small for its associativity");
  assert(isPowerOfTwo(NumSets) &&
         "set count must be a power of two (pick SizeBytes/LineBytes/Ways "
         "accordingly)");
  LineShift = floorLog2(Config.LineBytes);
  SetMask = NumSets - 1;
  Tags.assign(NumSets * Config.Ways, kNoTag);
  Stamps.assign(NumSets * Config.Ways, 0);
}

size_t Cache::findWay(uint64_t LineAddr) const {
  size_t Base = setBase(LineAddr);
  for (size_t W = Base; W < Base + Config.Ways; ++W)
    if (Tags[W] == LineAddr)
      return W;
  return kNoWay;
}

bool Cache::access(uint64_t Addr) {
  uint64_t LA = lineAddr(Addr);
  ++Clock;
  // MRU fast path: repeated access to the line touched last (sequential
  // sweeps hit the same line LineBytes/stride times in a row).
  if (LA == LastLineAddr) {
    Stamps[LastWay] = Clock;
    ++Hits;
    return true;
  }
  size_t Base = setBase(LA);
  uint64_t *Tag = &Tags[Base];
  uint64_t *Stamp = &Stamps[Base];
  uint32_t Victim = 0;
  uint64_t Oldest = ~0ULL;
  for (uint32_t W = 0; W < Config.Ways; ++W) {
    if (Tag[W] == LA) {
      Stamp[W] = Clock;
      ++Hits;
      LastLineAddr = LA;
      LastWay = Base + W;
      return true;
    }
    // '<=': among invalid ways (stamp 0) the last one wins.
    if (Stamp[W] <= Oldest) {
      Oldest = Stamp[W];
      Victim = W;
    }
  }
  ++Misses;
  if (Oldest != 0)
    ++Evictions;
  // If the victim was the memoised line, the memo update below repoints
  // it at the new tag; no stale entry survives.
  Tag[Victim] = LA;
  Stamp[Victim] = Clock;
  LastLineAddr = LA;
  LastWay = Base + Victim;
  return false;
}

bool Cache::contains(uint64_t Addr) const {
  return findWay(lineAddr(Addr)) != kNoWay;
}

void Cache::invalidate(uint64_t Addr) {
  uint64_t LA = lineAddr(Addr);
  if (LA == LastLineAddr)
    LastLineAddr = kNoTag;
  size_t W = findWay(LA);
  if (W != kNoWay) {
    Tags[W] = kNoTag;
    Stamps[W] = 0;
  }
}

void Cache::flush() {
  std::fill(Tags.begin(), Tags.end(), kNoTag);
  std::fill(Stamps.begin(), Stamps.end(), 0);
  LastLineAddr = kNoTag;
}
