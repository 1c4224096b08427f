//===- Cache.h - Set-associative cache model --------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Set-associative, exact-LRU cache model: the one replacement kernel of
/// the simulator. MemoryHierarchy composes instances into the private-L1 /
/// private-L2 / shared-L3 structure of the paper's evaluation machine
/// (Xeon E5-2650 v4: 32 KiB L1, 256 KiB L2, 30 MiB shared L3, 64 B lines),
/// and each data TLB is the same kernel with one set, page-sized lines and
/// one way per entry (TlbConfig::asCache).
///
/// Hot-path design: line and set indexing are precomputed shift/mask
/// operations (line size and set count must be powers of two — every real
/// cache geometry is). Line metadata is struct-of-arrays: a set's tags
/// and its LRU stamps are two contiguous runs of Ways words. An invalid
/// way holds tag kNoTag and stamp 0; a valid way's stamp is the Clock
/// value of its last touch, unique and at least 1. So one pass over the
/// set both finds a hit and picks the victim: the way with the smallest
/// stamp, ties going to the later way, is the last invalid way if there
/// is one, else the unique least-recently-used way — the exact LRU choice.
/// An MRU memo (a way index) answers an access to the line touched
/// immediately before without scanning, the common case for sequential
/// sweeps.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_SIM_CACHE_H
#define DJX_SIM_CACHE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace djx {

/// Geometry of one cache level.
struct CacheConfig {
  uint64_t SizeBytes = 32 * 1024;
  uint32_t LineBytes = 64;
  uint32_t Ways = 8;

  uint64_t numSets() const { return SizeBytes / (LineBytes * Ways); }
};

/// One set-associative cache with true-LRU replacement.
class Cache {
public:
  explicit Cache(const CacheConfig &Config);

  /// Looks up \p Addr; on miss, fills the line (evicting LRU).
  /// \returns true on hit.
  bool access(uint64_t Addr);

  /// Probes without filling. \returns true when the line is resident.
  bool contains(uint64_t Addr) const;

  /// Invalidates the line holding \p Addr, if resident.
  void invalidate(uint64_t Addr);

  /// Drops all contents (e.g. between benchmark repetitions).
  void flush();

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t evictions() const { return Evictions; }
  const CacheConfig &config() const { return Config; }

private:
  /// Tag of an invalid way. No line address equals it, because lines are
  /// at least two bytes long (asserted in the constructor).
  static constexpr uint64_t kNoTag = ~0ULL;
  static constexpr size_t kNoWay = ~size_t(0);

  uint64_t lineAddr(uint64_t Addr) const { return Addr >> LineShift; }
  /// Index of the first way of \p LineAddr's set in Tags/Stamps.
  size_t setBase(uint64_t LineAddr) const {
    return static_cast<size_t>(LineAddr & SetMask) * Config.Ways;
  }

  /// Index of the way holding \p LineAddr, or kNoWay.
  size_t findWay(uint64_t LineAddr) const;

  CacheConfig Config;
  uint32_t LineShift; ///< log2(LineBytes).
  uint64_t SetMask;   ///< NumSets - 1 (sets are a power of two).
  /// NumSets * Ways entries each, row-major by set.
  std::vector<uint64_t> Tags;   ///< Line address, or kNoTag when invalid.
  std::vector<uint64_t> Stamps; ///< Clock of the last touch; 0 = invalid.
  /// MRU memo: the line hit or filled by the last access, and its way.
  uint64_t LastLineAddr = kNoTag;
  size_t LastWay = 0;
  uint64_t Clock = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
};

} // namespace djx

#endif // DJX_SIM_CACHE_H
