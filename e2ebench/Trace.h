//===- Trace.h - In-memory span recorder for the e2e benchmark --*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded at the boundaries the benchmark owns (setup, run, round,
/// quantum, GC, journal flush, stop/analyze/render/html). Spans are kept in
/// memory and written out when the benchmark ends. A span's parent is the
/// innermost span of a lower level whose interval contains it, resolved
/// after the run, so hooks never need to know which span is open.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_E2EBENCH_TRACE_H
#define DJX_E2EBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds(int64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

struct Span {
  const char *Name;
  /// Nesting level: 0 = iteration, 1 = phase (setup/run/stop/...),
  /// 2 = round or journal flush, 3 = quantum or GC.
  int Level;
  int64_t Start;
  int64_t End;
  /// Index of the parent span in the same Tracer, or -1.
  int Parent = -1;
  /// Traced iteration the span belongs to.
  unsigned Iteration = 0;
  /// Host worker that ran a quantum span, or -1.
  int Worker = -1;
};

/// Thread-safe span sink: quantum spans arrive from every host worker.
class Tracer {
public:
  void add(const char *Name, int Level, int64_t Start, int64_t End,
           int Worker = -1);
  void setIteration(unsigned I) { Iteration = I; }

  /// Resolves every span's parent by interval containment.
  void linkParents();

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes the spans as a JSON array; \returns false on I/O failure.
  bool writeJson(const std::string &Path) const;

private:
  std::mutex Lock;
  std::vector<Span> Spans;
  unsigned Iteration = 0;
};

/// Per span name: how often it occurred, its summed duration and its self
/// time (duration minus the union of its children's intervals).
struct SelfTimeRow {
  std::string Name;
  uint64_t Count = 0;
  double TotalS = 0;
  double SelfS = 0;
};

/// Self-time rows in first-occurrence order. Requires linkParents().
std::vector<SelfTimeRow> selfTimes(const std::vector<Span> &Spans);

/// Linear-interpolated percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);

} // namespace e2e

#endif // DJX_E2EBENCH_TRACE_H
