//===- perfbench/cpp/Trace.h - In-memory spans, Chrome JSON out -*- C++ -*-===//
///
/// \file
/// The traced run's span store. Spans are recorded by the benchmark around
/// its calls into the library (one per reduction phase, per
/// moduloSchedule call, per query-module construction, per batch request),
/// kept in memory, and written once at the end as Chrome trace-event JSON,
/// which chrome://tracing and Perfetto open. Query calls are too many to
/// record one by one; their counts and total times ride on the enclosing
/// pass span as arguments.
///
//===----------------------------------------------------------------------===//

#ifndef RMDBENCH_TRACE_H
#define RMDBENCH_TRACE_H

#include "Common.h"

#include <mutex>
#include <string>
#include <vector>

namespace rmdbench {

class TraceRecorder {
public:
  /// Spans beyond \p MaxSpans are counted, not stored, so a long run keeps
  /// a bounded footprint; the count is written with the trace.
  explicit TraceRecorder(size_t MaxSpans = 100000) : MaxSpans(MaxSpans) {}

  /// Records the complete span [\p Start, \p End) on lane \p Lane.
  /// \p Args is the body of a JSON object ("\"k\": 1, ...") or empty.
  void span(std::string Name, const char *Category, Clock::time_point Start,
            Clock::time_point End, unsigned Lane = 0, std::string Args = "");

  /// Writes every stored span plus \p MetaJson (a JSON object) as the
  /// trace's otherData; returns false if the file cannot be written.
  bool write(const std::string &Path, const std::string &MetaJson) const;

private:
  struct Span {
    std::string Name;
    const char *Category;
    double StartUs;
    double DurUs;
    unsigned Lane;
    std::string Args;
  };
  const Clock::time_point Origin = Clock::now();
  const size_t MaxSpans;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
  size_t Dropped = 0;
};

/// Escapes \p S for use inside a JSON string literal.
std::string jsonEscape(const std::string &S);

} // namespace rmdbench

#endif // RMDBENCH_TRACE_H
