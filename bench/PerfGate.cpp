//===- bench/PerfGate.cpp -------------------------------------------------===//

#include "PerfGate.h"

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

using namespace rmd;
using namespace rmd::bench;

namespace {

using Clock = std::chrono::steady_clock;

double elapsedMs(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// The pinned query mix (same shape as bench/query_throughput.cpp): 4096
/// seeded (op, cycle) events, check-then-assign, freeing the oldest half
/// whenever 64 instances are live.
std::vector<std::pair<OpId, int>>
buildTrace(const MachineDescription &Flat) {
  RNG R(1234);
  std::vector<std::pair<OpId, int>> Trace;
  for (int I = 0; I < 4096; ++I)
    Trace.push_back({static_cast<OpId>(R.nextBelow(Flat.numOperations())),
                     static_cast<int>(R.nextBelow(64))});
  return Trace;
}

template <typename ModuleT>
double measureQueryMqps(const MachineDescription &MD,
                        const std::vector<std::pair<OpId, int>> &Trace,
                        int Repeats) {
  // Inner passes amortize the timer granularity on small machines; the
  // outer min-of-N filters scheduler noise.
  constexpr int InnerPasses = 4;
  double BestMs = 0.0;
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    ModuleT Module(MD, QueryConfig::linear());
    auto Start = Clock::now();
    size_t Assigned = 0;
    for (int Pass = 0; Pass < InnerPasses; ++Pass) {
      InstanceId Next = 0;
      std::vector<std::pair<OpId, int>> Live;
      for (const auto &[Op, Cycle] : Trace) {
        if (Module.check(Op, Cycle)) {
          Module.assign(Op, Cycle, Next++);
          Live.push_back({Op, Cycle});
          ++Assigned;
        }
        if (Live.size() >= 64) {
          for (size_t I = 0; I < 32; ++I)
            Module.free(Live[I].first, Live[I].second,
                        static_cast<InstanceId>(I + Next - Live.size()));
          Live.erase(Live.begin(), Live.begin() + 32);
        }
      }
      Module.reset();
    }
    double Ms = elapsedMs(Start);
    (void)Assigned; // the module's mutations keep the loop observable
    if (Rep == 0 || Ms < BestMs)
      BestMs = Ms;
  }
  double Queries = static_cast<double>(InnerPasses) * Trace.size();
  return Queries / (BestMs * 1e3); // ms -> Mqps
}

} // namespace

std::vector<PerfEntry> rmd::bench::measurePerfCorpus(int Repeats) {
  std::vector<PerfEntry> Entries;
  for (const std::string &Name : machineNames()) {
    PerfEntry E;
    E.Machine = Name;
    ExpandedMachine EM = expandAlternatives(loadMachine(Name).take().MD);

    double BestMs = 0.0;
    ReductionResult Result;
    for (int Rep = 0; Rep < Repeats; ++Rep) {
      auto Start = Clock::now();
      Result = reduceMachine(EM.Flat);
      double Ms = elapsedMs(Start);
      if (Rep == 0 || Ms < BestMs)
        BestMs = Ms;
    }
    E.ReduceMs = BestMs;

    std::vector<std::pair<OpId, int>> Trace = buildTrace(EM.Flat);
    E.DiscreteMqps =
        measureQueryMqps<DiscreteQueryModule>(Result.Reduced, Trace, Repeats);
    E.BitvectorMqps = measureQueryMqps<BitvectorQueryModule>(Result.Reduced,
                                                             Trace, Repeats);
    Entries.push_back(std::move(E));
  }
  return Entries;
}

void rmd::bench::writeBenchJson(std::ostream &OS,
                                const std::vector<PerfEntry> &Entries,
                                const std::string &Tool) {
  auto Num = [](double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6f", V);
    return std::string(Buf);
  };
  OS << "{\n  \"schema\": \"rmd-bench-v1\",\n";
  OS << "  \"tool\": \"" << Tool << "\",\n";
  OS << "  \"machines\": [\n";
  for (size_t I = 0; I < Entries.size(); ++I) {
    const PerfEntry &E = Entries[I];
    OS << "    {\"machine\": \"" << E.Machine << "\", "
       << "\"reduce_ms\": " << Num(E.ReduceMs) << ", "
       << "\"query_mqps_discrete\": " << Num(E.DiscreteMqps) << ", "
       << "\"query_mqps_bitvector\": " << Num(E.BitvectorMqps) << "}"
       << (I + 1 < Entries.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";
}

bool rmd::bench::loadBenchJson(std::istream &IS,
                               std::vector<PerfEntry> &Entries) {
  Entries.clear();
  std::stringstream Buffer;
  Buffer << IS.rdbuf();
  std::string Text = Buffer.str();
  if (Text.find("\"schema\": \"rmd-bench-v1\"") == std::string::npos)
    return false;

  // Scans for the writer's own fixed one-object-per-line formatting; this
  // is deliberately not a general JSON parser (no dependencies), and the
  // schema field above version-gates the layout.
  auto FieldNum = [](const std::string &Line, const char *Key,
                    double &Out) -> bool {
    std::string Needle = std::string("\"") + Key + "\": ";
    size_t At = Line.find(Needle);
    if (At == std::string::npos)
      return false;
    Out = std::strtod(Line.c_str() + At + Needle.size(), nullptr);
    return true;
  };

  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    size_t At = Line.find("{\"machine\": \"");
    if (At == std::string::npos)
      continue;
    size_t NameBegin = At + sizeof("{\"machine\": \"") - 1;
    size_t NameEnd = Line.find('"', NameBegin);
    if (NameEnd == std::string::npos)
      return false;
    PerfEntry E;
    E.Machine = Line.substr(NameBegin, NameEnd - NameBegin);
    if (!FieldNum(Line, "reduce_ms", E.ReduceMs) ||
        !FieldNum(Line, "query_mqps_discrete", E.DiscreteMqps) ||
        !FieldNum(Line, "query_mqps_bitvector", E.BitvectorMqps)) {
      Entries.clear();
      return false;
    }
    Entries.push_back(std::move(E));
  }
  return !Entries.empty();
}

std::vector<PerfRegression>
rmd::bench::comparePerf(const std::vector<PerfEntry> &Baseline,
                        const std::vector<PerfEntry> &Current,
                        double Tolerance) {
  std::vector<PerfRegression> Regressions;
  for (const PerfEntry &B : Baseline) {
    auto It = std::find_if(
        Current.begin(), Current.end(),
        [&](const PerfEntry &C) { return C.Machine == B.Machine; });
    if (It == Current.end())
      continue;
    const PerfEntry &C = *It;
    double Band = 1.0 + Tolerance;
    if (B.ReduceMs > 0 && C.ReduceMs > B.ReduceMs * Band)
      Regressions.push_back({B.Machine, "reduce_ms", B.ReduceMs, C.ReduceMs});
    if (B.DiscreteMqps > 0 && C.DiscreteMqps < B.DiscreteMqps / Band)
      Regressions.push_back(
          {B.Machine, "query_mqps_discrete", B.DiscreteMqps, C.DiscreteMqps});
    if (B.BitvectorMqps > 0 && C.BitvectorMqps < B.BitvectorMqps / Band)
      Regressions.push_back({B.Machine, "query_mqps_bitvector",
                             B.BitvectorMqps, C.BitvectorMqps});
  }
  return Regressions;
}
