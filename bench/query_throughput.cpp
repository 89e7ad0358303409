//===- bench/query_throughput.cpp - Section 6 headline timings ------------===//
//
// google-benchmark microbenchmarks backing the paper's "4 to 7 times
// faster detection of resource contentions" headline: wall-clock time of
// check / assign / free sequences against original vs reduced machine
// descriptions, in the discrete and bitvector representations, plus the
// finite-state-automaton baseline for in-order issue.
//
//===----------------------------------------------------------------------===//

#include "automaton/PipelineAutomaton.h"
#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"
#include "support/Stats.h"

#include <benchmark/benchmark.h>

using namespace rmd;

namespace {

/// Lazily-built shared inputs (building reductions once per process).
struct Setup {
  MachineDescription Flat;
  MachineDescription Reduced;
  std::vector<std::vector<OpId>> Groups;
  std::vector<std::pair<OpId, int>> Trace;

  explicit Setup(const MachineModel &Model) {
    ExpandedMachine EM = expandAlternatives(Model.MD);
    Flat = EM.Flat;
    Groups = EM.Groups;
    Reduced = reduceMachine(Flat).Reduced;
    RNG R(1234);
    for (int I = 0; I < 4096; ++I)
      Trace.push_back(
          {static_cast<OpId>(R.nextBelow(Flat.numOperations())),
           static_cast<int>(R.nextBelow(64))});
  }
};

const Setup &cydraSetup() {
  static Setup S(loadMachine("cydra5").take());
  return S;
}
const Setup &mipsSetup() {
  static Setup S(loadMachine("mips-r3000").take());
  return S;
}
const Setup &alphaSetup() {
  static Setup S(loadMachine("alpha21064").take());
  return S;
}

const Setup &setupFor(int Index) {
  switch (Index) {
  case 0:
    return cydraSetup();
  case 1:
    return mipsSetup();
  default:
    return alphaSetup();
  }
}

const char *machineName(int Index) {
  switch (Index) {
  case 0:
    return "cydra5";
  case 1:
    return "mips";
  default:
    return "alpha";
  }
}

template <typename ModuleT>
void runQueryMix(benchmark::State &State, const MachineDescription &MD,
                 const std::vector<std::pair<OpId, int>> &Trace) {
  ModuleT Module(MD, QueryConfig::linear());
  for (auto _ : State) {
    (void)_;
    InstanceId Next = 0;
    size_t Assigned = 0;
    std::vector<std::pair<OpId, int>> Live;
    for (const auto &[Op, Cycle] : Trace) {
      if (Module.check(Op, Cycle)) {
        Module.assign(Op, Cycle, Next++);
        Live.push_back({Op, Cycle});
        ++Assigned;
      }
      // Keep the table from saturating: periodically free the oldest half.
      if (Live.size() >= 64) {
        for (size_t I = 0; I < 32; ++I)
          Module.free(Live[I].first, Live[I].second,
                      static_cast<InstanceId>(I + Next - Live.size()));
        Live.erase(Live.begin(), Live.begin() + 32);
      }
    }
    benchmark::DoNotOptimize(Assigned);
    Module.reset();
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Trace.size()));
}

void BM_DiscreteOriginal(benchmark::State &State) {
  const Setup &S = setupFor(static_cast<int>(State.range(0)));
  State.SetLabel(machineName(static_cast<int>(State.range(0))));
  runQueryMix<DiscreteQueryModule>(State, S.Flat, S.Trace);
}

void BM_DiscreteReduced(benchmark::State &State) {
  const Setup &S = setupFor(static_cast<int>(State.range(0)));
  State.SetLabel(machineName(static_cast<int>(State.range(0))));
  runQueryMix<DiscreteQueryModule>(State, S.Reduced, S.Trace);
}

void BM_BitvectorOriginal(benchmark::State &State) {
  const Setup &S = setupFor(static_cast<int>(State.range(0)));
  State.SetLabel(machineName(static_cast<int>(State.range(0))));
  runQueryMix<BitvectorQueryModule>(State, S.Flat, S.Trace);
}

void BM_BitvectorReduced(benchmark::State &State) {
  const Setup &S = setupFor(static_cast<int>(State.range(0)));
  State.SetLabel(machineName(static_cast<int>(State.range(0))));
  runQueryMix<BitvectorQueryModule>(State, S.Reduced, S.Trace);
}

/// check-with-alternatives mix on the original description: every query
/// goes through the union-mask fast path, so this isolates the cost of the
/// per-group union-pattern cache lookup on the hot path.
void BM_BitvectorAlternatives(benchmark::State &State) {
  const Setup &S = setupFor(static_cast<int>(State.range(0)));
  State.SetLabel(machineName(static_cast<int>(State.range(0))));
  BitvectorQueryModule Module(S.Flat, QueryConfig::linear());
  RNG R(99);
  std::vector<std::pair<size_t, int>> Queries;
  for (int I = 0; I < 4096; ++I)
    Queries.push_back({R.nextBelow(S.Groups.size()),
                       static_cast<int>(R.nextBelow(64))});
  for (auto _ : State) {
    (void)_;
    InstanceId Next = 0;
    size_t Placed = 0;
    for (const auto &[Group, Cycle] : Queries) {
      int Alt = Module.checkWithAlternatives(S.Groups[Group], Cycle);
      if (Alt >= 0) {
        Module.assign(S.Groups[Group][static_cast<size_t>(Alt)], Cycle,
                      Next++);
        ++Placed;
      }
      if (Placed % 64 == 0)
        Module.reset();
    }
    benchmark::DoNotOptimize(Placed);
    Module.reset();
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Queries.size()));
}

/// Baseline: automaton-driven in-order issue (the only scheduling model
/// the plain forward automaton supports without extra machinery).
void BM_AutomatonInOrder(benchmark::State &State) {
  const Setup &S = setupFor(static_cast<int>(State.range(0)));
  State.SetLabel(machineName(static_cast<int>(State.range(0))));
  // Built from the reduced description; the raw hardware-level one
  // overflows the state cap (see table3/table4 output).
  auto A = PipelineAutomaton::build(S.Reduced, 1u << 22);
  if (!A) {
    State.SkipWithError("automaton exceeds the state cap");
    return;
  }
  for (auto _ : State) {
    (void)_;
    PipelineAutomaton::StateId St = A->initialState();
    size_t Accepted = 0;
    int LastCycle = 0;
    for (const auto &[Op, Cycle] : S.Trace) {
      int C = Cycle % 8 + LastCycle; // monotone cycles for in-order issue
      while (LastCycle < C) {
        St = A->advance(St);
        ++LastCycle;
      }
      if (auto NextState = A->issue(St, Op)) {
        St = *NextState;
        ++Accepted;
      }
    }
    benchmark::DoNotOptimize(Accepted);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(S.Trace.size()));
}

} // namespace

BENCHMARK(BM_DiscreteOriginal)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_DiscreteReduced)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_BitvectorOriginal)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_BitvectorReduced)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_BitvectorAlternatives)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_AutomatonInOrder)->Arg(1)->Arg(2);

// BENCHMARK_MAIN(), plus the shared --stats-json plumbing. The guard strips
// its flag from argv before google-benchmark parses the command line.
int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "query_throughput");
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
