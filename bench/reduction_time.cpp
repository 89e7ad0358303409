//===- bench/reduction_time.cpp - Reduction & automaton build cost --------===//
//
// google-benchmark timings for the offline costs: running the full
// reduction pipeline (forbidden latency matrix, Algorithm 1, pruning,
// selection) per machine and objective, against building the baseline
// finite-state automata. The paper reports 11 minutes on a SPARC-20 for
// the Cydra 5; the reproduction's shape statement is simply that automated
// reduction is cheap enough to run on every machine-description change.
//
// The reduce benchmarks take (machine, threads) argument pairs and are
// split cache-cold (full pipeline, ReductionCache entry evicted each
// iteration) vs cache-warm (content-addressed hit: one MDL parse, no
// reduction), so the memoization win is visible next to the raw pipeline
// cost. The big ScaledVliw configs are the speedup acceptance gate for the
// parallel pipeline; thread counts above the core count measure
// oversubscription, not speedup.
//
//===----------------------------------------------------------------------===//

#include "automaton/PipelineAutomaton.h"
#include "machines/Catalog.h"
#include "reduce/GeneratingSet.h"
#include "reduce/Reduction.h"
#include "reduce/ReductionCache.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

using namespace rmd;

namespace {

MachineDescription flatFor(int Index) {
  switch (Index) {
  case 0:
    return expandAlternatives(loadMachine("cydra5").take().MD).Flat;
  case 1:
    return expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  case 2:
    return expandAlternatives(loadMachine("alpha21064").take().MD).Flat;
  case 3:
    return expandAlternatives(makeScaledVliw(16, 48).MD).Flat;
  case 4:
    return expandAlternatives(makeScaledVliw(20, 48).MD).Flat;
  default:
    return expandAlternatives(makeScaledVliw(24, 48).MD).Flat;
  }
}

const char *machineName(int Index) {
  switch (Index) {
  case 0:
    return "cydra5";
  case 1:
    return "mips";
  case 2:
    return "alpha";
  case 3:
    return "vliw16u48d";
  case 4:
    return "vliw20u48d";
  default:
    return "vliw24u48d";
  }
}

std::string labelFor(const benchmark::State &State) {
  return std::string(machineName(static_cast<int>(State.range(0)))) +
         "/threads:" + std::to_string(State.range(1));
}

/// A throwaway cache directory, removed when the benchmark ends.
struct ScratchCache {
  ScratchCache()
      : Dir("/tmp/rmd-bench-cache-" + std::to_string(::getpid())),
        Cache(Dir) {}
  ~ScratchCache() {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }
  std::string Dir;
  ReductionCache Cache;
};

void BM_ReduceResUses(benchmark::State &State) {
  MachineDescription Flat = flatFor(static_cast<int>(State.range(0)));
  State.SetLabel(labelFor(State));
  ReductionOptions Options;
  Options.Threads = static_cast<unsigned>(State.range(1));
  for (auto _ : State) {
    (void)_;
    ReductionResult R = reduceMachine(Flat, Options);
    benchmark::DoNotOptimize(R.Reduced.numResources());
  }
}

void BM_ReduceWord64(benchmark::State &State) {
  MachineDescription Flat = flatFor(static_cast<int>(State.range(0)));
  State.SetLabel(labelFor(State));
  ReductionOptions Options;
  Options.Objective = SelectionObjective::wordUses(4);
  Options.Threads = static_cast<unsigned>(State.range(1));
  for (auto _ : State) {
    (void)_;
    ReductionResult R = reduceMachine(Flat, Options);
    benchmark::DoNotOptimize(R.Reduced.numResources());
  }
}

/// Algorithm 1 plus the prune alone, on a precomputed matrix, with the
/// pool the pipeline would pass them (only the prune splits its work).
void BM_FoldPrune(benchmark::State &State) {
  MachineDescription Flat = flatFor(static_cast<int>(State.range(0)));
  State.SetLabel(labelFor(State));
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
  unsigned Threads = static_cast<unsigned>(State.range(1));
  ThreadPool Pool(Threads);
  ThreadPool *MaybePool = Threads > 1 ? &Pool : nullptr;
  for (auto _ : State) {
    (void)_;
    std::vector<SynthesizedResource> Pruned = pruneGeneratingSet(
        buildGeneratingSet(FLM, nullptr, MaybePool), MaybePool);
    benchmark::DoNotOptimize(Pruned.size());
  }
}

/// Cache-cold: every iteration starts from an evicted entry, so the timed
/// region is the full pipeline plus one store. The eviction itself is
/// outside the timed region.
void BM_ReduceCacheCold(benchmark::State &State) {
  MachineDescription Flat = flatFor(static_cast<int>(State.range(0)));
  State.SetLabel(labelFor(State));
  ReductionOptions Options;
  Options.Threads = static_cast<unsigned>(State.range(1));
  ScratchCache Scratch;
  std::string Key = ReductionCache::key(Flat, Options.Objective);
  for (auto _ : State) {
    (void)_;
    State.PauseTiming();
    Scratch.Cache.evict(Key);
    State.ResumeTiming();
    bool Hit = true;
    ReductionResult R = Scratch.Cache.reduce(Flat, Options, &Hit);
    if (Hit)
      State.SkipWithError("expected a cache miss");
    benchmark::DoNotOptimize(R.Reduced.numResources());
  }
}

/// Cache-warm: the entry exists, so the timed region is a content-hash of
/// the input plus one MDL parse of the stored result.
void BM_ReduceCacheWarm(benchmark::State &State) {
  MachineDescription Flat = flatFor(static_cast<int>(State.range(0)));
  State.SetLabel(labelFor(State));
  ReductionOptions Options;
  Options.Threads = static_cast<unsigned>(State.range(1));
  ScratchCache Scratch;
  (void)Scratch.Cache.reduce(Flat, Options); // populate
  for (auto _ : State) {
    (void)_;
    bool Hit = false;
    ReductionResult R = Scratch.Cache.reduce(Flat, Options, &Hit);
    if (!Hit)
      State.SkipWithError("expected a cache hit");
    benchmark::DoNotOptimize(R.Reduced.numResources());
  }
}

void BM_ForbiddenLatencyMatrix(benchmark::State &State) {
  MachineDescription Flat = flatFor(static_cast<int>(State.range(0)));
  State.SetLabel(machineName(static_cast<int>(State.range(0))));
  for (auto _ : State) {
    (void)_;
    ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
    benchmark::DoNotOptimize(FLM.totalEntries());
  }
}

void BM_AutomatonBuild(benchmark::State &State) {
  MachineDescription Flat = flatFor(static_cast<int>(State.range(0)));
  State.SetLabel(machineName(static_cast<int>(State.range(0))));
  for (auto _ : State) {
    (void)_;
    auto A = PipelineAutomaton::build(Flat, 1u << 22);
    benchmark::DoNotOptimize(A.has_value() ? A->numStates() : 0);
  }
}

} // namespace

BENCHMARK(BM_ForbiddenLatencyMatrix)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_ReduceResUses)
    ->Args({0, 1})->Args({0, 4})->Args({1, 1})->Args({2, 1})
    ->Args({3, 1})->Args({3, 8})
    ->Args({4, 1})->Args({4, 8})
    ->Args({5, 1})->Args({5, 4})->Args({5, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FoldPrune)
    ->Args({0, 1})->Args({0, 4})->Args({5, 1})->Args({5, 4})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReduceWord64)
    ->Args({0, 1})->Args({1, 1})->Args({2, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReduceCacheCold)
    ->Args({0, 1})->Args({3, 1})->Args({5, 1})->Args({5, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReduceCacheWarm)
    ->Args({0, 1})->Args({3, 1})->Args({5, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AutomatonBuild)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// BENCHMARK_MAIN(), plus the shared --stats-json plumbing. The guard strips
// its flag from argv before google-benchmark parses the command line.
int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "reduction_time");
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
