//===- perfbench/cpp/ReduceCorpus.cpp - MDL text -> reduced descriptions --===//
//
// Workload `reduce-corpus`: the seven machines/*.mdl texts go to verified
// reduced descriptions at both objectives (res-uses, and k-cycle-word at
// the maximal k for the res-uses resource count), single-threaded. One
// pass reduces every machine once per objective; the seed only shuffles
// the machine order of each pass, so the exact counts hold at every seed.
//
// Untraced passes call the library's own entry point
// (reduceMachineChecked). Traced passes call the pipeline's public phases
// one by one, timing each, and must produce the identical descriptions.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "flm/ForbiddenLatencyMatrix.h"
#include "machines/MdlModel.h"
#include "reduce/GeneratingSet.h"
#include "reduce/Metrics.h"
#include "reduce/Reduction.h"
#include "reduce/Selection.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <numeric>
#include <optional>

using namespace rmd;
using namespace rmdbench;

namespace {

/// Exact outputs of the pipeline per machine. The generating and pruned
/// sets do not depend on the objective.
struct RecordedReduction {
  const char *Machine;
  size_t Generating;
  size_t Pruned;
  size_t ResUsesResources;
  size_t ResUsesUsages;
  unsigned K;
  size_t WordResources;
  size_t WordUsages;
};

constexpr RecordedReduction kRecorded[] = {
    {"alpha21064", 303, 8, 6, 67, 10, 6, 131},
    {"cydra5", 738, 17, 15, 121, 4, 15, 121},
    {"fig1", 4, 2, 2, 5, 32, 2, 5},
    {"m88100", 106, 7, 6, 35, 10, 4, 35},
    {"mips-r3000-r3010", 170, 10, 8, 96, 8, 8, 118},
    {"playdoh", 491, 21, 17, 131, 3, 17, 131},
    {"toyvliw", 12, 5, 5, 18, 12, 5, 18},
};
constexpr size_t kNumMachines = std::size(kRecorded);
constexpr size_t kReductionsPerPass = 2 * kNumMachines;

struct Machine {
  std::string Name;
  std::string Text;
  /// The expanded original, for the independent Theorem 1 check.
  MachineDescription Flat;
};

/// One machine's outputs in one pass.
struct Outcome {
  size_t Generating = 0;
  size_t Pruned = 0;
  unsigned K = 0;
  MachineDescription ResUses;
  MachineDescription Word;
};

std::optional<MachineModel> parse(const Machine &M) {
  DiagnosticEngine Diags; // fig1.mdl leaves latencies to their defaults
  return parseMdlModel(M.Text, Diags);
}

unsigned maximalK(const MachineDescription &ResUses) {
  return cyclesPerWord(std::max<size_t>(ResUses.numResources(), 1), 64);
}

/// The library path: MDL text to both reductions through
/// reduceMachineChecked. Counts the reductions that fail into \p Failed.
void reduceUntraced(const Machine &M, Outcome &Out, uint64_t &Failed) {
  std::optional<MachineModel> Model = parse(M);
  if (!Model) {
    Failed += 2;
    return;
  }
  ExpandedMachine EM = expandAlternatives(Model->MD);
  Expected<ReductionResult> Res = reduceMachineChecked(EM.Flat);
  if (!Res) {
    Failed += 2;
    return;
  }
  Out.Generating = Res.value().GeneratingSetSize;
  Out.Pruned = Res.value().PrunedSetSize;
  Out.K = maximalK(Res.value().Reduced);
  ReductionOptions WordOptions;
  WordOptions.Objective = SelectionObjective::wordUses(Out.K);
  Expected<ReductionResult> Word = reduceMachineChecked(EM.Flat, WordOptions);
  if (!Word) {
    Failed += 1;
    return;
  }
  Out.ResUses = std::move(Res.value().Reduced);
  Out.Word = std::move(Word.value().Reduced);
}

/// Per-phase milliseconds of one traced pass.
struct PhaseMs {
  double Parse = 0, Expand = 0, Flm = 0, Fold = 0, Prune = 0, Select = 0,
         Verify = 0;
};

/// Times \p Fn into \p Acc and records a span.
template <typename Fn>
auto phase(TraceRecorder &Trace, const char *Name, const std::string &Args,
           double &Acc, Fn &&F) {
  Clock::time_point Start = Clock::now();
  auto Result = F();
  Clock::time_point End = Clock::now();
  Acc += msBetween(Start, End);
  Trace.span(Name, "reduce", Start, End, 0, Args);
  return Result;
}

/// reduceMachineChecked's pipeline, phase by phase through the public
/// functions (mirrors reduce/Reduction.cpp). Returns nullopt when the
/// verification finds a forbidden-latency mismatch.
std::optional<MachineDescription>
reduceTraced(const MachineDescription &Flat, SelectionObjective Objective,
             const std::string &MachineName, TraceRecorder &Trace,
             PhaseMs &Ms, Outcome &Out) {
  bool Res = Objective.ObjectiveKind == SelectionObjective::ResUses;
  std::string Suffix =
      Res ? ".res-uses" : ".word" + std::to_string(Objective.CyclesPerWord);
  std::string Args = "\"machine\": \"" + MachineName + "\", \"objective\": \"" +
                     Suffix.substr(1) + "\"";

  ForbiddenLatencyMatrix FLM = phase(Trace, "flm", Args, Ms.Flm, [&] {
    return ForbiddenLatencyMatrix::compute(Flat);
  });
  std::vector<SynthesizedResource> Generating =
      phase(Trace, "fold", Args, Ms.Fold, [&] {
        return buildGeneratingSet(FLM);
      });
  Out.Generating = Generating.size();
  std::vector<SynthesizedResource> Pruned =
      phase(Trace, "prune", Args, Ms.Prune, [&] {
        return pruneGeneratingSet(std::move(Generating));
      });
  Out.Pruned = Pruned.size();
  MachineDescription Reduced = phase(Trace, "select", Args, Ms.Select, [&] {
    SelectionResult Selection = selectCover(FLM, Pruned, Objective);
    MachineDescription Chosen =
        buildReducedDescription(Flat, Pruned, Selection, Suffix);
    if (!Res) {
      // Reduction.cpp keeps the res-uses cover when it packs words better.
      SelectionResult ResSelection =
          selectCover(FLM, Pruned, SelectionObjective::resUses());
      MachineDescription ResReduced =
          buildReducedDescription(Flat, Pruned, ResSelection, Suffix);
      unsigned K = Objective.CyclesPerWord;
      if (averageWordUsesPerOperation(ResReduced, K) <
          averageWordUsesPerOperation(Chosen, K))
        Chosen = std::move(ResReduced);
    }
    return Chosen;
  });
  bool Preserved = phase(Trace, "verify", Args, Ms.Verify, [&] {
    return FLM == ForbiddenLatencyMatrix::compute(Reduced);
  });
  if (!Preserved)
    return std::nullopt;
  return Reduced;
}

} // namespace

void rmdbench::runReduceCorpus(const RunOptions &Opts, Report &Out,
                               TraceRecorder *Trace) {
  // Set-up: read and parse every text once (the parse also yields the
  // expanded original the Theorem 1 check compares against).
  std::vector<Machine> Machines;
  Out.calibrate();
  double SetUpS = timedSetUps(15, [&] {
    Machines.clear();
    for (const RecordedReduction &R : kRecorded) {
      Machine M;
      M.Name = R.Machine;
      M.Text = readFile(Opts.MachinesDir + "/" + M.Name + ".mdl");
      std::optional<MachineModel> Model = parse(M);
      if (!Model)
        throw std::runtime_error("cannot parse " + M.Name + ".mdl");
      M.Flat = expandAlternatives(Model->MD).Flat;
      Machines.push_back(std::move(M));
    }
  });
  Out.calibrate();

  uint64_t OrderState = Opts.Seed;
  auto passOrder = [&] {
    std::vector<size_t> Order(kNumMachines);
    std::iota(Order.begin(), Order.end(), 0);
    for (size_t I = Order.size() - 1; I > 0; --I)
      std::swap(Order[I], Order[splitmix64(OrderState) % (I + 1)]);
    return Order;
  };

  // The first pass's outputs are checked in full; every later pass (either
  // path) must reproduce them exactly.
  std::vector<Outcome> Reference;
  auto checkPass = [&](std::vector<Outcome> &Pass) {
    if (!Reference.empty()) {
      for (size_t I = 0; I < kNumMachines; ++I)
        if (!(Pass[I].ResUses == Reference[I].ResUses) ||
            !(Pass[I].Word == Reference[I].Word) ||
            Pass[I].Generating != Reference[I].Generating ||
            Pass[I].Pruned != Reference[I].Pruned)
          Out.error(Machines[I].Name + ": a later pass produced a different "
                                       "reduced description");
      return;
    }
    for (size_t I = 0; I < kNumMachines; ++I) {
      const RecordedReduction &R = kRecorded[I];
      const Outcome &O = Pass[I];
      std::string M = Machines[I].Name;
      if (!verifyEquivalence(Machines[I].Flat, O.ResUses) ||
          !verifyEquivalence(Machines[I].Flat, O.Word))
        Out.error(M + ": Theorem 1 fails, the reduced FLM differs");
      Out.expectEq(M + " generating set size", O.Generating, R.Generating);
      Out.expectEq(M + " pruned set size", O.Pruned, R.Pruned);
      Out.expectEq(M + " res-uses resources", O.ResUses.numResources(),
                   R.ResUsesResources);
      Out.expectEq(M + " res-uses usages", O.ResUses.totalUsages(),
                   R.ResUsesUsages);
      Out.expectEq(M + " maximal k", O.K, R.K);
      Out.expectEq(M + " word resources", O.Word.numResources(),
                   R.WordResources);
      Out.expectEq(M + " word usages", O.Word.totalUsages(), R.WordUsages);
    }
    Reference = Pass;
  };

  auto untracedPass = [&](std::vector<double> &WallMs,
                          std::vector<double> &CpuMs) {
    std::vector<Outcome> Pass(kNumMachines);
    std::vector<size_t> Order = passOrder();
    uint64_t FailedBefore = Out.Failed;
    double Cpu0 = threadCpuSeconds();
    Clock::time_point Start = Clock::now();
    for (size_t I : Order)
      reduceUntraced(Machines[I], Pass[I], Out.Failed);
    Clock::time_point End = Clock::now();
    CpuMs.push_back((threadCpuSeconds() - Cpu0) * 1e3);
    WallMs.push_back(msBetween(Start, End));
    Out.Attempted += kReductionsPerPass;
    ++Out.Passes;
    if (Out.Failed != FailedBefore)
      Out.error("a reduction failed to parse or to verify");
    else
      checkPass(Pass);
  };

  const double UntracedSeconds = Trace ? Opts.Seconds / 2 : Opts.Seconds;
  std::vector<double> WallMs, CpuMs;
  Clock::time_point RunStart = Clock::now();
  while (WallMs.size() < 3 || secondsSince(RunStart) < UntracedSeconds) {
    Out.calibrate();
    untracedPass(WallMs, CpuMs);
  }

  double PassMs = median(WallMs);
  double PassCpuMs = median(CpuMs);
  double FailRatio = static_cast<double>(Out.Failed) / Out.Attempted;
  Out.line("reduce_ms", PassMs, "ms",
           "median of " + std::to_string(WallMs.size()) + " passes, " +
               std::to_string(kReductionsPerPass) + " reductions each");
  Out.line("reduce_cpu_ms", PassCpuMs, "ms", "thread CPU, median pass");
  Out.line("fail_ratio", FailRatio, "");
  Out.line("setup_s", SetUpS, "s", "median of 15 set-ups");

  Out.endToEnd(SetUpS, PassMs, PassCpuMs,
               kReductionsPerPass / (PassCpuMs / 1e3));
  if (!Trace)
    return;

  // Traced passes: the same work, phase by phase.
  std::vector<PhaseMs> Phases;
  std::vector<double> TracedWallMs;
  std::vector<std::vector<double>> MachineMs(kNumMachines);
  size_t Generating = 0, Pruned = 0, ResourcesOut = 0, UsagesOut = 0;
  Clock::time_point TracedStart = Clock::now();
  while (TracedWallMs.size() < 3 ||
         secondsSince(TracedStart) < Opts.Seconds - UntracedSeconds) {
    std::vector<Outcome> Pass(kNumMachines);
    PhaseMs Ms;
    uint64_t FailedBefore = Out.Failed;
    Clock::time_point PassStart = Clock::now();
    for (size_t I : passOrder()) {
      const Machine &M = Machines[I];
      Outcome &O = Pass[I];
      Clock::time_point MStart = Clock::now();
      std::string Args = "\"machine\": \"" + M.Name + "\"";
      std::optional<MachineModel> Model =
          phase(*Trace, "parse", Args, Ms.Parse, [&] { return parse(M); });
      if (!Model) {
        Out.Failed += 2;
        continue;
      }
      ExpandedMachine EM = phase(*Trace, "expand", Args, Ms.Expand, [&] {
        return expandAlternatives(Model->MD);
      });
      std::optional<MachineDescription> Res = reduceTraced(
          EM.Flat, SelectionObjective::resUses(), M.Name, *Trace, Ms, O);
      if (!Res) {
        Out.Failed += 2;
        continue;
      }
      O.K = maximalK(*Res);
      O.ResUses = std::move(*Res);
      Outcome WordSizes;
      std::optional<MachineDescription> Word =
          reduceTraced(EM.Flat, SelectionObjective::wordUses(O.K), M.Name,
                       *Trace, Ms, WordSizes);
      if (!Word) {
        Out.Failed += 1;
        continue;
      }
      O.Word = std::move(*Word);
      Clock::time_point MEnd = Clock::now();
      MachineMs[I].push_back(msBetween(MStart, MEnd));
      Trace->span(M.Name, "machine", MStart, MEnd, 1);
    }
    Clock::time_point PassEnd = Clock::now();
    TracedWallMs.push_back(msBetween(PassStart, PassEnd));
    Trace->span("pass", "pass", PassStart, PassEnd, 2);
    Phases.push_back(Ms);
    Out.Attempted += kReductionsPerPass;
    ++Out.Passes;
    if (Out.Failed != FailedBefore) {
      Out.error("a traced reduction failed verification");
      continue;
    }
    checkPass(Pass);
    Generating = Pruned = ResourcesOut = UsagesOut = 0;
    for (const Outcome &O : Pass) {
      Generating += O.Generating;
      Pruned += O.Pruned;
      ResourcesOut += O.ResUses.numResources() + O.Word.numResources();
      UsagesOut += O.ResUses.totalUsages() + O.Word.totalUsages();
    }
  }

  auto medianOf = [&](double PhaseMs::*Field) {
    std::vector<double> V;
    for (const PhaseMs &P : Phases)
      V.push_back(P.*Field);
    return median(V);
  };
  Out.set("mdl.parse_ms", medianOf(&PhaseMs::Parse), "ms");
  Out.set("mdesc.expand_ms", medianOf(&PhaseMs::Expand), "ms");
  Out.set("flm.compute_ms", medianOf(&PhaseMs::Flm), "ms");
  Out.set("reduce.fold_ms", medianOf(&PhaseMs::Fold), "ms");
  Out.set("reduce.prune_ms", medianOf(&PhaseMs::Prune), "ms");
  Out.set("reduce.select_ms", medianOf(&PhaseMs::Select), "ms");
  Out.set("reduce.verify_ms", medianOf(&PhaseMs::Verify), "ms");
  for (size_t I = 0; I < kNumMachines; ++I)
    Out.set("reduce." + Machines[I].Name + "_ms", median(MachineMs[I]), "ms");
  Out.set("reduce.generating_set_size", Generating, "count");
  Out.set("reduce.pruned_set_size", Pruned, "count");
  Out.set("reduce.kept_ratio", static_cast<double>(Pruned) / Generating,
          "ratio");
  Out.set("reduce.resources_out", ResourcesOut, "count");
  Out.set("reduce.usages_out", UsagesOut, "count");
  Out.set("trace.overhead", median(TracedWallMs) / PassMs, "ratio");
  Out.set("fail_ratio", static_cast<double>(Out.Failed) / Out.Attempted,
          "ratio");
}
