//===- perfbench/cpp/ImsCorpus.cpp - Whole-corpus modulo scheduling -------===//
//
// Workload `ims-corpus`: the 1,327-loop Cydra 5 corpus (buildCorpus with
// CorpusParams defaults, budget 6N) scheduled by moduloSchedule against
// three query configurations:
//
//   orig      - the original description, discrete representation;
//   discrete  - the res-uses reduction, discrete representation;
//   bitvector - the maximal-k word reduction, bitvector representation.
//
// A round runs one corpus pass per configuration, rotating which goes
// first, so host drift between processes hits all three alike. The
// reductions and the corpus are set-up. Every pass must give every loop the
// same II, issue times and alternatives as the first pass of the run.
//
// --seed permutes the order in which a pass visits the loops; the corpus
// itself comes from --corpus-seed (default: CorpusParams' own 0x1327).
// Drawing the corpus from --seed would change the work per pass by up to
// a third between seeds (check calls ranged 624k-840k over seeds 1-8),
// far beyond any useful regression bound.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "QueryProbe.h"
#include "Trace.h"

#include "machines/MdlModel.h"
#include "reduce/Metrics.h"
#include "reduce/Reduction.h"
#include "support/Diagnostics.h"
#include "workload/Corpus.h"
#include "workload/Experiment.h"

#include <array>
#include <numeric>
#include <optional>
#include <stdexcept>

using namespace rmd;
using namespace rmdbench;

namespace {

constexpr size_t kConfigs = 3;
constexpr std::array<const char *, kConfigs> kConfigNames = {
    "orig", "discrete", "bitvector"};
constexpr size_t kBitvector = 2;

/// Exact corpus totals for corpus seeds whose counts are recorded; 7919
/// is the held-out corpus for checking a later claim. Call counts
/// are the same for every configuration; work units are per
/// configuration.
struct RecordedCorpus {
  uint64_t Seed;
  uint64_t IISum;
  uint64_t Attempts;
  uint64_t Decisions;
  uint64_t CheckCalls, AssignCalls, FreeCalls, AssignFreeCalls;
  std::array<uint64_t, kConfigs> CheckUnits, AssignFreeUnits, FreeUnits,
      AssignUnits;
};

constexpr RecordedCorpus kRecorded[] = {
    {4903, 9494, 1541, 71494, 626525, 0,
     22270, 71494, {1379854, 881891, 670567},
     {631274, 225549, 215979}, {131560, 38142, 25561}, {0, 0, 0}},
    {7919, 9571, 1531, 67493, 591612, 0,
     19729, 67493, {1414793, 948869, 642301},
     {607529, 217834, 207092}, {117257, 33746, 22828}, {0, 0, 0}},
};

const RecordedCorpus *recordedFor(uint64_t Seed) {
  for (const RecordedCorpus &R : kRecorded)
    if (R.Seed == Seed)
      return &R;
  return nullptr;
}

struct LoopOutcome {
  int II = 0;
  std::vector<int> Time;
  std::vector<int> Alternative;
};

/// What one pass over the corpus produced.
struct PassOutcome {
  std::vector<LoopOutcome> Loops;
  WorkCounters Counters;
  uint64_t Scheduled = 0;
  uint64_t IISum = 0;
  uint64_t Attempts = 0;
  uint64_t Decisions = 0;
  double WallMs = 0;
  double CpuMs = 0;
  /// Sum of the per-loop moduloSchedule times (traced passes only).
  double ImsMs = 0;
};

struct SetUp {
  MachineModel Model;
  ExpandedMachine EM;
  MachineDescription ResUses;
  MachineDescription Word;
  unsigned K = 0;
  std::vector<DepGraph> Corpus;
  double CorpusBuildMs = 0;
  /// The order a pass visits the loops in, drawn from --seed.
  std::vector<size_t> Order;
};

void setUp(const RunOptions &Opts, SetUp &S) {
  DiagnosticEngine Diags;
  std::optional<MachineModel> Model =
      parseMdlModel(readFile(Opts.MachinesDir + "/cydra5.mdl"), Diags);
  if (!Model)
    throw std::runtime_error("cannot parse cydra5.mdl");
  S.Model = std::move(*Model);
  S.EM = expandAlternatives(S.Model.MD);
  Expected<ReductionResult> Res = reduceMachineChecked(S.EM.Flat);
  if (!Res)
    throw std::runtime_error("res-uses reduction failed: " +
                             Res.status().render());
  S.ResUses = std::move(Res.value().Reduced);
  S.K = cyclesPerWord(std::max<size_t>(S.ResUses.numResources(), 1), 64);
  ReductionOptions WordOptions;
  WordOptions.Objective = SelectionObjective::wordUses(S.K);
  Expected<ReductionResult> Word = reduceMachineChecked(S.EM.Flat, WordOptions);
  if (!Word)
    throw std::runtime_error("word reduction failed: " +
                             Word.status().render());
  S.Word = std::move(Word.value().Reduced);

  CorpusParams Params;
  Params.Seed = Opts.CorpusSeed;
  Clock::time_point Start = Clock::now();
  S.Corpus = buildCorpus(S.Model, Params);
  S.CorpusBuildMs = msBetween(Start, Clock::now());

  S.Order.resize(S.Corpus.size());
  std::iota(S.Order.begin(), S.Order.end(), 0);
  uint64_t State = Opts.Seed;
  for (size_t I = S.Order.size() - 1; I > 0; --I)
    std::swap(S.Order[I], S.Order[splitmix64(State) % (I + 1)]);
}

RepresentationSpec specFor(size_t Config, const SetUp &S) {
  RepresentationSpec Spec;
  Spec.Label = kConfigNames[Config];
  if (Config == 0) {
    Spec.FlatMD = &S.EM.Flat;
  } else if (Config == 1) {
    Spec.FlatMD = &S.ResUses;
  } else {
    Spec.Kind = RepresentationSpec::Bitvector;
    Spec.WordBits = 64;
    Spec.CyclesPerWord = S.K;
    Spec.FlatMD = &S.Word;
  }
  return Spec;
}

/// Schedules the whole corpus once against \p Env.
PassOutcome runPass(const SetUp &S, const QueryEnvironment &Env,
                    TraceRecorder *Trace, const char *ConfigName) {
  PassOutcome P;
  P.Loops.resize(S.Corpus.size());
  ModuloScheduleOptions Options; // BudgetRatio 6
  double Cpu0 = threadCpuSeconds();
  Clock::time_point Start = Clock::now();
  for (size_t I : S.Order) {
    Clock::time_point LoopStart = Trace ? Clock::now() : Clock::time_point();
    ModuloScheduleResult R =
        moduloSchedule(S.Corpus[I], S.Model.MD, Env, Options);
    if (Trace) {
      Clock::time_point LoopEnd = Clock::now();
      P.ImsMs += msBetween(LoopStart, LoopEnd);
      Trace->span("moduloSchedule", "sched", LoopStart, LoopEnd, 0,
                  "\"config\": \"" + std::string(ConfigName) +
                      "\", \"loop\": " + std::to_string(I) +
                      ", \"ii\": " + std::to_string(R.II));
    }
    P.Counters.accumulate(R.Counters);
    P.Attempts += R.Stats.DecisionsPerAttempt.size();
    P.Decisions += R.Stats.totalDecisions();
    if (R.Success) {
      ++P.Scheduled;
      P.IISum += static_cast<uint64_t>(R.II);
    }
    P.Loops[I] = LoopOutcome{R.Success ? R.II : -1, std::move(R.Time),
                             std::move(R.Alternative)};
  }
  P.WallMs = msBetween(Start, Clock::now());
  P.CpuMs = (threadCpuSeconds() - Cpu0) * 1e3;
  return P;
}

bool sameSchedules(const PassOutcome &A, const PassOutcome &B) {
  if (A.Loops.size() != B.Loops.size())
    return false;
  for (size_t I = 0; I < A.Loops.size(); ++I)
    if (A.Loops[I].II != B.Loops[I].II || A.Loops[I].Time != B.Loops[I].Time ||
        A.Loops[I].Alternative != B.Loops[I].Alternative)
      return false;
  return true;
}

bool sameCounters(const WorkCounters &A, const WorkCounters &B) {
  return A.CheckCalls == B.CheckCalls && A.CheckUnits == B.CheckUnits &&
         A.AssignCalls == B.AssignCalls && A.AssignUnits == B.AssignUnits &&
         A.FreeCalls == B.FreeCalls && A.FreeUnits == B.FreeUnits &&
         A.AssignFreeCalls == B.AssignFreeCalls &&
         A.AssignFreeUnits == B.AssignFreeUnits;
}

} // namespace

void rmdbench::runImsCorpus(const RunOptions &Opts, Report &Out,
                            TraceRecorder *Trace) {
  SetUp S;
  std::vector<double> CorpusBuildMs;
  Out.calibrate();
  double SetUpS = timedSetUps(3, [&] {
    setUp(Opts, S);
    CorpusBuildMs.push_back(S.CorpusBuildMs);
  });
  Out.calibrate();
  const size_t N = S.Corpus.size();

  // Plain environments (the library's own factories) and, for traced or
  // delayed runs, probed ones wrapping the same factories.
  std::array<QueryEnvironment, kConfigs> Plain, Probed;
  std::array<QueryProbe, kConfigs> Probes;
  for (size_t C = 0; C < kConfigs; ++C) {
    RepresentationSpec Spec = specFor(C, S);
    Plain[C] = QueryEnvironment{Spec.FlatMD, &S.EM.Groups,
                                makeModuleFactory(Spec)};
    Probes[C].Label = kConfigNames[C];
    Probes[C].CheckDelayNs = Opts.CheckDelayNs;
    Probed[C] = Plain[C];
    Probed[C].MakeModule = probedFactory(Plain[C].MakeModule, Probes[C]);
  }

  // Reference outcomes: the first pass of the run for schedules, the first
  // pass of each configuration for its work counters.
  std::optional<PassOutcome> Reference;
  std::array<std::optional<WorkCounters>, kConfigs> ReferenceCounters;
  auto check = [&](size_t C, PassOutcome &P) {
    Out.Attempted += N;
    Out.Failed += N - P.Scheduled;
    ++Out.Passes;
    if (P.Scheduled != N)
      Out.error(std::string(kConfigNames[C]) + ": " +
                std::to_string(P.Scheduled) + "/" + std::to_string(N) +
                " loops scheduled");
    if (!ReferenceCounters[C])
      ReferenceCounters[C] = P.Counters;
    else if (!sameCounters(*ReferenceCounters[C], P.Counters))
      Out.error(std::string(kConfigNames[C]) +
                ": work counters changed between passes");
    if (!Reference) {
      Reference = std::move(P);
      return;
    }
    if (!sameSchedules(*Reference, P) || P.IISum != Reference->IISum ||
        P.Attempts != Reference->Attempts ||
        P.Decisions != Reference->Decisions)
      Out.error(std::string(kConfigNames[C]) +
                ": schedules differ from the reference pass");
    if (P.Counters.totalCalls() != Reference->Counters.totalCalls())
      Out.error(std::string(kConfigNames[C]) +
                ": query call counts differ between configurations");
  };

  // Per configuration: wall and CPU time of the untraced passes, wall
  // time of the traced ones.
  std::array<std::vector<double>, kConfigs> WallMs, CpuMs, TracedWallMs;
  std::vector<double> SpeedupVsOrig;
  auto rounds = [&](double Seconds, bool Traced) {
    Clock::time_point Start = Clock::now();
    for (size_t Round = 0;
         Round < 3 || secondsSince(Start) < Seconds; ++Round) {
      std::array<double, kConfigs> RoundMs{};
      if (!Traced)
        Out.calibrate();
      for (size_t J = 0; J < kConfigs; ++J) {
        size_t C = (Round + J) % kConfigs;
        bool UseProbe = Traced || Opts.CheckDelayNs > 0;
        const QueryEnvironment &Env = UseProbe ? Probed[C] : Plain[C];
        Clock::time_point PassStart = Clock::now();
        PassOutcome P = runPass(S, Env, Traced ? Trace : nullptr,
                                kConfigNames[C]);
        if (Traced) {
          Probes[C].ImsMs += P.ImsMs;
          Probes[C].PassWallMs += P.WallMs;
          ++Probes[C].Passes;
          Trace->span(std::string("pass ") + kConfigNames[C], "pass",
                      PassStart, Clock::now(), 1, Probes[C].argsJson());
        }
        (Traced ? TracedWallMs : WallMs)[C].push_back(P.WallMs);
        CpuMs[C].push_back(P.CpuMs);
        RoundMs[C] = P.WallMs;
        check(C, P);
      }
      if (!Traced)
        SpeedupVsOrig.push_back(RoundMs[0] / RoundMs[kBitvector]);
    }
  };

  const double UntracedSeconds = Trace ? Opts.Seconds / 2 : Opts.Seconds;
  rounds(UntracedSeconds, false);

  // Exact gates for seeds whose counts are recorded.
  const PassOutcome &Ref = *Reference;
  if (const RecordedCorpus *R = recordedFor(Opts.CorpusSeed)) {
    Out.expectEq("ii_sum", Ref.IISum, R->IISum);
    Out.expectEq("ii attempts", Ref.Attempts, R->Attempts);
    Out.expectEq("decisions", Ref.Decisions, R->Decisions);
    for (size_t C = 0; C < kConfigs; ++C) {
      const WorkCounters &W = *ReferenceCounters[C];
      std::string L = std::string(kConfigNames[C]) + " ";
      Out.expectEq(L + "check calls", W.CheckCalls, R->CheckCalls);
      Out.expectEq(L + "assign calls", W.AssignCalls, R->AssignCalls);
      Out.expectEq(L + "free calls", W.FreeCalls, R->FreeCalls);
      Out.expectEq(L + "assign&free calls", W.AssignFreeCalls,
                   R->AssignFreeCalls);
      Out.expectEq(L + "check units", W.CheckUnits, R->CheckUnits[C]);
      Out.expectEq(L + "assign units", W.AssignUnits, R->AssignUnits[C]);
      Out.expectEq(L + "free units", W.FreeUnits, R->FreeUnits[C]);
      Out.expectEq(L + "assign&free units", W.AssignFreeUnits,
                   R->AssignFreeUnits[C]);
    }
  }

  std::array<double, kConfigs> PassMs;
  for (size_t C = 0; C < kConfigs; ++C)
    PassMs[C] = median(WallMs[C]);
  auto loopsPerS = [&](size_t C) { return N / (PassMs[C] / 1e3); };
  double FailRatio = static_cast<double>(Out.Failed) / Out.Attempted;
  std::string Passes = "median of " + std::to_string(WallMs[0].size()) +
                       " passes of " + std::to_string(N) + " loops";
  Out.line("ims_loops_per_s", loopsPerS(kBitvector), "1/s",
           "word" + std::to_string(S.K) + " bitvector, " + Passes);
  Out.line("ims_discrete_loops_per_s", loopsPerS(1), "1/s",
           "res-uses discrete");
  Out.line("ims_orig_loops_per_s", loopsPerS(0), "1/s", "original discrete");
  Out.line("ims.speedup_vs_original", median(SpeedupVsOrig), "x",
           "orig pass time / bitvector pass time, same round");
  Out.line("fail_ratio", FailRatio, "");
  Out.line("loops_scheduled", static_cast<double>(Ref.Scheduled), "",
           "of " + std::to_string(N));
  Out.line("sched.ii_sum", static_cast<double>(Ref.IISum), "");
  for (size_t C = 0; C < kConfigs; ++C)
    Out.line(std::string("query.") + kConfigNames[C] + ".check_calls",
             static_cast<double>(ReferenceCounters[C]->CheckCalls), "",
             "per pass");
  Out.line("setup_s", SetUpS, "s", "median of 3 set-ups");

  double RoundCpuS =
      (median(CpuMs[0]) + median(CpuMs[1]) + median(CpuMs[2])) / 1e3;
  Out.endToEnd(SetUpS, PassMs[kBitvector], median(CpuMs[kBitvector]),
               kConfigs * N / RoundCpuS);
  if (!Trace)
    return;

  for (size_t C = 0; C < kConfigs; ++C) {
    QueryProbe Fresh; // drop what untraced delayed rounds accumulated
    Fresh.Timed = true;
    Fresh.Trace = Trace;
    Fresh.Label = kConfigNames[C];
    Fresh.CheckDelayNs = Opts.CheckDelayNs;
    Probes[C] = Fresh;
  }
  rounds(Opts.Seconds - UntracedSeconds, true);

  for (size_t C = 0; C < kConfigs; ++C) {
    const QueryProbe &P = Probes[C];
    std::string Q = std::string("query.") + kConfigNames[C] + ".";
    double Passes = static_cast<double>(P.Passes);
    P.publish(Out, Q);
    Out.set(Q + "share", P.queryMs() / P.ImsMs, "ratio");
    Out.set(Q + "build_ms", P.BuildMs / Passes, "ms");
    Out.set(Q + "builds", static_cast<double>(P.Builds) / Passes, "count");
    double SelfMs = (P.ImsMs - P.queryMs() - P.BuildMs) / Passes;
    Out.set(std::string("sched.") + kConfigNames[C] + ".self_ms", SelfMs,
            "ms");
    Out.set(std::string("ims.") + kConfigNames[C] + "_loops_per_s",
            loopsPerS(C), "1/s");
    Out.line(std::string("ims.") + kConfigNames[C] + ".traced_coverage",
             P.ImsMs / P.PassWallMs, "",
             "moduloSchedule spans / traced pass wall time");
  }
  Out.set("ims.speedup_vs_original", median(SpeedupVsOrig), "x");
  Out.set("sched.ii_attempts", static_cast<double>(Ref.Attempts), "count");
  Out.set("sched.decisions", static_cast<double>(Ref.Decisions), "count");
  Out.set("sched.ii_sum", static_cast<double>(Ref.IISum), "count");
  Out.set("workload.corpus_build_ms", median(CorpusBuildMs), "ms");
  Out.set("trace.overhead",
          median(TracedWallMs[kBitvector]) / PassMs[kBitvector], "ratio");
  Out.set("fail_ratio", static_cast<double>(Out.Failed) / Out.Attempted,
          "ratio");
}
