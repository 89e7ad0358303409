//===- tests/DifferentialQueryTest.cpp - Lockstep differential harness ----===//
///
/// Exercises the verify/ subsystem: the ShadowQueryModule lockstep checker,
/// the QueryTrace recorder/replayer wired into all three schedulers, and
/// the seeded trace fuzzer. The positive direction fuzzes every machine
/// model in linear and modulo modes across representation and description
/// pairings and demands zero divergences (the paper's equivalence
/// guarantee); the negative direction plants a deliberately broken module
/// and demands it is caught with a rendered occupancy diff.
///
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/ListScheduler.h"
#include "sched/OperationDrivenScheduler.h"
#include "verify/QueryTrace.h"
#include "verify/ShadowQueryModule.h"
#include "verify/TraceFuzzer.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

using namespace rmd;

namespace {

/// The seven machine models of the test matrix.
std::vector<std::pair<std::string, MachineDescription>> allModels() {
  std::vector<std::pair<std::string, MachineDescription>> Models;
  for (const std::string &Name : machineNames())
    Models.emplace_back(Name, loadMachine(Name).take().MD);
  return Models;
}

/// A query module that consults a real discrete module but reports every
/// slot as free: the planted bug the shadow harness must catch.
class AlwaysFreeModule : public ContentionQueryModule {
public:
  AlwaysFreeModule(const MachineDescription &MD, QueryConfig Config)
      : Inner(MD, Config) {}

  bool check(OpId Op, int Cycle) override {
    Inner.check(Op, Cycle);
    return true; // the lie
  }
  void assign(OpId Op, int Cycle, InstanceId Instance) override {
    Inner.assign(Op, Cycle, Instance);
  }
  void free(OpId Op, int Cycle, InstanceId Instance) override {
    Inner.free(Op, Cycle, Instance);
  }
  void assignAndFree(OpId Op, int Cycle, InstanceId Instance,
                     std::vector<InstanceId> &Evicted) override {
    Inner.assignAndFree(Op, Cycle, Instance, Evicted);
  }
  void reset() override { Inner.reset(); }

private:
  DiscreteQueryModule Inner;
};

} // namespace

//===----------------------------------------------------------------------===//
// Fuzzed lockstep verification across all pairings
//===----------------------------------------------------------------------===//

/// One machine model per test instance, so failures name the machine.
class DifferentialFuzz : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialFuzz, AllPairingsAgreeUnderFuzzedTraffic) {
  auto [Name, MD] = allModels()[static_cast<size_t>(GetParam())];
  ExpandedMachine EM = expandAlternatives(MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  // Linear with a negative window floor (dangling-reservation boundary
  // conditions) and modulo (wrap-around addressing, negative cycles).
  std::vector<QueryConfig> Configs = {QueryConfig::linear(-6),
                                      QueryConfig::modulo(11)};
  struct Pairing {
    const char *Label;
    const MachineDescription *CandMD;
    bool CandBitvector;
  };
  const Pairing Pairings[] = {
      {"bitvector-original", &EM.Flat, true},
      {"discrete-reduced", &Reduced, false},
      {"bitvector-reduced", &Reduced, true},
  };

  uint64_t Seed = 1;
  for (QueryConfig Config : Configs) {
    // The union-mask fast path only changes bitvector internals; running
    // the whole matrix with it on differentially verifies its accounting
    // fix never changes answers.
    Config.UnionAlternativeCheck = true;
    for (const Pairing &P : Pairings) {
      ShadowOptions Options;
      Options.RefMD = &EM.Flat;
      Options.CandMD = P.CandMD;
      Options.Config = Config;
      Options.RefLabel = "discrete-original";
      Options.CandLabel = P.Label;
      std::string Reports;
      Options.OnDivergence = [&Reports](const std::string &Report) {
        Reports += Report + "\n";
      };

      auto Cand = P.CandBitvector
                      ? std::unique_ptr<ContentionQueryModule>(
                            new BitvectorQueryModule(*P.CandMD, Config))
                      : std::unique_ptr<ContentionQueryModule>(
                            new DiscreteQueryModule(*P.CandMD, Config));
      ShadowQueryModule Shadow(
          std::make_unique<DiscreteQueryModule>(EM.Flat, Config),
          std::move(Cand), Options);

      FuzzOptions FO;
      FO.Seed = Seed++;
      FO.Steps = 500;
      FuzzStats Stats =
          fuzzQueryModule(Shadow, EM.Flat, EM.Groups, Config, FO);

      EXPECT_GT(Stats.totalCalls(), 500u) << Name << " vs " << P.Label;
      EXPECT_GT(Stats.AssignFrees, 0u) << Name << " vs " << P.Label;
      EXPECT_EQ(Shadow.divergenceCount(), 0u)
          << Name << " vs " << P.Label << "\n" << Reports;
      EXPECT_EQ(Shadow.verifyEndState(), 0u)
          << Name << " vs " << P.Label << "\n" << Reports;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMachines, DifferentialFuzz,
                         ::testing::Range(0, 7));

//===----------------------------------------------------------------------===//
// The harness catches a planted bug
//===----------------------------------------------------------------------===//

TEST(ShadowQueryModule, CatchesBrokenModuleWithRenderedDiff) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  QueryConfig Config = QueryConfig::linear();

  ShadowOptions Options;
  Options.RefMD = &MD;
  Options.CandMD = &MD;
  Options.Config = Config;
  Options.RefLabel = "discrete";
  Options.CandLabel = "broken";
  std::vector<std::string> Reports;
  Options.OnDivergence = [&Reports](const std::string &Report) {
    Reports.push_back(Report);
  };

  ShadowQueryModule Shadow(
      std::make_unique<DiscreteQueryModule>(MD, Config),
      std::make_unique<AlwaysFreeModule>(MD, Config), Options);

  OpId A = MD.findOperation("A");
  EXPECT_TRUE(Shadow.check(A, 0)); // both agree on an empty table
  Shadow.assign(A, 0, 7);
  EXPECT_EQ(Shadow.divergenceCount(), 0u);

  // The reference sees the conflict, the broken module lies: caught, and
  // the reference's answer is what the caller observes.
  EXPECT_FALSE(Shadow.check(A, 0));
  ASSERT_EQ(Shadow.divergenceCount(), 1u);
  ASSERT_EQ(Reports.size(), 1u);
  const std::string &Report = Reports[0];
  EXPECT_NE(Report.find("query-module divergence"), std::string::npos);
  EXPECT_NE(Report.find("check(op="), std::string::npos);
  EXPECT_NE(Report.find("discrete=busy"), std::string::npos);
  EXPECT_NE(Report.find("broken=free"), std::string::npos);
  // The rendered diff names the live instance and shows both occupancy
  // tables rebuilt from it.
  EXPECT_NE(Report.find("live instances (1)"), std::string::npos);
  EXPECT_NE(Report.find("#7=A@0"), std::string::npos);
  EXPECT_NE(Report.find("check() disagreements"), std::string::npos);
  EXPECT_NE(Report.find("A@0: discrete=busy broken=free"),
            std::string::npos);
  EXPECT_NE(Report.find("expected occupancy"), std::string::npos);
  EXPECT_NE(Report.find("r0"), std::string::npos);

  // The end-state probe finds the same corruption.
  EXPECT_GT(Shadow.verifyEndState(), 0u);
}

TEST(ShadowQueryModuleDeathTest, DefaultHandlerIsFatal) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  QueryConfig Config = QueryConfig::linear();
  OpId A = MD.findOperation("A");
  EXPECT_DEATH(
      {
        ShadowOptions Options;
        Options.RefMD = &MD;
        Options.CandMD = &MD;
        Options.Config = Config;
        ShadowQueryModule Shadow(
            std::make_unique<DiscreteQueryModule>(MD, Config),
            std::make_unique<AlwaysFreeModule>(MD, Config), Options);
        Shadow.assign(A, 0, 1);
        Shadow.check(A, 0);
      },
      "divergence");
}

//===----------------------------------------------------------------------===//
// Trace recording, serialization, and standalone replay
//===----------------------------------------------------------------------===//

TEST(QueryTrace, ListSchedulerTraceReplaysAcrossAllPairings) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  // A block with enough pressure to produce interesting traffic, plus a
  // dangling predecessor reservation to exercise negative cycles.
  DepGraph G("block");
  std::vector<NodeId> Nodes;
  for (int I = 0; I < 8; ++I)
    Nodes.push_back(G.addNode(static_cast<OpId>(
        I % Toy.MD.numOperations())));
  for (int I = 0; I + 1 < 8; I += 2)
    G.addEdge(Nodes[static_cast<size_t>(I)],
              Nodes[static_cast<size_t>(I + 1)],
              Toy.Latency[G.opOf(Nodes[static_cast<size_t>(I)])]);

  QueryConfig Config = QueryConfig::linear(-8);
  std::vector<DanglingOp> Dangling = {{EM.Groups[0][0], -2}};

  QueryTrace Trace;
  Trace.Machine = EM.Flat.name();
  Trace.Config = Config;
  DiscreteQueryModule Module(EM.Flat, Config);
  ListScheduleResult Result =
      listSchedule(G, EM.Groups, Module, Dangling, &Trace);
  ASSERT_TRUE(Result.Success);
  ASSERT_FALSE(Trace.Records.empty());
  // Seeding is recorded too: the first record is the dangling assign.
  EXPECT_EQ(Trace.Records.front().Call, QueryTraceRecord::Assign);
  EXPECT_EQ(Trace.Records.front().Cycle, -2);

  // Tracing is transparent: an untraced run schedules identically.
  DiscreteQueryModule Plain(EM.Flat, Config);
  ListScheduleResult Untraced = listSchedule(G, EM.Groups, Plain, Dangling);
  EXPECT_EQ(Untraced.Time, Result.Time);
  EXPECT_EQ(Untraced.Alternative, Result.Alternative);

  // The recorded stream replays with zero mismatches against every other
  // representation/description pairing.
  struct Target {
    const char *Label;
    std::unique_ptr<ContentionQueryModule> Module;
  };
  Target Targets[] = {
      {"bitvector-original",
       std::make_unique<BitvectorQueryModule>(EM.Flat, Config)},
      {"discrete-reduced",
       std::make_unique<DiscreteQueryModule>(Reduced, Config)},
      {"bitvector-reduced",
       std::make_unique<BitvectorQueryModule>(Reduced, Config)},
  };
  for (Target &T : Targets) {
    ReplayResult RR = replayTrace(Trace, *T.Module);
    EXPECT_EQ(RR.Calls, Trace.Records.size()) << T.Label;
    EXPECT_EQ(RR.AnswerMismatches, 0u) << T.Label;
  }
}

TEST(QueryTrace, SerializationRoundTrip) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  QueryConfig Config = QueryConfig::modulo(6);

  // Mint a trace by fuzzing a traced discrete module.
  QueryTraceLog Log;
  QueryTrace &Trace = Log.beginSegment("toy-vliw", Config);
  DiscreteQueryModule Inner(EM.Flat, Config);
  TracingQueryModule Tracer(Inner, Trace);
  FuzzOptions FO;
  FO.Seed = 7;
  FO.Steps = 200;
  fuzzQueryModule(Tracer, EM.Flat, EM.Groups, Config, FO);
  ASSERT_FALSE(Trace.Records.empty());

  std::ostringstream OS;
  Log.serialize(OS);

  QueryTraceLog Parsed;
  std::string Error;
  std::istringstream IS(OS.str());
  ASSERT_TRUE(QueryTraceLog::deserialize(IS, Parsed, &Error)) << Error;
  ASSERT_EQ(Parsed.Segments.size(), 1u);
  EXPECT_EQ(Parsed.Segments[0].Machine, "toy-vliw");
  EXPECT_EQ(Parsed.Segments[0].Config.Mode, QueryConfig::Modulo);
  EXPECT_EQ(Parsed.Segments[0].Config.ModuloII, 6);
  EXPECT_EQ(Parsed.totalRecords(), Log.totalRecords());

  // Byte-identical re-serialization: the format loses nothing it needs.
  std::ostringstream OS2;
  Parsed.serialize(OS2);
  EXPECT_EQ(OS.str(), OS2.str());

  // The parsed trace replays cleanly against a fresh module of the other
  // representation.
  BitvectorQueryModule Fresh(EM.Flat, Config);
  ReplayResult RR = replayTrace(Parsed.Segments[0], Fresh);
  EXPECT_EQ(RR.AnswerMismatches, 0u);
}

TEST(QueryTrace, DeserializeRejectsMalformedInput) {
  QueryTraceLog Out;
  std::string Error;

  std::istringstream NoSegment("c 0 0 1\n");
  EXPECT_FALSE(QueryTraceLog::deserialize(NoSegment, Out, &Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos);
  EXPECT_NE(Error.find("before any segment"), std::string::npos);

  std::istringstream Unterminated("segment m linear 0\nc 0 0 1\n");
  EXPECT_FALSE(QueryTraceLog::deserialize(Unterminated, Out, &Error));
  EXPECT_NE(Error.find("unterminated"), std::string::npos);

  std::istringstream BadTag("segment m linear 0\nz 1 2 3\nend\n");
  EXPECT_FALSE(QueryTraceLog::deserialize(BadTag, Out, &Error));
  EXPECT_NE(Error.find("unknown record tag"), std::string::npos);

  std::istringstream BadII("segment m modulo 0\nend\n");
  EXPECT_FALSE(QueryTraceLog::deserialize(BadII, Out, &Error));
  EXPECT_NE(Error.find("positive II"), std::string::npos);

  // Comments and blank lines are fine.
  std::istringstream Commented(
      "# a trace\n\nsegment m linear -4\nc 0 -1 1\nend\n");
  EXPECT_TRUE(QueryTraceLog::deserialize(Commented, Out, &Error)) << Error;
  ASSERT_EQ(Out.Segments.size(), 1u);
  EXPECT_EQ(Out.Segments[0].Config.MinCycle, -4);
  ASSERT_EQ(Out.Segments[0].Records.size(), 1u);
  EXPECT_EQ(Out.Segments[0].Records[0].Cycle, -1);
}

TEST(QueryTrace, ModuloSchedulerEmitsOneSegmentPerAttempt) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  // A software-pipelinable loop with a recurrence.
  DepGraph G("loop");
  NodeId A = G.addNode(0);
  NodeId B = G.addNode(1 % Toy.MD.numOperations());
  NodeId C = G.addNode(2 % Toy.MD.numOperations());
  G.addEdge(A, B, Toy.Latency[G.opOf(A)]);
  G.addEdge(B, C, Toy.Latency[G.opOf(B)]);
  G.addEdge(C, A, 1, /*Distance=*/1);

  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&EM](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, C));
  };

  ModuloScheduleOptions Options;
  QueryTraceLog Log;
  Options.TraceLog = &Log;
  ModuloScheduleResult Result = moduloSchedule(G, Toy.MD, Env, Options);
  ASSERT_TRUE(Result.Success);
  ASSERT_GE(Log.Segments.size(), 1u);
  // Attempts that died in the modulo-self-conflict prefilter build no
  // module, hence record no segment.
  EXPECT_LE(Log.Segments.size(), Result.Stats.DecisionsPerAttempt.size());
  EXPECT_EQ(Log.Segments.back().Config.ModuloII, Result.II);
  EXPECT_EQ(Log.Segments.back().Machine, EM.Flat.name());

  // Tracing does not perturb scheduling.
  ModuloScheduleResult Untraced = moduloSchedule(G, Toy.MD, Env, {});
  EXPECT_EQ(Untraced.II, Result.II);
  EXPECT_EQ(Untraced.Time, Result.Time);
  EXPECT_EQ(Untraced.Counters.totalUnits(), Result.Counters.totalUnits());

  // Every attempt's stream replays cleanly against the reduced bitvector
  // module at that attempt's II.
  for (const QueryTrace &Segment : Log.Segments) {
    BitvectorQueryModule Fresh(Reduced, Segment.Config);
    ReplayResult RR = replayTrace(Segment, Fresh);
    EXPECT_EQ(RR.AnswerMismatches, 0u)
        << "II=" << Segment.Config.ModuloII;
  }
}

TEST(QueryTrace, OperationDrivenSchedulerTraceReplays) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  DepGraph G("block");
  std::vector<NodeId> Nodes;
  for (int I = 0; I < 6; ++I)
    Nodes.push_back(
        G.addNode(static_cast<OpId>(I % Toy.MD.numOperations())));
  G.addEdge(Nodes[0], Nodes[2], Toy.Latency[G.opOf(Nodes[0])]);
  G.addEdge(Nodes[1], Nodes[3], Toy.Latency[G.opOf(Nodes[1])]);
  G.addEdge(Nodes[2], Nodes[5], Toy.Latency[G.opOf(Nodes[2])]);

  QueryConfig Config = QueryConfig::linear(-8);
  std::vector<DanglingOp> Dangling = {{EM.Groups[0][0], -1}};

  QueryTrace Trace;
  Trace.Machine = EM.Flat.name();
  Trace.Config = Config;
  DiscreteQueryModule Module(EM.Flat, Config);
  OperationDrivenResult Result = operationDrivenSchedule(
      G, EM.Groups, EM.Flat, Module, Dangling, {}, &Trace);
  ASSERT_TRUE(Result.Success);
  ASSERT_FALSE(Trace.Records.empty());

  BitvectorQueryModule Fresh(Reduced, Config);
  ReplayResult RR = replayTrace(Trace, Fresh);
  EXPECT_EQ(RR.Calls, Trace.Records.size());
  EXPECT_EQ(RR.AnswerMismatches, 0u);
}

//===----------------------------------------------------------------------===//
// Fuzzer coverage properties
//===----------------------------------------------------------------------===//

TEST(TraceFuzzer, IsDeterministicAndCoversAllCallKinds) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  QueryConfig Config = QueryConfig::modulo(7);

  FuzzOptions FO;
  FO.Seed = 42;
  FO.Steps = 1500;

  QueryTraceLog LogA, LogB;
  {
    DiscreteQueryModule M(EM.Flat, Config);
    TracingQueryModule T(M, LogA.beginSegment("toy", Config));
    FuzzStats Stats = fuzzQueryModule(T, EM.Flat, EM.Groups, Config, FO);
    EXPECT_GT(Stats.Checks, 0u);
    EXPECT_GT(Stats.CheckAlternatives, 0u);
    EXPECT_GT(Stats.Assigns, 0u);
    EXPECT_GT(Stats.Frees, 0u);
    EXPECT_GT(Stats.AssignFrees, 0u);
    EXPECT_GT(Stats.Evictions, 0u);
    EXPECT_GT(Stats.Storms, 0u);
    EXPECT_GT(Stats.Resets, 0u);
  }
  {
    DiscreteQueryModule M(EM.Flat, Config);
    TracingQueryModule T(M, LogB.beginSegment("toy", Config));
    fuzzQueryModule(T, EM.Flat, EM.Groups, Config, FO);
  }

  // Same seed, same machine, same config: byte-identical call streams.
  std::ostringstream SA, SB;
  LogA.serialize(SA);
  LogB.serialize(SB);
  EXPECT_EQ(SA.str(), SB.str());
}
