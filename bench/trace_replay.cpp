//===- bench/trace_replay.cpp - Record / replay query-module traces -------===//
//
// Standalone driver for the verify/ trace machinery. Three modes:
//
//   trace_replay record <machine> [seed] [steps]        > out.trace
//     Fuzzes a discrete query module over the expanded machine (one linear
//     segment with a negative window floor, one modulo segment) and writes
//     the serialized trace to stdout.
//
//   trace_replay replay <machine> <discrete|bitvector> <original|reduced>
//                                                       < in.trace
//     Replays every trace segment against a fresh module of the chosen
//     representation/description pairing, comparing recorded answers, and
//     prints per-segment call counts, mismatches, work units, and wall
//     time. Exits nonzero on any mismatch: a mismatch means the pairing is
//     *not* equivalent to the recorded module.
//
//   trace_replay shadow <machine>                       < in.trace
//     Replays through a ShadowQueryModule pairing the discrete module over
//     the original description with the bitvector module over the reduced
//     one; any divergence aborts with a rendered occupancy diff.
//
// Traces recorded from a scheduler (the schedulers' QueryTrace hooks) use
// the same format, so a failing scheduling run can be re-examined here
// without re-running the scheduler.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "verify/QueryTrace.h"
#include "verify/ShadowQueryModule.h"
#include "verify/TraceFuzzer.h"

#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include "support/Stats.h"

using namespace rmd;

namespace {

MachineDescription machineByName(const std::string &Name) {
  Expected<MachineModel> Model = loadMachine(Name);
  if (!Model) {
    std::cerr << Model.status().message() << "\n";
    std::exit(2);
  }
  return Model.take().MD;
}

int usage() {
  std::cerr
      << "usage:\n"
         "  trace_replay record <machine> [seed] [steps]\n"
         "  trace_replay replay <machine> <discrete|bitvector> "
         "<original|reduced>\n"
         "  trace_replay shadow <machine>\n";
  return 2;
}

int runRecord(const std::string &MachineName, uint64_t Seed, int Steps) {
  MachineDescription MD = machineByName(MachineName);
  ExpandedMachine EM = expandAlternatives(MD);

  QueryTraceLog Log;
  for (QueryConfig Config :
       {QueryConfig::linear(-6), QueryConfig::modulo(11)}) {
    DiscreteQueryModule Module(EM.Flat, Config);
    TracingQueryModule Tracer(Module,
                              Log.beginSegment(MachineName, Config));
    FuzzOptions FO;
    FO.Seed = Seed;
    FO.Steps = Steps;
    FuzzStats Stats =
        fuzzQueryModule(Tracer, EM.Flat, EM.Groups, Config, FO);
    std::cerr << MachineName << " "
              << (Config.Mode == QueryConfig::Modulo ? "modulo" : "linear")
              << ": " << Stats.totalCalls() << " calls, "
              << Stats.Evictions << " evictions, " << Stats.Resets
              << " resets\n";
  }
  Log.serialize(std::cout);
  return 0;
}

int runReplay(const std::string &MachineName, const std::string &Repr,
              const std::string &Desc) {
  MachineDescription MD = machineByName(MachineName);
  ExpandedMachine EM = expandAlternatives(MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;
  const MachineDescription &Target =
      Desc == "reduced" ? Reduced : EM.Flat;
  bool Bitvector = Repr == "bitvector";

  QueryTraceLog Log;
  std::string Error;
  if (!QueryTraceLog::deserialize(std::cin, Log, &Error)) {
    std::cerr << "bad trace on stdin: " << Error << "\n";
    return 2;
  }

  uint64_t Mismatches = 0;
  for (size_t I = 0; I < Log.Segments.size(); ++I) {
    const QueryTrace &Segment = Log.Segments[I];
    // Operation ids in a trace are only meaningful against the machine it
    // was recorded on; a mismatched replay would die on a module assert.
    if (Segment.Machine != MachineName) {
      std::cerr << "segment " << I << " was recorded on '" << Segment.Machine
                << "', not '" << MachineName << "'\n";
      return 2;
    }
    std::unique_ptr<ContentionQueryModule> Module;
    if (Bitvector)
      Module.reset(new BitvectorQueryModule(Target, Segment.Config));
    else
      Module.reset(new DiscreteQueryModule(Target, Segment.Config));

    auto Start = std::chrono::steady_clock::now();
    ReplayResult RR = replayTrace(Segment, *Module);
    auto MicroSecs = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::steady_clock::now() - Start)
                         .count();

    std::cout << "segment " << I << " (" << Segment.Machine << ", "
              << (Segment.Config.Mode == QueryConfig::Modulo
                      ? "modulo II=" +
                            std::to_string(Segment.Config.ModuloII)
                      : "linear min=" +
                            std::to_string(Segment.Config.MinCycle))
              << "): " << RR.Calls << " calls, " << RR.AnswerMismatches
              << " mismatches, " << Module->counters().totalUnits()
              << " work units, " << MicroSecs << " us\n";
    Mismatches += RR.AnswerMismatches;
  }
  if (Mismatches) {
    std::cerr << "FAIL: " << Mismatches
              << " answer mismatches -- the " << Repr << "/" << Desc
              << " pairing is not equivalent to the recorded module\n";
    return 1;
  }
  std::cout << "OK: " << Log.totalRecords() << " records, " << Repr << "/"
            << Desc << " answered identically\n";
  return 0;
}

int runShadow(const std::string &MachineName) {
  MachineDescription MD = machineByName(MachineName);
  ExpandedMachine EM = expandAlternatives(MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  QueryTraceLog Log;
  std::string Error;
  if (!QueryTraceLog::deserialize(std::cin, Log, &Error)) {
    std::cerr << "bad trace on stdin: " << Error << "\n";
    return 2;
  }

  for (size_t I = 0; I < Log.Segments.size(); ++I) {
    const QueryTrace &Segment = Log.Segments[I];
    if (Segment.Machine != MachineName) {
      std::cerr << "segment " << I << " was recorded on '" << Segment.Machine
                << "', not '" << MachineName << "'\n";
      return 2;
    }
    ShadowOptions Options;
    Options.RefMD = &EM.Flat;
    Options.CandMD = &Reduced;
    Options.Config = Segment.Config;
    Options.RefLabel = "discrete-original";
    Options.CandLabel = "bitvector-reduced";
    ShadowQueryModule Shadow(
        std::make_unique<DiscreteQueryModule>(EM.Flat, Segment.Config),
        std::make_unique<BitvectorQueryModule>(Reduced, Segment.Config),
        Options); // default handler: divergence is fatal
    ReplayResult RR = replayTrace(Segment, Shadow);
    size_t EndState = Shadow.verifyEndState();
    std::cout << "segment " << I << ": " << RR.Calls
              << " calls in lockstep, end-state probe found " << EndState
              << " divergences\n";
  }
  std::cout << "OK: no divergences\n";
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  rmd::StatsJsonGuard StatsJson(argc, argv, "trace_replay");
  if (argc < 3)
    return usage();
  std::string Mode = argv[1];
  std::string Machine = argv[2];

  if (Mode == "record") {
    uint64_t Seed = argc > 3 ? std::stoull(argv[3]) : 1;
    int Steps = argc > 4 ? std::stoi(argv[4]) : 2000;
    return runRecord(Machine, Seed, Steps);
  }
  if (Mode == "replay") {
    if (argc < 5)
      return usage();
    std::string Repr = argv[3];
    std::string Desc = argv[4];
    if ((Repr != "discrete" && Repr != "bitvector") ||
        (Desc != "original" && Desc != "reduced"))
      return usage();
    return runReplay(Machine, Repr, Desc);
  }
  if (Mode == "shadow")
    return runShadow(Machine);
  return usage();
}
