//===- tests/FindSlotTest.cpp - findSlot vs the check-with-alt loop -------===//
//
// ContentionQueryModule::findSlot is the schedulers' window scan in one
// call. Concrete modules override it with a loop over their own inlined
// check(); wrappers inherit the base loop over checkWithAlternatives(). In
// every case it must answer exactly as the loop it replaced: the same
// (cycle, alternative), the same WorkCounters after every call, and the
// same trace records. Each case drives two identical modules with the same
// seeded traffic, one through findSlot and one through the loop, over
// discrete, bitvector (union check off and on), tracing and shadow modules,
// in linear and modulo mode, on three machines.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "support/RNG.h"
#include "verify/QueryTrace.h"
#include "verify/ShadowQueryModule.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <tuple>

using namespace rmd;

namespace {

enum class Kind {
  Discrete,
  BitvectorUnionOff,
  BitvectorUnionOn,
  Tracing,
  Shadow,
};

const char *kindName(Kind K) {
  switch (K) {
  case Kind::Discrete:
    return "discrete";
  case Kind::BitvectorUnionOff:
    return "bitvector";
  case Kind::BitvectorUnionOn:
    return "bitvector-union";
  case Kind::Tracing:
    return "tracing";
  case Kind::Shadow:
    return "shadow";
  }
  return "?";
}

/// One module under test plus whatever it wraps.
struct Rig {
  std::unique_ptr<ContentionQueryModule> Inner;
  QueryTrace Trace;
  std::unique_ptr<ContentionQueryModule> Module;

  Rig(Kind K, const MachineDescription &Flat, QueryConfig Config) {
    QueryConfig Union = Config;
    Union.UnionAlternativeCheck = true;
    switch (K) {
    case Kind::Discrete:
      Module = std::make_unique<DiscreteQueryModule>(Flat, Config);
      break;
    case Kind::BitvectorUnionOff:
      Module = std::make_unique<BitvectorQueryModule>(Flat, Config);
      break;
    case Kind::BitvectorUnionOn:
      Module = std::make_unique<BitvectorQueryModule>(Flat, Union);
      break;
    case Kind::Tracing:
      Inner = std::make_unique<BitvectorQueryModule>(Flat, Union);
      Module = std::make_unique<TracingQueryModule>(*Inner, Trace);
      break;
    case Kind::Shadow: {
      ShadowOptions Options;
      Options.Config = Config;
      Module = std::make_unique<ShadowQueryModule>(
          std::make_unique<DiscreteQueryModule>(Flat, Config),
          std::make_unique<BitvectorQueryModule>(Flat, Union), Options);
      break;
    }
    }
  }
};

std::string traceText(const QueryTrace &T) {
  std::ostringstream OS;
  T.serialize(OS);
  return OS.str();
}

void expectSameCounters(const WorkCounters &A, const WorkCounters &B,
                        const std::string &Where) {
  EXPECT_EQ(std::tie(A.CheckCalls, A.CheckUnits, A.AssignCalls, A.AssignUnits,
                     A.FreeCalls, A.FreeUnits, A.AssignFreeCalls,
                     A.AssignFreeUnits, A.TransitionUnits),
            std::tie(B.CheckCalls, B.CheckUnits, B.AssignCalls, B.AssignUnits,
                     B.FreeCalls, B.FreeUnits, B.AssignFreeCalls,
                     B.AssignFreeUnits, B.TransitionUnits))
      << Where;
}

/// Drives the findSlot side and the loop side in lockstep; returns the
/// number of windows that found a slot (so a sweep that never fits, or
/// always fits, shows up).
size_t sweep(Kind K, const ExpandedMachine &EM, QueryConfig Config,
             uint64_t Seed) {
  Rig Scan(K, EM.Flat, Config);
  Rig Loop(K, EM.Flat, Config);
  ContentionQueryModule &A = *Scan.Module;
  ContentionQueryModule &B = *Loop.Module;

  struct Placement {
    OpId Op;
    int Cycle;
    InstanceId Instance;
  };
  std::vector<Placement> Live;
  InstanceId Next = 0;
  size_t Found = 0;
  RNG R(Seed);
  for (int Step = 0; Step < 600 && !::testing::Test::HasFailure(); ++Step) {
    std::string Where = std::string(kindName(K)) + " step " +
                        std::to_string(Step);
    if (!Live.empty() && R.nextChance(1, 4)) {
      size_t Pick = R.nextBelow(Live.size());
      Placement P = Live[Pick];
      Live[Pick] = Live.back();
      Live.pop_back();
      A.free(P.Op, P.Cycle, P.Instance);
      B.free(P.Op, P.Cycle, P.Instance);
      continue;
    }
    const std::vector<OpId> &Alts = EM.Groups[R.nextBelow(EM.Groups.size())];
    int From = static_cast<int>(R.nextBelow(48));
    int Count = static_cast<int>(R.nextBelow(10)); // 0 is an empty window

    int AltA;
    int SlotA = A.findSlot(Alts, From, Count, AltA);
    int AltB = -1, SlotB = -1;
    for (int T = From; T < From + Count && AltB < 0; ++T) {
      AltB = B.checkWithAlternatives(Alts, T);
      if (AltB >= 0)
        SlotB = T;
    }
    EXPECT_EQ(AltA, AltB) << Where;
    if (AltA >= 0)
      EXPECT_EQ(SlotA, SlotB) << Where;
    else
      EXPECT_EQ(SlotA, -1) << Where;
    expectSameCounters(A.counters(), B.counters(), Where);
    if (AltA < 0 || AltA != AltB || SlotA != SlotB)
      continue;
    ++Found;
    Placement P{Alts[static_cast<size_t>(AltA)], SlotA, Next++};
    A.assign(P.Op, P.Cycle, P.Instance);
    B.assign(P.Op, P.Cycle, P.Instance);
    Live.push_back(P);
  }
  expectSameCounters(A.counters(), B.counters(), kindName(K));
  if (K == Kind::Tracing) {
    EXPECT_FALSE(Scan.Trace.Records.empty());
    EXPECT_EQ(traceText(Scan.Trace), traceText(Loop.Trace));
  }
  return Found;
}

class FindSlot : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(FindSlot, MatchesCheckWithAlternativesLoop) {
  MachineModel Model = loadMachine(GetParam()).take();
  ExpandedMachine EM = expandAlternatives(Model.MD);
  std::vector<QueryConfig> Configs = {QueryConfig::linear(),
                                      QueryConfig::modulo(3),
                                      QueryConfig::modulo(11)};
  uint64_t Seed = 1;
  for (const QueryConfig &Config : Configs)
    for (Kind K : {Kind::Discrete, Kind::BitvectorUnionOff,
                   Kind::BitvectorUnionOn, Kind::Tracing, Kind::Shadow}) {
      SCOPED_TRACE(std::string(kindName(K)) +
                   (Config.Mode == QueryConfig::Modulo
                        ? " modulo " + std::to_string(Config.ModuloII)
                        : " linear"));
      size_t Found = sweep(K, EM, Config, Seed++);
      EXPECT_GT(Found, 10u);
    }
}

INSTANTIATE_TEST_SUITE_P(Machines, FindSlot,
                         ::testing::Values("cydra5", "mips-r3000", "toy-vliw"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           std::string Name = I.param;
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });
