//===- query/QueryModule.cpp ----------------------------------------------===//

#include "query/QueryModule.h"

#include "support/Stats.h"

using namespace rmd;

ContentionQueryModule::~ContentionQueryModule() {
  if (!PublishWorkToStats)
    return;
  // Publish the module's lifetime work into the registry so every
  // --stats-json snapshot carries the paper's Table 6 accounting. Done at
  // destruction (not per call) to keep the query hot path free of even a
  // relaxed atomic add.
  static StatCounter CheckCalls("query.check_calls");
  static StatCounter CheckUnits("query.check_units");
  static StatCounter AssignCalls("query.assign_calls");
  static StatCounter AssignUnits("query.assign_units");
  static StatCounter FreeCalls("query.free_calls");
  static StatCounter FreeUnits("query.free_units");
  static StatCounter AssignFreeCalls("query.assignfree_calls");
  static StatCounter AssignFreeUnits("query.assignfree_units");
  static StatCounter TransitionUnits("query.transition_units");
  WorkCounters Lifetime = RetiredWork;
  Lifetime.accumulate(Counters);
  auto Publish = [](const StatCounter &C, uint64_t V) {
    if (V)
      C.add(V);
  };
  Publish(CheckCalls, Lifetime.CheckCalls);
  Publish(CheckUnits, Lifetime.CheckUnits);
  Publish(AssignCalls, Lifetime.AssignCalls);
  Publish(AssignUnits, Lifetime.AssignUnits);
  Publish(FreeCalls, Lifetime.FreeCalls);
  Publish(FreeUnits, Lifetime.FreeUnits);
  Publish(AssignFreeCalls, Lifetime.AssignFreeCalls);
  Publish(AssignFreeUnits, Lifetime.AssignFreeUnits);
  Publish(TransitionUnits, Lifetime.TransitionUnits);
}

int ContentionQueryModule::checkWithAlternatives(
    const std::vector<OpId> &Alternatives, int Cycle) {
  for (size_t I = 0; I < Alternatives.size(); ++I)
    if (check(Alternatives[I], Cycle))
      return static_cast<int>(I);
  return -1;
}

int ContentionQueryModule::findSlot(const std::vector<OpId> &Alternatives,
                                    int From, int Count, int &Alt) {
  for (int I = 0; I < Count; ++I) {
    Alt = checkWithAlternatives(Alternatives, From + I);
    if (Alt >= 0)
      return From + I;
  }
  Alt = -1;
  return -1;
}
