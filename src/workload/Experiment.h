//===- workload/Experiment.h - Scheduler experiment driver -----*- C++ -*-===//
///
/// \file
/// Runs the Iterative Modulo Scheduler over a loop corpus against one
/// query-module configuration and aggregates the quantities of Tables 5
/// and 6: schedule characteristics (ops, II, II/MII, decisions/op) and
/// per-function work units and call frequencies.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_WORKLOAD_EXPERIMENT_H
#define RMD_WORKLOAD_EXPERIMENT_H

#include "sched/IterativeModuloScheduler.h"
#include "support/OnlineStats.h"
#include "workload/Corpus.h"

#include <string>

namespace rmd {

/// One query-module configuration under test.
struct RepresentationSpec {
  enum KindType { Discrete, Bitvector } Kind = Discrete;
  unsigned WordBits = 64;
  /// Bitvector only: force k cycles per word (0 = maximal packing).
  unsigned CyclesPerWord = 0;
  /// Bitvector only: enable the union-mask check-with-alternatives fast
  /// path (changes call counts, not answers).
  bool UnionAlternativeCheck = false;
  /// The machine description the module is built over (original or
  /// reduced); must be expanded and FLM-equivalent to the machine the
  /// corpus was built for.
  const MachineDescription *FlatMD = nullptr;
  std::string Label;
};

/// Aggregated results of one corpus x representation run.
struct SchedulerExperimentResult {
  std::string Label;
  uint64_t Loops = 0;
  uint64_t Failed = 0;

  // Table 5 rows.
  OnlineStats OpsPerLoop;
  OnlineStats II;
  OnlineStats IIOverMII;
  /// Decisions / N, one sample per II attempt (the paper's averaging).
  OnlineStats DecisionsPerOp;
  /// Fraction of loops with no reversed decision = fraction of loops whose
  /// successful attempt used exactly N decisions and took one attempt.
  uint64_t LoopsWithNoReversal = 0;
  uint64_t AttemptsBudgetExceeded = 0;
  uint64_t TotalAttempts = 0;

  // Table 6 inputs.
  WorkCounters Counters;
  uint64_t AssignFreeCallsWithEviction = 0;
  uint64_t ReversalsByResource = 0;
  uint64_t ReversalsByDependence = 0;
  /// Histogram of check queries per scheduling decision (index = count,
  /// saturating at the last bucket).
  std::vector<uint64_t> CheckHistogram;

  double checksPerDecision() const {
    uint64_t Decisions = 0, Checks = 0;
    for (size_t I = 0; I < CheckHistogram.size(); ++I) {
      Decisions += CheckHistogram[I];
      Checks += CheckHistogram[I] * I;
    }
    return Decisions ? static_cast<double>(Checks) / Decisions : 0;
  }
};

/// Runs the IMS over \p Corpus with the query module described by \p Spec.
/// \p Model supplies the original machine (for ResMII) and \p Groups the
/// alternative mapping matching Spec.FlatMD's operation ids.
SchedulerExperimentResult
runSchedulerExperiment(const MachineModel &Model,
                       const std::vector<std::vector<OpId>> &Groups,
                       const RepresentationSpec &Spec,
                       const std::vector<DepGraph> &Corpus,
                       const ModuloScheduleOptions &Options = {});

/// Builds the module factory for \p Spec (exposed for tests and examples). A
/// bitvector factory and its copies share one PatternArenaCache.
std::function<std::unique_ptr<ContentionQueryModule>(QueryConfig)>
makeModuleFactory(const RepresentationSpec &Spec);

} // namespace rmd

#endif // RMD_WORKLOAD_EXPERIMENT_H
