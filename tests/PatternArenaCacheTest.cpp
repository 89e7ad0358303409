//===- tests/PatternArenaCacheTest.cpp - One arena per addressing config --===//
//
// The scheduler's module factory (makeModuleFactory) asks PatternArenaCache
// for each module's arena, so an II's arena is built on its first attempt
// and shared by every later attempt at that II. Arenas are immutable, so
// sharing must not change one answer: the IMS over the Cydra 5 corpus runs
// through the caching factory and through a factory that builds a private
// arena per attempt, and every schedule and every WorkCounters field must
// match — at k = 1, 2 and 4 word reductions and with the union
// check-with-alternatives path on. The cache's counters must show one
// build per distinct II, and its key must hold every field
// BitvectorPatternArena::compatibleWith() reads.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "reduce/Reduction.h"
#include "support/Stats.h"
#include "workload/Experiment.h"

#include <gtest/gtest.h>

#include <set>

using namespace rmd;

namespace {

using ModuleFactory =
    std::function<std::unique_ptr<ContentionQueryModule>(QueryConfig)>;

/// The Cydra 5, its word reductions at k = 1, 2, 4 and the default corpus,
/// built once for the suite.
struct CydraSetUp {
  MachineModel Model = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Model.MD);
  std::vector<unsigned> Ks{1, 2, 4};
  std::vector<MachineDescription> WordReductions;
  std::vector<DepGraph> Corpus = buildCorpus(Model);

  CydraSetUp() {
    for (unsigned K : Ks) {
      ReductionOptions Options;
      Options.Objective = SelectionObjective::wordUses(K);
      WordReductions.push_back(reduceMachine(EM.Flat, Options).Reduced);
    }
  }
};

const CydraSetUp &cydra() {
  static const CydraSetUp S;
  return S;
}

RepresentationSpec wordSpec(size_t I, bool Union) {
  RepresentationSpec Spec;
  Spec.Kind = RepresentationSpec::Bitvector;
  Spec.CyclesPerWord = cydra().Ks[I];
  Spec.UnionAlternativeCheck = Union;
  Spec.FlatMD = &cydra().WordReductions[I];
  Spec.Label = std::to_string(cydra().Ks[I]) + "-cycle-word";
  return Spec;
}

/// The uncached reference: a private arena built on every attempt.
ModuleFactory freshArenaFactory(const RepresentationSpec &Spec) {
  return [Spec](QueryConfig Config) -> std::unique_ptr<ContentionQueryModule> {
    Config.WordBits = Spec.WordBits;
    Config.CyclesPerWordOverride = Spec.CyclesPerWord;
    Config.UnionAlternativeCheck = Spec.UnionAlternativeCheck;
    return std::make_unique<BitvectorQueryModule>(*Spec.FlatMD, Config);
  };
}

std::vector<ModuloScheduleResult> scheduleCorpus(const RepresentationSpec &Spec,
                                                 ModuleFactory Factory) {
  QueryEnvironment Env{Spec.FlatMD, &cydra().EM.Groups, std::move(Factory)};
  std::vector<ModuloScheduleResult> Results;
  for (const DepGraph &G : cydra().Corpus)
    Results.push_back(moduloSchedule(G, cydra().Model.MD, Env));
  return Results;
}

void expectSameCounters(const WorkCounters &A, const WorkCounters &B,
                        const std::string &Where) {
  EXPECT_EQ(A.CheckCalls, B.CheckCalls) << Where;
  EXPECT_EQ(A.CheckUnits, B.CheckUnits) << Where;
  EXPECT_EQ(A.AssignCalls, B.AssignCalls) << Where;
  EXPECT_EQ(A.AssignUnits, B.AssignUnits) << Where;
  EXPECT_EQ(A.FreeCalls, B.FreeCalls) << Where;
  EXPECT_EQ(A.FreeUnits, B.FreeUnits) << Where;
  EXPECT_EQ(A.AssignFreeCalls, B.AssignFreeCalls) << Where;
  EXPECT_EQ(A.AssignFreeUnits, B.AssignFreeUnits) << Where;
  EXPECT_EQ(A.TransitionUnits, B.TransitionUnits) << Where;
}

uint64_t counter(const char *Name) {
  StatsSnapshot Snap = StatsRegistry::instance().snapshot();
  auto It = Snap.Counters.find(Name);
  return It == Snap.Counters.end() ? 0 : It->second;
}

void expectCachedMatchesFresh(bool Union) {
  for (size_t I = 0; I < cydra().Ks.size(); ++I) {
    RepresentationSpec Spec = wordSpec(I, Union);
    ASSERT_LE(Spec.FlatMD->numResources() * Spec.CyclesPerWord, 64u)
        << Spec.Label;
    std::vector<ModuloScheduleResult> Cached =
        scheduleCorpus(Spec, makeModuleFactory(Spec));
    std::vector<ModuloScheduleResult> Fresh =
        scheduleCorpus(Spec, freshArenaFactory(Spec));
    ASSERT_EQ(Cached.size(), Fresh.size());

    WorkCounters FreshTotal;
    uint64_t FreshAttempts = 0;
    for (size_t L = 0; L < Fresh.size(); ++L) {
      std::string Where = Spec.Label + " loop " + std::to_string(L);
      ASSERT_TRUE(Fresh[L].Success) << Where;
      ASSERT_TRUE(Cached[L].Success) << Where;
      EXPECT_EQ(Cached[L].II, Fresh[L].II) << Where;
      EXPECT_EQ(Cached[L].Time, Fresh[L].Time) << Where;
      EXPECT_EQ(Cached[L].Alternative, Fresh[L].Alternative) << Where;
      EXPECT_EQ(Cached[L].Stats.DecisionsPerAttempt,
                Fresh[L].Stats.DecisionsPerAttempt)
          << Where;
      expectSameCounters(Cached[L].Counters, Fresh[L].Counters, Where);
      FreshTotal.accumulate(Fresh[L].Counters);
      FreshAttempts += Fresh[L].Stats.DecisionsPerAttempt.size();
    }

    // The experiment driver goes through the same caching factory.
    SchedulerExperimentResult R = runSchedulerExperiment(
        cydra().Model, cydra().EM.Groups, Spec, cydra().Corpus);
    EXPECT_EQ(R.Failed, 0u) << Spec.Label;
    EXPECT_EQ(R.TotalAttempts, FreshAttempts) << Spec.Label;
    expectSameCounters(R.Counters, FreshTotal, Spec.Label + " experiment");
  }
}

} // namespace

TEST(PatternArenaCache, CachedFactoryMatchesFreshArenas) {
  expectCachedMatchesFresh(/*Union=*/false);
}

TEST(PatternArenaCache, CachedFactoryMatchesFreshArenasWithUnionCheck) {
  expectCachedMatchesFresh(/*Union=*/true);
}

TEST(PatternArenaCache, BuildsOncePerDistinctII) {
  RepresentationSpec Spec = wordSpec(2, /*Union=*/false);
  ModuleFactory Cached = makeModuleFactory(Spec);
  std::set<int> IIs;
  uint64_t Attempts = 0;
  ModuleFactory Recording = [&](QueryConfig Config) {
    IIs.insert(Config.ModuloII);
    ++Attempts;
    return Cached(Config);
  };

  uint64_t Hits0 = counter("query.arena.hits");
  uint64_t Builds0 = counter("query.arena.builds");
  std::vector<ModuloScheduleResult> Results = scheduleCorpus(Spec, Recording);
  uint64_t Hits = counter("query.arena.hits") - Hits0;
  uint64_t Builds = counter("query.arena.builds") - Builds0;

  for (const ModuloScheduleResult &R : Results)
    ASSERT_TRUE(R.Success);
  // The default corpus (seed 0x1327) tries 1,541 IIs over 38 distinct values.
  EXPECT_EQ(IIs.size(), 38u);
  EXPECT_EQ(Attempts, 1541u);
  EXPECT_EQ(Builds, IIs.size());
  EXPECT_EQ(Hits + Builds, Attempts);
}

TEST(PatternArenaCache, KeyHoldsEveryCompatibilityField) {
  const MachineDescription &MD = cydra().WordReductions[0];
  ASSERT_LE(MD.numResources(), 32u);
  PatternArenaCache Cache(MD);

  QueryConfig Wide = QueryConfig::linear(0);
  QueryConfig Narrow = Wide;
  Narrow.WordBits = 32;
  QueryConfig ModWide = QueryConfig::modulo(7);
  QueryConfig ModNarrow = ModWide;
  ModNarrow.WordBits = 32;
  QueryConfig ModOtherII = QueryConfig::modulo(9);
  QueryConfig ForcedK = Wide;
  ForcedK.CyclesPerWordOverride = 1;

  std::vector<QueryConfig> Configs{Wide,      Narrow,     ModWide,
                                   ModNarrow, ModOtherII, ForcedK};
  std::vector<std::shared_ptr<const BitvectorPatternArena>> Arenas;
  for (const QueryConfig &Config : Configs) {
    Arenas.push_back(Cache.get(Config));
    EXPECT_TRUE(Arenas.back()->compatibleWith(MD, Config));
  }
  // Configs that differ in any compatibility field get distinct arenas...
  for (size_t I = 0; I < Arenas.size(); ++I)
    for (size_t J = I + 1; J < Arenas.size(); ++J)
      EXPECT_NE(Arenas[I], Arenas[J]) << I << " vs " << J;
  // ...in particular a 64-bit arena never answers a 32-bit request.
  EXPECT_FALSE(Arenas[0]->compatibleWith(MD, Narrow));
  EXPECT_FALSE(Arenas[2]->compatibleWith(MD, ModNarrow));

  // Fields the arena does not read share one: MinCycle and the union path.
  QueryConfig Shifted = QueryConfig::linear(-5);
  Shifted.UnionAlternativeCheck = true;
  EXPECT_EQ(Cache.get(Shifted), Arenas[0]);
  for (size_t I = 0; I < Configs.size(); ++I)
    EXPECT_EQ(Cache.get(Configs[I]), Arenas[I]);
}
