//===- tests/ReductionCacheTest.cpp - On-disk cache robustness ------------===//
//
// The ReductionCache contract: hits reproduce the uncached result exactly,
// and *nothing* in the cache directory can make reduction fail — a
// truncated, garbage, or key-skewed entry is a miss that recomputes and
// heals the slot. Corruption scenarios are injected by editing entry files
// directly.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "mdl/Writer.h"
#include "reduce/ReductionCache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include <unistd.h>

using namespace rmd;

namespace {

class ReductionCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    Dir = ::testing::TempDir() + "/rmd-cache-test-" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(Dir);
    Flat = expandAlternatives(loadMachine("cydra5").take().MD).Flat;
  }
  void TearDown() override { std::filesystem::remove_all(Dir); }

  /// The single entry file of \p Cache, asserting there is exactly one.
  std::string onlyEntry() {
    std::vector<std::string> Entries;
    for (const auto &E : std::filesystem::directory_iterator(Dir))
      Entries.push_back(E.path().string());
    EXPECT_EQ(Entries.size(), 1u);
    return Entries.empty() ? std::string() : Entries.front();
  }

  std::string Dir;
  MachineDescription Flat{""};
};

TEST_F(ReductionCacheTest, MissThenHitReproducesExactResult) {
  ReductionCache Cache(Dir);
  ASSERT_TRUE(Cache.enabled());

  bool Hit = true;
  ReductionResult Cold = Cache.reduce(Flat, {}, &Hit);
  EXPECT_FALSE(Hit);

  ReductionResult Warm = Cache.reduce(Flat, {}, &Hit);
  EXPECT_TRUE(Hit);
  EXPECT_EQ(writeMdl(Warm.Reduced), writeMdl(Cold.Reduced));
  EXPECT_EQ(Warm.GeneratingSetSize, Cold.GeneratingSetSize);
  EXPECT_EQ(Warm.PrunedSetSize, Cold.PrunedSetSize);
  EXPECT_EQ(Warm.CoveredLatencies, Cold.CoveredLatencies);
}

TEST_F(ReductionCacheTest, ObjectivesGetDistinctEntries) {
  ReductionOptions Word;
  Word.Objective = SelectionObjective::wordUses(4);
  EXPECT_NE(ReductionCache::key(Flat, SelectionObjective::resUses()),
            ReductionCache::key(Flat, Word.Objective));

  ReductionCache Cache(Dir);
  (void)Cache.reduce(Flat);
  bool Hit = true;
  ReductionResult R = Cache.reduce(Flat, Word, &Hit);
  EXPECT_FALSE(Hit) << "word objective must not hit the res-uses entry";
  EXPECT_GT(R.Reduced.numResources(), 0u);
}

TEST_F(ReductionCacheTest, TruncatedEntryRecomputesAndHeals) {
  ReductionCache Cache(Dir);
  ReductionResult Reference = Cache.reduce(Flat);
  std::string Entry = onlyEntry();

  // Chop the entry mid-file: the header parses but the MDL body does not.
  std::filesystem::resize_file(Entry,
                               std::filesystem::file_size(Entry) / 2);

  bool Hit = true;
  ReductionResult R = Cache.reduce(Flat, {}, &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_EQ(writeMdl(R.Reduced), writeMdl(Reference.Reduced));

  // The recompute healed the slot.
  (void)Cache.reduce(Flat, {}, &Hit);
  EXPECT_TRUE(Hit);
}

TEST_F(ReductionCacheTest, GarbageEntryRecomputesAndHeals) {
  ReductionCache Cache(Dir);
  ReductionResult Reference = Cache.reduce(Flat);
  {
    std::ofstream Out(onlyEntry(), std::ios::trunc | std::ios::binary);
    Out << "\x7f\x45\x4c\x46 this is not a cache entry at all\n";
  }

  bool Hit = true;
  ReductionResult R = Cache.reduce(Flat, {}, &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_EQ(writeMdl(R.Reduced), writeMdl(Reference.Reduced));
  (void)Cache.reduce(Flat, {}, &Hit);
  EXPECT_TRUE(Hit);
}

TEST_F(ReductionCacheTest, EmptyEntryRecomputes) {
  ReductionCache Cache(Dir);
  (void)Cache.reduce(Flat);
  { std::ofstream Out(onlyEntry(), std::ios::trunc); }

  bool Hit = true;
  ReductionResult R = Cache.reduce(Flat, {}, &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_GT(R.Reduced.numResources(), 0u);
}

TEST_F(ReductionCacheTest, KeySkewedEntryIsAMiss) {
  // An entry whose stored key line does not match its filename (e.g. a
  // file renamed by hand, or a hash-scheme change) must be rejected.
  ReductionCache Cache(Dir);
  (void)Cache.reduce(Flat);
  std::string Entry = onlyEntry();

  MachineDescription Other =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  std::string OtherKey = ReductionCache::key(Other, {});
  std::filesystem::rename(Entry, Dir + "/" + OtherKey + ".mdl");

  bool Hit = true;
  ReductionResult R = Cache.reduce(Other, {}, &Hit);
  EXPECT_FALSE(Hit) << "entry stored under a foreign key must not hit";
  EXPECT_EQ(writeMdl(R.Reduced),
            writeMdl(reduceMachine(Other).Reduced));
}

TEST_F(ReductionCacheTest, EvictForcesRecompute) {
  ReductionCache Cache(Dir);
  (void)Cache.reduce(Flat);
  std::string Key = ReductionCache::key(Flat, {});
  Cache.evict(Key);
  EXPECT_FALSE(Cache.load(Key).has_value());
}

TEST_F(ReductionCacheTest, UncreatableDirectoryDisablesQuietly) {
  // A path under an existing *file* cannot become a directory.
  std::string FilePath = ::testing::TempDir() + "/rmd-cache-blocker";
  { std::ofstream Out(FilePath); Out << "x"; }
  ReductionCache Cache(FilePath + "/nested");
  EXPECT_FALSE(Cache.enabled());

  bool Hit = true;
  ReductionResult R = Cache.reduce(Flat, {}, &Hit);
  EXPECT_FALSE(Hit);
  EXPECT_GT(R.Reduced.numResources(), 0u);
  std::filesystem::remove(FilePath);
}

TEST_F(ReductionCacheTest, ContentChangesTheKey) {
  std::string Base = ReductionCache::key(Flat, {});
  MachineDescription Mips =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  EXPECT_NE(ReductionCache::key(Mips, {}), Base);
}

TEST_F(ReductionCacheTest, OrphanedTempFilesSweptOnOpen) {
  std::filesystem::create_directories(Dir);
  // A temp file from a writer that no longer exists: pids are capped well
  // below this, so the sweep must treat the writer as dead and remove it.
  std::string Orphan = Dir + "/deadbeef.mdl.tmp999999999";
  { std::ofstream Out(Orphan); Out << "partial"; }
  // Our own pid is alive: this one must survive the sweep.
  std::string Live =
      Dir + "/deadbeef.mdl.tmp" + std::to_string(::getpid());
  { std::ofstream Out(Live); Out << "in flight"; }
  // Not a temp-file name shape at all: untouched.
  std::string Unrelated = Dir + "/notes.txt";
  { std::ofstream Out(Unrelated); Out << "keep"; }

  ReductionCache Cache(Dir);
  ASSERT_TRUE(Cache.enabled());
  EXPECT_FALSE(std::filesystem::exists(Orphan));
  EXPECT_TRUE(std::filesystem::exists(Live));
  EXPECT_TRUE(std::filesystem::exists(Unrelated));
}

TEST_F(ReductionCacheTest, CommittedEntrySurvivesStoreAndLeavesNoTemp) {
  ReductionCache Cache(Dir);
  (void)Cache.reduce(Flat);
  size_t Temps = 0, Entries = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    std::string Name = E.path().filename().string();
    (Name.find(".tmp") != std::string::npos ? Temps : Entries) += 1;
  }
  EXPECT_EQ(Temps, 0u);
  EXPECT_EQ(Entries, 1u);
}

} // namespace
