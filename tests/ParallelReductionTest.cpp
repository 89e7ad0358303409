//===- tests/ParallelReductionTest.cpp - Thread-count bit-exactness -------===//
//
// The parallel reduction pipeline's contract is *bit-exactness*: any thread
// count produces byte-for-byte the machine the sequential pipeline
// produces. These tests sweep thread counts {1, 2, 8} over every builtin
// model and compare each stage — forbidden latency matrix, Algorithm 1
// generating set, pruned set, and the final rendered MDL — against the
// sequential reference. A mere "equivalent" result (same matrix, different
// resource order) would fail here by design: downstream consumers (cache
// keys, generated C++ tables, golden files) depend on the exact bytes.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "mdl/Writer.h"
#include "reduce/Reduction.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

struct NamedMachine {
  std::string Name;
  MachineDescription Flat;
};

std::vector<NamedMachine> allModels() {
  std::vector<NamedMachine> Models;
  for (const std::string &Name : machineNames())
    Models.push_back(
        {Name, expandAlternatives(loadMachine(Name).take().MD).Flat});
  return Models;
}

const unsigned ThreadSweep[] = {2, 8};

TEST(ParallelReduction, MatrixMatchesSequentialAtEveryThreadCount) {
  for (const NamedMachine &M : allModels()) {
    ForbiddenLatencyMatrix Reference =
        ForbiddenLatencyMatrix::compute(M.Flat);
    for (unsigned Threads : ThreadSweep) {
      ThreadPool Pool(Threads);
      ForbiddenLatencyMatrix Parallel =
          ForbiddenLatencyMatrix::compute(M.Flat, &Pool);
      EXPECT_TRUE(Parallel == Reference)
          << M.Name << " with " << Threads << " threads";
    }
  }
}

TEST(ParallelReduction, GeneratingSetMatchesSequentialAtEveryThreadCount) {
  for (const NamedMachine &M : allModels()) {
    ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(M.Flat);
    std::vector<SynthesizedResource> Reference =
        buildGeneratingSet(FLM);
    std::vector<SynthesizedResource> ReferencePruned =
        pruneGeneratingSet(Reference);
    for (unsigned Threads : ThreadSweep) {
      ThreadPool Pool(Threads);
      std::vector<SynthesizedResource> Parallel =
          buildGeneratingSet(FLM, nullptr, &Pool);
      EXPECT_EQ(Parallel, Reference)
          << M.Name << " generating set, " << Threads << " threads";
      EXPECT_EQ(pruneGeneratingSet(Parallel, &Pool), ReferencePruned)
          << M.Name << " pruned set, " << Threads << " threads";
    }
  }
}

TEST(ParallelReduction, RenderedMachineIsByteIdenticalAtEveryThreadCount) {
  for (const NamedMachine &M : allModels()) {
    for (SelectionObjective Objective :
         {SelectionObjective::resUses(), SelectionObjective::wordUses(4)}) {
      ReductionOptions Sequential;
      Sequential.Objective = Objective;
      Sequential.Threads = 1;
      std::string Reference =
          writeMdl(reduceMachine(M.Flat, Sequential).Reduced);
      for (unsigned Threads : ThreadSweep) {
        ReductionOptions Options;
        Options.Objective = Objective;
        Options.Threads = Threads;
        EXPECT_EQ(writeMdl(reduceMachine(M.Flat, Options).Reduced),
                  Reference)
            << M.Name << " with " << Threads << " threads";
      }
    }
  }
}

TEST(ParallelReduction, ThreadsZeroMeansHardwareConcurrency) {
  EXPECT_GE(ThreadPool::resolveThreadCount(0), 1u);
  EXPECT_EQ(ThreadPool::resolveThreadCount(3), 3u);

  // Threads = 0 must still reduce correctly (whatever the host's core
  // count resolves to).
  MachineDescription Flat =
      expandAlternatives(loadMachine("cydra5").take().MD).Flat;
  ReductionOptions Options;
  Options.Threads = 0;
  ReductionOptions Sequential;
  EXPECT_EQ(writeMdl(reduceMachine(Flat, Options).Reduced),
            writeMdl(reduceMachine(Flat, Sequential).Reduced));
}

} // namespace
