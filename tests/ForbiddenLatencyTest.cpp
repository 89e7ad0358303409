//===- tests/ForbiddenLatencyTest.cpp - flm/ unit tests -------------------===//

#include "flm/ForbiddenLatencyMatrix.h"
#include "flm/LatencySet.h"
#include "flm/OperationClasses.h"
#include "machines/Catalog.h"

#include <gtest/gtest.h>

using namespace rmd;

TEST(LatencySet, InsertContains) {
  LatencySet S;
  EXPECT_TRUE(S.empty());
  S.insert(3);
  S.insert(-1);
  S.insert(3);
  EXPECT_EQ(S.size(), 2u);
  EXPECT_TRUE(S.contains(3));
  EXPECT_TRUE(S.contains(-1));
  EXPECT_FALSE(S.contains(0));
  EXPECT_EQ(S.values(), (std::vector<int>{-1, 3}));
}

TEST(LatencySet, UnionNegateSubset) {
  LatencySet A({1, 2});
  LatencySet B({2, 5});
  A.unionWith(B);
  EXPECT_EQ(A.values(), (std::vector<int>{1, 2, 5}));
  EXPECT_EQ(A.negated().values(), (std::vector<int>{-5, -2, -1}));
  EXPECT_TRUE(B.isSubsetOf(A));
  EXPECT_FALSE(A.isSubsetOf(B));
  EXPECT_EQ(A.nonnegativeCount(), 3u);
  EXPECT_EQ(LatencySet({-2, -1, 0, 4}).nonnegativeCount(), 2u);
}

TEST(ForbiddenLatencyMatrix, Figure1ExactSets) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  OpId A = MD.findOperation("A");
  OpId B = MD.findOperation("B");

  // Figure 1b: F(A,A)={0}, F(A,B)={-1}, F(B,A)={1}, F(B,B)={-3..3}.
  EXPECT_EQ(FLM.get(A, A).values(), (std::vector<int>{0}));
  EXPECT_EQ(FLM.get(A, B).values(), (std::vector<int>{-1}));
  EXPECT_EQ(FLM.get(B, A).values(), (std::vector<int>{1}));
  EXPECT_EQ(FLM.get(B, B).values(),
            (std::vector<int>{-3, -2, -1, 0, 1, 2, 3}));

  EXPECT_TRUE(FLM.isAntisymmetric());
  EXPECT_EQ(FLM.maxAbsoluteLatency(), 3);
  // Canonical constraints: (A,A,0), (B,A,1), (B,B,0), (B,B,1..3).
  EXPECT_EQ(FLM.canonicalCount(), 6u);
  EXPECT_EQ(FLM.totalEntries(), 10u);
}

TEST(ForbiddenLatencyMatrix, SelfZeroAlwaysForbidden) {
  for (const char *Name : {"cydra5", "alpha21064", "mips-r3000", "toy-vliw",
                           "playdoh"}) {
    MachineModel M = loadMachine(Name).take();
    MachineDescription Flat = expandAlternatives(M.MD).Flat;
    ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
    EXPECT_TRUE(FLM.isAntisymmetric()) << M.MD.name();
    for (OpId Op = 0; Op < Flat.numOperations(); ++Op) {
      if (Flat.operation(Op).table().empty())
        continue;
      EXPECT_TRUE(FLM.isForbidden(Op, Op, 0))
          << M.MD.name() << " op " << Flat.operation(Op).Name;
    }
  }
}

TEST(ForbiddenLatencyMatrix, MatchesManualOverlapCheck) {
  // Exhaustively cross-check Equation (1) against a direct simulation of
  // overlapping reservation tables for the toy VLIW.
  MachineDescription Flat =
      expandAlternatives(loadMachine("toy-vliw").take().MD).Flat;
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
  int MaxLen = Flat.maxTableLength();
  for (OpId X = 0; X < Flat.numOperations(); ++X)
    for (OpId Y = 0; Y < Flat.numOperations(); ++Y)
      for (int F = -MaxLen; F <= MaxLen; ++F) {
        // X issues at time F, Y at time 0. Conflict iff a shared resource
        // is used by both at the same absolute cycle.
        bool Conflict = false;
        for (const ResourceUsage &Ux : Flat.operation(X).table().usages())
          for (const ResourceUsage &Uy : Flat.operation(Y).table().usages())
            if (Ux.Resource == Uy.Resource && F + Ux.Cycle == Uy.Cycle)
              Conflict = true;
        EXPECT_EQ(FLM.isForbidden(X, Y, F), Conflict)
            << "X=" << X << " Y=" << Y << " F=" << F;
      }
}

TEST(ForbiddenLatencyMatrix, CanonicalLatenciesRoundTrip) {
  MachineDescription Flat =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
  std::vector<ForbiddenLatency> Canonical = FLM.canonicalLatencies();
  EXPECT_EQ(Canonical.size(), FLM.canonicalCount());
  // Every canonical constraint is forbidden, in both orientations.
  for (const ForbiddenLatency &L : Canonical) {
    EXPECT_TRUE(FLM.isForbidden(L.After, L.Before, L.Latency));
    EXPECT_TRUE(FLM.isForbidden(L.Before, L.After, -L.Latency));
  }
}

TEST(ForbiddenLatencyMatrix, InsertKeepsAntisymmetry) {
  ForbiddenLatencyMatrix FLM(3);
  FLM.insert(0, 1, 4);
  FLM.insert(2, 2, 0);
  EXPECT_TRUE(FLM.isForbidden(0, 1, 4));
  EXPECT_TRUE(FLM.isForbidden(1, 0, -4));
  EXPECT_TRUE(FLM.isAntisymmetric());
}

TEST(OperationClasses, Figure1TwoClasses) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  OperationClasses Classes = partitionOperationClasses(FLM);
  EXPECT_EQ(Classes.numClasses(), 2u);
}

TEST(OperationClasses, IdenticalOperationsMerge) {
  // Two operations with identical tables must land in one class; a third
  // with a different table must not.
  MachineDescription MD("dup");
  ResourceId R = MD.addResource("r");
  ResourceId S = MD.addResource("s");
  ReservationTable T1;
  T1.addUsage(R, 0);
  ReservationTable T2;
  T2.addUsage(R, 0);
  ReservationTable T3;
  T3.addUsage(S, 0);
  MD.addOperation("x", T1);
  MD.addOperation("y", T2);
  MD.addOperation("z", T3);

  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  OperationClasses Classes = partitionOperationClasses(FLM);
  EXPECT_EQ(Classes.numClasses(), 2u);
  EXPECT_EQ(Classes.ClassOf[0], Classes.ClassOf[1]);
  EXPECT_NE(Classes.ClassOf[0], Classes.ClassOf[2]);
  EXPECT_EQ(Classes.Members[Classes.ClassOf[0]].size(), 2u);
  EXPECT_EQ(Classes.Representative[Classes.ClassOf[0]], 0u);
}

TEST(OperationClasses, ClassMachinePreservesMatrixShape) {
  // The quotient machine's matrix must equal the restriction of the
  // original matrix to representatives.
  MachineDescription Flat =
      expandAlternatives(loadMachine("cydra5").take().MD).Flat;
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
  OperationClasses Classes = partitionOperationClasses(FLM);
  MachineDescription Quotient = buildClassMachine(Flat, Classes);
  EXPECT_EQ(Quotient.numOperations(), Classes.numClasses());

  ForbiddenLatencyMatrix QFLM = ForbiddenLatencyMatrix::compute(Quotient);
  for (size_t C1 = 0; C1 < Classes.numClasses(); ++C1)
    for (size_t C2 = 0; C2 < Classes.numClasses(); ++C2)
      EXPECT_EQ(QFLM.get(static_cast<OpId>(C1), static_cast<OpId>(C2)),
                FLM.get(Classes.Representative[C1],
                        Classes.Representative[C2]));
}

TEST(OperationClasses, EveryMemberMatchesRepresentative) {
  MachineDescription Flat =
      expandAlternatives(loadMachine("alpha21064").take().MD).Flat;
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
  OperationClasses Classes = partitionOperationClasses(FLM);
  for (size_t C = 0; C < Classes.numClasses(); ++C)
    for (OpId Member : Classes.Members[C])
      for (OpId Z = 0; Z < Flat.numOperations(); ++Z) {
        EXPECT_EQ(FLM.get(Member, Z), FLM.get(Classes.Representative[C], Z));
        EXPECT_EQ(FLM.get(Z, Member), FLM.get(Z, Classes.Representative[C]));
      }
}
