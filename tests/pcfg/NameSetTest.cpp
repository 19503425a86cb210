//===- tests/pcfg/NameSetTest.cpp - Copy-on-write name set tests ---------------===//

#include "pcfg/PcfgState.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace csdf;

namespace {

/// \p Prefix followed by the decimal digits of \p I.
std::string numbered(const std::string &Prefix, size_t I) {
  return Prefix + std::to_string(I);
}

std::vector<std::string> contents(const NameSet &S) {
  return std::vector<std::string>(S.begin(), S.end());
}

std::vector<std::string> contents(const std::set<std::string> &S) {
  return std::vector<std::string>(S.begin(), S.end());
}

TEST(NameSetTest, MatchesStdSetOnRandomSequence) {
  // Names of mixed length and shared prefixes, so string order (not
  // length or insertion order) decides the sequence.
  const std::vector<std::string> Pool = {"i",  "i2", "x",   "x1", "x10",
                                         "x2", "y",  "buf", "a",  "ab",
                                         "b",  "z",  "tmp", "j",  ""};
  std::mt19937 Rng(12345);
  std::uniform_int_distribution<size_t> Pick(0, Pool.size() - 1);
  std::uniform_int_distribution<int> Op(0, 3);
  NameSet S;
  std::set<std::string> Oracle;
  std::vector<NameSet> Snapshots;
  std::vector<std::set<std::string>> OracleSnapshots;
  for (int Step = 0; Step < 2000; ++Step) {
    const std::string &Name = Pool[Pick(Rng)];
    switch (Op(Rng)) {
    case 0:
    case 1:
      S.insert(Name);
      Oracle.insert(Name);
      break;
    case 2:
      S.erase(Name);
      Oracle.erase(Name);
      break;
    case 3:
      // Keep copies alive so later changes run against shared storage.
      Snapshots.push_back(S);
      OracleSnapshots.push_back(Oracle);
      break;
    }
    ASSERT_EQ(contents(S), contents(Oracle)) << "step " << Step;
    ASSERT_EQ(S.size(), Oracle.size());
    ASSERT_EQ(S.empty(), Oracle.empty());
    for (const std::string &Probe : Pool)
      ASSERT_EQ(S.count(Probe), Oracle.count(Probe)) << Probe;
  }
  for (size_t I = 0; I < Snapshots.size(); ++I)
    EXPECT_EQ(contents(Snapshots[I]), contents(OracleSnapshots[I]));
}

TEST(NameSetTest, InsertAllMatchesStdSetUnion) {
  std::mt19937 Rng(777);
  std::uniform_int_distribution<int> Pick(0, 11);
  std::bernoulli_distribution Coin(0.5);
  for (int Round = 0; Round < 200; ++Round) {
    NameSet A, B;
    std::set<std::string> OA, OB;
    for (int K = 0; K < 6; ++K) {
      std::string Name = numbered("v", Pick(Rng));
      if (Coin(Rng)) {
        A.insert(Name);
        OA.insert(Name);
      } else {
        B.insert(Name);
        OB.insert(Name);
      }
    }
    NameSet Before = A;
    A.insertAll(B);
    OA.insert(OB.begin(), OB.end());
    EXPECT_EQ(contents(A), contents(OA));
    // The operands are values: neither the source nor an earlier copy of
    // the target moves.
    EXPECT_EQ(contents(B), contents(OB));
    std::set<std::string> OBefore(Before.begin(), Before.end());
    EXPECT_EQ(contents(Before), contents(OBefore));
  }
}

TEST(NameSetTest, CopiesShareStorageUntilARealChange) {
  NameSet A;
  A.insert("x");
  A.insert("y");
  NameSet B = A;
  EXPECT_TRUE(A.sharesStorageWith(B));
  NameSet C;
  C = B;
  EXPECT_TRUE(C.sharesStorageWith(A));
  B.insert("z");
  EXPECT_FALSE(B.sharesStorageWith(A));
  EXPECT_TRUE(C.sharesStorageWith(A));
}

TEST(NameSetTest, NoOpChangesNeverClone) {
  NameSet A;
  A.insert("x");
  A.insert("y");
  NameSet B = A;
  B.insert("x"); // Present.
  B.erase("w");  // Absent.
  EXPECT_TRUE(A.sharesStorageWith(B));
  NameSet Subset;
  Subset.insert("y");
  B.insertAll(Subset); // Adds nothing.
  B.insertAll(NameSet());
  B.insertAll(A);
  EXPECT_TRUE(A.sharesStorageWith(B));
  // An empty target adopts the source's storage outright.
  NameSet Empty;
  Empty.insertAll(A);
  EXPECT_TRUE(Empty.sharesStorageWith(A));
}

TEST(NameSetTest, ChangeThroughOneCopyLeavesTheOtherUnchanged) {
  NameSet A;
  A.insert("b");
  A.insert("d");
  NameSet B = A;
  B.insert("c");
  B.erase("b");
  EXPECT_EQ(contents(A), (std::vector<std::string>{"b", "d"}));
  EXPECT_EQ(contents(B), (std::vector<std::string>{"c", "d"}));
  NameSet C = A;
  C.erase("b");
  C.erase("d");
  EXPECT_TRUE(C.empty());
  EXPECT_EQ(contents(A), (std::vector<std::string>{"b", "d"}));
  NameSet D = A;
  D.insertAll(B);
  EXPECT_EQ(contents(D), (std::vector<std::string>{"b", "c", "d"}));
  EXPECT_EQ(contents(A), (std::vector<std::string>{"b", "d"}));
  EXPECT_EQ(contents(B), (std::vector<std::string>{"c", "d"}));
}

TEST(NameSetTest, CopiesChangedOnSeparateThreadsStayIndependent) {
  // Each thread owns its copy; all of them start on one shared vector,
  // as copies of one state handed to different threads do.
  NameSet Base;
  for (int I = 0; I < 16; ++I)
    Base.insert(numbered("v", I));
  std::vector<NameSet> Copies(4, Base);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Copies.size(); ++T)
    Threads.emplace_back([&Copies, T] {
      NameSet &Mine = Copies[T];
      for (int Round = 0; Round < 200; ++Round) {
        std::string Name = numbered(numbered("t", T) + "_", Round % 7);
        NameSet Kept = Mine;
        Mine.insert(Name);
        Mine.erase(numbered("v", Round % 16));
        Mine.insertAll(Kept);
        (void)Mine.count("v3");
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Base.size(), 16u);
  for (size_t T = 0; T < Copies.size(); ++T) {
    EXPECT_EQ(Copies[T].size(), 16u + 7u);
    EXPECT_EQ(Copies[T].count(numbered("t", T) + "_0"), 1u);
  }
}

} // namespace
