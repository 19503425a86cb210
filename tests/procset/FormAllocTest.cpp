//===- tests/procset/FormAllocTest.cpp - Bound operations stay off the heap ===//
//
// Bound forms are interned ids held inline (numeric/LinearExpr.h,
// FormList), so the operations the pCFG engine runs per step on ordinary
// bounds must not allocate: copying a ProcRange, shifting a bound,
// intersecting form sets and the two provability queries. A counting
// global operator new checks it.
//
//===----------------------------------------------------------------------===//

#include "procset/ProcSet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long> Allocations{0};
} // namespace

void *operator new(std::size_t Size) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

using namespace csdf;

namespace {

/// Heap allocations made while running \p Fn.
template <typename Fn> long allocationsIn(Fn &&Run) {
  long Before = Allocations.load(std::memory_order_relaxed);
  Run();
  return Allocations.load(std::memory_order_relaxed) - Before;
}

class FormAllocTest : public ::testing::Test {
protected:
  void SetUp() override {
    // lo == i - 1 == j + 2 == k - 3 == 4, so bounds over these variables
    // enrich to several forms. Close now: the queries below must not be
    // the first to close the graph.
    G.addEQ(G.form("p0.lo$"), G.form("p0.i", -1));
    G.addEQ(G.form("p0.i", -1), G.form("p0.j", 2));
    G.addEQ(G.form("p0.j", 2), G.form("p0.k", -3));
    G.addEQ(G.form("p0.k", -3), LinearExpr(4));
    G.close();
  }

  /// A bound holding exactly the inline capacity of forms.
  SymBound fullBound(std::int64_t Shift) {
    SymBound B(G.form("p0.lo$", Shift));
    B.enrich(G);
    for (int I = 0; B.forms().size() < FormList::InlineCapacity; ++I)
      B.addForm(G.form("w" + std::to_string(I), Shift), G.symbols());
    return B;
  }

  ConstraintGraph G;
};

TEST_F(FormAllocTest, CountingAllocatorSeesSpills) {
  SymBound Big(LinearExpr(0));
  for (int I = 0; I < 3 * static_cast<int>(FormList::InlineCapacity); ++I)
    Big.addForm(G.form("v" + std::to_string(I)), G.symbols());
  ASSERT_FALSE(Big.forms().isInline());
  SymBound Copy;
  EXPECT_GE(allocationsIn([&] { Copy = Big; }), 1);
  EXPECT_EQ(Copy, Big);
}

TEST_F(FormAllocTest, CopyingARangeDoesNotAllocate) {
  ProcRange R(fullBound(0), fullBound(2));
  ASSERT_TRUE(R.lb().forms().isInline());
  ASSERT_EQ(R.lb().forms().size(), FormList::InlineCapacity);
  ProcRange Copy;
  EXPECT_EQ(allocationsIn([&] {
              ProcRange Fresh = R;
              Copy = Fresh;
            }),
            0);
  EXPECT_EQ(Copy, R);
}

TEST_F(FormAllocTest, PlusDoesNotAllocate) {
  SymBound B = fullBound(0);
  SymBound Shifted;
  EXPECT_EQ(allocationsIn([&] { Shifted = B.plus(5); }), 0);
  EXPECT_EQ(Shifted.forms().size(), B.forms().size());
  EXPECT_EQ(Shifted.primary(), B.primary().plus(5));
}

TEST_F(FormAllocTest, IntersectFormsDoesNotAllocate) {
  SymBound A = fullBound(0);
  SymBound B = fullBound(0);
  std::optional<SymBound> Common;
  EXPECT_EQ(allocationsIn([&] { Common = A.intersectForms(B); }), 0);
  ASSERT_TRUE(Common.has_value());
  EXPECT_EQ(*Common, A);
}

TEST_F(FormAllocTest, ProvabilityQueriesDoNotAllocate) {
  SymBound Lo = fullBound(0);
  SymBound Hi = fullBound(2);
  bool LE = false, EQ = false, NotEQ = true;
  EXPECT_EQ(allocationsIn([&] {
              LE = Lo.provablyLE(Hi, G);
              EQ = Lo.provablyEQ(Hi, G, /*Offset=*/-2);
              NotEQ = Lo.provablyEQ(Hi, G);
            }),
            0);
  EXPECT_TRUE(LE);
  EXPECT_TRUE(EQ);
  EXPECT_FALSE(NotEQ);
}

} // namespace
