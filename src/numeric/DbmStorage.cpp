//===- numeric/DbmStorage.cpp ---------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "numeric/DbmStorage.h"

#include "support/Budget.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <functional>

using namespace csdf;

DbmShared::~DbmShared() {
  if (Accountant && AccountedBytes)
    Accountant->accountBytes(-static_cast<std::int64_t>(AccountedBytes));
}

void DbmShared::reaccount() {
  if (!Accountant)
    Accountant = currentBudget();
  if (!Accountant)
    return;
  std::uint64_t Now = M ? M->byteSize() : 0;
  Accountant->accountBytes(static_cast<std::int64_t>(Now) -
                           static_cast<std::int64_t>(AccountedBytes));
  AccountedBytes = Now;
}

void DenseDbmStorage::resize(unsigned NewN) {
  assert(NewN >= N && "DBM storage cannot shrink via resize");
  if (NewN == N)
    return;
  if (NewN > Cap) {
    // Re-layout into a geometrically grown buffer so the engine's
    // one-variable-at-a-time growth costs one fill per variable, not one
    // O(n^2) copy per variable.
    unsigned NewCap = std::max(NewN, Cap ? Cap * 2 : 8u);
    std::vector<std::int64_t, PoolAllocator<std::int64_t>> NewData(
        static_cast<std::size_t>(NewCap) * NewCap, DbmInfinity);
    for (unsigned I = 0; I < N; ++I)
      std::copy_n(Data.data() + static_cast<std::size_t>(I) * Cap, N,
                  NewData.data() + static_cast<std::size_t>(I) * NewCap);
    Data = std::move(NewData);
    Cap = NewCap;
  } else {
    // Within capacity: unconstrain the incoming cells (they may hold
    // stale bounds from an earlier, wider use of this buffer).
    for (unsigned I = 0; I < N; ++I)
      std::fill_n(Data.data() + static_cast<std::size_t>(I) * Cap + N,
                  NewN - N, DbmInfinity);
    for (unsigned I = N; I < NewN; ++I)
      std::fill_n(Data.data() + static_cast<std::size_t>(I) * Cap, NewN,
                  DbmInfinity);
  }
  Occ.resize(NewN, 0);
  N = NewN;
}

#ifndef NDEBUG
static bool validVictims(const std::vector<unsigned> &Victims, unsigned N) {
  return std::adjacent_find(Victims.begin(), Victims.end(),
                            std::greater_equal<unsigned>()) ==
             Victims.end() &&
         (Victims.empty() || Victims.back() < N);
}
#endif

void DenseDbmStorage::removeVars(const std::vector<unsigned> &Victims) {
  assert(validVictims(Victims, N) && "victims must be sorted, unique slots");
  if (Victims.empty())
    return;
  // The surviving slots, as maximal runs [first, second) between victims.
  std::vector<std::pair<unsigned, unsigned>> Keep;
  unsigned Begin = 0;
  for (unsigned V : Victims) {
    if (V > Begin)
      Keep.emplace_back(Begin, V);
    Begin = V + 1;
  }
  if (Begin < N)
    Keep.emplace_back(Begin, N);

  // Compact in place: rows keep their stride and each surviving row is
  // squeezed run by run into its new position, which never lies past its
  // source. The occupancy bit of each compacted row is recomputed exactly
  // while the row is still in cache — the one point where stale bits are
  // cleared.
  unsigned NewN = N - static_cast<unsigned>(Victims.size());
  unsigned NI = 0;
  for (auto [RowBegin, RowEnd] : Keep) {
    for (unsigned I = RowBegin; I < RowEnd; ++I, ++NI) {
      const std::int64_t *Src = Data.data() + static_cast<std::size_t>(I) * Cap;
      std::int64_t *Dst = Data.data() + static_cast<std::size_t>(NI) * Cap;
      unsigned NJ = 0;
      for (auto [ColBegin, ColEnd] : Keep) {
        std::memmove(Dst + NJ, Src + ColBegin,
                     (ColEnd - ColBegin) * sizeof(std::int64_t));
        NJ += ColEnd - ColBegin;
      }
      std::uint8_t Any = 0;
      for (unsigned J = 0; J < NewN; ++J)
        Any |= static_cast<std::uint8_t>(J != NI && Dst[J] < DbmInfinity);
      Occ[NI] = Any;
    }
  }
  N = NewN;
  Occ.resize(N);
}

void MapDbmStorage::removeVars(const std::vector<unsigned> &Victims) {
  assert(validVictims(Victims, N) && "victims must be sorted, unique slots");
  if (Victims.empty())
    return;
  constexpr unsigned Gone = ~0u;
  std::vector<unsigned> NewIndex(N);
  for (unsigned I = 0, V = 0, NI = 0; I < N; ++I) {
    if (V < Victims.size() && Victims[V] == I) {
      NewIndex[I] = Gone;
      ++V;
    } else {
      NewIndex[I] = NI++;
    }
  }
  // Renumbering is monotone on the survivors, so the rebuilt keys arrive
  // in ascending order and each insertion is an end-hinted append.
  std::map<std::pair<unsigned, unsigned>, std::int64_t> NewBounds;
  for (const auto &[Key, Bound] : Bounds) {
    unsigned I = NewIndex[Key.first], J = NewIndex[Key.second];
    if (I != Gone && J != Gone)
      NewBounds.emplace_hint(NewBounds.end(), std::pair(I, J), Bound);
  }
  Bounds = std::move(NewBounds);
  N -= static_cast<unsigned>(Victims.size());
}

bool CowDbm::detach() {
  if (B.use_count() == 1)
    return false;
  auto Fresh = std::make_shared<DbmShared>(B->M->clone());
  Fresh->Closed = B->Closed;
  Fresh->Feasible = B->Feasible;
  Fresh->PendingEdge = B->PendingEdge;
  Fresh->EverClosed = B->EverClosed;
  Fresh->reaccount();
  B = std::move(Fresh);
  return true;
}

namespace {

constexpr std::uint64_t FnvOffset = 1469598103934665603ull;
constexpr std::uint64_t FnvPrime = 1099511628211ull;

inline std::uint64_t fnvMix(std::uint64_t H, std::uint64_t V) {
  for (int Byte = 0; Byte < 8; ++Byte) {
    H ^= (V >> (8 * Byte)) & 0xff;
    H *= FnvPrime;
  }
  return H;
}

} // namespace

std::uint64_t csdf::dbmFingerprint(const DbmStorage &M) {
  unsigned N = M.size();
  std::uint64_t H = FnvOffset ^ N;
  if (const DenseDbmStorage *D = M.asDense()) {
    const std::int64_t *Rows = D->rows();
    std::size_t Stride = D->rowStride();
    for (unsigned I = 0; I < N; ++I) {
      const std::int64_t *Row = Rows + I * Stride;
      for (unsigned J = 0; J < N; ++J)
        H = fnvMix(H, static_cast<std::uint64_t>(Row[J]));
    }
    return H;
  }
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      H = fnvMix(H, static_cast<std::uint64_t>(M.get(I, J)));
  return H;
}

std::vector<std::int64_t> csdf::dbmSnapshot(const DbmStorage &M) {
  unsigned N = M.size();
  std::vector<std::int64_t> Image;
  Image.reserve(static_cast<size_t>(N) * N);
  if (const DenseDbmStorage *D = M.asDense()) {
    const std::int64_t *Rows = D->rows();
    std::size_t Stride = D->rowStride();
    for (unsigned I = 0; I < N; ++I)
      Image.insert(Image.end(), Rows + I * Stride, Rows + I * Stride + N);
    return Image;
  }
  for (unsigned I = 0; I < N; ++I)
    for (unsigned J = 0; J < N; ++J)
      Image.push_back(M.get(I, J));
  return Image;
}

std::unique_ptr<DbmStorage> csdf::makeDbmStorage(DbmBackend Backend) {
  switch (Backend) {
  case DbmBackend::Dense:
    return std::make_unique<DenseDbmStorage>();
  case DbmBackend::MapBased:
    return std::make_unique<MapDbmStorage>();
  }
  csdf_unreachable("unhandled DbmBackend");
}
