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

namespace {

/// The row stride of a buffer that must hold \p NewN variables and now
/// has stride \p Cap: unchanged while it fits, otherwise grown
/// geometrically so the engine's one-variable-at-a-time growth costs one
/// fill per variable, not one O(n^2) re-layout per variable.
unsigned grownCap(unsigned Cap, unsigned NewN) {
  return NewN <= Cap ? Cap : std::max(NewN, Cap ? Cap * 2 : 8u);
}

/// Writes the \p N-variable block at \p Src grown to \p NewN variables
/// into \p Dst: the N x N live cells are copied (in place when Src == Dst,
/// which then must share the stride) and the incoming cells set to
/// DbmInfinity. Nothing else is written.
void growBlock(std::int64_t *Dst, std::size_t DstStride,
               const std::int64_t *Src, std::size_t SrcStride, unsigned N,
               unsigned NewN) {
  for (unsigned I = 0; I < N; ++I) {
    std::int64_t *Row = Dst + I * DstStride;
    if (Src != Dst)
      std::copy_n(Src + I * SrcStride, N, Row);
    std::fill_n(Row + N, NewN - N, DbmInfinity);
  }
  for (unsigned I = N; I < NewN; ++I)
    std::fill_n(Dst + I * DstStride, NewN, DbmInfinity);
}

#ifndef NDEBUG
/// What debug builds write into dead cells. Finite and negative: read as a
/// bound, it tightens whatever it reaches and can close a negative cycle,
/// so the stray read surfaces as a wrong answer.
constexpr std::int64_t DeadCellPoison = -1000003;

bool validVictims(const std::vector<unsigned> &Victims, unsigned N) {
  return std::adjacent_find(Victims.begin(), Victims.end(),
                            std::greater_equal<unsigned>()) ==
             Victims.end() &&
         (Victims.empty() || Victims.back() < N);
}
#endif

/// Writes the survivors of the \p N-variable block at \p Src, without
/// \p Victims (strictly increasing), into \p Dst of the same
/// \p Stride, and recomputes each surviving row's occupancy byte exactly
/// into \p Occ while the row is still in cache — the one point where
/// stale bits are cleared. \p Dst may be \p Src: survivors then compact
/// in place, each row and run moving to a position never past its source.
void projectBlock(std::int64_t *Dst, const std::int64_t *Src,
                  std::size_t Stride, unsigned N,
                  const std::vector<unsigned> &Victims, std::uint8_t *Occ) {
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

  unsigned NewN = N - static_cast<unsigned>(Victims.size());
  unsigned NI = 0;
  for (auto [RowBegin, RowEnd] : Keep) {
    for (unsigned I = RowBegin; I < RowEnd; ++I, ++NI) {
      const std::int64_t *SrcRow = Src + I * Stride;
      std::int64_t *DstRow = Dst + NI * Stride;
      unsigned NJ = 0;
      for (auto [ColBegin, ColEnd] : Keep) {
        // In place, the runs before the first victim row and column are
        // already where they belong.
        if (DstRow + NJ != SrcRow + ColBegin)
          std::memmove(DstRow + NJ, SrcRow + ColBegin,
                       (ColEnd - ColBegin) * sizeof(std::int64_t));
        NJ += ColEnd - ColBegin;
      }
      std::uint8_t Any = 0;
      for (unsigned J = 0; J < NewN; ++J)
        Any |= static_cast<std::uint8_t>(J != NI && DstRow[J] < DbmInfinity);
      Occ[NI] = Any;
    }
  }
}

} // namespace

DenseDbmStorage::DenseDbmStorage(unsigned NewN, unsigned NewCap,
                                 std::vector<std::uint8_t> NewOcc)
    : N(NewN), Cap(NewCap), Data(static_cast<std::size_t>(NewCap) * NewCap),
      Occ(std::move(NewOcc)) {}

DenseDbmStorage::DenseDbmStorage(const DenseDbmStorage &O)
    : DenseDbmStorage(O.N, O.Cap, O.Occ) {
  growBlock(Data.data(), Cap, O.Data.data(), O.Cap, N, N);
  poisonDeadCells();
}

void DenseDbmStorage::poisonDeadCells() {
#ifndef NDEBUG
  for (unsigned I = 0; I < N; ++I)
    std::fill_n(Data.data() + static_cast<std::size_t>(I) * Cap + N, Cap - N,
                DeadCellPoison);
  std::fill(Data.begin() + static_cast<std::ptrdiff_t>(N) * Cap, Data.end(),
            DeadCellPoison);
#endif
}

void DenseDbmStorage::resize(unsigned NewN) {
  assert(NewN >= N && "DBM storage cannot shrink via resize");
  if (NewN == N)
    return;
  unsigned NewCap = grownCap(Cap, NewN);
  if (NewCap == Cap) {
    // Within capacity: the incoming cells may hold stale bounds from an
    // earlier, wider use of this buffer, so they are overwritten.
    growBlock(Data.data(), Cap, Data.data(), Cap, N, NewN);
    Occ.resize(NewN, 0);
    N = NewN;
    return;
  }
  Buffer Fresh(static_cast<std::size_t>(NewCap) * NewCap);
  growBlock(Fresh.data(), NewCap, Data.data(), Cap, N, NewN);
  Data = std::move(Fresh);
  Cap = NewCap;
  Occ.resize(NewN, 0);
  N = NewN;
  poisonDeadCells();
}

void DenseDbmStorage::resizeForOverwrite(unsigned NewN) {
  assert(N == 0 && Cap == 0 && "only an empty storage is sized for overwrite");
  Cap = grownCap(0, NewN);
  Data = Buffer(static_cast<std::size_t>(Cap) * Cap);
  Occ.resize(NewN, 0);
  poisonDeadCells(); // N is still 0: every cell is dead until written.
  N = NewN;
}

std::unique_ptr<DbmStorage> DenseDbmStorage::grownClone(unsigned NewN) const {
  assert(NewN >= N && "DBM storage cannot shrink via resize");
  // The occupancy bytes are copied and then grown, as in clone() followed
  // by resize(), so byteSize() — and the budget's peak — is unchanged.
  std::vector<std::uint8_t> NewOcc = Occ;
  NewOcc.resize(NewN, 0);
  std::unique_ptr<DenseDbmStorage> Copy(
      new DenseDbmStorage(NewN, grownCap(Cap, NewN), std::move(NewOcc)));
  growBlock(Copy->Data.data(), Copy->Cap, Data.data(), Cap, N, NewN);
  Copy->poisonDeadCells();
  return Copy;
}

std::unique_ptr<DbmStorage>
DenseDbmStorage::projectedClone(const std::vector<unsigned> &Victims) const {
  assert(validVictims(Victims, N) && "victims must be sorted, unique slots");
  unsigned NewN = N - static_cast<unsigned>(Victims.size());
  // Same stride, and occupancy storage sized as a clone's, so byteSize()
  // matches clone() followed by removeVars().
  std::unique_ptr<DenseDbmStorage> Copy(new DenseDbmStorage(NewN, Cap, Occ));
  projectBlock(Copy->Data.data(), Data.data(), Cap, N, Victims,
               Copy->Occ.data());
  Copy->Occ.resize(NewN);
  Copy->poisonDeadCells();
  return Copy;
}

void DenseDbmStorage::removeVars(const std::vector<unsigned> &Victims) {
  assert(validVictims(Victims, N) && "victims must be sorted, unique slots");
  if (Victims.empty())
    return;
  projectBlock(Data.data(), Data.data(), Cap, N, Victims, Occ.data());
  N -= static_cast<unsigned>(Victims.size());
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

void CowDbm::adoptPrivate(std::unique_ptr<DbmStorage> M) {
  auto Fresh = std::make_shared<DbmShared>(std::move(M));
  Fresh->Closed = B->Closed;
  Fresh->Feasible = B->Feasible;
  Fresh->PendingEdge = B->PendingEdge;
  Fresh->EverClosed = B->EverClosed;
  Fresh->Iterate = B->Iterate;
  Fresh->reaccount();
  B = std::move(Fresh);
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
