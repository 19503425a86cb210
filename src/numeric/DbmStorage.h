//===- numeric/DbmStorage.h - Bound-matrix storage backends -------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage backends for the constraint graph's difference-bound matrix.
/// Section IX of the paper attributes most of the prototype's cost to
/// transitive closures over STL-container state and lists "arrays instead
/// of C++ STL containers" as optimization direction 3. Both variants are
/// implemented here so the ablation benchmark (E6) can measure the gap:
///
///   * DenseDbmStorage — flat contiguous rows (stride >= logical size, so
///     variable growth is an O(n) fill instead of an O(n^2) re-layout),
///     arena-pooled buffers, and a per-row occupancy bitmap; exposes a
///     raw row view that the non-virtual closure kernel
///     (numeric/ClosureKernel.h) vectorizes over;
///   * MapDbmStorage   — std::map keyed by (row, col), mirroring the
///     prototype's container-heavy state representation.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_NUMERIC_DBMSTORAGE_H
#define CSDF_NUMERIC_DBMSTORAGE_H

#include "support/Arena.h"

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace csdf {

class AnalysisBudget;
class DenseDbmStorage;

/// The "no constraint" bound. Kept far from the int64 limits so saturated
/// additions cannot overflow.
inline constexpr std::int64_t DbmInfinity =
    std::numeric_limits<std::int64_t>::max() / 4;

/// The lowest bound kept. Only a negative cycle drives bounds this far
/// down, and such a system is infeasible whatever its entries read, so
/// clamping there keeps closure's repeated additions inside int64: every
/// entry lies in [DbmNegFloor, DbmInfinity], and two of them sum without
/// overflow.
inline constexpr std::int64_t DbmNegFloor = -DbmInfinity;

/// Saturating addition treating DbmInfinity as absorbing and clamping at
/// DbmNegFloor.
inline std::int64_t dbmAdd(std::int64_t A, std::int64_t B) {
  if (A >= DbmInfinity || B >= DbmInfinity)
    return DbmInfinity;
  std::int64_t Sum = A + B;
  return Sum < DbmNegFloor ? DbmNegFloor : Sum;
}

/// Abstract square matrix of bounds: entry (I, J) is the best known C with
/// v_I <= v_J + C; DbmInfinity means unconstrained.
class DbmStorage {
public:
  virtual ~DbmStorage() = default;

  virtual std::int64_t get(unsigned I, unsigned J) const = 0;
  virtual void set(unsigned I, unsigned J, std::int64_t Bound) = 0;
  /// Grows to \p N variables; new entries are unconstrained.
  virtual void resize(unsigned N) = 0;
  virtual unsigned size() const = 0;
  virtual std::unique_ptr<DbmStorage> clone() const = 0;

  /// Removes the variables at \p Victims (strictly increasing, each
  /// < size()) in one pass, renumbering the survivors densely in their
  /// original order.
  virtual void removeVars(const std::vector<unsigned> &Victims) = 0;

  /// A copy grown to \p N variables: clone() then resize(N), fused by
  /// backends that can copy and grow in one pass.
  virtual std::unique_ptr<DbmStorage> grownClone(unsigned N) const {
    std::unique_ptr<DbmStorage> Copy = clone();
    Copy->resize(N);
    return Copy;
  }

  /// A copy without the variables at \p Victims: clone() then
  /// removeVars(Victims), fused by backends that can project while they
  /// copy.
  virtual std::unique_ptr<DbmStorage>
  projectedClone(const std::vector<unsigned> &Victims) const {
    std::unique_ptr<DbmStorage> Copy = clone();
    Copy->removeVars(Victims);
    return Copy;
  }

  /// Approximate heap bytes held by this matrix, for the AnalysisBudget
  /// memory ceiling.
  virtual std::uint64_t byteSize() const = 0;

  /// The flat-kernel discriminator: non-null when this storage is a
  /// DenseDbmStorage, in which case the closure kernel bypasses virtual
  /// get/set entirely (one virtual call per closure instead of three per
  /// matrix element).
  virtual DenseDbmStorage *asDense() { return nullptr; }
  virtual const DenseDbmStorage *asDense() const { return nullptr; }
};

/// Flat row-major array backend (the paper's optimization direction 3).
///
/// v2 layout: row I starts at `rows() + I * rowStride()`, with
/// rowStride() == allocated capacity >= size(). Keeping the stride at
/// capacity means growing by one variable (the engine adds variables one
/// at a time while building cold graphs) only fills the new row/column
/// with DbmInfinity instead of re-laying-out the whole matrix; the buffer
/// itself is recycled through the support/Arena pool. A per-row occupancy
/// bitmap records which rows carry any finite off-diagonal bound — the
/// closure kernel skips unoccupied rows wholesale, which collapses the
/// O(n^3) cold closure on the common mostly-unconstrained graphs.
///
/// Bitmap contract (conservative, one-sided): a clear bit guarantees the
/// row has no finite off-diagonal entry; a set bit may be stale (set()
/// never clears — writing DbmInfinity over a bound leaves the bit set).
/// Closure preserves it without maintenance because min-plus updates only
/// ever write finite bounds into rows that already had one.
///
/// Dead-cell contract: only the live size() x size() block is meaningful.
/// Cells past it (columns >= size() of live rows, and rows >= size()) are
/// unspecified — fresh buffers leave them unwritten and recycled ones hold
/// stale bounds — and nothing reads them: growth overwrites every incoming
/// cell before the block takes it in. So copies move only the live block:
/// the copy constructor, grownClone() (copy and grow, the fused detach of
/// ConstraintGraph::ensureSlot) and projectedClone() (copy only the
/// survivors, the fused detach of a projection). Debug builds fill the
/// dead cells of every fresh buffer with a finite poison bound, so a
/// kernel that reads past size() derives a wrong bound that the map
/// backend, as oracle, exposes.
class DenseDbmStorage final : public DbmStorage {
public:
  DenseDbmStorage() = default;
  /// Copies the live block into a buffer of the same capacity.
  DenseDbmStorage(const DenseDbmStorage &O);
  DenseDbmStorage(DenseDbmStorage &&) = default;
  DenseDbmStorage &operator=(const DenseDbmStorage &) = delete;
  DenseDbmStorage &operator=(DenseDbmStorage &&) = default;

  std::int64_t get(unsigned I, unsigned J) const override {
    return Data[static_cast<std::size_t>(I) * Cap + J];
  }
  void set(unsigned I, unsigned J, std::int64_t Bound) override {
    Data[static_cast<std::size_t>(I) * Cap + J] = Bound;
    Occ[I] = static_cast<std::uint8_t>(
        Occ[I] | static_cast<std::uint8_t>(I != J && Bound < DbmInfinity));
  }
  void resize(unsigned NewN) override;
  unsigned size() const override { return N; }
  std::unique_ptr<DbmStorage> clone() const override {
    return std::make_unique<DenseDbmStorage>(*this);
  }
  void removeVars(const std::vector<unsigned> &Victims) override;
  std::unique_ptr<DbmStorage> grownClone(unsigned NewN) const override;
  std::unique_ptr<DbmStorage>
  projectedClone(const std::vector<unsigned> &Victims) const override;
  std::uint64_t byteSize() const override {
    return Data.capacity() * sizeof(std::int64_t) + Occ.capacity();
  }

  /// Grows an empty storage to \p NewN variables without writing a cell:
  /// the caller must set every cell of the live block (kernel::join does).
  void resizeForOverwrite(unsigned NewN);

  DenseDbmStorage *asDense() override { return this; }
  const DenseDbmStorage *asDense() const override { return this; }

  //===--------------------------------------------------------------------===
  // Flat view for the closure kernel
  //===--------------------------------------------------------------------===

  /// First element of row 0; row I is at rows() + I * rowStride(). Only
  /// the leading size() entries of each row are meaningful.
  std::int64_t *rows() { return Data.data(); }
  const std::int64_t *rows() const { return Data.data(); }

  /// Distance in elements between consecutive rows (the allocation
  /// capacity, >= size()).
  unsigned rowStride() const { return Cap; }

  /// Per-row occupancy: rowOccupancy()[I] == 0 guarantees row I has no
  /// finite off-diagonal bound. Kernels that write rows directly must keep
  /// that guarantee.
  const std::uint8_t *rowOccupancy() const { return Occ.data(); }
  std::uint8_t *rowOccupancy() { return Occ.data(); }

private:
  using Buffer = std::vector<std::int64_t, PoolAllocator<std::int64_t>>;

  /// \p NewN variables over a fresh, unwritten \p NewCap x \p NewCap
  /// buffer, with occupancy bytes \p NewOcc.
  DenseDbmStorage(unsigned NewN, unsigned NewCap,
                  std::vector<std::uint8_t> NewOcc);

  /// Fills the cells outside the live block with a finite poison bound in
  /// debug builds (the dead-cell contract's check); a no-op otherwise.
  void poisonDeadCells();

  unsigned N = 0;   ///< Logical variable count.
  unsigned Cap = 0; ///< Row stride; Data holds Cap * Cap elements.
  Buffer Data;
  std::vector<std::uint8_t> Occ; ///< N entries.
};

/// std::map backend modelling the prototype's STL-heavy state (only finite
/// bounds are stored).
class MapDbmStorage final : public DbmStorage {
public:
  std::int64_t get(unsigned I, unsigned J) const override {
    auto It = Bounds.find({I, J});
    return It == Bounds.end() ? DbmInfinity : It->second;
  }
  void set(unsigned I, unsigned J, std::int64_t Bound) override {
    if (Bound >= DbmInfinity)
      Bounds.erase({I, J});
    else
      Bounds[{I, J}] = Bound;
  }
  void resize(unsigned NewN) override { N = NewN; }
  unsigned size() const override { return N; }
  std::unique_ptr<DbmStorage> clone() const override {
    return std::make_unique<MapDbmStorage>(*this);
  }
  void removeVars(const std::vector<unsigned> &Victims) override;
  std::uint64_t byteSize() const override {
    // Per-node estimate: key + value + rb-tree bookkeeping.
    return Bounds.size() * 64;
  }

private:
  unsigned N = 0;
  std::map<std::pair<unsigned, unsigned>, std::int64_t> Bounds;
};

/// Which backend a ConstraintGraph uses.
enum class DbmBackend {
  Dense,
  MapBased,
};

/// Creates an empty storage of the given backend.
std::unique_ptr<DbmStorage> makeDbmStorage(DbmBackend Backend);

//===----------------------------------------------------------------------===//
// Copy-on-write sharing
//===----------------------------------------------------------------------===//

/// The shared block behind a copy-on-write DBM handle: the matrix plus the
/// closure bookkeeping that describes it. Closed/Feasible/PendingEdge live
/// *inside* the block so that closing the matrix through one handle is
/// visible to every handle sharing it — closure canonicalizes the
/// represented constraint set without changing it, so sharing the result
/// is always sound (and is what makes the closure memo's blocks reusable).
struct DbmShared {
  std::unique_ptr<DbmStorage> M;
  bool Closed = true;
  bool Feasible = true;
  /// Set when exactly one edge was tightened since the last closure, which
  /// enables the O(n^2) repair path.
  std::optional<std::pair<unsigned, unsigned>> PendingEdge;
  /// False until the matrix has been closed once. Cold matrices (still
  /// being built, never queried) batch all tightenings into one full
  /// closure at the first query — which the ClosureMemo can serve when an
  /// identical graph was built before — while warm matrices repair each
  /// tightening eagerly with the O(n^2) path, the pCFG engine's
  /// steady-state pattern. Heuristic bookkeeping only — it never affects
  /// the represented constraint set.
  bool EverClosed = false;

  /// Bytes currently charged to Accountant for this block's matrix.
  std::uint64_t AccountedBytes = 0;
  /// The AnalysisBudget the bytes are charged to, bound lazily from the
  /// thread's current budget at the first reaccount(). Non-owning: the
  /// budget must outlive every block accounted against it.
  AnalysisBudget *Accountant = nullptr;

  DbmShared() = default;
  explicit DbmShared(std::unique_ptr<DbmStorage> Storage)
      : M(std::move(Storage)) {}
  ~DbmShared();

  DbmShared(const DbmShared &) = delete;
  DbmShared &operator=(const DbmShared &) = delete;

  /// Re-reads the matrix's byteSize() and charges the delta to the bound
  /// budget (binding to the thread's current budget first if unbound).
  /// Call after any allocation-changing mutation; a no-op when no budget
  /// is active.
  void reaccount();
};

/// Copy-on-write handle to a DbmShared block. Copying a handle is O(1);
/// the matrix is cloned only when a handle actually mutates while others
/// (or the closure memo) still reference the block. This is what turns the
/// pCFG engine's pervasive state copies (split, join, widen, match) from
/// O(n^2) deep copies into pointer bumps.
class CowDbm {
public:
  explicit CowDbm(DbmBackend Backend)
      : B(std::make_shared<DbmShared>(makeDbmStorage(Backend))) {}

  CowDbm(const CowDbm &) = default;
  CowDbm &operator=(const CowDbm &) = default;
  CowDbm(CowDbm &&) = default;
  CowDbm &operator=(CowDbm &&) = default;

  /// Read-only view of the shared block.
  const DbmShared &ro() const { return *B; }

  /// True when no other handle (or memo entry) shares the block.
  bool unique() const { return B.use_count() == 1; }

  /// Mutable access for state-changing operations: clones the block first
  /// when it is shared. Returns true when a clone (detach) happened.
  bool detach() {
    return detachAs([](const DbmStorage &M) { return M.clone(); });
  }

  /// detach() with a fused copy: when the block is shared, its private
  /// replacement holds \p Copy(matrix) — a copy with the caller's
  /// mutation already applied (DbmStorage::grownClone, projectedClone) —
  /// so the live cells move once. When the block is not shared nothing
  /// happens and the caller mutates in place. Returns true when a detach
  /// happened.
  template <typename CopyFn> bool detachAs(CopyFn &&Copy) {
    if (B.use_count() == 1)
      return false;
    adoptPrivate(Copy(*B->M));
    return true;
  }

  /// Mutable block for detach-free writes. Only valid for operations that
  /// preserve the represented constraint set (transitive closure) — every
  /// sharing handle observes the write.
  DbmShared &rwShared() const { return *B; }

  /// Mutable block after detach().
  DbmShared &rw() {
    detach();
    return *B;
  }

  /// Points this handle at \p NewBlock (used to adopt memoized closures).
  void adopt(std::shared_ptr<DbmShared> NewBlock) const {
    B = std::move(NewBlock);
  }

  /// The underlying block, for sharing with a memo.
  const std::shared_ptr<DbmShared> &block() const { return B; }

private:
  /// Points this handle at a new, unshared block holding \p M and the
  /// current block's closure bookkeeping.
  void adoptPrivate(std::unique_ptr<DbmStorage> M);

  mutable std::shared_ptr<DbmShared> B;
};

/// 64-bit FNV-1a fingerprint of \p M's contents (size + every bound), the
/// closure-memo key. Collisions are tolerated: memo hits verify the full
/// pre-closure image before adopting a result. Dense storages hash their
/// flat rows directly; the value is layout-independent (row-major logical
/// order), so it is unchanged from the virtual-dispatch implementation.
std::uint64_t dbmFingerprint(const DbmStorage &M);

/// Row-major snapshot of every bound in \p M, the collision-proof part of
/// a closure-memo key.
std::vector<std::int64_t> dbmSnapshot(const DbmStorage &M);

} // namespace csdf

#endif // CSDF_NUMERIC_DBMSTORAGE_H
