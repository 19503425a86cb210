//===- numeric/SymbolTable.h - Interned variable names -------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense integer identifiers for analysis variable names — the paper's
/// Section IX optimization direction 1 ("variable indices instead of
/// names"). One SymbolTable is shared by every component of one analysis
/// run (constraint graphs, process-set queries, the matcher, the
/// sequential dataflow analyses), so a variable name is hashed at most
/// once per appearance and every internal comparison is an integer
/// compare. The string API of the consuming classes remains as a thin
/// boundary for the CLI, lint passes and tests.
///
/// Ids are append-only: interning never invalidates previously handed-out
/// VarIds, which is what lets long-lived analysis states cache them.
///
/// The table is thread-safe so one instance may serve sessions on
/// different threads (a warm Analyzer's table outlives each request):
/// intern()/lookup() serialize on a mutex, while name() — the hot read on
/// comparison paths — is lock-free.
/// Names live in fixed-size chunks that are never moved once published, so
/// a reference returned by name() stays valid for the table's lifetime no
/// matter how many names are interned afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_NUMERIC_SYMBOLTABLE_H
#define CSDF_NUMERIC_SYMBOLTABLE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace csdf {

/// A dense index into a SymbolTable. Valid only together with the table
/// that produced it.
using VarId = std::uint32_t;

inline constexpr VarId InvalidVarId = static_cast<VarId>(-1);

/// Append-only intern pool mapping variable names to dense VarIds.
class SymbolTable {
public:
  SymbolTable() = default;
  ~SymbolTable();

  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// Returns the id of \p Name, creating it on first sight.
  VarId intern(const std::string &Name);

  /// Returns the id of \p Name if it was ever interned.
  std::optional<VarId> lookup(const std::string &Name) const;

  /// The name behind \p Id. Lock-free: \p Id must have been obtained from
  /// this table, which establishes the happens-before edge to the chunk
  /// publication.
  const std::string &name(VarId Id) const {
    const Chunk *C =
        Chunks[Id >> ChunkBits].load(std::memory_order_acquire);
    return (*C)[Id & (ChunkSize - 1)];
  }

  /// Number of interned names.
  std::size_t size() const { return Count.load(std::memory_order_acquire); }

  /// The id of `<name(ToNs)>.<base>`, where name(Id) is `<ns>.<base>`.
  /// Memoized on (Id, ToNs) under the intern mutex, so renaming a variable
  /// into a namespace it was renamed into before costs one integer-keyed
  /// lookup and interns nothing.
  VarId renamed(VarId Id, VarId ToNs);

private:
  VarId internLocked(const std::string &Name);

  /// 512 names per chunk; the spine supports 2^21 names, far beyond any
  /// program the analyzer meets (stress corpus peaks in the thousands).
  static constexpr unsigned ChunkBits = 9;
  static constexpr std::size_t ChunkSize = std::size_t(1) << ChunkBits;
  static constexpr std::size_t SpineSize = 4096;
  using Chunk = std::array<std::string, ChunkSize>;

  mutable std::mutex M;
  std::unordered_map<std::string, VarId> IdsByName;
  /// renamed() memo: (Id << 32 | ToNs) -> result id.
  std::unordered_map<std::uint64_t, VarId> Renames;
  std::array<std::atomic<Chunk *>, SpineSize> Chunks{};
  std::atomic<std::size_t> Count{0};
};

/// Tables are shared per analysis run.
using SymbolTablePtr = std::shared_ptr<SymbolTable>;

//===----------------------------------------------------------------------===//
// Namespaced names
//===----------------------------------------------------------------------===//
//
// The pCFG state keeps per-set and per-send variables in namespaces: a
// namespaced name is `<ns>.<base>` with exactly one dot. These helpers are
// the one place that format is taken apart; they compare in place and
// never allocate.

/// True when \p Name is `<Ns>.<something>`. `p1` holds `p1.x` but neither
/// `p10.x` nor a bare `p1`.
inline bool inNamespace(std::string_view Name, std::string_view Ns) {
  return Name.size() > Ns.size() && Name[Ns.size()] == '.' &&
         Name.compare(0, Ns.size(), Ns) == 0;
}

/// The namespace of \p Name (the part before its dot), or an empty view
/// when the name is bare.
inline std::string_view namespaceOf(std::string_view Name) {
  std::size_t Dot = Name.find('.');
  return Dot == std::string_view::npos ? std::string_view()
                                       : Name.substr(0, Dot);
}

/// True for the `$`-marked slots (`lo$`, `ub$`, ...) that carry a set's
/// or a send's own bookkeeping rather than program state.
inline bool isAnchorName(std::string_view Name) {
  return Name.find('$') != std::string_view::npos;
}

/// A simultaneous renaming of namespaces: every `<From>.<base>` becomes
/// `<To>.<base>`. The From namespaces must be distinct, and the map must
/// be injective on the names it touches.
class NamespaceMap {
public:
  NamespaceMap() = default;
  NamespaceMap(std::string From, std::string To) {
    add(std::move(From), std::move(To));
  }

  void add(std::string From, std::string To) {
    Entries.push_back({std::move(From), std::move(To)});
  }
  bool empty() const { return Entries.empty(); }
  std::size_t size() const { return Entries.size(); }
  const std::string &from(std::size_t I) const { return Entries[I].From; }
  const std::string &to(std::size_t I) const { return Entries[I].To; }

  /// The entry whose From namespace holds \p Name, if any.
  std::optional<std::size_t> find(std::string_view Name) const {
    for (std::size_t I = 0; I < Entries.size(); ++I)
      if (inNamespace(Name, Entries[I].From))
        return I;
    return std::nullopt;
  }

  /// \p Name renamed; unchanged when it lies in no From namespace.
  std::string apply(const std::string &Name) const {
    auto I = find(Name);
    if (!I)
      return Name;
    return Entries[*I].To + Name.substr(Entries[*I].From.size());
  }

private:
  struct Entry {
    std::string From;
    std::string To;
  };
  std::vector<Entry> Entries;
};

/// A NamespaceMap applied to interned ids. Each To namespace is interned
/// on first use and each renamed variable comes from the
/// SymbolTable::renamed memo, so renaming a variable seen before builds no
/// name string.
class NamespaceRenamer {
public:
  NamespaceRenamer(const NamespaceMap &Map, SymbolTable &Syms)
      : Map(Map), Syms(Syms), ToIds(Map.size(), InvalidVarId) {}

  /// \p Id renamed; unchanged when it lies in no From namespace.
  VarId operator()(VarId Id) {
    auto E = Map.find(Syms.name(Id));
    if (!E)
      return Id;
    if (ToIds[*E] == InvalidVarId)
      ToIds[*E] = Syms.intern(Map.to(*E));
    return Syms.renamed(Id, ToIds[*E]);
  }

private:
  const NamespaceMap &Map;
  SymbolTable &Syms;
  std::vector<VarId> ToIds;
};

} // namespace csdf

#endif // CSDF_NUMERIC_SYMBOLTABLE_H
