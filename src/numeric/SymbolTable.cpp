//===- numeric/SymbolTable.cpp --------------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "numeric/SymbolTable.h"

#include <cassert>
#include <stdexcept>

using namespace csdf;

SymbolTable::~SymbolTable() {
  for (auto &Slot : Chunks)
    delete Slot.load(std::memory_order_relaxed);
}

VarId SymbolTable::intern(const std::string &Name) {
  std::lock_guard<std::mutex> L(M);
  return internLocked(Name);
}

VarId SymbolTable::internLocked(const std::string &Name) {
  auto It = IdsByName.find(Name);
  if (It != IdsByName.end())
    return It->second;
  std::size_t N = Count.load(std::memory_order_relaxed);
  std::size_t Slot = N >> ChunkBits;
  if (Slot >= SpineSize)
    throw std::length_error("SymbolTable: too many interned names");
  Chunk *C = Chunks[Slot].load(std::memory_order_relaxed);
  if (!C) {
    C = new Chunk();
    Chunks[Slot].store(C, std::memory_order_release);
  }
  VarId Id = static_cast<VarId>(N);
  (*C)[N & (ChunkSize - 1)] = Name;
  // The release store publishes the written name to lock-free name()
  // readers in other threads, who learned the id through a synchronized
  // channel (the intern mutex or the engine's commit ordering).
  Count.store(N + 1, std::memory_order_release);
  IdsByName.emplace(Name, Id);
  return Id;
}

VarId SymbolTable::renamed(VarId Id, VarId ToNs) {
  std::uint64_t Key = static_cast<std::uint64_t>(Id) << 32 | ToNs;
  std::lock_guard<std::mutex> L(M);
  auto It = Renames.find(Key);
  if (It != Renames.end())
    return It->second;
  const std::string &From = name(Id);
  std::size_t Dot = From.find('.');
  assert(Dot != std::string::npos && "renamed() needs a namespaced name");
  VarId To = internLocked(name(ToNs) + From.substr(Dot));
  Renames.emplace(Key, To);
  return To;
}

std::optional<VarId> SymbolTable::lookup(const std::string &Name) const {
  std::lock_guard<std::mutex> L(M);
  auto It = IdsByName.find(Name);
  if (It == IdsByName.end())
    return std::nullopt;
  return It->second;
}
