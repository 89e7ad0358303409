//===- query/InstanceTable.h - Flat scheduled-instance map -----*- C++ -*-===//
///
/// \file
/// An open-addressing map from InstanceId to (operation, issue cycle) for
/// the query modules' scheduled-instance bookkeeping. The standard
/// node-based unordered_map paid one allocation per assign and one free per
/// free — malloc traffic on the scheduler's hottest path. This table is a
/// single flat array: linear probing, backward-shift deletion (no
/// tombstones), power-of-two capacity, and a multiplicative hash, so
/// steady-state assign/free traffic allocates nothing.
///
/// Iteration order is slot order, which is deterministic for a given call
/// sequence — the owner-field rebuild that iterates this table stays
/// reproducible run to run.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_QUERY_INSTANCETABLE_H
#define RMD_QUERY_INSTANCETABLE_H

#include "query/QueryModule.h"

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

namespace rmd {

/// Maps live InstanceIds to their (op, issue cycle). Ids may be negative
/// (dangling boundary reservations use ids below -1); only the sentinel
/// INT32_MIN is reserved.
class InstanceTable {
public:
  struct Entry {
    InstanceId Id = Empty;
    OpId Op = 0;
    int32_t Cycle = 0;
  };

  InstanceTable() { Slots.resize(InitialCapacity); }

  size_t size() const { return Count; }
  bool empty() const { return Count == 0; }

  /// Inserts \p Id; returns false (and changes nothing) if already present.
  bool insert(InstanceId Id, OpId Op, int32_t Cycle) {
    assert(Id != Empty && "INT32_MIN is the empty-slot sentinel");
    if ((Count + 1) * 4 > Slots.size() * 3)
      grow();
    size_t I = slotFor(Id);
    while (Slots[I].Id != Empty) {
      if (Slots[I].Id == Id)
        return false;
      I = (I + 1) & (Slots.size() - 1);
    }
    Slots[I] = Entry{Id, Op, Cycle};
    ++Count;
    return true;
  }

  /// The live entry of \p Id, or nullptr.
  const Entry *find(InstanceId Id) const {
    assert(Id != Empty && "INT32_MIN is the empty-slot sentinel");
    size_t I = slotFor(Id);
    while (Slots[I].Id != Empty) {
      if (Slots[I].Id == Id)
        return &Slots[I];
      I = (I + 1) & (Slots.size() - 1);
    }
    return nullptr;
  }

  /// Removes \p Id; returns false if it was not present. Backward-shift
  /// deletion keeps probe chains tombstone-free.
  bool erase(InstanceId Id) {
    assert(Id != Empty && "INT32_MIN is the empty-slot sentinel");
    size_t I = slotFor(Id);
    while (Slots[I].Id != Id) {
      if (Slots[I].Id == Empty)
        return false;
      I = (I + 1) & (Slots.size() - 1);
    }
    size_t Mask = Slots.size() - 1;
    size_t Hole = I;
    size_t J = (I + 1) & Mask;
    while (Slots[J].Id != Empty) {
      size_t Home = slotFor(Slots[J].Id);
      // Shift J into the hole unless J's probe chain starts after the hole
      // (circular interval test).
      if (((J - Home) & Mask) >= ((J - Hole) & Mask)) {
        Slots[Hole] = Slots[J];
        Hole = J;
      }
      J = (J + 1) & Mask;
    }
    Slots[Hole].Id = Empty;
    --Count;
    return true;
  }

  /// Visits every live entry in slot order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const Entry &E : Slots)
      if (E.Id != Empty)
        F(E);
  }

  /// Empties the table, keeping the capacity (reset() is on the hot
  /// bench/scheduler restart path).
  void clear() {
    if (Count == 0)
      return;
    for (Entry &E : Slots)
      E.Id = Empty;
    Count = 0;
  }

private:
  static constexpr InstanceId Empty = std::numeric_limits<InstanceId>::min();
  static constexpr size_t InitialCapacity = 64;

  size_t slotFor(InstanceId Id) const {
    uint64_t H = static_cast<uint64_t>(static_cast<uint32_t>(Id));
    H *= 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(H >> 32) & (Slots.size() - 1);
  }

  void grow() {
    std::vector<Entry> Old = std::move(Slots);
    Slots.assign(Old.size() * 2, Entry{});
    for (const Entry &E : Old)
      if (E.Id != Empty) {
        size_t I = slotFor(E.Id);
        while (Slots[I].Id != Empty)
          I = (I + 1) & (Slots.size() - 1);
        Slots[I] = E;
      }
  }

  std::vector<Entry> Slots;
  size_t Count = 0;
};

} // namespace rmd

#endif // RMD_QUERY_INSTANCETABLE_H
