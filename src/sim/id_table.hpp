#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

namespace dvc::sim {

/// The in-flight records of one asynchronous layer (a guest's timers, a
/// pool's transfers, a hypervisor's saves, a coordinator's rounds), each
/// filed under an id the table assigns. An event or a lower layer's
/// report carries only `(owner, id)` and looks its record up here, so a
/// record that has ended (finished, cancelled or torn down) resolves to
/// nothing and a late event is dropped.
///
/// Ids start at 1 and only grow, so open() appends and the table stays
/// in id order: find() is a binary search, and iteration and erase_if
/// visit records in the order they were opened, which fixes the order of
/// whatever a walk schedules. The records sit contiguously and the table
/// keeps its capacity, so a layer that opens and ends records in steady
/// state never touches the heap.
///
/// `Record` is movable and has a public data member `id` of type `Id`
/// (0 until open() sets it). Like a std::vector's element, it may still
/// be incomplete where the table is declared.
template <class Record, class Id = std::uint64_t>
class IdTable final {
 public:
  using iterator = typename std::vector<Record>::iterator;
  using const_iterator = typename std::vector<Record>::const_iterator;

  /// Files `r` under the next id. The reference holds until the table
  /// next opens or ends a record.
  Record& open(Record r) {
    static_assert(std::is_same_v<decltype(Record::id), Id>);
    r.id = next_id_++;
    return records_.emplace_back(std::move(r));
  }

  /// The live record `id`, or null once it has ended.
  [[nodiscard]] Record* find(Id id) {
    const auto it = locate(id);
    return it == records_.end() ? nullptr : &*it;
  }
  [[nodiscard]] const Record* find(Id id) const {
    return const_cast<IdTable*>(this)->find(id);
  }

  /// Moves record `id` out and erases it (nullopt once it has ended). The
  /// table is consistent again before the caller runs the record's
  /// continuation, which may open or end records.
  std::optional<Record> take(Id id) {
    const auto it = locate(id);
    if (it == records_.end()) return std::nullopt;
    return take_at(it);
  }

  /// One report into record `id` of a fan-out (a Record with `pending`
  /// reports still due and `all_ok`, the AND of those in so far): counts
  /// it and, on the last one, takes the record. Else, or once the record
  /// has ended, nullopt.
  std::optional<Record> join(Id id, bool ok) {
    const auto it = locate(id);
    if (it == records_.end()) return std::nullopt;
    it->all_ok = it->all_ok && ok;
    if (--it->pending != 0) return std::nullopt;
    return take_at(it);
  }

  /// Erases every record `pred` holds for and keeps the rest in id order.
  /// `pred` sees each record once, in id order, and may move out of one it
  /// erases (a continuation to run once the walk is over).
  template <class Pred>
  void erase_if(Pred pred) {
    auto kept = records_.begin();
    for (auto it = records_.begin(); it != records_.end(); ++it) {
      if (pred(*it)) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    records_.erase(kept, records_.end());
  }

  [[nodiscard]] iterator begin() noexcept { return records_.begin(); }
  [[nodiscard]] iterator end() noexcept { return records_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return records_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return records_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  /// Ends every record; ids keep growing from where they were.
  void clear() noexcept { records_.clear(); }

 private:
  /// Record `id`, or end() once it has ended.
  [[nodiscard]] iterator locate(Id id) {
    const auto it = std::lower_bound(
        records_.begin(), records_.end(), id,
        [](const Record& r, Id want) { return r.id < want; });
    return it != records_.end() && it->id == id ? it : records_.end();
  }
  std::optional<Record> take_at(iterator it) {
    std::optional<Record> out(std::move(*it));
    records_.erase(it);
    return out;
  }

  std::vector<Record> records_;  ///< ascending id
  Id next_id_ = 1;
};

}  // namespace dvc::sim
