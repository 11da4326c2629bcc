// Seq-indexed ring: LinkGuardian per-sequence-number state.
//
// The Tofino implementation keeps the Tx buffer, the reordering buffer and
// the reTxReqs bits in register arrays indexed by the 16-bit seqNo (§3.5,
// Appendix A). SeqRing is that layout for the simulator's 64-bit virtual
// sequence numbers: a power-of-two array whose slot for seq v is `v & mask`,
// each slot tagged with the v it holds. A lookup is one index and one tag
// compare; insert and erase touch one slot.
//
// Invariants:
//   * Tags make every operation exact, with the semantics of a map keyed by
//     v: find(v) sees only an entry inserted for that very v, so a stale
//     event carrying an old seq (after enable()/disable() or a mode flip)
//     finds exactly what an ordered container would have found.
//   * Live entries never share a slot. Inserting v into a slot held by
//     another live seq doubles the array and re-places every entry, until
//     the slot is free. Two seqs that differ modulo the old size still
//     differ modulo the new one, so re-placing never collides. The array
//     therefore covers the live window (lowest to highest live seq) and
//     grows only while that window widens — during warm-up or a stall — and
//     never shrinks: a steady-state insert/erase cycle allocates nothing.
//   * lo() is a lower bound on the live seqs and hi() an upper bound, so an
//     ascending walk over [lo(), hi()] visits every entry in seq order. lo()
//     moves up past freed seqs as the lowest entries are erased.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace lgsim::lg {

template <typename T>
class SeqRing {
 public:
  /// First allocation; a power of two.
  static constexpr std::size_t kInitialCapacity = 8;

  /// Entry for `v`, or nullptr.
  T* find(std::int64_t v) {
    if (slots_.empty()) return nullptr;
    Slot& s = slots_[index(v)];
    return s.seq == v ? &s.value : nullptr;
  }
  const T* find(std::int64_t v) const {
    return const_cast<SeqRing*>(this)->find(v);
  }

  /// Inserts a value-initialised entry for `v`, which must be absent.
  T& insert(std::int64_t v) {
    assert(find(v) == nullptr);
    if (slots_.empty()) slots_.resize(kInitialCapacity);
    while (slots_[index(v)].seq != kFree) grow();
    Slot& s = slots_[index(v)];
    s.seq = v;
    s.value = T{};
    if (size_ == 0) {
      lo_ = hi_ = v;
    } else {
      if (v < lo_) lo_ = v;
      if (v > hi_) hi_ = v;
    }
    ++size_;
    return s.value;
  }

  /// Entry for `v`, inserted value-initialised if absent.
  T& find_or_insert(std::int64_t v) {
    if (T* e = find(v)) return *e;
    return insert(v);
  }

  /// Frees the entry for `v`, which must be present.
  void erase(std::int64_t v) {
    Slot& s = slots_[index(v)];
    assert(s.seq == v);
    s.seq = kFree;
    --size_;
    if (size_ == 0) {
      lo_ = hi_ = 0;
      return;
    }
    if (v == lo_) {
      while (slots_[index(lo_)].seq != lo_) ++lo_;
    }
  }

  /// Frees every entry; the capacity stays.
  void clear() {
    for (Slot& s : slots_) s.seq = kFree;
    size_ = 0;
    lo_ = hi_ = 0;
  }

  /// Calls f(v, entry) for every entry in ascending seq order. f may erase
  /// the entry it is handed, and nothing else.
  template <typename F>
  void for_each(F&& f) {
    if (size_ == 0) return;
    const std::int64_t last = hi_;
    for (std::int64_t v = lo_; v <= last; ++v) {
      if (T* e = find(v)) f(v, *e);
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return slots_.size(); }
  /// Bounds of the live seqs; meaningful only when !empty().
  std::int64_t lo() const { return lo_; }
  std::int64_t hi() const { return hi_; }

 private:
  static constexpr std::int64_t kFree = std::numeric_limits<std::int64_t>::min();

  struct Slot {
    std::int64_t seq = kFree;
    T value{};
  };

  std::size_t index(std::int64_t v) const {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(v)) &
           (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> next(slots_.size() * 2);
    const std::size_t mask = next.size() - 1;
    for (Slot& s : slots_) {
      if (s.seq == kFree) continue;
      next[static_cast<std::size_t>(static_cast<std::uint64_t>(s.seq)) & mask] =
          std::move(s);
    }
    slots_ = std::move(next);
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::int64_t lo_ = 0;
  std::int64_t hi_ = 0;
};

}  // namespace lgsim::lg
