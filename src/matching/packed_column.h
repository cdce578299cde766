// Bit-packed columnar storage for matching-relation level columns.
//
// Levels are tiny integers bounded by dmax (<= 255, and <= 14 for every
// paper workload), yet the seed stored them one byte each in plain
// std::vector columns. PackedColumn packs a level column to 4 bits per
// level when dmax <= 14 (two levels per byte, low nibble = even row)
// and 8 bits otherwise, in 64-byte-aligned slabs sized geometrically —
// the column acts as its own arena: ResizeRows/Reserve on the owning
// MatchingRelation sizes every slab once up front, so the hot build
// paths never reallocate. The packed words are exposed raw (data())
// for the SIMD count kernels in core/simd_count.h, whose AVX2 paths
// read 32-byte vectors straight out of the slab.
//
// Invariants the kernels and operator== rely on:
//  * every byte past the last used nibble/byte, up to capacity, is
//    zero (PushBack/Resize/shrink maintain this), so whole-byte
//    compares and vector tails never see garbage;
//  * packing never changes after construction (it is a function of
//    dmax, which is fixed per relation).

#ifndef DD_MATCHING_PACKED_COLUMN_H_
#define DD_MATCHING_PACKED_COLUMN_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace dd {

// A bucketed distance level in [0, dmax]. dmax is capped at 255.
using Level = std::uint8_t;

class PackedColumn {
 public:
  // Largest dmax the 4-bit packing holds: levels occupy [0, 14] and
  // nibble value 15 is never a valid level, so padding nibbles (always
  // zero) can never be confused with data by a byte-wise consumer.
  static constexpr int kMaxPacked4Dmax = 14;

  PackedColumn() = default;
  explicit PackedColumn(int dmax) : packed4_(dmax <= kMaxPacked4Dmax) {}

  PackedColumn(const PackedColumn& other);
  PackedColumn& operator=(const PackedColumn& other);
  PackedColumn(PackedColumn&& other) noexcept;
  PackedColumn& operator=(PackedColumn&& other) noexcept;
  ~PackedColumn();

  bool packed4() const { return packed4_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  Level Get(std::size_t row) const {
    if (packed4_) {
      const std::uint8_t byte = data_[row >> 1];
      return (row & 1) ? static_cast<Level>(byte >> 4)
                       : static_cast<Level>(byte & 0x0F);
    }
    return data_[row];
  }

  // Plain store. Concurrent writers must not share a byte: the parallel
  // builds split rows at even boundaries (ParallelForTuples in
  // matching_relation.h).
  void Set(std::size_t row, Level v) {
    if (packed4_) {
      std::uint8_t& byte = data_[row >> 1];
      if (row & 1) {
        byte = static_cast<std::uint8_t>((byte & 0x0F) | (v << 4));
      } else {
        byte = static_cast<std::uint8_t>((byte & 0xF0) | v);
      }
    } else {
      data_[row] = v;
    }
  }

  void PushBack(Level v);
  // Grows (new rows zero) or shrinks (tail bytes re-zeroed) the column.
  void Resize(std::size_t rows);
  void Reserve(std::size_t rows);

  // Removes the levels at `rows` (ascending, unique, each < size()),
  // keeping the survivors in order, in whole-byte moves: one memmove
  // per surviving run for 8-bit columns, and for 4-bit columns too when
  // a run keeps its nibble parity; a run that changes parity is one
  // byte-wise shifted copy. With `removed` set, removed[k * stride]
  // receives the level of rows[k]. Keeps the zero-filled tail.
  void RemoveRows(const std::vector<std::uint32_t>& rows,
                  Level* removed = nullptr, std::size_t stride = 1);

  // Raw packed words for the SIMD kernels. 64-byte aligned.
  const std::uint8_t* data() const { return data_; }
  // Bytes holding live levels: ceil(size/2) packed, size unpacked.
  std::size_t packed_bytes() const {
    return packed4_ ? (size_ + 1) / 2 : size_;
  }
  std::size_t capacity_bytes() const { return cap_bytes_; }

  // One byte per level, for serialization and debugging.
  std::vector<Level> Unpack() const;

  // Semantic equality: same length and the same level at every row
  // (packing is compared too — it only differs when dmax differs).
  bool operator==(const PackedColumn& other) const;
  bool operator!=(const PackedColumn& other) const {
    return !(*this == other);
  }

 private:
  // Reallocates to hold at least `bytes`, preserving contents and the
  // zero-fill invariant.
  void EnsureCapacity(std::size_t bytes);

  std::uint8_t* data_ = nullptr;  // 64-byte-aligned slab, zero-filled tail
  std::size_t size_ = 0;          // rows
  std::size_t cap_bytes_ = 0;
  bool packed4_ = false;
};

// Walks the runs of indices in [0, size) that survive dropping the
// ascending, unique indices `rows`, left to right, calling
// move(dst, from, count) to move run [from, from + count) down to dst
// (dst < from; indices before rows[0] stay put). Returns the new size.
template <typename Move>
std::size_t CompactRuns(std::size_t size,
                        const std::vector<std::uint32_t>& rows,
                        const Move& move) {
  if (rows.empty()) return size;
  std::size_t write = rows[0];
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const std::size_t from = rows[k] + std::size_t{1};
    const std::size_t to = k + 1 < rows.size() ? rows[k + 1] : size;
    if (to > from) move(write, from, to - from);
    write += to - from;
  }
  return write;
}

// GTest failure-message support.
void PrintTo(const PackedColumn& column, std::ostream* os);

}  // namespace dd

#endif  // DD_MATCHING_PACKED_COLUMN_H_
