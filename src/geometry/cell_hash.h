// Hashing of integer grid-cell coordinates.
//
// Grid cells (the spread-reduction boxes of Crude-Approx and
// Reduce-Spread) are identified by their integer coordinate vector at a
// given level. We never store the coordinate vectors; instead cells are
// keyed by a 128-bit hash (two independent 64-bit mixes), which makes an
// accidental collision across even billions of cells vanishingly unlikely.

#ifndef FASTCORESET_GEOMETRY_CELL_HASH_H_
#define FASTCORESET_GEOMETRY_CELL_HASH_H_

#include <cstdint>
#include <functional>
#include <span>

namespace fastcoreset {

/// 128-bit cell identifier (hash of level + integer cell coordinates).
struct CellKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const CellKey& a, const CellKey& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

/// std::hash adapter for CellKey.
struct CellKeyHash {
  size_t operator()(const CellKey& key) const {
    return static_cast<size_t>(key.hi ^ (key.lo * 0x9e3779b97f4a7c15ull));
  }
};

namespace internal_cell_hash {

inline uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace internal_cell_hash

/// Hashes (level, coords) into a CellKey. Two calls agree iff (with
/// overwhelming probability) level and all coordinates agree.
inline CellKey HashCell(int level, std::span<const int64_t> coords) {
  uint64_t h1 = internal_cell_hash::Mix(0x1234567893abcdefull ^
                                        static_cast<uint64_t>(level));
  uint64_t h2 = internal_cell_hash::Mix(0xfedcba9876543210ull +
                                        static_cast<uint64_t>(level));
  for (int64_t c : coords) {
    const uint64_t u = static_cast<uint64_t>(c);
    h1 = internal_cell_hash::Mix(h1 ^ u);
    h2 = internal_cell_hash::Mix(h2 + (u * 0x9e3779b97f4a7c15ull));
  }
  return CellKey{h1, h2};
}

}  // namespace fastcoreset

#endif  // FASTCORESET_GEOMETRY_CELL_HASH_H_
