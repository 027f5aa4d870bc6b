// Content fingerprints for the service layer. A dataset is addressed by
// name but *cached* by content: the cache key embeds an FNV-1a hash over
// the matrix bytes, so re-registering a name with different rows can never
// serve a stale coreset, and two names bound to identical content share
// cache entries. The same hash doubles as a bit-identity witness for
// coresets in the fc_serve protocol (two responses with equal fingerprints
// carry equal points/weights/indices). A coreset's fingerprint is O(m·d),
// so it is computed once per build, when its CachedBuild record is made,
// and every response that serves the build (hit or miss) reads it there.

#ifndef FASTCORESET_SERVICE_FINGERPRINT_H_
#define FASTCORESET_SERVICE_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/coreset.h"
#include "src/geometry/matrix.h"

namespace fastcoreset {
namespace service {

inline constexpr uint64_t kFnv64Offset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv64Prime = 0x00000100000001b3ull;

/// FNV-1a over a byte range, chained via `state` so multi-part hashes
/// (dims, then data) compose without an intermediate buffer.
inline uint64_t Fnv1a64(const void* data, size_t bytes,
                        uint64_t state = kFnv64Offset) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    state ^= p[i];
    state *= kFnv64Prime;
  }
  return state;
}

inline uint64_t Fnv1a64(uint64_t value, uint64_t state) {
  return Fnv1a64(&value, sizeof(value), state);
}

/// Content hash of a matrix: shape plus raw double bytes. Bit-identical
/// matrices (not merely approximately equal ones) hash equal — exactly the
/// granularity the determinism contract guarantees.
inline uint64_t FingerprintMatrix(const Matrix& points) {
  uint64_t state = Fnv1a64(static_cast<uint64_t>(points.rows()), kFnv64Offset);
  state = Fnv1a64(static_cast<uint64_t>(points.cols()), state);
  return Fnv1a64(points.data().data(), points.data().size() * sizeof(double),
                 state);
}

inline uint64_t FingerprintDoubles(const std::vector<double>& values,
                                   uint64_t state = kFnv64Offset) {
  state = Fnv1a64(static_cast<uint64_t>(values.size()), state);
  return Fnv1a64(values.data(), values.size() * sizeof(double), state);
}

/// Bit-identity witness over a whole coreset (indices, points, weights).
inline uint64_t FingerprintCoreset(const Coreset& coreset) {
  uint64_t state = FingerprintMatrix(coreset.points);
  state = FingerprintDoubles(coreset.weights, state);
  state = Fnv1a64(static_cast<uint64_t>(coreset.indices.size()), state);
  return Fnv1a64(coreset.indices.data(),
                 coreset.indices.size() * sizeof(size_t), state);
}

/// Fixed-width lowercase hex rendering used in cache keys and protocol
/// responses.
inline std::string FingerprintHex(uint64_t fingerprint) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buffer;
}

}  // namespace service
}  // namespace fastcoreset

#endif  // FASTCORESET_SERVICE_FINGERPRINT_H_
