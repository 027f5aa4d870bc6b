// Fixture: a rank table that is not a total order. Read in place of
// src/common/mutex.h, it MUST fire on the constant that reuses a rank
// and on the one that is not positive; the kUnranked sentinel is 0 by
// design.
#ifndef FIXTURE_LOCK_RANKS_BAD_H_
#define FIXTURE_LOCK_RANKS_BAD_H_

namespace fastcoreset {
namespace lock_rank {

inline constexpr int kUnranked = 0;
inline constexpr int kOuter = 10;
inline constexpr int kAlsoOuter = 10;
inline constexpr int kInner = 20;
inline constexpr int kNegative = -5;

}  // namespace lock_rank
}  // namespace fastcoreset

#endif  // FIXTURE_LOCK_RANKS_BAD_H_
