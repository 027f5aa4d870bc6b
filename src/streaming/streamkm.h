// StreamKM++ (Ackermann, Märtens, Raupach, Swierkot, Lammersen, Sohler,
// JEA'12): streaming k-means coresets built from k-means++ seeding.
//
// The reduce step draws an m-point D^2-sampled subset of the input (the
// "coreset tree" of the original paper realizes exactly this adaptive
// sampling distribution; we run the seeding directly at laptop scale) and
// weights each representative by the total weight of the points assigned
// to it. Streaming uses the standard bucket / merge-&-reduce mechanics.
//
// As the paper notes (Table 9), the method needs coreset sizes logarithmic
// in n and exponential in d to give guarantees, so at sensitivity-sampling
// sizes its distortion is noticeably worse.

#ifndef FASTCORESET_STREAMING_STREAMKM_H_
#define FASTCORESET_STREAMING_STREAMKM_H_

#include "src/common/work_counters.h"
#include "src/core/coreset.h"

namespace fastcoreset {

/// StreamKM++ reduce step: m representatives via D^2 (k-means++) seeding,
/// weighted by assigned input weight. The representatives are input rows,
/// but their indices are Coreset::kSyntheticIndex. The seeding's work is
/// added to `work` when non-null.
Coreset StreamKmReduce(const Matrix& points,
                       const std::vector<double>& weights, size_t m,
                       Rng& rng, WorkCounters* work = nullptr);

}  // namespace fastcoreset

#endif  // FASTCORESET_STREAMING_STREAMKM_H_
