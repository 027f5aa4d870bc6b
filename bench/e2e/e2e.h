// Shared pieces of bench_e2e: the allocator setting of every measured
// process, sample statistics, the per-run result (metrics +
// attempted/failed counts + the one-line JSON the harness reads), and the
// span recorder the --trace runs use.
//
// Spans are recorded only from the benchmark's own files, around calls
// into each module's public functions; nothing inside src/ is
// instrumented. They are kept in memory and written as Chrome
// trace-event JSON (open in Perfetto or chrome://tracing) at exit.

#ifndef FASTCORESET_BENCH_E2E_E2E_H_
#define FASTCORESET_BENCH_E2E_E2E_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/timer.h"

namespace fastcoreset {
namespace e2e {

/// glibc's mmap threshold for every measured process (mallopt in the
/// bench, MALLOC_MMAP_THRESHOLD_ for the daemon). Fixing it sends every
/// large block straight to mmap and back to the system at free. With the
/// default dynamic threshold peak RSS depends on the threshold's history
/// and on which thread's arena kept which freed block: the same
/// build_sensitivity run peaked at either 99 or 107 MB, and the net_mixed
/// daemon at 20 to 24 MB.
inline constexpr int kMmapThresholdBytes = 128 * 1024;

/// q-quantile with linear interpolation between order statistics (0 for
/// an empty sample).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Least-squares slope of log(y) against log(x): the scaling exponent.
double LogLogSlope(const std::vector<double>& x, const std::vector<double>& y);

/// Peak resident set of this process so far, in MB (getrusage).
double SelfPeakRssMb();

/// Seconds one span costs to record (Open + Close) on this machine.
double MeasureSpanCost();

/// One measured number with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. Every operation and every output check
/// counts as attempted; a failed one counts as failed and makes the run
/// incorrect (non-zero exit).
class Result {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation or check; records `what` on failure.
  bool Check(bool ok, const std::string& what);
  /// Value of a metric added earlier (0 when absent).
  double Get(const std::string& name) const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& failures() const { return failures_; }

  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span recorder. A span has a name, the span that caused it,
/// the request it belongs to, and start/end seconds on the recorder's
/// clock. Disabled recorders keep nothing and cost one branch.
class Trace {
 public:
  static constexpr size_t kNoParent = 0;

  explicit Trace(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Seconds on the recorder's clock.
  double Now() const { return clock_.Seconds(); }

  /// Opens a span starting now; returns its id (1-based, 0 when
  /// disabled). Children pass the id as their parent.
  size_t Open(const char* name, size_t parent, uint64_t request);
  /// Ends the span `id` now (no-op for id 0).
  void Close(size_t id);
  /// Records a span timed by the caller (e.g. a request timed from its
  /// scheduled send time); returns its id.
  size_t Record(const char* name, size_t parent, uint64_t request,
                double start, double end);

  /// Durations (seconds) of every span with this name, in record order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes Chrome trace-event JSON ("X" events, one row per request).
  bool WriteChrome(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    size_t parent;
    uint64_t request;
    double start;
    double end;
  };
  bool enabled_;
  Timer clock_;
  std::vector<Span> spans_;
};

/// RAII span: opens at construction, closes at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* name, size_t parent, uint64_t request)
      : trace_(trace), id_(trace.Open(name, parent, request)) {}
  ~ScopedSpan() { trace_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  size_t id() const { return id_; }

 private:
  Trace& trace_;
  size_t id_;
};

}  // namespace e2e
}  // namespace fastcoreset

#endif  // FASTCORESET_BENCH_E2E_E2E_H_
