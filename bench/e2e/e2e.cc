#include "bench/e2e/e2e.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/service/json.h"

namespace fastcoreset {
namespace e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double LogLogSlope(const std::vector<double>& x,
                   const std::vector<double>& y) {
  const size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += std::log(x[i]);
    my += std::log(std::max(y[i], 1e-12));
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = std::log(x[i]) - mx;
    sxy += dx * (std::log(std::max(y[i], 1e-12)) - my);
    sxx += dx * dx;
  }
  return sxx > 0.0 ? sxy / sxx : 0.0;
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

double MeasureSpanCost() {
  constexpr int kSpans = 20000;
  Trace scratch(/*enabled=*/true);
  Timer timer;
  for (int i = 0; i < kSpans; ++i) {
    scratch.Close(scratch.Open("span", Trace::kNoParent, i));
  }
  return timer.Seconds() / kSpans;
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  Check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

bool Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    // Keep the first few messages; a broken daemon can fail thousands of
    // requests the same way.
    if (failures_.size() < 20) failures_.push_back(what);
  }
  return ok;
}

double Result::Get(const std::string& name) const {
  for (const Metric& metric : metrics_) {
    if (metric.name == name) return metric.value;
  }
  return 0.0;
}

std::string Result::Json() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted_);
  out += ",\"failed\":" + std::to_string(failed_);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ",";
    service::AppendJsonString(&out, metrics_[i].name);
    out += ":{\"value\":" + service::JsonNumber(metrics_[i].value) +
           ",\"unit\":";
    service::AppendJsonString(&out, metrics_[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

size_t Trace::Open(const char* name, size_t parent, uint64_t request) {
  if (!enabled_) return 0;
  const double now = Now();
  spans_.push_back({name, parent, request, now, -1.0});
  return spans_.size();
}

void Trace::Close(size_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end = Now();
}

size_t Trace::Record(const char* name, size_t parent, uint64_t request,
                     double start, double end) {
  if (!enabled_) return 0;
  spans_.push_back({name, parent, request, start, end});
  return spans_.size();
}

std::vector<double> Trace::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end >= span.start && name == span.name) {
      out.push_back(span.end - span.start);
    }
  }
  return out;
}

bool Trace::WriteChrome(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file);
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end < span.start) continue;
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%zu}}\n",
                 first ? "" : ",", span.name,
                 static_cast<unsigned long long>(span.request),
                 span.start * 1e6, (span.end - span.start) * 1e6, i + 1,
                 span.parent);
    first = false;
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace e2e
}  // namespace fastcoreset
