#include "src/api/diagnostics.h"

#include <cstdio>

namespace fastcoreset {
namespace api {

namespace {

void AppendLine(std::string* out, const char* key, const std::string& value) {
  out->append(key);
  out->append("=");
  out->append(value);
  out->append("\n");
}

std::string FormatDouble(double seconds) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6f", seconds);
  return buffer;
}

}  // namespace

std::string BuildDiagnostics::ToString() const {
  std::string out;
  AppendLine(&out, "method", method);
  AppendLine(&out, "seed",
             external_rng ? "external" : std::to_string(seed));
  AppendLine(&out, "input_rows", std::to_string(input_rows));
  AppendLine(&out, "input_dims", std::to_string(input_dims));
  AppendLine(&out, "points_processed", std::to_string(points_processed));
  AppendLine(&out, "bytes_processed", std::to_string(bytes_processed));
  AppendLine(&out, "k", std::to_string(k));
  AppendLine(&out, "m_requested", std::to_string(m_requested));
  AppendLine(&out, "m_effective", std::to_string(m_effective));
  AppendLine(&out, "z", std::to_string(z));
  if (j_effective > 0) {
    AppendLine(&out, "j_effective", std::to_string(j_effective));
  }
  AppendLine(&out, "output_rows", std::to_string(output_rows));
  AppendLine(&out, "output_total_weight",
             FormatDouble(output_total_weight));
  for (const StageTime& stage : stages) {
    AppendLine(&out, ("stage." + stage.name + "_seconds").c_str(),
               FormatDouble(stage.seconds));
  }
  AppendLine(&out, "total_seconds", FormatDouble(total_seconds));
  if (work.kmeanspp_distance_evals > 0) {
    AppendLine(&out, "work.kmeanspp_distance_evals",
               std::to_string(work.kmeanspp_distance_evals));
    AppendLine(&out, "work.kmeanspp_rows_tested",
               std::to_string(work.kmeanspp_rows_tested));
  }
  return out;
}

}  // namespace api
}  // namespace fastcoreset
