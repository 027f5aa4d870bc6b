#include "src/service/protocol.h"

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/api/algorithm.h"
#include "src/data/coreset_io.h"
#include "src/service/fingerprint.h"

namespace fastcoreset {
namespace service {

namespace {

using api::FcStatus;
using api::FcStatusOr;

/// Incremental JSON-object response builder (keys are emitted in call
/// order; values are pre-escaped by the typed appenders).
class ObjectWriter {
 public:
  void String(const char* key, const std::string& value) {
    Key(key);
    AppendJsonString(&out_, value);
  }
  void Integer(const char* key, uint64_t value) {
    Key(key);
    out_ += std::to_string(value);
  }
  void Number(const char* key, double value) {
    Key(key);
    out_ += JsonNumber(value);
  }
  void Bool(const char* key, bool value) {
    Key(key);
    out_ += value ? "true" : "false";
  }
  /// Appends an already-serialized JSON value (array/object).
  void Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
  }
  std::string Finish() { return out_ + "}"; }

 private:
  void Key(const char* key) {
    out_ += first_ ? "{" : ",";
    first_ = false;
    AppendJsonString(&out_, key);
    out_ += ":";
  }
  std::string out_;
  bool first_ = true;
};

/// Top-level response writer: every response line (success or error)
/// leads with the protocol version, then the request's echoed "id"
/// correlation token (a pre-serialized JSON fragment; empty = absent).
/// Nested objects (stats sub-blocks) use a plain ObjectWriter — the
/// version belongs to the line, not to every object on it.
ObjectWriter ResponseWriter(const std::string& id_echo = std::string()) {
  ObjectWriter out;
  out.Integer("v", kProtocolVersion);
  if (!id_echo.empty()) out.Raw("id", id_echo);
  return out;
}

/// Error-response line carrying the request's id echo.
std::string ErrorResponseWithId(const api::FcStatus& status,
                                const std::string& id_echo) {
  ObjectWriter out = ResponseWriter(id_echo);
  out.Bool("ok", false);
  out.String("code", api::FcErrorCodeName(status.code()));
  out.String("message", status.message());
  return out.Finish();
}

FcStatus TypeError(const char* key, const char* expected) {
  return FcStatus::InvalidArgument("field '" + std::string(key) +
                                   "' must be a " + expected);
}

/// Readers: leave *out untouched when the key is absent, error on a
/// type/range mismatch. This keeps every protocol field optional with the
/// struct's own default.
FcStatus ReadString(const JsonValue& obj, const char* key, std::string* out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return FcStatus::Ok();
  if (!value->is_string()) return TypeError(key, "string");
  *out = value->string_value();
  return FcStatus::Ok();
}

FcStatus ReadBool(const JsonValue& obj, const char* key, bool* out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return FcStatus::Ok();
  if (!value->is_bool()) return TypeError(key, "boolean");
  *out = value->bool_value();
  return FcStatus::Ok();
}

FcStatus ReadDouble(const JsonValue& obj, const char* key, double* out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return FcStatus::Ok();
  if (!value->is_number()) return TypeError(key, "number");
  *out = value->number_value();
  return FcStatus::Ok();
}

/// Non-negative integer fields (counts, seeds). Doubles above 2^53 or
/// with a fractional part are errors, not truncations.
FcStatus ReadUnsigned(const JsonValue& obj, const char* key, uint64_t* out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return FcStatus::Ok();
  if (!value->is_number()) return TypeError(key, "number");
  const double number = value->number_value();
  if (number < 0.0 || number != std::floor(number) || number > 0x1p53) {
    return FcStatus::InvalidArgument("field '" + std::string(key) +
                                     "' must be a non-negative integer");
  }
  *out = static_cast<uint64_t>(number);
  return FcStatus::Ok();
}

FcStatus ReadSizeT(const JsonValue& obj, const char* key, size_t* out) {
  uint64_t value = *out;
  FcStatus status = ReadUnsigned(obj, key, &value);
  if (!status.ok()) return status;
  *out = static_cast<size_t>(value);
  return FcStatus::Ok();
}

FcStatus ReadInt(const JsonValue& obj, const char* key, int* out) {
  const JsonValue* value = obj.Find(key);
  if (value == nullptr) return FcStatus::Ok();
  if (!value->is_number()) return TypeError(key, "number");
  const double number = value->number_value();
  if (number != std::floor(number) || number < -1e9 || number > 1e9) {
    return FcStatus::InvalidArgument("field '" + std::string(key) +
                                     "' must be an integer");
  }
  *out = static_cast<int>(number);
  return FcStatus::Ok();
}

/// Typo guard: every verb names its full field set; anything else is an
/// error rather than a silently ignored knob.
template <typename IsKnown>
FcStatus CheckKeys(const JsonValue& obj, IsKnown is_known) {
  for (const auto& [key, value] : obj.object()) {
    if (!is_known(key)) {
      return FcStatus::InvalidArgument("unknown field '" + key + "'");
    }
  }
  return FcStatus::Ok();
}

FcStatus CheckAllowedKeys(const JsonValue& obj,
                          std::initializer_list<const char*> allowed) {
  return CheckKeys(obj, [allowed](const std::string& key) {
    for (const char* candidate : allowed) {
      if (key == candidate) return true;
    }
    return false;
  });
}

/// FastSeeder by wire name (kFastSeederNames). An empty string keeps
/// the default, as an absent key does.
FcStatus ReadSeeder(const JsonValue& obj, const char* key,
                    api::FastSeeder* out) {
  std::string name;
  FcStatus status = ReadString(obj, key, &name);
  if (!status.ok() || name.empty()) return status;
  for (size_t i = 0; i < std::size(kFastSeederNames); ++i) {
    if (name == kFastSeederNames[i]) {
      *out = static_cast<api::FastSeeder>(i);
      return FcStatus::Ok();
    }
  }
  return FcStatus::InvalidArgument(std::string(key) + " must be '" +
                                   kFastSeederNames[0] + "' or '" +
                                   kFastSeederNames[1] + "'");
}

/// One Fields() member, read by its C++ type.
template <typename T>
FcStatus ReadField(const JsonValue& obj, const char* key, T* out) {
  if constexpr (std::is_same_v<T, bool>) {
    return ReadBool(obj, key, out);
  } else if constexpr (std::is_same_v<T, double>) {
    return ReadDouble(obj, key, out);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    return ReadUnsigned(obj, key, out);
  } else if constexpr (std::is_same_v<T, size_t>) {
    return ReadSizeT(obj, key, out);
  } else if constexpr (std::is_same_v<T, int>) {
    return ReadInt(obj, key, out);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return ReadString(obj, key, out);
  } else {
    return ReadSeeder(obj, key, out);
  }
}

/// Reads a struct with a Fields() list from `obj`: the allowed keys and
/// the readers both come from the list, in its order, and absent keys
/// keep the struct's defaults.
template <typename Struct>
FcStatus ReadFields(const JsonValue& obj, Struct* out) {
  FcStatus status = CheckKeys(obj, [out](const std::string& key) {
    bool known = false;
    Struct::Fields(*out, [&](const char* name, auto&) {
      known = known || key == name;
    });
    return known;
  });
  Struct::Fields(*out, [&](const char* name, auto& member) {
    if (status.ok()) status = ReadField(obj, name, &member);
  });
  return status;
}

/// Per-method options sub-object -> the method's MethodOptions
/// alternative, read through the options struct's Fields() list; methods
/// without knobs take only {}.
FcStatusOr<api::MethodOptions> OptionsFromJson(
    const api::CoresetAlgorithm& algo, const JsonValue& options) {
  if (!options.is_object()) {
    return FcStatus::InvalidArgument("field 'options' must be an object");
  }
  return std::visit(
      [&](auto out) -> FcStatusOr<api::MethodOptions> {
        using OptionsT = decltype(out);
        if constexpr (std::is_same_v<OptionsT, std::monostate>) {
          if (options.object().empty()) return api::MethodOptions();
          return FcStatus::InvalidArgument(
              "method '" + std::string(algo.name) + "' takes no options");
        } else {
          FcStatus status = ReadFields(options, &out);
          if (!status.ok()) return status;
          return api::MethodOptions(out);
        }
      },
      algo.defaults);
}

FcStatusOr<Matrix> PointsFromJson(const JsonValue& rows) {
  if (!rows.is_array() || rows.array().empty()) {
    return FcStatus::InvalidArgument(
        "field 'points' must be a non-empty array of rows");
  }
  const size_t n = rows.array().size();
  size_t d = 0;
  std::vector<double> data;
  for (size_t r = 0; r < n; ++r) {
    const JsonValue& row = rows.array()[r];
    if (!row.is_array() || row.array().empty()) {
      return FcStatus::InvalidArgument(
          "points rows must be non-empty arrays of numbers");
    }
    if (r == 0) {
      d = row.array().size();
      data.reserve(n * d);
    } else if (row.array().size() != d) {
      return FcStatus::InvalidArgument("points rows have ragged lengths");
    }
    for (const JsonValue& cell : row.array()) {
      if (!cell.is_number()) {
        return FcStatus::InvalidArgument("points cells must be numbers");
      }
      data.push_back(cell.number_value());
    }
  }
  return Matrix(n, d, std::move(data));
}

FcStatusOr<SyntheticSpec> SyntheticFromJson(const JsonValue& obj) {
  if (!obj.is_object()) {
    return FcStatus::InvalidArgument("field 'synthetic' must be an object");
  }
  SyntheticSpec spec;
  FcStatus status = ReadFields(obj, &spec);
  if (!status.ok()) return status;
  return spec;
}

std::string HandleRegister(CoresetService& service, const JsonValue& request,
                           const std::string& id_echo) {
  const auto fail = [&](const FcStatus& status) {
    return ErrorResponseWithId(status, id_echo);
  };
  FcStatus status = CheckAllowedKeys(
      request, {"verb", "id", "name", "csv", "points", "synthetic"});
  if (!status.ok()) return fail(status);
  std::string name;
  status = ReadString(request, "name", &name);
  if (!status.ok()) return fail(status);
  if (name.empty()) {
    return fail(
        FcStatus::InvalidArgument("register needs a non-empty 'name'"));
  }

  const JsonValue* csv = request.Find("csv");
  const JsonValue* points = request.Find("points");
  const JsonValue* synthetic = request.Find("synthetic");
  const int sources = (csv != nullptr) + (points != nullptr) +
                      (synthetic != nullptr);
  if (sources != 1) {
    return fail(FcStatus::InvalidArgument(
        "register needs exactly one of 'csv', 'points', 'synthetic'"));
  }

  if (csv != nullptr) {
    if (!csv->is_string()) return fail(TypeError("csv", "string"));
    status = service.datasets().RegisterCsv(name, csv->string_value());
  } else if (points != nullptr) {
    FcStatusOr<Matrix> matrix = PointsFromJson(*points);
    if (!matrix.ok()) return fail(matrix.status());
    status = service.datasets().RegisterMatrix(name,
                                               std::move(matrix.value()));
  } else {
    FcStatusOr<SyntheticSpec> spec = SyntheticFromJson(*synthetic);
    if (!spec.ok()) return fail(spec.status());
    status = service.datasets().RegisterSynthetic(name, spec.value());
  }
  if (!status.ok()) return fail(status);

  // Re-resolve through the store rather than assuming success: a
  // concurrent Remove() can unbind the name between the Register above
  // and this lookup, and .value() on the failed lookup would abort the
  // server (found by the service concurrency stress test under TSan).
  api::FcStatusOr<std::shared_ptr<const DatasetEntry>> entry_or =
      service.datasets().Get(name);
  if (!entry_or.ok()) return fail(entry_or.status());
  const std::shared_ptr<const DatasetEntry>& entry = entry_or.value();
  ObjectWriter out = ResponseWriter(id_echo);
  out.Bool("ok", true);
  out.String("verb", "register");
  out.String("name", name);
  out.Integer("rows", entry->points.rows());
  out.Integer("dims", entry->points.cols());
  out.String("fingerprint", FingerprintHex(entry->fingerprint));
  return out.Finish();
}

std::string HandleBuild(CoresetService& service, const JsonValue& request,
                        const std::string& id_echo) {
  const auto fail = [&](const FcStatus& status) {
    return ErrorResponseWithId(status, id_echo);
  };
  FcStatus status = CheckAllowedKeys(
      request, {"verb", "id", "dataset", "method", "k", "m", "z", "seed",
                "options", "shards", "parallelism", "use_cache", "output"});
  if (!status.ok()) return fail(status);

  BuildRequest build;
  status = ReadString(request, "dataset", &build.dataset);
  if (!status.ok()) return fail(status);
  if (build.dataset.empty()) {
    return fail(FcStatus::InvalidArgument("build needs a 'dataset' name"));
  }
  FcStatusOr<api::CoresetSpec> spec = SpecFromJson(request);
  if (!spec.ok()) return fail(spec.status());
  build.spec = std::move(spec.value());
  if (!(status = ReadSizeT(request, "shards", &build.shards)).ok() ||
      !(status = ReadSizeT(request, "parallelism", &build.parallelism))
           .ok() ||
      !(status = ReadBool(request, "use_cache", &build.use_cache)).ok()) {
    return fail(status);
  }
  std::string output;
  status = ReadString(request, "output", &output);
  if (!status.ok()) return fail(status);

  FcStatusOr<BuildResponse> response = service.Build(build);
  if (!response.ok()) return fail(response.status());
  // Everything about the coreset is read from the shared build record:
  // a hit costs no pass over its rows.
  const CachedBuild& built = *response->build;
  const ServiceDiagnostics& diag = response->diagnostics;

  if (!output.empty() && !SaveCoresetCsv(output, built.coreset)) {
    return fail(
        FcStatus::Internal("could not write coreset to '" + output + "'"));
  }

  ObjectWriter out = ResponseWriter(id_echo);
  out.Bool("ok", true);
  out.String("verb", "build");
  out.String("dataset", build.dataset);
  out.String("cache", diag.cache_status);
  out.Integer("shards", diag.shard_count);
  // Effective shard-concurrency budget: 0 on a cache hit (no build ran).
  out.Integer("parallelism", diag.parallelism);
  out.Integer("rows", built.coreset.size());
  out.Integer("dims", built.coreset.points.cols());
  out.Number("total_weight", built.total_weight);
  out.String("coreset_fingerprint", FingerprintHex(built.fingerprint));
  out.Integer("points_processed", diag.points_processed);
  out.Integer("bytes_processed", diag.bytes_processed);
  // build_seconds is summed shard + merge work; critical_path_seconds is
  // the sharded build's wall clock (they differ when shards overlap).
  out.Number("build_seconds", diag.build_seconds);
  out.Number("critical_path_seconds", diag.critical_path_seconds);
  out.Number("seconds", diag.total_seconds);
  if (!diag.shards.empty()) {
    std::string shard_seconds = "[";
    std::string shard_windows = "[";
    for (size_t i = 0; i < diag.shards.size(); ++i) {
      if (i > 0) {
        shard_seconds += ",";
        shard_windows += ",";
      }
      shard_seconds += JsonNumber(diag.shards[i].build.total_seconds);
      shard_windows += "[" + JsonNumber(diag.shards[i].start_seconds) +
                       "," + JsonNumber(diag.shards[i].end_seconds) + "]";
    }
    out.Raw("shard_seconds", shard_seconds + "]");
    // Per-shard [start, end) offsets on the request wall clock;
    // concurrent shards show overlapping windows.
    out.Raw("shard_windows", shard_windows + "]");
  }
  if (diag.has_merge) {
    out.Number("merge_seconds", diag.merge.total_seconds);
  }
  if (!output.empty()) out.String("output", output);
  return out.Finish();
}

std::string HandleStats(CoresetService& service, const JsonValue& request,
                        const std::string& id_echo) {
  FcStatus status = CheckAllowedKeys(request, {"verb", "id"});
  if (!status.ok()) return ErrorResponseWithId(status, id_echo);
  const CoresetCache::Stats stats = service.CacheStats();
  const CoresetService::TransportStats transport = service.TransportLoad();

  // Load gauges of whatever transport fronts the service; all zero in
  // stdin/stdout mode (the stdio loop has no queue and no sessions).
  ObjectWriter transport_out;
  transport_out.Integer("queue_depth", transport.queue_depth);
  transport_out.Integer("sessions_active", transport.sessions_active);
  transport_out.Integer("requests_rejected", transport.requests_rejected);

  ObjectWriter cache;
  cache.Integer("hits", stats.hits);
  cache.Integer("misses", stats.misses);
  cache.Integer("evictions", stats.evictions);
  cache.Integer("entries", stats.entries);
  cache.Integer("bytes", stats.bytes);
  cache.Integer("capacity", stats.capacity);

  std::string datasets = "[";
  bool first = true;
  for (const std::string& name : service.datasets().Names()) {
    const auto entry_or = service.datasets().Get(name);
    // A name can vanish between Names() and Get() under concurrent
    // removal; skip it rather than abort on .value().
    if (!entry_or.ok()) continue;
    const std::shared_ptr<const DatasetEntry>& entry = entry_or.value();
    ObjectWriter row;
    row.String("name", entry->name);
    row.String("source", entry->source);
    row.Integer("rows", entry->points.rows());
    row.Integer("dims", entry->points.cols());
    row.String("fingerprint", FingerprintHex(entry->fingerprint));
    if (!first) datasets += ",";
    first = false;
    datasets += row.Finish();
  }
  datasets += "]";

  ObjectWriter out = ResponseWriter(id_echo);
  out.Bool("ok", true);
  out.String("verb", "stats");
  out.Integer("protocol_version", kProtocolVersion);
  out.Raw("cache", cache.Finish());
  out.Raw("transport", transport_out.Finish());
  out.Raw("datasets", datasets);
  return out.Finish();
}

std::string HandleEvict(CoresetService& service, const JsonValue& request,
                        const std::string& id_echo) {
  const auto fail = [&](const FcStatus& status) {
    return ErrorResponseWithId(status, id_echo);
  };
  FcStatus status = CheckAllowedKeys(request,
                                     {"verb", "id", "dataset", "all"});
  if (!status.ok()) return fail(status);
  bool all = false;
  status = ReadBool(request, "all", &all);
  if (!status.ok()) return fail(status);
  std::string dataset;
  status = ReadString(request, "dataset", &dataset);
  if (!status.ok()) return fail(status);

  ObjectWriter out = ResponseWriter(id_echo);
  if (all ? !dataset.empty() : dataset.empty()) {
    // Exactly one of the two forms, spelled out.
    return fail(FcStatus::InvalidArgument(
        "evict needs either 'dataset' or 'all':true"));
  }
  if (all) {
    service.ClearCache();
    out.Bool("ok", true);
    out.String("verb", "evict");
    out.Bool("cleared", true);
    return out.Finish();
  }
  FcStatusOr<size_t> evicted = service.EvictDataset(dataset);
  if (!evicted.ok()) return fail(evicted.status());
  out.Bool("ok", true);
  out.String("verb", "evict");
  out.String("dataset", dataset);
  out.Integer("evicted", evicted.value());
  return out.Finish();
}

}  // namespace

FcStatusOr<api::CoresetSpec> SpecFromJson(const JsonValue& request) {
  api::CoresetSpec spec;
  FcStatus status = ReadString(request, "method", &spec.method);
  if (!status.ok()) return status;
  if (!(status = ReadSizeT(request, "k", &spec.k)).ok() ||
      !(status = ReadSizeT(request, "m", &spec.m)).ok() ||
      !(status = ReadInt(request, "z", &spec.z)).ok() ||
      !(status = ReadUnsigned(request, "seed", &spec.seed)).ok()) {
    return status;
  }
  if (const JsonValue* options = request.Find("options")) {
    FcStatusOr<const api::CoresetAlgorithm*> algo =
        api::FindMethod(spec.method);
    if (!algo.ok()) return algo.status();
    FcStatusOr<api::MethodOptions> parsed =
        OptionsFromJson(*algo.value(), *options);
    if (!parsed.ok()) return parsed.status();
    spec.options = std::move(parsed.value());
  }
  return spec;
}

std::string ErrorResponse(const api::FcStatus& status) {
  return ErrorResponseWithId(status, std::string());
}

std::string OverloadResponse(size_t queue_depth, size_t queue_limit) {
  ObjectWriter out = ResponseWriter();
  out.Bool("ok", false);
  out.String("code",
             api::FcErrorCodeName(api::FcErrorCode::kUnavailable));
  out.String("message",
             "server overloaded: request queue is full (" +
                 std::to_string(queue_depth) + "/" +
                 std::to_string(queue_limit) + "); retry later");
  out.Integer("queue_depth", queue_depth);
  out.Integer("queue_limit", queue_limit);
  return out.Finish();
}

std::string HandleRequestLine(CoresetService& service,
                              const std::string& line) {
  FcStatusOr<JsonValue> request = ParseJson(line);
  if (!request.ok()) return ErrorResponse(request.status());
  if (!request.value().is_object()) {
    return ErrorResponse(
        FcStatus::InvalidArgument("request must be a JSON object"));
  }
  // The correlation token is extracted before the verb so that every
  // outcome below — including "unknown verb" — carries the echo.
  std::string id_echo;
  if (const JsonValue* id = request.value().Find("id")) {
    if (id->is_string()) {
      AppendJsonString(&id_echo, id->string_value());
    } else if (id->is_number()) {
      id_echo = JsonNumber(id->number_value());
    } else {
      return ErrorResponse(FcStatus::InvalidArgument(
          "field 'id' must be a string or number"));
    }
  }
  std::string verb;
  FcStatus status = ReadString(request.value(), "verb", &verb);
  if (!status.ok()) return ErrorResponseWithId(status, id_echo);

  if (verb == "register") {
    return HandleRegister(service, request.value(), id_echo);
  }
  if (verb == "build") return HandleBuild(service, request.value(), id_echo);
  if (verb == "stats") return HandleStats(service, request.value(), id_echo);
  if (verb == "evict") return HandleEvict(service, request.value(), id_echo);
  return ErrorResponseWithId(
      FcStatus::InvalidArgument("unknown verb '" + verb +
                                "' (register | build | stats | evict)"),
      id_echo);
}

}  // namespace service
}  // namespace fastcoreset
