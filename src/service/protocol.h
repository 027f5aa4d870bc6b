// The fc_serve wire protocol: newline-delimited JSON requests and
// responses over stdin/stdout. One request object per line, dispatched on
// its "verb":
//
//   {"verb":"register","name":"d","csv":"points.csv"}
//   {"verb":"register","name":"g","synthetic":{"generator":
//        "gaussian_mixture","n":5000,"d":8,"kappa":16,"seed":3}}
//   {"verb":"register","name":"t","points":[[0,0],[1,1],[2,2]]}
//   {"verb":"build","dataset":"d","method":"fast_coreset","k":10,
//        "m":400,"seed":1,"shards":4,"parallelism":2,
//        "options":{"use_jl":false}}
//   {"verb":"stats"}
//   {"verb":"evict","dataset":"d"}        (or {"verb":"evict","all":true})
//
// Every response is one JSON object line that leads with the protocol
// version ("v":1 — bump kProtocolVersion on breaking response-shape
// changes) and carries an "ok" field; failures carry the FcStatus
// taxonomy ({"v":1,"ok":false,"code":"invalid_argument","message":...})
// and never terminate the server. Build responses carry the cache
// status, shard-aggregated accounting, the effective shard-concurrency
// budget + critical-path wall clock, and a coreset fingerprint
// (bit-identity witness); "parallelism" caps how many shards build at
// once (0 = all workers) without changing the result. Pass
// "output":"path.csv" to also persist the coreset via SaveCoresetCsv.
// The stats verb reports cache counters, the attached transport's load
// gauges (queue_depth / sessions_active / requests_rejected — all zero in
// stdin/stdout mode) and the registered datasets; per-build shard work is
// in each build response, not in stats. Unknown fields are rejected — a typoed knob must
// fail loudly, not silently fall back to a default. The "options" keys of
// each method are its options struct's Fields() list (src/api/spec.h);
// methods without knobs accept only an empty object.
//
// Transport-independent request context: every verb accepts an optional
// "id" member (string or number) — a client-chosen correlation token
// echoed verbatim as the response's "id" field, on success and error
// alike. Pipelined clients on a multiplexed transport use it to match
// responses to requests; the stdio transport is strictly in-order, so
// there it is just a convenience. Admission-control rejections
// (OverloadResponse) are emitted before the line is parsed and carry no
// echo.
//
// The marshalling lives in the library (not the tool) so tests drive the
// exact production surface: HandleRequestLine is fc_serve's whole loop
// body.

#ifndef FASTCORESET_SERVICE_PROTOCOL_H_
#define FASTCORESET_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>

#include "src/api/spec.h"
#include "src/api/status.h"
#include "src/service/json.h"
#include "src/service/service.h"

namespace fastcoreset {
namespace service {

/// Wire-protocol version every response line leads with ("v":1). Bump on
/// breaking response-shape changes; additive fields keep the version.
inline constexpr uint64_t kProtocolVersion = 1;

/// Marshals the spec-shaped fields of a request object (method, k, m, z,
/// seed, options) into a CoresetSpec. Absent fields keep their defaults;
/// wrong types, non-integral counts, unknown option keys, and options for
/// a method that takes none are invalid_argument.
api::FcStatusOr<api::CoresetSpec> SpecFromJson(const JsonValue& request);

/// Serializes a status as an error-response line (without trailing
/// newline).
std::string ErrorResponse(const api::FcStatus& status);

/// Structured admission-control rejection for a transport shedding load:
/// {"v":1,"ok":false,"code":"unavailable",...} with the queue gauges
/// that triggered the shed. Deliberately cheap — no JSON parse — so an
/// overloaded server can reject in O(line length).
std::string OverloadResponse(size_t queue_depth, size_t queue_limit);

/// Parses one request line, executes it against the service, and returns
/// the response line (without trailing newline). Never throws or aborts
/// on malformed input.
std::string HandleRequestLine(CoresetService& service,
                              const std::string& line);

}  // namespace service
}  // namespace fastcoreset

#endif  // FASTCORESET_SERVICE_PROTOCOL_H_
