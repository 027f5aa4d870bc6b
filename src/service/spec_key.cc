#include "src/service/spec_key.h"

#include <string>
#include <type_traits>
#include <variant>

#include "src/api/algorithm.h"
#include "src/service/fingerprint.h"
#include "src/service/json.h"

namespace fastcoreset {
namespace service {

namespace {

/// One knob's value. Doubles use %.17g, so they round-trip exactly and
/// 0.7 and 0.7000000000000001 get distinct (correct) keys.
template <typename T>
std::string KnobValue(T value) {
  if constexpr (std::is_same_v<T, double>) {
    return JsonNumber(value);
  } else if constexpr (std::is_same_v<T, api::FastSeeder>) {
    return kFastSeederNames[static_cast<int>(value)];
  } else {
    return std::to_string(value);  // bool, int, size_t.
  }
}

/// "none" for methods without knobs, else "{name=value,...}" over the
/// options struct's Fields() list.
std::string SerializeOptions(const api::MethodOptions& options) {
  return std::visit(
      [](const auto& typed) -> std::string {
        using OptionsT = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<OptionsT, std::monostate>) {
          return "none";
        } else {
          std::string out = "{";
          OptionsT::Fields(typed, [&out](const char* name, auto value) {
            if (out.size() > 1) out += ",";
            out += name;
            out += '=';
            out += KnobValue(value);
          });
          return out + "}";
        }
      },
      options);
}

}  // namespace

api::FcStatusOr<std::string> CanonicalSpecKey(const api::CoresetSpec& spec) {
  api::FcStatusOr<const api::CoresetAlgorithm*> algo =
      api::FindMethod(spec.method);
  if (!algo.ok()) return algo.status();

  std::string key = "method=";
  key += algo.value()->name;
  key += ";k=" + std::to_string(spec.k);
  key += ";m=" + std::to_string(spec.EffectiveM());
  key += ";z=" + std::to_string(spec.z);
  key += ";seed=" + std::to_string(spec.seed);
  key += ";w=";
  key += spec.weights.empty()
             ? "unit"
             : FingerprintHex(FingerprintDoubles(spec.weights));
  const api::MethodOptions options =
      api::ResolvedOptions(spec, spec.EffectiveM());
  key += ";opt=" + SerializeOptions(options);
  return key;
}

}  // namespace service
}  // namespace fastcoreset
