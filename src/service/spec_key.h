// Canonical cache-key serialization of a CoresetSpec. Two specs that
// describe the same build must map to the same key string, so the key
// canonicalizes everything the spec leaves implicit: the method name is
// resolved through the method table (alias "fast" == "fast_coreset"),
// m = 0 resolves to the 40k default, options resolve through
// api::ResolvedOptions (monostate to the method's defaults, welterweight
// j = 0 and bico max_features = 0 to their effective values) and are
// written knob by knob from the options struct's Fields() list, and input
// weights collapse to a content fingerprint. Anything that changes the
// built coreset must land in the key; anything that cannot must not. Keys
// are in-process only (never on the wire), so their spelling is free.

#ifndef FASTCORESET_SERVICE_SPEC_KEY_H_
#define FASTCORESET_SERVICE_SPEC_KEY_H_

#include <string>

#include "src/api/spec.h"
#include "src/api/status.h"

namespace fastcoreset {
namespace service {

/// Serializes a *validated* spec to its canonical key. Fails with
/// api::FindMethod's kNotFound when the method name is unknown (callers
/// validate first, so in the service flow this never fires after
/// validation).
api::FcStatusOr<std::string> CanonicalSpecKey(const api::CoresetSpec& spec);

}  // namespace service
}  // namespace fastcoreset

#endif  // FASTCORESET_SERVICE_SPEC_KEY_H_
