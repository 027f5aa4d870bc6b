// Fixture: layering-violation MUST NOT fire — api declares common,
// geometry, clustering, core, and streaming as deps; same-module and
// system includes are always allowed.
// Linted as src/api/layering_clean.cc.
#include "src/api/algorithm.h"

#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/core/coreset.h"
#include "src/streaming/bico_tree.h"
#include "third_party/somelib/somelib.h"

namespace fastcoreset::api {

int Facade() { return 0; }

}  // namespace fastcoreset::api
