// Fixture: layering-violation MUST fire — fc_net reaches fc_geometry
// through fc_api's PUBLIC links, but only the modules a module links
// directly (common, api, service) are includable from src/net/.
// Linted as src/net/layering_fire_transitive.cc.
#include "src/api/fastcoreset.h"
#include "src/common/check.h"
#include "src/geometry/matrix.h"
#include "src/service/service.h"

namespace fastcoreset::net {

int Transport() { return 0; }

}  // namespace fastcoreset::net
