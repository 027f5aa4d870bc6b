// Fixture: layering-violation MUST fire — geometry sits below core (an
// upward include inverts the DAG), and 'experimental' is not a module:
// no CMakeLists.txt calls target_link_libraries(fc_experimental ...).
// Linted as src/geometry/layering_fire_undeclared.cc.
#include "src/common/check.h"
#include "src/core/coreset.h"
#include "src/experimental/prototype.h"
#include "src/geometry/point.h"

namespace fastcoreset::geometry {

double Distance() { return 0.0; }

}  // namespace fastcoreset::geometry
