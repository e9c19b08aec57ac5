// Output check run before any timing: one request per workload kind through
// the full testbed stack on functional (computing) boards at a small shape.
#pragma once

#include "common/status.h"

namespace bf::e2e {

// Sobel is compared byte-exactly with sobel_reference; MM and AlexNet with
// the same workload run on the native runtime (plus MM against
// matmul_reference within float tolerance). Returns the first mismatch.
Status functional_check(bool use_shared_memory);

}  // namespace bf::e2e
