/// \file stencil_row_v3.cpp
/// x86-64-v3 (AVX2) build of the planned row kernels. This file is compiled
/// with -march=x86-64-v3 (see src/core/CMakeLists.txt) and selected at load
/// time when the host supports it; the portable baseline lives in
/// stencil.cpp. Same source body, same operation order, so results are
/// bitwise-identical to the reference — only the vector width differs.

#include <type_traits>

#include "core/stencil.hpp"

namespace advect::core::detail {

#define ADVECT_ROW_KERNEL_NAME apply_stencil_row_v3
#define ADVECT_PLANE_KERNEL_NAME apply_stencil_plane_v3
#define ADVECT_CHAIN_KERNEL_NAME apply_stencil_chain_v3
#define ADVECT_VAR_ROW_KERNEL_NAME apply_stencil_var_row_v3
#include "core/stencil_row_kernel.inc"
#undef ADVECT_VAR_ROW_KERNEL_NAME
#undef ADVECT_CHAIN_KERNEL_NAME
#undef ADVECT_PLANE_KERNEL_NAME
#undef ADVECT_ROW_KERNEL_NAME

}  // namespace advect::core::detail
