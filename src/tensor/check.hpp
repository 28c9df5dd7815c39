// Precondition checks used across the library.
//
// Every public API boundary validates its arguments and throws
// std::invalid_argument (check_arg) or std::out_of_range (check_bounds).
// Hot inner loops (conv kernels, GEMM) do not re-check; they are only
// reachable through validated entry points.
//
// Contract: a check that passes costs one predictable branch. It allocates
// nothing and formats nothing. The message is given as parts, not as a
// finished string:
//
//   check_arg(x.dim() == 4, "Conv2d: expected [N, C, H, W], got ", x.shape());
//
// The parts reach msg_cat only inside a cold, non-inlined throw path. A part
// is anything std::ostream prints (literals, numbers, chars, std::string
// lvalues) or a Shape, which prints exactly as shape_str does ("[2, 3]").
// Parts are evaluated like any argument, whether or not the check fails, but
// they are never copied or converted on the success path.
//
// Writing a check:
//  * List the message parts after the condition. Never pass msg_cat(...),
//    shape_str(...) or any other std::string temporary. A static_assert
//    rejects them, since they would be built on every call.
//  * A part that exists only as a new string (a virtual name(), say) goes in
//    an explicit `if (!cond) throw std::invalid_argument(msg_cat(...));`,
//    which keeps the formatting on the failure path.
#pragma once

#include <cstdint>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace mtlsplit {

namespace detail {

template <typename Part>
void put_part(std::ostream& os, const Part& part) {
  os << part;
}

/// A dimension vector (Shape) prints as "[2, 3, 32, 32]".
inline void put_part(std::ostream& os, const std::vector<int64_t>& dims) {
  os << '[';
  for (size_t i = 0; i < dims.size(); ++i) {
    if (i) os << ", ";
    os << dims[i];
  }
  os << ']';
}

}  // namespace detail

/// Builds a message from streamable parts: msg_cat("bad dim ", 3, " of ", 4).
template <typename... Parts>
std::string msg_cat(const Parts&... parts) {
  std::ostringstream os;
  (detail::put_part(os, parts), ...);
  return os.str();
}

namespace detail {

/// How a part reaches the throw path: scalars by value (so the caller's
/// variable need not live in memory), literals as const char* (so checks
/// with equal part types share one instantiation), the rest by reference.
template <typename Part>
using throw_part_t =
    std::conditional_t<std::is_scalar_v<std::remove_reference_t<Part>> ||
                           std::is_array_v<std::remove_reference_t<Part>>,
                       std::decay_t<Part>, const std::remove_cvref_t<Part>&>;

template <typename Error, typename... Parts>
[[noreturn, gnu::cold, gnu::noinline]] void throw_check(Parts... parts) {
  throw Error(msg_cat(parts...));
}

template <typename... Parts>
constexpr bool no_string_temporaries =
    (!std::is_same_v<std::remove_cv_t<Parts>, std::string> && ...);

}  // namespace detail

/// Throws std::invalid_argument with msg_cat(parts...) when @p cond is false.
template <typename... Parts>
inline void check_arg(bool cond, Parts&&... parts) {
  static_assert(sizeof...(Parts) > 0, "check_arg: give a failure message");
  static_assert(detail::no_string_temporaries<Parts...>,
                "check_arg: pass message parts, not a built std::string "
                "(it would be built even when the check passes)");
  if (!cond) [[unlikely]]
    detail::throw_check<std::invalid_argument, detail::throw_part_t<Parts>...>(
        parts...);
}

/// Throws std::out_of_range with msg_cat(parts...) when @p cond is false.
template <typename... Parts>
inline void check_bounds(bool cond, Parts&&... parts) {
  static_assert(sizeof...(Parts) > 0, "check_bounds: give a failure message");
  static_assert(detail::no_string_temporaries<Parts...>,
                "check_bounds: pass message parts, not a built std::string "
                "(it would be built even when the check passes)");
  if (!cond) [[unlikely]]
    detail::throw_check<std::out_of_range, detail::throw_part_t<Parts>...>(
        parts...);
}

}  // namespace mtlsplit
