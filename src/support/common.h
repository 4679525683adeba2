// Common error handling and small utilities shared by every PerfDojo module.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace perfdojo {

/// Exception thrown on violated IR invariants and misuse of the public API.
/// Transformation *applicability* failures are never reported via exceptions;
/// they simply yield no candidate locations.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

[[noreturn]] inline void fail(const std::string& msg) { throw Error(msg); }

/// Checked precondition; active in all build types (IR bugs must never pass
/// silently into the search space).
inline void require(bool cond, const std::string& msg) {
  if (!cond) fail(msg);
}
/// Same, for a literal message: builds the std::string only on failure, so a
/// passing check costs no allocation (the overload above constructs its
/// argument before the test).
inline void require(bool cond, const char* msg) {
  if (!cond) fail(msg);
}

/// 64-bit FNV-1a, used for canonical-program hashing and the feature hasher.
inline std::uint64_t fnv1a(const void* data, std::size_t n,
                           std::uint64_t seed = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv1a(const std::string& s,
                           std::uint64_t seed = 1469598103934665603ull) {
  return fnv1a(s.data(), s.size(), seed);
}

}  // namespace perfdojo
