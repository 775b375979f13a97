// Environment knobs (BFC_*): one parser, one contract. Unset or empty
// selects the default; anything else must parse completely and lie in
// [lo, hi], or the process aborts with a message naming the knob and the
// accepted range — a typo or an out-of-range value must never silently
// become a different run. Callers decide when a knob is read (once per
// process, per engine instance, per plan).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace bfc {

namespace detail {
[[noreturn]] inline void bad_knob(const char* name, const char* env,
                                  const char* want) {
  std::fprintf(stderr, "%s='%s' is not %s\n", name, env, want);
  std::abort();
}
}  // namespace detail

inline long env_long(const char* name, long def, long lo, long hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return def;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < lo || v > hi) {
    char want[80];
    std::snprintf(want, sizeof want, "an integer in [%ld, %ld]", lo, hi);
    detail::bad_knob(name, env, want);
  }
  return v;
}

inline double env_double(const char* name, double def, double lo,
                         double hi) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return def;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0' || !(v >= lo && v <= hi)) {
    char want[80];
    std::snprintf(want, sizeof want, "a number in [%g, %g]", lo, hi);
    detail::bad_knob(name, env, want);
  }
  return v;
}

// "0" or "1"; nothing else ("yes", "true", "01") is accepted.
inline bool env_switch(const char* name, bool def) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return def;
  if (std::strcmp(env, "0") == 0) return false;
  if (std::strcmp(env, "1") == 0) return true;
  detail::bad_knob(name, env, "0 or 1");
}

}  // namespace bfc
