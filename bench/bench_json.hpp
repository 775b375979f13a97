// Machine-readable bench telemetry: BENCH_engine.json.
//
// Each bench (fig15_scale, micro_structures, ext_fault, fig10_buffer_opt)
// owns one top-level section of the file. Writers preserve every other
// object-valued top-level section whatever its name, so the file accretes
// instead of ping-ponging between benches.
//
// The file path is $BFC_BENCH_JSON, defaulting to BENCH_engine.json in
// the working directory (CI and the repo keep it at the repo root).
//
// Parsing is deliberately minimal: sections are extracted by balanced
// braces, which is sound because this writer never emits strings
// containing braces. Hand-edited files should keep that property.
#pragma once

#include <sys/resource.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace bfc::bench {

inline std::string bench_json_path() {
  const char* env = std::getenv("BFC_BENCH_JSON");
  return env != nullptr && *env != '\0' ? env : "BENCH_engine.json";
}

// Process peak RSS (VmHWM) in KB from /proc/self/status, falling back to
// getrusage where proc is unavailable. Note the ru_maxrss unit trap:
// Linux reports KB, macOS reports bytes. VmHWM is a process-wide
// high-water mark: sampled per bench row it is monotone across rows, so
// the first row that jumps is the one that grew the footprint.
inline long read_peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<long>(ru.ru_maxrss / 1024);  // bytes -> KB
#else
    return static_cast<long>(ru.ru_maxrss);  // already KB on Linux
#endif
  }
  return 0;
}

// The machine a bench ran on, as a JSON object: the CPU model from
// /proc/cpuinfo ("unknown" elsewhere) and `nproc`, the CPUs the process
// may use (pass ShardedSimulator::usable_cores(), which also sets the
// helper-executor count). Quotes, backslashes and braces are dropped
// from the model so the minimal parser below stays sound.
inline std::string host_stamp_json(int nproc) {
  std::ifstream in("/proc/cpuinfo");
  std::string line, model = "unknown";
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    model.clear();
    for (std::size_t i = line.find_first_not_of(" \t", colon + 1);
         i < line.size(); ++i) {
      const char c = line[i];
      if (c != '"' && c != '\\' && c != '{' && c != '}') model += c;
    }
    break;
  }
  std::ostringstream ss;
  ss << "{\"cpu_model\": \"" << model
     << "\", \"nproc\": " << nproc << "}";
  return ss.str();
}

inline std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Returns the balanced "{...}" object following `"key":`, or "" when the
// key is absent.
inline std::string extract_object(const std::string& text,
                                  const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t k = text.find(needle);
  if (k == std::string::npos) return {};
  const std::size_t open = text.find('{', k + needle.size());
  if (open == std::string::npos) return {};
  int depth = 0;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) {
      return text.substr(open, i - open + 1);
    }
  }
  return {};
}

// Top-level keys of the root object, in order: tracks brace depth and
// takes every depth-1 string immediately followed by ':'. Sufficient for
// this writer's output (top-level values are objects or numbers, and no
// emitted string contains braces).
inline std::vector<std::string> top_level_keys(const std::string& text) {
  std::vector<std::string> keys;
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (c != '"' || depth != 1) continue;
    const std::size_t end = text.find('"', i + 1);
    if (end == std::string::npos) break;
    std::size_t j = end + 1;
    while (j < text.size() && std::isspace(static_cast<unsigned char>(
                                  text[j]))) {
      ++j;
    }
    if (j < text.size() && text[j] == ':') {
      keys.push_back(text.substr(i + 1, end - i - 1));
    }
    i = end;
  }
  return keys;
}

// Rewrites the bench JSON file: replaces (or appends) `section` with
// `body` (a "{...}" object) and preserves every other object-valued
// top-level section whatever its name.
inline void update_bench_json(const std::string& section,
                              const std::string& body) {
  const std::string path = bench_json_path();
  const std::string old = slurp(path);

  std::ostringstream out;
  out << "{\n  \"schema\": 1";
  bool wrote_own = false;
  for (const std::string& name : top_level_keys(old)) {
    if (name == "schema") continue;
    const std::string kept =
        name == section ? body : extract_object(old, name);
    if (kept.empty()) continue;
    out << ",\n  \"" << name << "\": " << kept;
    wrote_own = wrote_own || name == section;
  }
  if (!wrote_own) out << ",\n  \"" << section << "\": " << body;
  out << "\n}\n";

  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench_json: cannot write %s\n", path.c_str());
    return;
  }
  f << out.str();
  std::printf("(bench json -> %s)\n", path.c_str());
}

}  // namespace bfc::bench
