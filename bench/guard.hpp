#pragma once

// The regression guard of the benches that CI runs against a committed
// BENCH_*.json baseline: read one number from the baseline, then allow at
// most a 3x move in the worse direction.

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

namespace tora::bench {

/// Which way a guarded metric improves.
enum class Better { Higher, Lower };

/// The positive number after `"key":` in the baseline JSON at `path`. A
/// baseline that cannot be read, lacks the key or holds no positive number
/// there would leave the guard checking nothing, so this names the file and
/// the key on stderr and returns NaN, which fails within_guard.
inline double read_guard(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  const double value =
      pos == std::string::npos
          ? 0.0
          : std::strtod(json.c_str() + pos + needle.size(), nullptr);
  if (!in || !std::isfinite(value) || value <= 0.0) {
    std::cerr << "regression guard: baseline " << path
              << " has no positive \"" << key << "\"\n";
    return std::nan("");
  }
  return value;
}

/// True when `value` lies within 3x of `baseline` on the worse side: at most
/// 3x the baseline when lower is better, at least a third of it when higher
/// is better. False for a NaN baseline.
inline bool within_guard(double value, double baseline, Better better) {
  return better == Better::Lower ? value <= 3.0 * baseline
                                 : value >= baseline / 3.0;
}

}  // namespace tora::bench
