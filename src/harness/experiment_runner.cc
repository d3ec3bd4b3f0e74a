#include "harness/experiment_runner.h"

#include <charconv>
#include <cmath>
#include <cstring>
#include <iostream>
#include <optional>
#include <string_view>
#include <thread>

namespace jgre::harness {
namespace {

void PrintUsage(const HarnessSpec& spec, std::ostream& out) {
  out << "usage: bench_" << spec.name << " [options]\n"
      << "  --jobs N     run N simulations concurrently (0 = all cores; "
         "default 1)\n"
      << "  --seed S     base RNG seed (default " << spec.default_seed << ")\n"
      << "  --json PATH  write machine-readable results to PATH\n"
      << "               (default BENCH_"
      << (spec.json_name.empty() ? spec.name : spec.json_name) << ".json)\n"
      << "  --no-json    skip the JSON file\n";
  if (spec.supports_trace) {
    out << "  --trace PATH write a Chrome-trace JSON timeline to PATH\n"
        << "               (loadable in ui.perfetto.dev / chrome://tracing)\n";
  }
  if (spec.supports_metrics) {
    out << "  --metrics    include the metrics table in the JSON output\n";
  }
  for (const HarnessFlag& flag : spec.extra_flags) {
    std::string left = flag.name + (flag.takes_value ? " V" : "");
    if (left.size() < 11) left.resize(11, ' ');
    out << "  " << left << "  " << flag.help << "\n";
  }
  out << "  --help       this text\n";
  if (!spec.extra_usage.empty()) out << spec.extra_usage;
}

template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto res = std::from_chars(begin, end, *out);
  return res.ec == std::errc{} && res.ptr == end;
}

}  // namespace

int ResolveJobs(int jobs) {
  if (jobs == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return jobs < 1 ? 1 : jobs;
}

HarnessOptions ParseHarnessOptions(const HarnessSpec& spec, int argc,
                                   char** argv) {
  HarnessOptions options;
  options.seed = spec.default_seed;
  options.json_path =
      "BENCH_" + (spec.json_name.empty() ? spec.name : spec.json_name) +
      ".json";

  auto find_extra = [&spec](std::string_view name) -> const HarnessFlag* {
    for (const HarnessFlag& flag : spec.extra_flags) {
      if (flag.name == name) return &flag;
    }
    return nullptr;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // Every long flag also accepts the --flag=value spelling.
    std::string_view name = arg;
    std::optional<std::string> inline_value;
    if (arg.size() > 2 && arg.substr(0, 2) == "--") {
      if (const auto eq = arg.find('='); eq != std::string_view::npos) {
        name = arg.substr(0, eq);
        inline_value = std::string(arg.substr(eq + 1));
      }
    }
    // Resolves the flag's value from --flag=value or the next argument.
    auto take_value = [&](const char* flag) -> std::optional<std::string> {
      if (inline_value.has_value()) return inline_value;
      if (i + 1 >= argc) {
        options.error = std::string(flag) + " requires a value";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    auto reject_value = [&](const char* flag) -> bool {
      if (!inline_value.has_value()) return true;
      options.error = std::string(flag) + " does not take a value";
      return false;
    };

    if (name == "--help" || name == "-h") {
      options.help = true;
      PrintUsage(spec, std::cout);
      return options;
    }
    if (name == "--jobs" || name == "-j") {
      const auto value = take_value("--jobs");
      if (!value.has_value()) break;
      int jobs = 0;
      if (!ParseNumber(*value, &jobs) || jobs < 0) {
        options.error =
            "--jobs expects a non-negative integer, got '" + *value + "'";
        break;
      }
      options.jobs = ResolveJobs(jobs);
    } else if (name == "--seed") {
      const auto value = take_value("--seed");
      if (!value.has_value()) break;
      std::uint64_t seed = 0;
      if (!ParseNumber(*value, &seed)) {
        options.error =
            "--seed expects an unsigned integer, got '" + *value + "'";
        break;
      }
      options.seed = seed;
    } else if (name == "--json") {
      const auto value = take_value("--json");
      if (!value.has_value()) break;
      options.json_path = *value;
    } else if (name == "--no-json") {
      if (!reject_value("--no-json")) break;
      options.emit_json = false;
    } else if (spec.supports_trace && name == "--trace") {
      const auto value = take_value("--trace");
      if (!value.has_value()) break;
      options.trace_path = *value;
    } else if (spec.supports_metrics && name == "--metrics") {
      if (!reject_value("--metrics")) break;
      options.emit_metrics = true;
    } else if (const HarnessFlag* flag = find_extra(name)) {
      options.extra.emplace_back(name);
      if (flag->takes_value) {
        const auto value = take_value(flag->name.c_str());
        if (!value.has_value()) break;
        options.extra.push_back(*value);
      } else if (!reject_value(flag->name.c_str())) {
        break;
      }
    } else {
      options.error = "unknown option '" + std::string(arg) + "'";
      break;
    }
  }

  if (!options.error.empty()) {
    std::cerr << "error: " << options.error << "\n";
    PrintUsage(spec, std::cerr);
  }
  return options;
}

bool HasFlag(const HarnessOptions& options, std::string_view name) {
  for (const std::string& item : options.extra) {
    if (item == name) return true;
  }
  return false;
}

const std::string* FlagValue(const HarnessOptions& options,
                             std::string_view name) {
  for (std::size_t i = 0; i + 1 < options.extra.size(); ++i) {
    if (options.extra[i] == name) return &options.extra[i + 1];
  }
  return nullptr;
}

bool IntFlag(const HarnessOptions& options, std::string_view name, int* out) {
  const std::string* value = FlagValue(options, name);
  if (value == nullptr) return true;
  int parsed = 0;
  if (!ParseNumber(*value, &parsed) || parsed < 0) {
    std::cerr << "error: " << name << " wants a non-negative integer, got '"
              << *value << "'\n";
    return false;
  }
  *out = parsed;
  return true;
}

bool DoubleFlag(const HarnessOptions& options, std::string_view name,
                double* out) {
  const std::string* value = FlagValue(options, name);
  if (value == nullptr) return true;
  double parsed = 0.0;
  if (!ParseNumber(*value, &parsed) || !std::isfinite(parsed) || parsed < 0) {
    std::cerr << "error: " << name << " wants a non-negative number, got '"
              << *value << "'\n";
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace jgre::harness
