/// psi_perf — the repository's benchmark (see perf.hpp and README.md).
///
///   psi_perf --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
///   psi_perf --all [--seed S] [--seconds T] [--trace 0|1] [--out DIR]
///   psi_perf --smoke [--out DIR]
///
/// Prints every metric as `name value unit`, then one JSON line with the
/// keys correct, attempted, failed and metrics — the end-to-end metrics, or
/// with --trace 1 the per-layer ones (a traced run makes a fixed number of
/// operations, so --seconds does not apply to it). With --out, also writes
/// the full result to DIR/<workload>.s<seed>.<untraced|traced>.json and,
/// traced, DIR/<workload>.trace.json (Chrome trace_event) and
/// DIR/<workload>.layers.json. --all and --smoke run each workload in its
/// own child process. Exits 1 when an output check fails, 2 on a usage
/// error.
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/record.hpp"
#include "perf.hpp"

namespace psi::perf {
namespace {

struct Workload {
  const char* name;
  Report (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"replay_audikw46", run_replay},
    {"serve_warm", run_serve_warm},
    {"serve_cold", run_serve_cold},
    {"inverse_fem3d", run_inverse_sym},
    {"inverse_nsym_fem3d", run_inverse_nsym},
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + obs::format_double(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  return out + "}";
}

std::string layers_json(const std::vector<Tracer::Layer>& layers) {
  std::string out = "[";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const Tracer::Layer& l = layers[i];
    out += std::string(i == 0 ? "" : ",") + "\n  {\"name\": " +
           json_string(l.name) + ", \"count\": " + std::to_string(l.count) +
           ", \"total_ms\": " + obs::format_double(1e3 * l.total_s) +
           ", \"self_ms\": " + obs::format_double(1e3 * l.self_s) +
           ", \"self_p50_ms\": " + obs::format_double(1e3 * l.self_p50_s) +
           "}";
  }
  return out + "\n]";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  if (!out) std::fprintf(stderr, "psi_perf: cannot write %s\n", path.c_str());
}

int run_workload(const Workload& workload, const Options& options) {
  Report report;
  try {
    report = workload.run(options);
  } catch (const std::exception& e) {
    report.workload = workload.name;
    report.check(false, std::string("exception: ") + e.what());
  }
  if (options.trace && report.per_layer.empty())
    report.per_layer = per_layer_catalog();
  for (std::vector<Metric>* metrics : {&report.end_to_end, &report.per_layer})
    for (Metric& m : *metrics)
      if (!report.check(std::isfinite(m.value), m.name + " is not finite"))
        m.value = 0.0;

  std::printf("# %s seed=%llu seconds=%s trace=%d\n", workload.name,
              static_cast<unsigned long long>(options.seed),
              obs::format_double(options.seconds).c_str(), options.trace);
  for (const std::vector<Metric>* metrics :
       {&report.end_to_end, &report.per_layer})
    for (const Metric& m : *metrics)
      std::printf("%s %s %s\n", m.name.c_str(),
                  obs::format_double(m.value).c_str(), m.unit.c_str());
  for (const std::string& failure : report.failures)
    std::fprintf(stderr, "%s: CHECK FAILED: %s\n", workload.name,
                 failure.c_str());

  const bool correct = report.failed == 0;
  if (!options.out_dir.empty()) {
    std::string failures = "[";
    for (std::size_t i = 0; i < report.failures.size(); ++i)
      failures += (i == 0 ? "" : ", ") + json_string(report.failures[i]);
    const std::string base =
        options.out_dir + "/" + workload.name + ".s" +
        std::to_string(options.seed) + (options.trace ? ".traced" : ".untraced");
    write_file(base + ".json",
               "{\"workload\": " + json_string(workload.name) +
                   ", \"seed\": " + std::to_string(options.seed) +
                   ", \"seconds\": " + obs::format_double(options.seconds) +
                   ", \"trace\": " + (options.trace ? "true" : "false") +
                   ", \"correct\": " + (correct ? "true" : "false") +
                   ", \"attempted\": " + std::to_string(report.attempted) +
                   ", \"failed\": " + std::to_string(report.failed) +
                   ", \"failures\": " + failures + "]" +
                   ",\n\"end_to_end\": " + metrics_json(report.end_to_end) +
                   ",\n\"per_layer\": " + metrics_json(report.per_layer) +
                   ",\n\"layers\": " + layers_json(report.layers) + "}");
    if (options.trace)
      write_file(options.out_dir + "/" + workload.name + ".layers.json",
                 "{\"workload\": " + json_string(workload.name) +
                     ", \"layers\": " + layers_json(report.layers) + "}");
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed),
              metrics_json(options.trace ? report.per_layer : report.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

/// Runs every workload in a child process of its own (so peak RSS and
/// allocator state are per workload); returns the number that failed.
int run_all(const Options& options) {
  int failed = 0;
  for (const Workload& workload : kWorkloads) {
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid == 0) {
      const int code = run_workload(workload, options);
      std::fflush(nullptr);
      _exit(code);
    }
    int status = 0;
    if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "psi_perf: %s failed\n", workload.name);
      ++failed;
    }
  }
  return failed;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "psi_perf: %s\n"
               "usage: psi_perf --workload NAME [--seed S] [--seconds T] "
               "[--trace 0|1] [--out DIR]\n"
               "       psi_perf --all [--seed S] [--seconds T] [--trace 0|1] "
               "[--out DIR]\n"
               "       psi_perf --smoke [--out DIR]\n"
               "workloads: replay_audikw46 serve_warm serve_cold inverse_fem3d "
               "inverse_nsym_fem3d\n",
               message);
  return 2;
}

}  // namespace
}  // namespace psi::perf

int main(int argc, char** argv) {
  using namespace psi::perf;
  Options options;
  std::string workload;
  bool all = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    char* end = nullptr;
    if (arg == "--all") {
      all = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (value == nullptr) {
      return usage(("missing value or unknown flag " + arg).c_str());
    } else if (arg == "--workload") {
      workload = value;
      ++i;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*value == '\0' || *end != '\0' || *value == '-')
        return usage("--seed takes a non-negative integer");
      ++i;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !std::isfinite(options.seconds) ||
          options.seconds <= 0.0 || options.seconds > 600.0)
        return usage("--seconds takes a number in (0, 600]");
      ++i;
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace takes 0 or 1");
      options.trace = value[0] == '1';
      ++i;
    } else if (arg == "--out") {
      options.out_dir = value;
      ++i;
    } else {
      return usage(("unknown flag " + arg).c_str());
    }
  }
  if (static_cast<int>(all) + static_cast<int>(smoke) +
          static_cast<int>(!workload.empty()) != 1)
    return usage("give exactly one of --workload, --all, --smoke");

  if (smoke) {
    // Tiny sizes of every workload, traced, so every output check and the
    // trace writer run (registered as the ctest psi_perf_smoke). The files
    // go to the build directory unless --out says otherwise.
    options.smoke = true;
    options.trace = true;
    if (options.out_dir.empty()) options.out_dir = PSI_PERF_SMOKE_DIR;
  }
  if (!options.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    if (ec) return usage(("cannot create " + options.out_dir).c_str());
  }
  if (all || smoke) {
    const int failed = run_all(options);
    if (smoke && failed == 0) std::printf("# psi_perf smoke OK\n");
    return failed == 0 ? 0 : 1;
  }
  for (const Workload& w : kWorkloads)
    if (workload == w.name) return run_workload(w, options);
  return usage(("unknown workload " + workload).c_str());
}
