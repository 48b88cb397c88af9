/// \file perf.hpp
/// \brief psi_perf — the repository's benchmark: five workloads, each run
/// in its own process, timed only from outside the library.
///
/// Every workload reports the same end-to-end metrics (set-up time, the
/// 90th-percentile time of its unit operation and peak RSS), so a change
/// is judged per (metric, workload) pair. A traced run
/// (--trace 1) makes a fixed number of operations twice — once with the
/// span recorder detached, once attached — and derives the per-layer
/// metrics from the spans and from counters the library already exports
/// (RunResult, Response phase fields, PlanCache::Stats, TaskGraphStats).
///
/// Every config value is explicit: nothing here reads bench_scale(),
/// bench_reps() or compute_threads(), so no PSI_* environment variable can
/// change what is measured.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "numeric/block_matrix.hpp"
#include "sparse/sparse_matrix.hpp"
#include "sparse/types.hpp"

namespace psi::perf {

/// Bytes per "MB" in every reported metric.
inline constexpr double kMiB = 1024.0 * 1024.0;

/// Seconds on the steady clock since the first call in this process.
double now();

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// `s` as a quoted JSON string (control characters become spaces).
std::string json_string(const std::string& s);

/// In-memory span recorder. Spans carry a name, start/end (seconds on
/// now()'s clock), the parent span and a request id. Detached — the
/// default — a scope costs one branch. Spans opened with scope() nest under
/// the innermost open scope of the same thread; add() records an already
/// finished span, e.g. one reconstructed from a Response's phase fields
/// (flagged `synthetic`). One attached tracer per process.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;   ///< id of the parent span, -1 = root
    std::int64_t request = -1;  ///< request / repetition id, -1 = none
    int thread = 0;             ///< Chrome-trace lane
    bool synthetic = false;
  };

  /// Per-name totals over the recorded spans. Self time is a span's
  /// duration minus the part of it its children cover.
  struct Layer {
    std::string name;
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double self_p50_s = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::int64_t id) : tracer_(tracer), id_(id) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    std::int64_t id_;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void attach() { attached_ = true; }
  bool attached() const { return attached_; }

  /// Opens a span closed when the returned scope dies. `request` < 0
  /// inherits the enclosing span's request id.
  [[nodiscard]] Scope scope(const char* name, std::int64_t request = -1) {
    return Scope(attached_ ? this : nullptr,
                 attached_ ? open(name, request) : -1);
  }

  /// Records a finished span; returns its id (-1 when detached). `thread`
  /// < 0 takes the parent's lane (or the calling thread's for a root).
  std::int64_t add(std::string name, double start, double end,
                   std::int64_t parent, std::int64_t request, int thread,
                   bool synthetic);

  std::vector<Layer> layers() const;

  /// Chrome trace_event JSON (ui.perfetto.dev / chrome://tracing).
  void write_chrome_trace(const std::string& path) const;

 private:
  /// Self time of every span, aligned with spans_.
  std::vector<double> self_times() const;
  std::int64_t open(const char* name, std::int64_t request);
  void close(std::int64_t id);

  bool attached_ = false;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports.
struct Report {
  std::string workload;
  Count attempted = 0;  ///< operations plus output checks
  Count failed = 0;     ///< failed or refused operations plus failed checks
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  ///< traced runs only
  std::vector<Tracer::Layer> layers;

  /// Counts one output check; a failure is recorded with `what`.
  bool check(bool ok, const std::string& what);
  /// Counts `ok` successful and `bad` failed operations.
  void operations(Count ok, Count bad, const std::string& what);

  /// Sets a per-layer metric; the name must be in per_layer_catalog().
  void set_layer(const std::string& name, double value);
};

/// The per-layer metrics every traced run reports, in order, with units;
/// a layer that does no work on a workload reports 0.
const std::vector<Metric>& per_layer_catalog();

/// Timings every workload's measurement pass yields.
struct Timing {
  std::vector<double> setup_s;  ///< one per set-up repetition
  std::vector<double> op_s;     ///< one per completed operation
  double rss_mb = 0.0;          ///< peak RSS right after the window
};

/// The end-to-end metrics (same names for every workload): the median
/// set-up time, the 90th-percentile operation time and the peak RSS. On a
/// host whose neighbours slow it in bursts, the median operation time
/// measures how much of the run the bursts covered, while the 90th
/// percentile sits at the steady level the code reaches under them (see
/// "Noise" in README.md).
std::vector<Metric> end_to_end_metrics(const Timing& timing);

/// Pins the calling thread to the k-th CPU, modulo their count, of those
/// the process may run on; k < 0 lets it run on all of them again.
/// Single-threaded timed work rotates over the CPUs, so every run samples
/// each of them alike.
void pin_to_cpu(int k);

/// Run parameters shared by all workloads.
struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window of an end-to-end run
  bool trace = false;
  bool smoke = false;    ///< tiny sizes (psi_perf --smoke)
  std::string out_dir;   ///< traced runs write <workload>.trace.json here
};

/// Whether a measurement loop that has completed `done` operations since
/// `start` makes another: an end-to-end run fills its --seconds window
/// (at least one operation); a traced run makes `traced_ops` in each of its
/// two passes, so its length does not depend on --seconds.
bool measuring(const Options& options, int done, double start, int traced_ops);

/// Unit vector e_col of length n.
std::vector<double> unit_vector(Int n, Int col);

/// Compares column `col` (analyzed order) of a selected inverse with `x`,
/// the solution of A x = e_col computed from an un-normalized factor: the
/// residual ||A x - e_col||_inf must be <= 1e-10 for the permuted matrix
/// `a`, and every selected entry of the column must match x within 1e-8.
/// Returns false (with `detail`) otherwise.
bool check_column(const SparseMatrix& a, const BlockMatrix& ainv, Int col,
                  const std::vector<double>& x, std::string* detail);

/// `count` distinct seeded columns of an n-column matrix.
std::vector<Int> sample_columns(Int n, int count, std::uint64_t seed);

/// Records the outputs of a traced pass: the per-layer table, the tracing
/// overhead relative to the untraced pass, and (when options.out_dir is
/// set) the Chrome trace.
void finish_trace(Report& report, const Options& options, const Tracer& tracer,
                  const Timing& untraced, const Timing& traced);

Report run_replay(const Options& options);
Report run_serve_warm(const Options& options);
Report run_serve_cold(const Options& options);
Report run_inverse_sym(const Options& options);
Report run_inverse_nsym(const Options& options);

}  // namespace psi::perf
