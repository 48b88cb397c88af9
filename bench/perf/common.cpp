#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "perf.hpp"

namespace psi::perf {

double now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

void pin_to_cpu(int k) {
  // The CPUs the process may run on, read before the first pin.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    PSI_CHECK_MSG(sched_getaffinity(0, sizeof(set), &set) == 0,
                  "sched_getaffinity failed");
    return set;
  }();
  static const std::vector<int> cpus = [] {
    std::vector<int> list;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) list.push_back(c);
    return list;
  }();
  cpu_set_t set = allowed;
  if (k >= 0) {
    CPU_ZERO(&set);
    CPU_SET(cpus[static_cast<std::size_t>(k) % cpus.size()], &set);
  }
  PSI_CHECK_MSG(sched_setaffinity(0, sizeof(set), &set) == 0,
                "sched_setaffinity failed");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

bool measuring(const Options& options, int done, double start, int traced_ops) {
  if (options.trace) return done < traced_ops;
  return done == 0 || now() - start < options.seconds;
}

bool Report::check(bool ok, const std::string& what) {
  attempted += 1;
  if (!ok) {
    failed += 1;
    failures.push_back(what);
  }
  return ok;
}

void Report::operations(Count ok, Count bad, const std::string& what) {
  attempted += ok + bad;
  failed += bad;
  if (bad > 0)
    failures.push_back(std::to_string(bad) + " failed operations: " + what);
}

const std::vector<Metric>& per_layer_catalog() {
  static const std::vector<Metric> catalog = {
      {"ordering.p50_ms", 0, "ms"},
      {"symbolic.p50_ms", 0, "ms"},
      {"symbolic.supernodes", 0, "count"},
      {"symbolic.lu_nnz", 0, "count"},
      {"symbolic.block_width_p50", 0, "cols"},
      {"symbolic.block_width_max", 0, "cols"},
      {"pselinv.plan_blocks_per_s", 0, "1/s"},
      {"pselinv.plan_mb", 0, "MB"},
      {"pselinv.sim_makespan", 0, "sim_s"},
      {"pselinv.comm_frac", 0, "frac"},
      {"pselinv.messages", 0, "count"},
      {"pselinv.bytes_mb", 0, "MB"},
      {"pselinv.colbcast_sent_max_mb", 0, "MB"},
      {"pselinv.colbcast_sent_stddev_mb", 0, "MB"},
      {"pselinv.rowreduce_recv_max_mb", 0, "MB"},
      {"pselinv.rowreduce_recv_stddev_mb", 0, "MB"},
      {"sim.events", 0, "count"},
      {"sim.events_per_s", 0, "1/s"},
      {"sim.arena_high_water", 0, "count"},
      {"sim.p4_speedup", 0, "x"},
      {"numeric.factor_gflops_t1", 0, "GFLOP/s"},
      {"numeric.selinv_gflops_t1", 0, "GFLOP/s"},
      {"numeric.factor_gflops_t4", 0, "GFLOP/s"},
      {"numeric.selinv_gflops_t4", 0, "GFLOP/s"},
      {"numeric.speedup_t4", 0, "x"},
      {"numeric.tasks", 0, "count"},
      {"numeric.edges", 0, "count"},
      {"numeric.ready_high_water", 0, "count"},
      {"nsym.factor_gflops_t1", 0, "GFLOP/s"},
      {"nsym.selinv_gflops_t1", 0, "GFLOP/s"},
      {"nsym.factor_gflops_t4", 0, "GFLOP/s"},
      {"nsym.selinv_gflops_t4", 0, "GFLOP/s"},
      {"nsym.speedup_t4", 0, "x"},
      {"serve.queue_frac", 0, "frac"},
      {"serve.plan_frac", 0, "frac"},
      {"serve.scatter_frac", 0, "frac"},
      {"serve.factor_frac", 0, "frac"},
      {"serve.invert_frac", 0, "frac"},
      {"serve.dispatch_frac", 0, "frac"},
      {"serve.p99_over_p50", 0, "x"},
      {"serve.cache_hit_frac", 0, "frac"},
      {"serve.batch_follower_frac", 0, "frac"},
      {"serve.coalesced_frac", 0, "frac"},
      {"serve.build_trace_frac", 0, "frac"},
      {"serve.evictions", 0, "count"},
      {"serve.cache_high_water_mb", 0, "MB"},
      {"perf.trace_overhead_frac", 0, "frac"},
  };
  return catalog;
}

void Report::set_layer(const std::string& name, double value) {
  if (per_layer.empty()) per_layer = per_layer_catalog();
  for (Metric& m : per_layer) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  PSI_CHECK_MSG(false, "unknown per-layer metric " << name);
}

std::vector<Metric> end_to_end_metrics(const Timing& timing) {
  return {
      {"setup_s", median(timing.setup_s), "s"},
      {"op_p90_ms", 1e3 * quantile(timing.op_s, 0.9), "ms"},
      {"peak_rss_mb", timing.rss_mb, "MB"},
  };
}

std::vector<double> unit_vector(Int n, Int col) {
  std::vector<double> e(static_cast<std::size_t>(n), 0.0);
  e[static_cast<std::size_t>(col)] = 1.0;
  return e;
}

std::vector<Int> sample_columns(Int n, int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Int> cols;
  while (static_cast<Int>(cols.size()) < std::min<Int>(count, n)) {
    const Int c = static_cast<Int>(rng.uniform(static_cast<std::uint64_t>(n)));
    if (std::find(cols.begin(), cols.end(), c) == cols.end()) cols.push_back(c);
  }
  return cols;
}

bool check_column(const SparseMatrix& a, const BlockMatrix& ainv, Int col,
                  const std::vector<double>& x, std::string* detail) {
  const std::size_t n = static_cast<std::size_t>(a.n());
  const std::vector<double> e = unit_vector(a.n(), col);
  std::vector<double> ax(n, 0.0);
  a.multiply(x, ax);
  double residual = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    residual = std::max(residual, std::fabs(ax[i] - e[i]));

  // Selected entries of column `col`: its diagonal block, the lower blocks
  // (I, K) for I in struct(K), and the upper blocks (I, K) with K in
  // struct(I).
  const BlockStructure& bs = ainv.structure();
  const Int k = bs.part.sup_of_col[static_cast<std::size_t>(col)];
  const Int c = col - bs.part.first_col(k);
  double gap = 0.0;
  const auto compare = [&](Int i) {
    const DenseMatrix block = ainv.block(i, k);
    for (Int r = 0; r < block.rows(); ++r)
      gap = std::max(gap, std::fabs(block(r, c) -
                                    x[static_cast<std::size_t>(
                                        bs.part.first_col(i) + r)]));
  };
  compare(k);
  for (const Int i : bs.struct_of[static_cast<std::size_t>(k)]) compare(i);
  for (Int i = 0; i < k; ++i)
    if (ainv.struct_position(i, k) >= 0) compare(i);

  const bool ok = residual <= 1e-10 && gap <= 1e-8;
  if (!ok && detail != nullptr) {
    std::ostringstream out;
    out << "column " << col << ": residual " << residual
        << ", selected-entry gap " << gap;
    *detail = out.str();
  }
  return ok;
}

void finish_trace(Report& report, const Options& options, const Tracer& tracer,
                  const Timing& untraced, const Timing& traced) {
  report.layers = tracer.layers();
  const double base = median(untraced.op_s);
  report.set_layer("perf.trace_overhead_frac",
                   base > 0.0 ? median(traced.op_s) / base - 1.0 : 0.0);
  if (!options.out_dir.empty())
    tracer.write_chrome_trace(options.out_dir + "/" + report.workload +
                              ".trace.json");
}

}  // namespace psi::perf
