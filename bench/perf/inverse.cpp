/// inverse_fem3d and inverse_nsym_fem3d — the library path with no service,
/// one workload per side so that neither hides behind the other:
/// fem3d(8,8,8,3) (n = 1,536, geometric nested dissection, supernode cap
/// 32) for the symmetric side and fem3d_nonsym on the same mesh for the
/// structurally non-symmetric one. One operation is a factorization plus a
/// selected inversion, task-parallel at 4 threads. Block widths reach 32,
/// so GEMM / TRSM and the task graph dominate: a kernel or scheduler change
/// shows its full effect here, and the non-symmetric workload guards the
/// fork ROADMAP item 2 collapses. The mesh keeps the factor within a few MB
/// (the shared L3 of the host is contended; see "Noise" in README.md) and an
/// operation near 0.2 s, so a run holds about a hundred of them.
#include <memory>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "driver/experiment.hpp"
#include "nsym/factor.hpp"
#include "nsym/selinv.hpp"
#include "nsym/structure.hpp"
#include "numeric/selinv.hpp"
#include "numeric/supernodal_lu.hpp"
#include "ordering/ordering.hpp"
#include "perf.hpp"
#include "serve/service.hpp"
#include "sparse/generators.hpp"

namespace psi::perf {

namespace {

constexpr int kThreads = 4;

struct Sizes {
  Int nx;
  Int dofs;
  Int cap;
  int setup_reps;
  int columns;     ///< sampled columns per residual check
  int traced_ops;  ///< operations per pass of a traced run
};

Sizes sizes(bool smoke) {
  return smoke ? Sizes{4, 2, 8, 1, 3, 1} : Sizes{8, 3, 32, 25, 8, 5};
}

/// The symmetric side. `kLayer` prefixes its per-layer metrics and spans.
struct Sym {
  using Analysis = SymbolicAnalysis;
  using LU = SupernodalLU;
  static constexpr const char* kWorkload = "inverse_fem3d";
  static constexpr const char* kLayer = "numeric";

  static GeneratedMatrix input(const Sizes& z, std::uint64_t seed) {
    return fem3d(z.nx, z.nx, z.nx, z.dofs, seed);
  }
  static void order(const GeneratedMatrix& gen, const AnalysisOptions& o) {
    compute_ordering(gen, o.ordering);
  }
  static Analysis analyze(const GeneratedMatrix& gen, const AnalysisOptions& o) {
    return psi::analyze(gen, o);
  }
  static const SparseMatrix& matrix(const Analysis& a) { return a.matrix; }
  static const BlockStructure& blocks(const Analysis& a) { return a.blocks; }
  static LU factor(const Analysis& a) { return LU::factor(a); }
  static LU factor(const Analysis& a, const numeric::ParallelOptions& p) {
    return LU::factor_parallel(a, p);
  }
  static BlockMatrix invert(LU& lu) { return selected_inversion(lu); }
  static BlockMatrix invert(LU& lu, const numeric::ParallelOptions& p) {
    return selinv_parallel(lu, p);
  }
  static Count factor_flops(const Analysis& a) {
    return factorization_flops(a.blocks);
  }
  static Count invert_flops(const Analysis& a) { return selinv_flops(a.blocks); }
};

/// The structurally non-symmetric side: the pattern is fixed by a constant
/// seed; only the values follow the run seed.
struct Nsym {
  using Analysis = nsym::NsymAnalysis;
  using LU = nsym::NsymSupernodalLU;
  static constexpr const char* kWorkload = "inverse_nsym_fem3d";
  static constexpr const char* kLayer = "nsym";
  static constexpr std::uint64_t kPatternSeed = 5;

  static GeneratedMatrix input(const Sizes& z, std::uint64_t seed) {
    GeneratedMatrix gen = fem3d_nonsym(z.nx, z.nx, z.nx, z.dofs, kPatternSeed);
    assign_dd_values(gen.matrix, hash_combine(seed, 0x6e73796dULL),
                     ValueKind::kUnsymmetric);
    return gen;
  }
  static void order(const GeneratedMatrix& gen, const AnalysisOptions& o) {
    compute_ordering(gen.matrix.pattern.symmetrized(), o.ordering, gen.coords);
  }
  static Analysis analyze(const GeneratedMatrix& gen, const AnalysisOptions& o) {
    return nsym::analyze_nsym(gen, o);
  }
  static const SparseMatrix& matrix(const Analysis& a) { return a.matrix; }
  static const BlockStructure& blocks(const Analysis& a) { return a.sym.blocks; }
  static LU factor(const Analysis& a) { return LU::factor(a); }
  static LU factor(const Analysis& a, const numeric::ParallelOptions& p) {
    return LU::factor_parallel(a, p);
  }
  static BlockMatrix invert(LU& lu) { return nsym::nsym_selected_inversion(lu); }
  static BlockMatrix invert(LU& lu, const numeric::ParallelOptions& p) {
    return nsym::nsym_selinv_parallel(lu, p);
  }
  static Count factor_flops(const Analysis& a) {
    return nsym::nsym_factorization_flops(a.sym.blocks, a.structure);
  }
  static Count invert_flops(const Analysis& a) {
    return nsym::nsym_selinv_flops(a.sym.blocks, a.structure);
  }
};

template <typename Side>
struct Pass {
  Timing timing;
  /// From the last set-up repetition; heap-held because factors keep
  /// references into its blocks.
  std::unique_ptr<typename Side::Analysis> setup;
  std::vector<double> factor_t4, selinv_t4;
  double factor_t1 = 0, selinv_t1 = 0;
  numeric::TaskGraphStats graph;  ///< one 4-thread operation
  std::vector<double> ordering_s, symbolic_s;  ///< traced pass only
};

/// Runs `fn` under a span; returns its wall seconds.
template <typename Fn>
double timed(Tracer& tracer, const std::string& name, Fn&& fn) {
  auto span = tracer.scope(name.c_str());
  const double t0 = now();
  fn();
  return now() - t0;
}

template <typename Side>
Pass<Side> inverse_pass(const Options& options, Tracer& tracer, Report& report) {
  using LU = typename Side::LU;
  const Sizes z = sizes(options.smoke);
  const std::string layer = Side::kLayer;
  AnalysisOptions analysis = driver::default_analysis_options();
  analysis.supernodes.max_size = z.cap;
  const GeneratedMatrix gen = Side::input(z, options.seed);
  Pass<Side> pass;

  for (int rep = 0; rep < z.setup_reps; ++rep) {
    pin_to_cpu(rep);
    // analyze() orders internally, out of reach of an outside timer; a
    // separate call gives the ordering share (kept out of set-up time).
    double ordering = 0.0;
    if (tracer.attached()) {
      ordering = timed(tracer, "ordering.probe",
                       [&] { Side::order(gen, analysis); });
      pass.ordering_s.push_back(ordering);
    }
    const double t0 = now();
    {
      auto span = tracer.scope("setup", rep);
      auto s = tracer.scope((layer + ".analyze").c_str());
      pass.setup = std::make_unique<typename Side::Analysis>(
          Side::analyze(gen, analysis));
      tracer.add("ordering", t0, t0 + ordering, s.id(), rep, -1, true);
    }
    const double seconds = now() - t0;
    pass.timing.setup_s.push_back(seconds);
    if (tracer.attached()) pass.symbolic_s.push_back(seconds - ordering);
  }
  pin_to_cpu(-1);  // before the pool: its threads inherit the mask
  const typename Side::Analysis& setup = *pass.setup;

  parallel::ThreadPool pool(kThreads - 1);
  numeric::ParallelOptions parallel_options;
  parallel_options.threads = kThreads;
  parallel_options.pool = &pool;

  std::string digest;
  double w0 = now();
  // Operation 0 warms the pool and the allocator; measuring starts after it.
  for (int op = 0; op == 0 || measuring(options, op - 1, w0, z.traced_ops);
       ++op) {
    numeric::ParallelOptions op_options = parallel_options;
    if (op == 1) op_options.stats = &pass.graph;
    std::unique_ptr<LU> lu;
    std::unique_ptr<BlockMatrix> ainv;
    const double t0 = now();
    double f = 0, s = 0;
    {
      auto span = tracer.scope("inverse", op);
      f = timed(tracer, layer + ".factor_t4", [&] {
        lu = std::make_unique<LU>(Side::factor(setup, op_options));
      });
      s = timed(tracer, layer + ".selinv_t4", [&] {
        ainv = std::make_unique<BlockMatrix>(Side::invert(*lu, op_options));
      });
    }
    const double seconds = now() - t0;
    const std::string d = serve::ainv_digest(*ainv);
    if (op == 0) {
      digest = d;
      w0 = now();
    }
    const bool ok = d == digest;
    report.operations(ok ? 1 : 0, ok ? 0 : 1,
                      "4-thread inverse digest differs between operations");
    if (op == 0 || !ok) continue;
    pass.timing.op_s.push_back(seconds);
    pass.factor_t4.push_back(f);
    pass.selinv_t4.push_back(s);
  }
  pass.timing.rss_mb = peak_rss_mb();

  // The 1-thread legs: bitwise equal to the 4-thread digest, and sampled
  // columns checked against solves with the un-normalized factor.
  const SparseMatrix& matrix = Side::matrix(setup);
  const std::vector<Int> columns = sample_columns(
      matrix.n(), z.columns, hash_combine(options.seed, 0x636f6cULL));
  std::unique_ptr<LU> lu;
  pass.factor_t1 = timed(tracer, layer + ".factor_t1", [&] {
    lu = std::make_unique<LU>(Side::factor(setup));
  });
  std::vector<std::vector<double>> x;
  for (const Int col : columns)
    x.push_back(lu->solve(unit_vector(matrix.n(), col)));
  std::unique_ptr<BlockMatrix> ainv;
  pass.selinv_t1 = timed(tracer, layer + ".selinv_t1", [&] {
    ainv = std::make_unique<BlockMatrix>(Side::invert(*lu));
  });
  report.check(serve::ainv_digest(*ainv) == digest,
               layer + ": 1-thread and 4-thread inverses differ");
  for (std::size_t i = 0; i < columns.size(); ++i) {
    std::string detail;
    report.check(check_column(matrix, *ainv, columns[i], x[i], &detail),
                 layer + " inverse " + detail);
  }
  return pass;
}

template <typename Side>
void inverse_layers(Report& report, const Pass<Side>& pass) {
  const typename Side::Analysis& setup = *pass.setup;
  const BlockStructure& blocks = Side::blocks(setup);
  std::vector<double> widths;
  for (Int k = 0; k < blocks.supernode_count(); ++k)
    widths.push_back(blocks.part.size(k));
  report.set_layer("ordering.p50_ms", 1e3 * median(pass.ordering_s));
  report.set_layer("symbolic.p50_ms", 1e3 * median(pass.symbolic_s));
  report.set_layer("symbolic.supernodes", blocks.supernode_count());
  report.set_layer("symbolic.lu_nnz",
                   static_cast<double>(blocks.lu_nnz_fullblock()));
  report.set_layer("symbolic.block_width_p50", median(widths));
  report.set_layer("symbolic.block_width_max", quantile(widths, 1.0));

  const auto gflops = [](Count flops, double seconds) {
    return static_cast<double>(flops) / (1e9 * seconds);
  };
  const std::string layer = Side::kLayer;
  const Count factor = Side::factor_flops(setup);
  const Count selinv = Side::invert_flops(setup);
  const double f4 = median(pass.factor_t4), s4 = median(pass.selinv_t4);
  report.set_layer(layer + ".factor_gflops_t1", gflops(factor, pass.factor_t1));
  report.set_layer(layer + ".selinv_gflops_t1", gflops(selinv, pass.selinv_t1));
  report.set_layer(layer + ".factor_gflops_t4", gflops(factor, f4));
  report.set_layer(layer + ".selinv_gflops_t4", gflops(selinv, s4));
  report.set_layer(layer + ".speedup_t4",
                   (pass.factor_t1 + pass.selinv_t1) / (f4 + s4));
  report.set_layer("numeric.tasks", static_cast<double>(pass.graph.tasks));
  report.set_layer("numeric.edges", static_cast<double>(pass.graph.edges));
  report.set_layer("numeric.ready_high_water",
                   static_cast<double>(pass.graph.ready_high_water));
}

template <typename Side>
Report run_inverse(const Options& options) {
  Report report;
  report.workload = Side::kWorkload;
  Tracer detached;
  const Pass<Side> base = inverse_pass<Side>(options, detached, report);
  report.end_to_end = end_to_end_metrics(base.timing);
  if (!options.trace) return report;

  Tracer tracer;
  tracer.attach();
  const Pass<Side> traced = inverse_pass<Side>(options, tracer, report);
  inverse_layers(report, traced);
  finish_trace(report, options, tracer, base.timing, traced.timing);
  return report;
}

}  // namespace

Report run_inverse_sym(const Options& options) {
  return run_inverse<Sym>(options);
}

Report run_inverse_nsym(const Options& options) {
  return run_inverse<Nsym>(options);
}

}  // namespace psi::perf
