/// serve_warm and serve_cold — psi::serve with 3 workers at compute_threads
/// = 1 on a 32 x 32 plan grid (min-degree ordering, supernode cap 8),
/// driven closed-loop by one client keeping 3 requests outstanding.
///
///  * serve_warm: a pole-expansion caller resubmitting new values on known
///    patterns — the 6 Laplacian structures (nx = 20, Zipf 1.0) of
///    bench_out/serve_phases.csv. The set-up wave builds every plan, so the
///    measured window hits the plan cache on every request and only
///    scatter, factor and inversion on small blocks (<= 8) plus dispatch
///    run.
///  * serve_cold: every request carries a pattern the service has never
///    seen (max_batch 1, default cache budget, so the cache fills and
///    evicts): each pays ordering, symbolic analysis, plan/tree build and a
///    small kTrace schedule run — the DES as many small set-up-bound runs.
///
/// Latency is client-observed: the submit time is taken before submit(),
/// the completion time in Service::Config::observer, which also wakes the
/// client to refill its window (a fast reply never waits behind a slow one,
/// unlike serve::run_workload).
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "driver/experiment.hpp"
#include "numeric/selinv.hpp"
#include "numeric/supernodal_lu.hpp"
#include "ordering/ordering.hpp"
#include "perf.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "sparse/generators.hpp"

namespace psi::perf {

namespace {

constexpr int kWorkers = 3;
/// One outstanding request per worker. With more, requests queue and batch
/// behind each other, and the latency measures how the queue happened to
/// form rather than the request path.
constexpr int kWindow = kWorkers;
constexpr int kResidualColumns = 2;

struct Sizes {
  Int nx;               ///< Laplacian edge
  int grid;             ///< simulated grid edge of the plan config
  int structures;       ///< serve_warm catalog size
  int setup_reps;       ///< many: a set-up is short and its time noisy
  int cold_wave;        ///< serve_cold: fresh patterns per set-up wave
  int direct_untraced;  ///< direct-call digest replays, untraced pass
  int direct_traced;    ///< direct-call digest replays, traced pass
  int residual_requests;
  int traced_warm;      ///< requests per pass of a traced serve_warm run
  int traced_cold;      ///< requests per pass of a traced serve_cold run
};

Sizes sizes(bool smoke) {
  return smoke ? Sizes{10, 4, 3, 1, 3, 4, 8, 1, 60, 30}
               : Sizes{20, 32, 6, 21, 12, 16, 300, 2, 3000, 600};
}

serve::Service::Config service_config(const Sizes& z, std::uint64_t seed,
                                      int max_batch) {
  serve::Service::Config config;
  config.workers = kWorkers;
  config.compute_threads = 1;
  config.queue_capacity = 64;
  config.max_batch = max_batch;
  config.plan.grid_rows = z.grid;
  config.plan.grid_cols = z.grid;
  config.plan.machine = driver::timing_machine(0.25, seed);
  config.plan.analysis.ordering.method = OrderingMethod::kMinDegree;
  config.plan.analysis.supernodes.max_size = 8;
  return config;
}

/// Structure `s` of the serve_warm catalog (the pattern serve::make_request
/// uses) with values from `value_seed`.
SparseMatrix catalog_matrix(Int nx, int s, std::uint64_t value_seed) {
  GeneratedMatrix gen = laplacian2d(nx + s, nx, 1);
  assign_dd_values(gen.matrix, value_seed, ValueKind::kSymmetric);
  return std::move(gen.matrix);
}

/// Pattern `index` of the serve_cold stream: an nx x (nx + index % 8)
/// 5-point Laplacian plus two diagonal couplings, one per half of the grid,
/// whose positions encode index / 8, so no two indices share a pattern
/// (an index beyond the encodable range throws). Set-up waves use widths
/// nx + 8..11, which the measured stream never reaches. Only the values
/// depend on `value_seed`.
SparseMatrix cold_matrix(Int nx, std::int64_t index, bool setup_wave,
                         std::uint64_t value_seed) {
  const Int ny = nx + static_cast<Int>(setup_wave ? 8 + index % 4 : index % 8);
  const std::int64_t code = index / (setup_wave ? 4 : 8);
  const Int half = (ny - 1) / 2;
  const std::int64_t cells_a = std::int64_t{nx - 1} * half;
  const std::int64_t cells_b = std::int64_t{nx - 1} * (ny - 1 - half);
  PSI_CHECK_MSG(code < cells_a * cells_b,
                "serve_cold pattern space exhausted at request " << index);
  const auto id = [nx](Int x, Int y) { return x + nx * y; };
  TripletBuilder builder(nx * ny);
  for (Int y = 0; y < ny; ++y)
    for (Int x = 0; x < nx; ++x) {
      builder.add(id(x, y), id(x, y), 0.0);
      if (x + 1 < nx) builder.add_symmetric(id(x, y), id(x + 1, y), 0.0);
      if (y + 1 < ny) builder.add_symmetric(id(x, y), id(x, y + 1), 0.0);
    }
  const auto diagonal = [&](std::int64_t cell, Int y0) {
    const Int x = static_cast<Int>(cell % (nx - 1));
    const Int y = y0 + static_cast<Int>(cell / (nx - 1));
    builder.add_symmetric(id(x, y), id(x + 1, y + 1), 0.0);
  };
  diagonal(code % cells_a, 0);
  diagonal(code / cells_a, half);
  SparseMatrix m = builder.compile();
  assign_dd_values(m, value_seed, ValueKind::kSymmetric);
  return m;
}

/// One measured request as the client saw it.
struct Sample {
  double submit = 0.0;
  double done = -1.0;
  serve::Status status = serve::Status::kFailed;
  bool cache_hit = false;
  bool batched = false;
  double queue = 0, plan = 0, scatter = 0, factor = 0, invert = 0, total = 0;
  std::string digest;

  double latency() const { return done - submit; }
};

/// Closed-loop client: keeps `window` requests outstanding and refills a
/// slot as soon as the observer hook reports a completion.
class ClosedLoop {
 public:
  /// Service::Config::observer target (worker threads). Set-up wave
  /// requests (ids not starting with 'r') are ignored.
  void observe(const serve::Response& r) {
    if (r.id.empty() || r.id[0] != 'r') return;
    const double done = now();
    const std::size_t index = std::stoul(r.id.substr(1));
    std::lock_guard<std::mutex> lock(mutex_);
    record(samples_[index], r, done);
    cv_.notify_all();
  }

  /// Submits make(0), make(1), ... while measuring() says so, then waits
  /// for every outstanding reply.
  void run(serve::Service& service, const Options& options, int traced_ops,
           const std::function<serve::Request(std::int64_t)>& make) {
    const double w0 = now();
    for (std::size_t index = 0;
         measuring(options, static_cast<int>(index), w0, traced_ops);
         ++index) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return outstanding_ < kWindow; });
      }
      serve::Request request = make(static_cast<std::int64_t>(index));
      request.id = "r" + std::to_string(index);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_.emplace_back().submit = now();
        ++outstanding_;
      }
      std::future<serve::Response> reply = service.submit(std::move(request));
      // Admission refusals are fulfilled inside submit() without the
      // observer; a reply that is ready and unrecorded is one of those.
      if (reply.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        const serve::Response r = reply.get();
        std::lock_guard<std::mutex> lock(mutex_);
        if (samples_[index].done < 0) record(samples_[index], r, now());
      }
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return outstanding_ == 0; });
  }

  /// Valid once run() has returned.
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  void record(Sample& s, const serve::Response& r, double done) {
    s.done = done;
    s.status = r.status;
    s.cache_hit = r.cache_hit;
    s.batched = r.batched;
    s.queue = r.queue_seconds;
    s.plan = r.plan_seconds;
    s.scatter = r.scatter_seconds;
    s.factor = r.factor_seconds;
    s.invert = r.invert_seconds;
    s.total = r.total_seconds;
    s.digest = r.digest;
    --outstanding_;
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  int outstanding_ = 0;
  std::vector<Sample> samples_;
};

/// A direct build_serve_plan call. On a traced pass, separate
/// compute_ordering and analyze calls give the ordering and symbolic shares
/// the build hides, recorded as synthetic children of its span.
struct PlanBuild {
  std::shared_ptr<const serve::ServePlan> plan;
  double ordering_s = 0.0;
  double analyze_s = 0.0;
  double build_s = 0.0;
};

PlanBuild build_plan(const SparseMatrix& matrix, const serve::PlanConfig& config,
                     Tracer& tracer, std::int64_t request) {
  PlanBuild b;
  if (tracer.attached()) {
    auto probe = tracer.scope("symbolic.probe", request);
    double t = now();
    compute_ordering(matrix.pattern, config.analysis.ordering);
    b.ordering_s = now() - t;
    t = now();
    analyze(matrix, config.analysis);
    b.analyze_s = now() - t;
  }
  auto span = tracer.scope("pselinv.build_serve_plan", request);
  const double t0 = now();
  b.plan = serve::build_serve_plan(matrix, config);
  b.build_s = now() - t0;
  const std::int64_t a = tracer.add("symbolic.analyze", t0, t0 + b.analyze_s,
                                    span.id(), request, -1, true);
  tracer.add("ordering", t0, t0 + b.ordering_s, a, request, -1, true);
  tracer.add("sim.trace_run", t0 + b.build_s - b.plan->trace_seconds,
             t0 + b.build_s, span.id(), request, -1, true);
  return b;
}

/// scatter + factor + selected inversion on the calling thread — the
/// service's numeric path at compute_threads = 1.
struct Direct {
  std::unique_ptr<BlockMatrix> ainv;
  std::string digest;
  double scatter_s = 0.0, factor_s = 0.0, selinv_s = 0.0;
};

Direct direct_numeric(const serve::ServePlan& plan,
                      const std::vector<double>& values, Tracer& tracer) {
  Direct d;
  const double f0 = now();
  SupernodalLU lu = [&] {
    auto span = tracer.scope("numeric.factor_t1");
    return SupernodalLU::factor(plan.analysis.blocks, [&](BlockMatrix& m) {
      auto s = tracer.scope("numeric.scatter");
      const double s0 = now();
      plan.scatter_values(values, m);
      d.scatter_s = now() - s0;
    });
  }();
  d.factor_s = now() - f0 - d.scatter_s;
  const double i0 = now();
  {
    auto span = tracer.scope("numeric.selinv_t1");
    d.ainv = std::make_unique<BlockMatrix>(selected_inversion(lu));
  }
  d.selinv_s = now() - i0;
  d.digest = serve::ainv_digest(*d.ainv);
  return d;
}

/// Checks sampled columns of a served inverse against solves with a fresh
/// un-normalized factor of the same request.
void residual_check(const SparseMatrix& matrix, const serve::ServePlan& plan,
                    const BlockMatrix& ainv, std::uint64_t seed,
                    Report& report) {
  const SparseMatrix permuted =
      permute_symmetric(matrix, plan.analysis.perm.old_to_new());
  const SupernodalLU lu = SupernodalLU::factor(plan.analysis.blocks, permuted);
  for (const Int col : sample_columns(permuted.n(), kResidualColumns, seed)) {
    std::string detail;
    const bool ok = check_column(
        permuted, ainv, col, lu.solve(unit_vector(permuted.n(), col)), &detail);
    report.check(ok, "served inverse " + detail);
  }
}

/// Chrome-trace spans for the measured requests, rebuilt from the client
/// timestamps and the Response phase fields: serve.request from submit to
/// observer, with queue / plan / scatter / factor / invert children laid
/// end to end. The request's self time is dispatch overhead.
void add_request_spans(Tracer& tracer, const std::vector<Sample>& samples) {
  std::vector<double> lane_end;  // overlapping requests get separate lanes
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    std::size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > s.submit) ++lane;
    if (lane == lane_end.size()) lane_end.push_back(0.0);
    lane_end[lane] = s.done;
    const int thread = 1000 + static_cast<int>(lane);
    const auto request = static_cast<std::int64_t>(i);
    const std::int64_t parent = tracer.add("serve.request", s.submit, s.done,
                                           -1, request, thread, false);
    double t = s.submit;
    for (const auto& [name, seconds] :
         {std::pair{"serve.queue", s.queue}, std::pair{"serve.plan", s.plan},
          std::pair{"serve.scatter", s.scatter},
          std::pair{"serve.factor", s.factor},
          std::pair{"serve.invert", s.invert}}) {
      tracer.add(name, t, std::min(t + seconds, s.done), parent, request,
                 thread, true);
      t += seconds;
    }
  }
}

struct Pass {
  Timing timing;
  std::vector<Sample> samples;
  serve::PlanCache::Stats cache;
  std::vector<PlanBuild> builds;  ///< direct plan builds
  double factor_flops = 0, factor_s = 0, selinv_flops = 0, selinv_s = 0;
};

Pass serve_pass(bool warm, const Options& options, Tracer& tracer,
                Report& report) {
  const Sizes z = sizes(options.smoke);
  serve::Service::Config config =
      service_config(z, options.seed, warm ? 8 : 1);
  ClosedLoop loop;
  config.observer = [&loop](const serve::Response& r) { loop.observe(r); };

  serve::WorkloadOptions catalog;
  catalog.structures = z.structures;
  catalog.nx = z.nx;
  catalog.zipf_s = 1.0;
  catalog.seed = options.seed;
  const auto make = [&](std::int64_t index) {
    if (warm) return serve::make_request(catalog, static_cast<int>(index));
    serve::Request request;
    request.matrix = cold_matrix(z.nx, index, false,
                                 hash_combine(options.seed,
                                              static_cast<std::uint64_t>(index)));
    return request;
  };

  Pass pass;
  std::unique_ptr<serve::Service> service;
  for (int rep = 0; rep < z.setup_reps; ++rep) {
    service.reset();
    const double t0 = now();
    {
      auto span = tracer.scope("setup", rep);
      service = std::make_unique<serve::Service>(config);
      // serve_warm: build every catalog plan; serve_cold: a wave of fresh
      // patterns, so the measured window starts with warm allocators.
      const int wave = warm ? z.structures : z.cold_wave;
      std::vector<std::future<serve::Response>> replies;
      for (int i = 0; i < wave; ++i) {
        const std::int64_t index = std::int64_t{rep} * wave + i;
        const std::uint64_t value_seed = hash_combine(
            options.seed ^ 0x7761726dULL, static_cast<std::uint64_t>(index));
        serve::Request request;
        request.id = "w" + std::to_string(i);
        request.matrix = warm ? catalog_matrix(z.nx, i, value_seed)
                              : cold_matrix(z.nx, index, true, value_seed);
        replies.push_back(service->submit(std::move(request)));
      }
      Count bad = 0;
      for (auto& reply : replies) bad += reply.get().ok() ? 0 : 1;
      report.operations(wave - bad, bad, "set-up wave request not kOk");
    }
    pass.timing.setup_s.push_back(now() - t0);
  }

  loop.run(*service, options, warm ? z.traced_warm : z.traced_cold, make);
  pass.timing.rss_mb = peak_rss_mb();
  pass.cache = service->cache_stats();
  service.reset();  // joins the workers and frees the cached plans
  pass.samples = loop.samples();

  std::vector<std::size_t> ok_index;
  Count hits = 0;
  for (std::size_t i = 0; i < pass.samples.size(); ++i) {
    const Sample& s = pass.samples[i];
    if (s.status != serve::Status::kOk) continue;
    ok_index.push_back(i);
    pass.timing.op_s.push_back(s.latency());
    hits += s.cache_hit ? 1 : 0;
  }
  const Count ok = static_cast<Count>(ok_index.size());
  report.operations(ok, static_cast<Count>(pass.samples.size()) - ok,
                    "request not kOk");
  if (!warm) report.check(hits == 0, "a never-seen pattern hit the plan cache");
  if (tracer.attached()) add_request_spans(tracer, pass.samples);

  // Direct-call replay of a sample of the same requests: digests must
  // match the service's bitwise.
  const std::size_t picks = std::min<std::size_t>(
      ok_index.size(), static_cast<std::size_t>(tracer.attached()
                                                    ? z.direct_traced
                                                    : z.direct_untraced));
  // fingerprint -> index into pass.builds; every serve_cold pattern is new.
  std::map<std::string, std::size_t> plan_of;
  for (std::size_t k = 0; k < picks; ++k) {
    const std::size_t index = ok_index[k * ok_index.size() / picks];
    const auto request_id = static_cast<std::int64_t>(index);
    auto span = tracer.scope("serve.direct", request_id);
    const serve::Request request = make(request_id);
    const std::string fp =
        serve::plan_fingerprint(request.matrix.pattern, config.plan).hex();
    const auto [it, fresh] = plan_of.try_emplace(fp, pass.builds.size());
    if (fresh)
      pass.builds.push_back(
          build_plan(request.matrix, config.plan, tracer, request_id));
    const serve::ServePlan& plan = *pass.builds[it->second].plan;
    const Direct d = direct_numeric(plan, request.matrix.values, tracer);
    report.check(d.digest == pass.samples[index].digest,
                 "direct-call digest differs from the service's for request " +
                     std::to_string(index));
    pass.factor_flops += static_cast<double>(factorization_flops(plan.analysis.blocks));
    pass.selinv_flops += static_cast<double>(selinv_flops(plan.analysis.blocks));
    pass.factor_s += d.factor_s;
    pass.selinv_s += d.selinv_s;
    if (static_cast<int>(k) < z.residual_requests)
      residual_check(request.matrix, plan, *d.ainv,
                     hash_combine(options.seed, index), report);
  }
  return pass;
}

void serve_layers(Report& report, const Pass& pass) {
  double latency = 0, queue = 0, plan = 0, scatter = 0, factor = 0,
         invert = 0, dispatch = 0, ok = 0, hits = 0, batched = 0;
  for (const Sample& s : pass.samples) {
    if (s.status != serve::Status::kOk) continue;
    latency += s.latency();
    queue += s.queue;
    plan += s.plan;
    scatter += s.scatter;
    factor += s.factor;
    invert += s.invert;
    dispatch += s.latency() - s.total;
    ok += 1;
    hits += s.cache_hit ? 1 : 0;
    batched += s.batched ? 1 : 0;
  }
  const auto share = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  report.set_layer("serve.queue_frac", share(queue, latency));
  report.set_layer("serve.plan_frac", share(plan, latency));
  report.set_layer("serve.scatter_frac", share(scatter, latency));
  report.set_layer("serve.factor_frac", share(factor, latency));
  report.set_layer("serve.invert_frac", share(invert, latency));
  report.set_layer("serve.dispatch_frac", share(dispatch, latency));
  report.set_layer("serve.p99_over_p50", share(quantile(pass.timing.op_s, 0.99),
                                               median(pass.timing.op_s)));
  report.set_layer("serve.cache_hit_frac", share(hits, ok));
  report.set_layer("serve.batch_follower_frac", share(batched, ok));
  report.set_layer("serve.coalesced_frac",
                   share(static_cast<double>(pass.cache.coalesced),
                         static_cast<double>(pass.cache.misses)));
  report.set_layer("serve.evictions", static_cast<double>(pass.cache.evictions));
  report.set_layer("serve.cache_high_water_mb",
                   static_cast<double>(pass.cache.bytes_high_water) / kMiB);
  report.set_layer("numeric.factor_gflops_t1",
                   share(pass.factor_flops, 1e9 * pass.factor_s));
  report.set_layer("numeric.selinv_gflops_t1",
                   share(pass.selinv_flops, 1e9 * pass.selinv_s));

  std::vector<double> ordering, symbolic, supernodes, lu_nnz, widths,
      blocks_per_s, plan_mb, makespan, events, events_per_s, trace_frac;
  for (const PlanBuild& b : pass.builds) {
    const serve::ServePlan& p = *b.plan;
    const BlockStructure& bs = p.analysis.blocks;
    ordering.push_back(b.ordering_s);
    symbolic.push_back(b.analyze_s - b.ordering_s);
    supernodes.push_back(bs.supernode_count());
    lu_nnz.push_back(static_cast<double>(bs.lu_nnz_fullblock()));
    for (Int k = 0; k < bs.supernode_count(); ++k)
      widths.push_back(bs.part.size(k));
    // What build_serve_plan spends outside analyze and the kTrace run:
    // fingerprint, scatter map and the communication trees.
    const double plan_s =
        std::max(1e-9, b.build_s - b.analyze_s - p.trace_seconds);
    blocks_per_s.push_back(
        static_cast<double>(p.plan.supernode_count() + p.plan.kt_count()) /
        plan_s);
    plan_mb.push_back(static_cast<double>(p.plan.memory_bytes()) / kMiB);
    makespan.push_back(p.trace_makespan);
    events.push_back(static_cast<double>(p.trace_events));
    events_per_s.push_back(static_cast<double>(p.trace_events) /
                           p.trace_seconds);
    trace_frac.push_back(p.trace_seconds / p.build_seconds);
  }
  report.set_layer("ordering.p50_ms", 1e3 * median(ordering));
  report.set_layer("symbolic.p50_ms", 1e3 * median(symbolic));
  report.set_layer("symbolic.supernodes", median(supernodes));
  report.set_layer("symbolic.lu_nnz", median(lu_nnz));
  report.set_layer("symbolic.block_width_p50", median(widths));
  report.set_layer("symbolic.block_width_max", quantile(widths, 1.0));
  report.set_layer("pselinv.plan_blocks_per_s", median(blocks_per_s));
  report.set_layer("pselinv.plan_mb", median(plan_mb));
  report.set_layer("pselinv.sim_makespan", median(makespan));
  report.set_layer("sim.events", median(events));
  report.set_layer("sim.events_per_s", median(events_per_s));
  report.set_layer("serve.build_trace_frac", median(trace_frac));
}

Report run_serve(bool warm, const Options& options) {
  Report report;
  report.workload = warm ? "serve_warm" : "serve_cold";
  Tracer detached;
  const Pass base = serve_pass(warm, options, detached, report);
  report.end_to_end = end_to_end_metrics(base.timing);
  if (!options.trace) return report;

  Tracer tracer;
  tracer.attach();
  const Pass traced = serve_pass(warm, options, tracer, report);
  serve_layers(report, traced);
  finish_trace(report, options, tracer, base.timing, traced.timing);
  return report;
}

}  // namespace

Report run_serve_warm(const Options& options) { return run_serve(true, options); }
Report run_serve_cold(const Options& options) { return run_serve(false, options); }

}  // namespace psi::perf
