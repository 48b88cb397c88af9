/// replay_audikw46 — the paper's own experiment: the audikw_1 analog at
/// scale 0.5 (fem3d 13^3 x 3 dofs, n = 6,591, 365 supernodes of width
/// <= 32, geometric nested dissection) replayed in kTrace mode on a 46 x 46
/// grid with the Shifted Binary-Tree, on the calibrated timing machine whose
/// network jitter placement comes from the run seed. ~412,000 events make a
/// run bound by the event queue; no numeric kernel runs. The scale keeps a
/// replay near half a second, so a run holds dozens of them (see "Noise" in
/// README.md).
#include <memory>

#include "driver/experiment.hpp"
#include "driver/paper_matrices.hpp"
#include "ordering/ordering.hpp"
#include "perf.hpp"
#include "pselinv/engine.hpp"
#include "pselinv/volume_analysis.hpp"

namespace psi::perf {

namespace {

struct Sizes {
  double scale;
  int grid;
  Int cap;
  int setup_reps;
  int traced_ops;  ///< replays per pass of a traced run
};

Sizes sizes(bool smoke) {
  return smoke ? Sizes{0.25, 6, 16, 1, 1} : Sizes{0.5, 46, 32, 9, 3};
}

/// The preprocessing the replay needs. Heap-held: `plan` points into
/// `analysis.blocks`.
struct Setup {
  SymbolicAnalysis analysis;
  std::unique_ptr<pselinv::Plan> plan;
};

struct Pass {
  Timing timing;
  std::unique_ptr<Setup> setup;  ///< from the last set-up repetition
  pselinv::RunResult first;      ///< the first replay
  std::vector<double> ordering_s, analyze_s, plan_s;  ///< traced pass only
};

Pass replay_pass(const Options& options, Tracer& tracer, Report& report) {
  const Sizes z = sizes(options.smoke);
  AnalysisOptions analysis = driver::default_analysis_options();
  analysis.supernodes.max_size = z.cap;
  const trees::TreeOptions trees =
      driver::tree_options_for(trees::TreeScheme::kShiftedBinary);
  Pass pass;

  for (int rep = 0; rep < z.setup_reps; ++rep) {
    GeneratedMatrix gen;
    auto setup = std::make_unique<Setup>();
    pin_to_cpu(rep);
    const double t0 = now();
    {
      auto span = tracer.scope("setup", rep);
      {
        auto s = tracer.scope("sparse.generate");
        gen = driver::make_paper_matrix(driver::PaperMatrix::kAudikw1, z.scale,
                                        options.seed);
      }
      double ordering = 0.0;
      if (tracer.attached()) {
        // analyze() orders internally, out of reach of an outside timer; a
        // separate call gives the ordering share (kept out of set-up time).
        auto s = tracer.scope("ordering.probe");
        const double o0 = now();
        compute_ordering(gen, analysis.ordering);
        ordering = now() - o0;
      }
      const double a0 = now();
      {
        auto s = tracer.scope("symbolic.analyze");
        setup->analysis = analyze(gen, analysis);
        tracer.add("ordering", a0, a0 + ordering, s.id(), rep, -1, true);
      }
      const double p0 = now();
      {
        auto s = tracer.scope("pselinv.plan");
        setup->plan = std::make_unique<pselinv::Plan>(
            setup->analysis.blocks, dist::ProcessGrid(z.grid, z.grid), trees);
      }
      if (tracer.attached()) {
        pass.ordering_s.push_back(ordering);
        pass.analyze_s.push_back(p0 - a0);
        pass.plan_s.push_back(now() - p0);
      }
      pass.timing.setup_s.push_back(now() - t0 - ordering);
    }
    pass.setup = std::move(setup);
  }

  const sim::Machine machine(driver::timing_machine(0.25, options.seed));
  const double w0 = now();
  for (int rep = 0; measuring(options, rep, w0, z.traced_ops); ++rep) {
    pin_to_cpu(rep);
    auto span = tracer.scope("pselinv.replay", rep);
    const double r0 = now();
    pselinv::RunResult run = pselinv::run_pselinv(
        *pass.setup->plan, machine, pselinv::ExecutionMode::kTrace);
    const double seconds = now() - r0;
    const bool ok = run.complete();
    report.operations(ok ? 1 : 0, ok ? 0 : 1, "replay left blocks unfinalized");
    if (ok) pass.timing.op_s.push_back(seconds);
    if (rep == 0) {
      pass.first = std::move(run);
    } else {
      report.check(run.makespan == pass.first.makespan,
                   "replay makespan differs between repetitions");
    }
  }
  pin_to_cpu(-1);
  pass.timing.rss_mb = peak_rss_mb();
  return pass;
}

void replay_layers(Report& report, const Options& options, Tracer& tracer,
                   const Pass& pass) {
  const Setup& setup = *pass.setup;
  const BlockStructure& blocks = setup.analysis.blocks;
  const pselinv::Plan& plan = *setup.plan;

  // Partitioned DES leg (ROADMAP item 5): the same plan replayed with 4
  // partitions, against the median 1-partition replay of this pass.
  {
    const sim::Machine machine(driver::timing_machine(0.25, options.seed));
    pselinv::RunOptions run_options;
    run_options.partitions = 4;
    auto span = tracer.scope("sim.replay_p4");
    const double t0 = now();
    const pselinv::RunResult p4 = pselinv::run_pselinv(
        plan, machine, pselinv::ExecutionMode::kTrace, nullptr, nullptr,
        nullptr, run_options);
    const double p4_s = now() - t0;
    report.check(p4.complete() && p4.makespan == pass.first.makespan,
                 "partitions=4 replay differs from partitions=1");
    report.set_layer("sim.p4_speedup", median(pass.timing.op_s) / p4_s);
  }
  {
    auto span = tracer.scope("pselinv.volume");
    const pselinv::VolumeReport volume = pselinv::analyze_volume(plan);
    const SampleStats col = pselinv::VolumeReport::summarize(
        volume.col_bcast_sent_mb());
    const SampleStats row = pselinv::VolumeReport::summarize(
        volume.row_reduce_received_mb());
    report.set_layer("pselinv.colbcast_sent_max_mb", col.max());
    report.set_layer("pselinv.colbcast_sent_stddev_mb", col.stddev());
    report.set_layer("pselinv.rowreduce_recv_max_mb", row.max());
    report.set_layer("pselinv.rowreduce_recv_stddev_mb", row.stddev());
  }

  std::vector<double> symbolic_s, widths;
  for (std::size_t i = 0; i < pass.analyze_s.size(); ++i)
    symbolic_s.push_back(pass.analyze_s[i] - pass.ordering_s[i]);
  for (Int k = 0; k < blocks.supernode_count(); ++k)
    widths.push_back(blocks.part.size(k));
  report.set_layer("ordering.p50_ms", 1e3 * median(pass.ordering_s));
  report.set_layer("symbolic.p50_ms", 1e3 * median(symbolic_s));
  report.set_layer("symbolic.supernodes", blocks.supernode_count());
  report.set_layer("symbolic.lu_nnz",
                   static_cast<double>(blocks.lu_nnz_fullblock()));
  report.set_layer("symbolic.block_width_p50", median(widths));
  report.set_layer("symbolic.block_width_max", quantile(widths, 1.0));
  report.set_layer("pselinv.plan_blocks_per_s",
                   static_cast<double>(plan.supernode_count() + plan.kt_count()) /
                       median(pass.plan_s));
  report.set_layer("pselinv.plan_mb",
                   static_cast<double>(plan.memory_bytes()) / kMiB);

  const pselinv::RunResult& run = pass.first;
  Count messages = 0, bytes = 0;
  for (const sim::RankStats& rank : run.rank_stats)
    for (const sim::ClassCounters& c : rank.per_class) {
      messages += c.messages_sent;
      bytes += c.bytes_sent;
    }
  report.set_layer("pselinv.sim_makespan", run.makespan);
  report.set_layer("pselinv.comm_frac", run.mean_comm_seconds() / run.makespan);
  report.set_layer("pselinv.messages", static_cast<double>(messages));
  report.set_layer("pselinv.bytes_mb", static_cast<double>(bytes) / kMiB);
  report.set_layer("sim.events", static_cast<double>(run.events));
  report.set_layer("sim.events_per_s", static_cast<double>(run.events) /
                                           median(pass.timing.op_s));
  report.set_layer("sim.arena_high_water",
                   static_cast<double>(run.arena_high_water));
}

}  // namespace

Report run_replay(const Options& options) {
  Report report;
  report.workload = "replay_audikw46";
  Tracer detached;
  Pass base = replay_pass(options, detached, report);
  report.end_to_end = end_to_end_metrics(base.timing);
  if (!options.trace) return report;

  base.setup.reset();
  Tracer tracer;
  tracer.attach();
  const Pass traced = replay_pass(options, tracer, report);
  report.check(traced.first.makespan == base.first.makespan,
               "traced replay makespan differs from the untraced one");
  replay_layers(report, options, tracer, traced);
  finish_trace(report, options, tracer, base.timing, traced.timing);
  return report;
}

}  // namespace psi::perf
