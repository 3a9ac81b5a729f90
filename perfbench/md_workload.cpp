// md_water2_pbe0: NVE Born–Oppenheimer MD of a water dimer at
// PBE0/STO-3G through md::run_bomd on an md::ScfPotential with every
// cross-step lever on (wavefunction cache, density-extrapolation warm
// starts, FockBuilder rebind). Each step runs a few warm SCF iterations
// and one analytic gradient (two-electron, XC with basis Hessians,
// one-electron derivatives), so gradient-term and MD-layer changes show
// here and in no other workload.
//
// The seed draws the initial Maxwell–Boltzmann velocities and a small
// per-atom jitter of the starting geometry. The timed operation is one
// step; set-up is everything before the first step (inputs, surface
// construction and the cold first energy + forces).

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "chem/basis.hpp"
#include "common.hpp"
#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/xc_integrator.hpp"
#include "hfx/fock_builder.hpp"
#include "hfx/grad_contraction.hpp"
#include "md/forces.hpp"
#include "md/integrator.hpp"
#include "scf/gradient.hpp"
#include "scf/rks.hpp"
#include "workload/geometries.hpp"

namespace perfbench {
namespace {

using namespace mthfx;
using linalg::Matrix;

constexpr double kTimestepFs = 0.2;
constexpr double kInitialTemperatureK = 150.0;
constexpr double kJitterBohr = 0.02;
/// NVE energy-drift bound: the one tests/test_md.cpp pins for the
/// analytic PBE0 force path.
constexpr double kDriftBound = 2e-4;

chem::Molecule water_dimer(std::uint64_t seed) {
  chem::Molecule dimer = workload::water();
  chem::Molecule second = workload::water();
  second.translate({5.6, 0.0, 0.0});
  dimer.append(second);
  Rng rng(seed ^ 0x5eedULL);
  for (std::size_t i = 0; i < dimer.size(); ++i) {
    chem::Vec3 p = dimer.atom(i).pos;
    for (int d = 0; d < 3; ++d)
      p[static_cast<std::size_t>(d)] += rng.uniform(-kJitterBohr, kJitterBohr);
    dimer.set_position(i, p);
  }
  return dimer;
}

/// Delegates to the SCF surface, recording a span per call while a trace
/// is set and the last two geometries the integrator asked about (for
/// the layer probes).
class RecordingSurface : public md::PotentialSurface {
 public:
  RecordingSurface(const md::ScfPotential& inner, obs::Trace* trace)
      : inner_(inner), trace_(trace) {}

  void set_trace(obs::Trace* trace) { trace_ = trace; }

  double energy(const chem::Molecule& mol) const override {
    const MaybeSpan s(trace_, "md.energy");
    previous_ = last_;
    last_ = mol;
    return inner_.energy(mol);
  }
  std::vector<chem::Vec3> forces(const chem::Molecule& mol) const override {
    const MaybeSpan s(trace_, "md.forces");
    return inner_.forces(mol);
  }

  const chem::Molecule& last() const { return last_; }
  const chem::Molecule& previous() const { return previous_; }

 private:
  const md::ScfPotential& inner_;
  obs::Trace* trace_;
  mutable chem::Molecule last_, previous_;
};

struct StopRun {};

struct Trajectory {
  double setup_s = 0.0;
  std::vector<double> step_ms;         ///< steps run without spans
  std::vector<double> traced_step_ms;  ///< steps run inside spans
  std::vector<double> totals;          ///< E_total per frame
  std::uint64_t solves = 0, cache_hits = 0, warm_starts = 0;
  std::uint64_t iterations = 0, first_iterations = 0;
  chem::Molecule previous, last;  ///< the last two geometries
  std::string error;
  std::size_t steps() const { return step_ms.size() + traced_step_ms.size(); }
};

/// Runs the workload: the seeded start geometry, the surface and the cold
/// first frame (energy + forces) are the set-up; then steps run until
/// `seconds` have elapsed after the first frame, and the frame callback
/// stops the trajectory. With `setup_only` it stops at the first frame.
/// With a trace, steps alternate between running inside spans and
/// without, so the cost of tracing is measured on the same trajectory.
Trajectory run(const Args& args, obs::Trace* trace, bool setup_only) {
  Trajectory t;
  const Clock::time_point t0 = Clock::now();
  std::optional<obs::Trace::Scope> span;
  if (trace) span.emplace(*trace, "workload.setup");
  const chem::Molecule start = water_dimer(args.seed);
  const md::ScfPotential pot("sto-3g", pbe0_options(kHfxThreads));
  RecordingSurface surface(pot, trace);

  md::MdOptions opts;
  opts.timestep_fs = kTimestepFs;
  opts.num_steps = 1 << 20;  // the run length, not the count, ends it
  opts.initial_temperature_k = kInitialTemperatureK;
  opts.seed = static_cast<unsigned>(args.seed);

  Clock::time_point last = t0, first_frame = t0;
  bool traced_step = false;
  const obs::Registry& m = pot.metrics();
  try {
    md::run_bomd(start, surface, opts, [&](const md::MdFrame& frame) {
      const Clock::time_point now = Clock::now();
      span.reset();
      t.totals.push_back(frame.total);
      if (t.totals.size() == 1) {
        t.setup_s = seconds_since(t0);
        if (setup_only) throw StopRun{};
        t.first_iterations = m.counter_total("md.scf_iterations");
        first_frame = now;
      } else {
        (traced_step ? t.traced_step_ms : t.step_ms)
            .push_back(1e3 * std::chrono::duration<double>(now - last).count());
      }
      last = now;
      if (seconds_since(first_frame) >= args.seconds) throw StopRun{};
      traced_step = trace != nullptr && !traced_step;
      surface.set_trace(traced_step ? trace : nullptr);
      if (traced_step) span.emplace(*trace, "md.step");
    });
  } catch (const StopRun&) {
  } catch (const std::exception& e) {
    t.error = e.what();
  }
  t.solves = m.counter_total("md.scf_solves");
  t.cache_hits = m.counter_total("md.surface_cache_hits");
  t.warm_starts = m.counter_total("md.warm_starts");
  t.iterations = m.counter_total("md.scf_iterations");
  t.previous = surface.previous();
  t.last = surface.last();
  return t;
}

/// Correctness gates: the trajectory ran, NVE drift stays under the
/// pinned bound, and exactly one SCF solve ran per frame (the forces
/// call of each frame hits the wavefunction cache).
void gate(Outcome& out, const Trajectory& t) {
  out.attempted = t.steps();
  if (!t.error.empty()) {
    out.fail("trajectory aborted: " + t.error);
    return;
  }
  double drift = 0.0;
  for (double e : t.totals) drift = std::max(drift, std::abs(e - t.totals[0]));
  out.detail["max_energy_drift"] = drift;
  if (drift >= kDriftBound) out.fail("NVE drift above the pinned bound");
  const std::uint64_t frames = t.totals.size();
  out.detail["scf_solves"] = static_cast<long long>(t.solves);
  out.detail["frames"] = static_cast<long long>(frames);
  if (t.solves != frames || t.cache_hits != frames)
    out.fail("expected one SCF solve and one cache hit per frame");
}

Outcome trace_md(const Args& args) {
  Outcome out;
  obs::Trace tr;
  const Trajectory t = run(args, &tr, false);
  gate(out, t);
  if (t.traced_step_ms.empty() || t.step_ms.empty())
    return out;  // failed: nothing to probe
  const double steps = static_cast<double>(t.steps());
  const double traced_steps = static_cast<double>(t.traced_step_ms.size());
  const double step_ms = median(t.step_ms);
  out.set("obs.trace_overhead_frac",
          median(t.traced_step_ms) / step_ms - 1.0, "ratio");
  out.set("md.scf_iters_per_step",
          static_cast<double>(t.iterations - t.first_iterations) / steps,
          "count");
  out.set("md.warm_start_frac",
          static_cast<double>(t.warm_starts) /
              static_cast<double>(t.solves - 1),
          "ratio");

  // Layer probes on the last two geometries of the trajectory: the
  // step from A to B is what the surface just did.
  const chem::Molecule& mol_a = t.previous;
  const chem::Molecule& mol_b = t.last;
  const chem::BasisSet basis_a = chem::BasisSet::build(mol_a, "sto-3g");
  const chem::BasisSet basis_b = chem::BasisSet::build(mol_b, "sto-3g");
  const dft::Functional functional = dft::make_functional("pbe0");
  const scf::KsResult res_a =
      scf::rks(mol_a, basis_a, pbe0_options(kHfxThreads));
  const auto p_a = std::make_shared<const Matrix>(res_a.scf.density);

  double solve[2], grad[2], grad_2e[2], jk[2], xc_ms[2];
  const std::size_t counts[2] = {1, kHfxThreads};
  scf::KsResult res_b;
  double warm_iters = 0.0;
  const dft::MolecularGrid grid(mol_b, pbe0_options(1).grid);
  const dft::XcIntegrator xc(basis_b, grid);
  for (int i = 0; i < 2; ++i) {
    const std::string at = "@" + std::to_string(counts[i]) + "t";
    scf::KsOptions opt = pbe0_options(counts[i]);
    opt.scf.initial_density = p_a;
    solve[i] = time_ms(tr, "scf.rks_warm" + at, 2,
                       [&] { res_b = scf::rks(mol_b, basis_b, opt); });
    warm_iters = static_cast<double>(res_b.scf.iterations);
    grad[i] = time_ms(tr, "scf.grad" + at, 2, [&] {
      (void)scf::ks_gradient(mol_b, basis_b, opt, res_b);
    });
    hfx::GradContractionOptions g;
    g.ax = functional.exact_exchange;
    g.eps_schwarz = opt.scf.hfx.eps_schwarz;
    g.num_threads = counts[i];
    const hfx::FockBuilder builder(basis_b, opt.scf.hfx);
    grad_2e[i] = time_ms(tr, "hfx.grad_2e" + at, 2, [&] {
      (void)hfx::two_electron_gradient(basis_b, builder.pairs(),
                                       res_b.scf.density, g);
    });
    jk[i] = time_ms(tr, "hfx.jk" + at, 3, [&] {
      (void)builder.coulomb_exchange(res_b.scf.density);
    });
    xc_ms[i] = time_ms(tr, "dft.xc" + at, 3, [&] {
      (void)xc.integrate(functional, res_b.scf.density);
    });
  }
  const double basis_ms = time_ms(tr, "chem.basis", 3, [&] {
    (void)chem::BasisSet::build(mol_b, "sto-3g");
  });
  const double grid_ms = time_ms(tr, "dft.grid", 3, [&] {
    const dft::MolecularGrid g(mol_b, pbe0_options(1).grid);
  });
  const double xc_setup_ms = time_ms(tr, "dft.xc_setup", 3, [&] {
    const dft::XcIntegrator x(basis_b, grid);
  });
  const double xc_grad_ms = time_ms(tr, "dft.xc_grad", 2, [&] {
    (void)xc.gradient(functional, res_b.scf.density, mol_b);
  });
  hfx::FockBuilder rebinding(basis_a, pbe0_options(kHfxThreads).scf.hfx);
  std::vector<double> rebind;
  double reused = 0.0;
  for (int r = 0; r < 4; ++r) {
    const obs::Trace::Scope s(tr, "hfx.rebind");
    const Clock::time_point t0 = Clock::now();
    rebinding.rebind(r % 2 == 0 ? basis_b : basis_a);
    rebind.push_back(1e3 * seconds_since(t0));
    reused = static_cast<double>(rebinding.last_rebind_reused_pairs()) /
             static_cast<double>(rebinding.pairs().size());
  }

  out.set("chem.basis_ms", basis_ms, "ms");
  out.set("dft.grid_ms", grid_ms, "ms");
  out.set("dft.xc_setup_ms", xc_setup_ms, "ms");
  out.set("scf.grad_ms", grad[1], "ms");
  out.set("hfx.grad_2e_ms", grad_2e[1], "ms");
  out.set("dft.xc_grad_ms", xc_grad_ms, "ms");
  out.set("hfx.rebind_ms", median(rebind), "ms");
  out.set("hfx.rebind_reused_frac", reused, "ratio");
  out.set("hfx.jk_ms", jk[1], "ms");
  out.set("hfx.jk_speedup", jk[0] / jk[1], "ratio");
  out.set("dft.xc_ms", xc_ms[1], "ms");
  out.set("dft.xc_speedup", xc_ms[0] / xc_ms[1], "ratio");
  out.set("scf.iterations", warm_iters, "count");

  obs::Json rows = obs::Json::array();
  rows.push_back(table_row("scf.rks_warm", 1, solve[0], solve[1],
                           "whole warm solve (contains hfx.jk, dft.xc)"));
  rows.push_back(table_row("scf.grad", 1, grad[0], grad[1],
                           "whole ks_gradient (contains the two below)"));
  obs::Json parts = obs::Json::array();
  parts.push_back(table_row("hfx.jk", warm_iters, jk[0], jk[1], ""));
  parts.push_back(table_row("dft.xc", warm_iters, xc_ms[0], xc_ms[1],
                            "takes no thread count"));
  parts.push_back(table_row("hfx.rebind", 1, median(rebind), median(rebind),
                            "measured at 3 threads only"));
  parts.push_back(table_row("dft.grid", 2, grid_ms, grid_ms,
                            "serial; rks and ks_gradient build one each"));
  parts.push_back(table_row("dft.xc_setup", 2, xc_setup_ms, xc_setup_ms,
                            "serial"));
  parts.push_back(table_row("hfx.grad_2e", 1, grad_2e[0], grad_2e[1], ""));
  parts.push_back(table_row("dft.xc_grad", 1, xc_grad_ms, xc_grad_ms,
                            "serial: no thread count in its API"));
  obs::Json tables = obs::Json::object();
  tables["speedup"] = speedup_table(
      "md_water2_pbe0: per-step time at 1 and 3 HFX threads", rows, step_ms);
  tables["speedup_parts"] = speedup_table(
      "md_water2_pbe0: layers inside one step", parts, step_ms);
  tables["step_ms"] = step_ms;
  tables["traced_step_ms"] = median(t.traced_step_ms);
  // Per traced step from the spans (the set-up made one call of each
  // too): the surface's energy (the SCF solve) and forces (cache hit +
  // gradient) calls, and the integrator's own time (md.step self time).
  tables["md_energy_ms_per_step"] =
      self_ms(tr, "md.energy") / (traced_steps + 1);
  tables["md_forces_ms_per_step"] =
      self_ms(tr, "md.forces") / (traced_steps + 1);
  tables["md_step_self_ms"] = self_ms(tr, "md.step") / traced_steps;

  finish_trace(args, tr, tables);
  return out;
}

}  // namespace

Outcome run_md_water2_pbe0(const Args& args) {
  if (args.trace) return trace_md(args);
  Outcome out;
  // setup_s: the median of kSetupRepeats cold set-ups, all but one in
  // forked children, the last the one this run's trajectory starts from.
  std::vector<double> setup_s = forked_setup_s(
      kSetupRepeats - 1, [&] { (void)run(args, nullptr, true); });
  const Trajectory t = run(args, nullptr, false);
  setup_s.push_back(t.setup_s);
  gate(out, t);
  set_setup_s(out, setup_s);
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("op_ms", median(t.step_ms), "ms");
  out.detail["op"] = "BOMD step (warm SCF + analytic forces)";
  out.detail["samples"] = t.step_ms.size();
  obs::Json all = obs::Json::array();
  for (double v : t.step_ms) all.push_back(v);
  out.detail["op_ms_all"] = std::move(all);
  return out;
}

}  // namespace perfbench
