#include "dft/xc_integrator.hpp"

#include <algorithm>
#include <cmath>

#include "hfx/cell_list.hpp"
#include "obs/trace.hpp"
#include "parallel/slots.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::dft {

using linalg::Matrix;

namespace {

constexpr std::size_t kMaxChannels = 2;  // alpha and beta

/// Grid points per batch — the task unit of the slot driver.
constexpr std::size_t kBatchPoints = 128;

std::size_t num_batches(std::size_t np) {
  return (np + kBatchPoints - 1) / kBatchPoints;
}

/// out (rows x n) = a (rows x n) times the n x n row-major m, all
/// row-major. Zero entries of a are skipped: a screened batch panel holds
/// mostly zeros.
void rows_times(const double* a, std::size_t rows, std::size_t n,
                const double* m, double* out) {
  std::fill_n(out, rows * n, 0.0);
  for (std::size_t g = 0; g < rows; ++g) {
    const double* ag = a + g * n;
    double* og = out + g * n;
    for (std::size_t mu = 0; mu < n; ++mu) {
      const double f = ag[mu];
      if (f == 0.0) continue;
      const double* row = m + mu * n;
      for (std::size_t nu = 0; nu < n; ++nu) og[nu] += f * row[nu];
    }
  }
}

double dot(const double* x, const double* y, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

/// Central-difference potentials of the closed-shell functional.
struct Potentials {
  double vrho = 0.0, vsigma = 0.0;
};

Potentials closed_shell_potentials(const Functional& functional, double rho,
                                   double sigma) {
  Potentials p;
  const double hr = std::max(1e-9, 1e-6 * rho);
  p.vrho = (functional.energy_density(rho + hr, sigma) -
            functional.energy_density(rho - hr, sigma)) /
           (2.0 * hr);
  if (functional.needs_gradient && sigma > 1e-24) {
    const double hs = std::max(1e-12, 1e-6 * sigma);
    p.vsigma = (functional.energy_density(rho, sigma + hs) -
                functional.energy_density(rho, sigma - hs)) /
               (2.0 * hs);
  }
  return p;
}

/// One batch's AO panels: npts x n row-major values and gradients over
/// the batch's local AOs `idx` (all nao, with idx null, in dense mode).
struct Batch {
  std::size_t g0 = 0, npts = 0, n = 0;
  const double *phi = nullptr, *gx = nullptr, *gy = nullptr, *gz = nullptr;
  const std::uint32_t* idx = nullptr;
};

/// Per-thread working set of the batch kernel, reused across batches.
struct Scratch {
  std::vector<std::uint32_t> idx;  ///< union of the batch's local AOs
  std::vector<std::int64_t> local;  ///< AO -> position in idx, or -1
  std::vector<double> phi, gx, gy, gz;  ///< gathered panels (screened)
  std::vector<double> p;   ///< gathered density blocks, per channel
  std::vector<double> px;  ///< PX = Phi P, per channel
  std::vector<double> t;   ///< potential panels T, per channel
  std::vector<double> w;   ///< W blocks before the scatter (screened)
  std::vector<char> live;  ///< point passed the density threshold
};

Batch load_batch(const XcIntegrator::AoTable& table, std::size_t nao,
                 std::size_t np, bool screened, std::size_t b, Scratch& s) {
  Batch bt;
  bt.g0 = b * kBatchPoints;
  bt.npts = std::min(np, bt.g0 + kBatchPoints) - bt.g0;
  const std::size_t g1 = bt.g0 + bt.npts;
  if (!screened) {
    const std::size_t off = table.row_off[bt.g0];
    bt.n = nao;
    bt.phi = table.ao.data() + off;
    bt.gx = table.ax.data() + off;
    bt.gy = table.ay.data() + off;
    bt.gz = table.az.data() + off;
    return bt;
  }
  s.local.resize(nao, -1);
  s.idx.clear();
  for (std::size_t e = table.row_off[bt.g0]; e < table.row_off[g1]; ++e)
    if (s.local[table.cols[e]] < 0) {
      s.local[table.cols[e]] = 0;
      s.idx.push_back(table.cols[e]);
    }
  std::sort(s.idx.begin(), s.idx.end());
  bt.n = s.idx.size();
  for (std::size_t i = 0; i < bt.n; ++i)
    s.local[s.idx[i]] = static_cast<std::int64_t>(i);
  for (auto* panel : {&s.phi, &s.gx, &s.gy, &s.gz})
    panel->assign(bt.npts * bt.n, 0.0);
  for (std::size_t g = bt.g0; g < g1; ++g)
    for (std::size_t e = table.row_off[g]; e < table.row_off[g + 1]; ++e) {
      const auto col = static_cast<std::size_t>(s.local[table.cols[e]]);
      const std::size_t at = (g - bt.g0) * bt.n + col;
      s.phi[at] = table.ao[e];
      s.gx[at] = table.ax[e];
      s.gy[at] = table.ay[e];
      s.gz[at] = table.az[e];
    }
  for (const std::uint32_t mu : s.idx) s.local[mu] = -1;
  bt.phi = s.phi.data();
  bt.gx = s.gx.data();
  bt.gy = s.gy.data();
  bt.gz = s.gz.data();
  bt.idx = s.idx.data();
  return bt;
}

}  // namespace

XcIntegrator::XcIntegrator(const chem::BasisSet& basis,
                           const MolecularGrid& grid, bool screen_basis,
                           std::size_t num_threads)
    : basis_(basis),
      grid_(grid),
      screened_(screen_basis),
      num_threads_(num_threads) {
  const std::size_t ns = basis.num_shells();
  const std::size_t np = grid.size();
  std::vector<double> radius2(ns, 0.0);
  if (screened_) {
    const std::vector<double> radii = hfx::shell_extent_radii(basis);
    for (std::size_t s = 0; s < ns; ++s) radius2[s] = radii[s] * radii[s];
  }

  auto covers = [&](std::size_t s, const chem::Vec3& pos) {
    const chem::Vec3 d = pos - basis.shell(s).center();
    return !screened_ || chem::dot(d, d) <= radius2[s];
  };
  // Points are independent: count each point's row, then fill the rows
  // at their prefix-sum offsets, a batch of points per pool task.
  parallel::ThreadPool pool(num_threads_);
  auto for_batches = [&](const auto& row) {
    pool.parallel_for(0, num_batches(np), [&](std::size_t b, std::size_t) {
      const std::size_t g0 = b * kBatchPoints;
      for (std::size_t g = g0; g < std::min(np, g0 + kBatchPoints); ++g)
        row(g, grid.points()[g].pos);
    });
  };
  table_.row_off.assign(np + 1, 0);
  for_batches([&](std::size_t g, const chem::Vec3& pos) {
    for (std::size_t s = 0; s < ns; ++s)
      if (covers(s, pos))
        table_.row_off[g + 1] += basis.shell(s).num_functions();
  });
  for (std::size_t g = 0; g < np; ++g)
    table_.row_off[g + 1] += table_.row_off[g];
  const std::size_t entries = table_.row_off[np];
  table_.cols.resize(entries);
  for (auto* values : {&table_.ao, &table_.ax, &table_.ay, &table_.az})
    values->resize(entries);
  for_batches([&](std::size_t g, const chem::Vec3& pos) {
    std::size_t e = table_.row_off[g];
    for (std::size_t s = 0; s < ns; ++s) {
      if (!covers(s, pos)) continue;
      basis.evaluate_shell_with_gradient(s, pos, &table_.ao[e], &table_.ax[e],
                                         &table_.ay[e], &table_.az[e]);
      const std::size_t base = basis.first_function(s);
      for (std::size_t c = 0; c < basis.shell(s).num_functions(); ++c)
        table_.cols[e++] = static_cast<std::uint32_t>(base + c);
    }
  });
}

double XcIntegrator::cached_fraction() const {
  const double dense = static_cast<double>(grid_.size()) *
                       static_cast<double>(basis_.num_functions());
  return dense > 0.0 ? static_cast<double>(table_.cols.size()) / dense : 1.0;
}

template <typename Pointwise>
std::vector<double> XcIntegrator::accumulate(
    std::span<const Matrix* const> densities, bool needs_gradient,
    const Pointwise& pointwise) const {
  const std::size_t nao = basis_.num_functions();
  const std::size_t nn = nao * nao;
  const std::size_t nch = densities.size();
  const std::size_t np = grid_.size();
  const std::size_t len = nch * nn + 2;

  // A point costs about nloc^2 (the PX and W panel products).
  std::vector<double> costs(num_batches(np), 0.0);
  for (std::size_t g = 0; g < np; ++g) {
    const auto nloc =
        static_cast<double>(table_.row_off[g + 1] - table_.row_off[g]);
    costs[g / kBatchPoints] += nloc * nloc;
  }
  const parallel::SlotPlan plan = parallel::plan_slots(costs, len);
  std::vector<Scratch> scratch(parallel::resolve_thread_count(num_threads_));

  auto run_batch = [&](std::size_t b, double* acc, Scratch& s) {
    const Batch bt = load_batch(table_, nao, np, screened_, b, s);
    const std::size_t m = bt.npts, n = bt.n;
    s.px.resize(nch * m * n);
    s.t.resize(nch * m * n);
    s.live.assign(m, 0);
    for (std::size_t c = 0; c < nch; ++c) {
      const double* pc = densities[c]->data();
      if (screened_) {
        s.p.resize(nch * n * n);
        double* dst = s.p.data() + c * n * n;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            dst[i * n + j] = pc[bt.idx[i] * nao + bt.idx[j]];
        pc = dst;
      }
      rows_times(bt.phi, m, n, pc, s.px.data() + c * m * n);
    }

    double e_sum = 0.0, n_sum = 0.0;
    for (std::size_t g = 0; g < m; ++g) {
      const double* phi = bt.phi + g * n;
      double rho[kMaxChannels] = {};
      double grad[kMaxChannels][3] = {};
      double rho_total = 0.0;
      for (std::size_t c = 0; c < nch; ++c) {
        rho[c] = dot(s.px.data() + (c * m + g) * n, phi, n);
        rho_total += rho[c];
      }
      if (rho_total < 1e-12) continue;
      s.live[g] = 1;
      const double w = grid_.points()[bt.g0 + g].weight;
      n_sum += w * rho_total;
      if (needs_gradient)
        for (std::size_t c = 0; c < nch; ++c) {
          const double* px = s.px.data() + (c * m + g) * n;
          grad[c][0] = 2.0 * dot(px, bt.gx + g * n, n);
          grad[c][1] = 2.0 * dot(px, bt.gy + g * n, n);
          grad[c][2] = 2.0 * dot(px, bt.gz + g * n, n);
        }
      double a[kMaxChannels], bv[kMaxChannels][3];
      e_sum += w * pointwise(w, rho, grad, a, bv);
      for (std::size_t c = 0; c < nch; ++c) {
        double* t = s.t.data() + (c * m + g) * n;
        const double* gx = bt.gx + g * n;
        const double* gy = bt.gy + g * n;
        const double* gz = bt.gz + g * n;
        for (std::size_t mu = 0; mu < n; ++mu)
          t[mu] = a[c] * phi[mu] + bv[c][0] * gx[mu] + bv[c][1] * gy[mu] +
                  bv[c][2] * gz[mu];
      }
    }

    // W_c[mu, :] += sum_g T_c[g, mu] Phi[g, :], one W row at a time.
    for (std::size_t c = 0; c < nch; ++c) {
      double* wc = acc + c * nn;
      if (screened_) {
        s.w.assign(n * n, 0.0);
        wc = s.w.data();
      }
      const double* tc = s.t.data() + c * m * n;
      for (std::size_t mu = 0; mu < n; ++mu) {
        double* wrow = wc + mu * n;
        for (std::size_t g = 0; g < m; ++g) {
          const double t = s.live[g] ? tc[g * n + mu] : 0.0;
          if (t == 0.0) continue;
          const double* phi = bt.phi + g * n;
          for (std::size_t nu = 0; nu < n; ++nu) wrow[nu] += t * phi[nu];
        }
      }
      if (screened_)
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j)
            acc[c * nn + bt.idx[i] * nao + bt.idx[j]] += wc[i * n + j];
    }
    acc[nch * nn] += e_sum;
    acc[nch * nn + 1] += n_sum;
  };

  return parallel::sum_slots(
      plan.size(), len, num_threads_,
      [&](std::size_t slot, double* acc, std::size_t tid) {
        for (std::size_t b = plan.begin(slot); b < plan.end(slot); ++b)
          run_batch(b, acc, scratch[tid]);
      });
}

namespace {

/// V = W + W^T for the c-th nao x nao block of a reduced buffer.
Matrix symmetric_potential(const std::vector<double>& total, std::size_t c,
                           std::size_t nao) {
  const double* w = total.data() + c * nao * nao;
  Matrix v(nao, nao);
  for (std::size_t i = 0; i < nao; ++i)
    for (std::size_t j = 0; j < nao; ++j)
      v(i, j) = w[i * nao + j] + w[j * nao + i];
  return v;
}

}  // namespace

XcResult XcIntegrator::integrate(const Functional& functional,
                                 const Matrix& density) const {
  const obs::Trace::Scope span(obs::global_trace(), "xc.integrate");
  const Matrix* densities[] = {&density};
  const auto pointwise = [&](double w, const double* rho,
                         const double (*grad)[3], double* a,
                         double (*b)[3]) {
    const double sigma = grad[0][0] * grad[0][0] +
                         grad[0][1] * grad[0][1] +
                         grad[0][2] * grad[0][2];
    const Potentials v =
        closed_shell_potentials(functional, rho[0], sigma);
    // t = (w vrho / 2) phi + (2 w vsigma) (grad rho . grad phi).
    a[0] = 0.5 * w * v.vrho;
    for (int d = 0; d < 3; ++d) b[0][d] = 2.0 * w * v.vsigma * grad[0][d];
    return functional.energy_density(rho[0], sigma);
  };
  const std::vector<double> total =
      accumulate(densities, functional.needs_gradient, pointwise);
  const std::size_t nao = basis_.num_functions();
  XcResult result;
  result.v = symmetric_potential(total, 0, nao);
  result.energy = total[nao * nao];
  result.integrated_density = total[nao * nao + 1];
  return result;
}

XcSpinResult XcIntegrator::integrate_spin(const SpinFunctional& functional,
                                          const Matrix& density_alpha,
                                          const Matrix& density_beta) const {
  const obs::Trace::Scope span(obs::global_trace(), "xc.integrate");
  const Matrix* densities[] = {&density_alpha, &density_beta};
  const auto pointwise = [&](double w, const double* rho,
                         const double (*grad)[3], double* a,
                         double (*b)[3]) {
    const double* ga = grad[0];
    const double* gb = grad[1];
    SpinDensity d;
    d.rho_a = rho[0];
    d.rho_b = rho[1];
    if (functional.needs_gradient) {
      d.sigma_aa = ga[0] * ga[0] + ga[1] * ga[1] + ga[2] * ga[2];
      d.sigma_bb = gb[0] * gb[0] + gb[1] * gb[1] + gb[2] * gb[2];
      d.sigma_ab = ga[0] * gb[0] + ga[1] * gb[1] + ga[2] * gb[2];
    }
    // Central-difference potentials over the five variables.
    auto deriv = [&](auto mutate, double scale_hint) {
      const double h = std::max(1e-10, 1e-6 * std::abs(scale_hint));
      SpinDensity dp = d, dm = d;
      mutate(dp, h);
      mutate(dm, -h);
      return (functional.energy_density(dp) -
              functional.energy_density(dm)) /
             (2.0 * h);
    };
    const double vra =
        deriv([](SpinDensity& s, double h) { s.rho_a += h; }, d.rho());
    const double vrb =
        deriv([](SpinDensity& s, double h) { s.rho_b += h; }, d.rho());
    double vsaa = 0, vsbb = 0, vsab = 0;
    if (functional.needs_gradient) {
      const double shint = std::max(1e-8, d.sigma());
      vsaa = deriv([](SpinDensity& s, double h) { s.sigma_aa += h; },
                   shint);
      vsbb = deriv([](SpinDensity& s, double h) { s.sigma_bb += h; },
                   shint);
      vsab = deriv([](SpinDensity& s, double h) { s.sigma_ab += h; },
                   shint);
    }
    // V_a += w [vra phi phi^T + (2 vsaa grad_a + vsab grad_b).
    // (grad(phi) phi^T + phi grad(phi)^T)]; beta with labels swapped.
    a[0] = 0.5 * w * vra;
    a[1] = 0.5 * w * vrb;
    for (int k = 0; k < 3; ++k) {
      b[0][k] = w * (2.0 * vsaa * ga[k] + vsab * gb[k]);
      b[1][k] = w * (2.0 * vsbb * gb[k] + vsab * ga[k]);
    }
    return functional.energy_density(d);
  };
  const std::vector<double> total =
      accumulate(densities, functional.needs_gradient, pointwise);
  const std::size_t nao = basis_.num_functions();
  XcSpinResult result;
  result.v_alpha = symmetric_potential(total, 0, nao);
  result.v_beta = symmetric_potential(total, 1, nao);
  result.energy = total[2 * nao * nao];
  result.integrated_density = total[2 * nao * nao + 1];
  return result;
}

double XcIntegrator::integrate_density(const Matrix& density) const {
  const Functional none{"none", [](double, double) { return 0.0; }};
  return integrate(none, density).integrated_density;
}

std::vector<chem::Vec3> XcIntegrator::gradient(const Functional& functional,
                                               const Matrix& density,
                                               const chem::Molecule& mol) const {
  return xc_gradient(basis_, grid_, functional, density, mol, num_threads_);
}

std::vector<chem::Vec3> xc_gradient(const chem::BasisSet& basis,
                                    const MolecularGrid& grid,
                                    const Functional& functional,
                                    const Matrix& density,
                                    const chem::Molecule& mol,
                                    std::size_t num_threads) {
  const obs::Trace::Scope span(obs::global_trace(), "xc.gradient");
  const std::size_t nao = basis.num_functions();
  const std::size_t np = grid.size();
  const std::size_t natoms = mol.size();

  // AO index -> owning atom.
  std::vector<std::size_t> atom_of(nao, 0);
  for (std::size_t s = 0; s < basis.num_shells(); ++s) {
    const chem::Shell& sh = basis.shell(s);
    const std::size_t base = basis.first_function(s);
    for (std::size_t c = 0; c < sh.num_functions(); ++c)
      atom_of[base + c] = sh.atom_index();
  }

  // Panels of one batch: AO values, gradients and Hessians (kPanels
  // npts x nao blocks), then P times the first four.
  enum { kVal, kDx, kDy, kDz, kXx, kXy, kXz, kYy, kYz, kZz, kPanels };
  struct GradScratch {
    std::vector<double> point[kPanels];  // one point's evaluation
    std::vector<double> panel, pp;
  };
  std::vector<GradScratch> scratch(parallel::resolve_thread_count(num_threads));

  // A point costs about nao^2 (the P phi and P grad(phi) products).
  std::vector<double> costs(num_batches(np), 0.0);
  for (std::size_t g = 0; g < np; ++g)
    costs[g / kBatchPoints] += static_cast<double>(nao * nao);
  const parallel::SlotPlan plan = parallel::plan_slots(costs, 3 * natoms);

  auto run_batch = [&](std::size_t b, double* acc, GradScratch& s) {
    const std::size_t g0 = b * kBatchPoints;
    const std::size_t m = std::min(np, g0 + kBatchPoints) - g0;
    const std::size_t block = m * nao;
    s.panel.resize(kPanels * block);
    s.pp.resize(4 * block);
    auto at = [&](int panel, std::size_t g) {
      return s.panel.data() + panel * block + g * nao;
    };
    for (std::size_t g = 0; g < m; ++g) {
      auto& v = s.point;
      basis.evaluate_with_hessian(grid.points()[g0 + g].pos, v[kVal], v[kDx],
                                  v[kDy], v[kDz], v[kXx], v[kXy], v[kXz],
                                  v[kYy], v[kYz], v[kZz]);
      for (int k = 0; k < kPanels; ++k)
        std::copy(v[k].begin(), v[k].end(), at(k, g));
    }
    // P phi and P grad(phi) rows (P symmetric).
    const int products = functional.needs_gradient ? 4 : 1;
    for (int k = 0; k < products; ++k)
      rows_times(at(k, 0), m, nao, density.data(), s.pp.data() + k * block);
    if (products == 1) std::fill(s.pp.begin() + block, s.pp.end(), 0.0);

    auto add = [&](std::size_t atom, double w, const chem::Vec3& x) {
      acc[3 * atom] += w * x.x;
      acc[3 * atom + 1] += w * x.y;
      acc[3 * atom + 2] += w * x.z;
    };
    for (std::size_t g = 0; g < m; ++g) {
      const GridPoint& gp = grid.points()[g0 + g];
      const double w = gp.weight;
      const double* val = at(kVal, g);
      const double* d1x = at(kDx, g);
      const double* d1y = at(kDy, g);
      const double* d1z = at(kDz, g);
      const double *hxx = at(kXx, g), *hxy = at(kXy, g), *hxz = at(kXz, g);
      const double *hyy = at(kYy, g), *hyz = at(kYz, g), *hzz = at(kZz, g);
      const double* pphi = s.pp.data() + g * nao;
      const double* pgx = pphi + block;
      const double* pgy = pphi + 2 * block;
      const double* pgz = pphi + 3 * block;

      const double rho = dot(pphi, val, nao);
      if (rho < 1e-12) continue;
      double drx = 0.0, dry = 0.0, drz = 0.0;
      if (functional.needs_gradient) {
        drx = 2.0 * dot(pphi, d1x, nao);
        dry = 2.0 * dot(pphi, d1y, nao);
        drz = 2.0 * dot(pphi, d1z, nao);
      }
      const double sigma = drx * drx + dry * dry + drz * drz;
      const double e = functional.energy_density(rho, sigma);
      // Same central-difference potentials as integrate(), so the
      // gradient is consistent with the converged V_xc.
      const Potentials v = closed_shell_potentials(functional, rho, sigma);

      // Orbital terms: X_C = vrho drho/dR_C + vsigma dsigma/dR_C at fixed
      // point, accumulated per owning atom; the grid point riding on its
      // parent atom contributes -sum_C X_C there (translational
      // invariance of rho and sigma under a rigid shift).
      chem::Vec3 x_total{0, 0, 0};
      for (std::size_t mu = 0; mu < nao; ++mu) {
        const chem::Vec3 dphi{d1x[mu], d1y[mu], d1z[mu]};
        // (Hessian of phi_mu) . grad rho
        const chem::Vec3 hdr{
            hxx[mu] * drx + hxy[mu] * dry + hxz[mu] * drz,
            hxy[mu] * drx + hyy[mu] * dry + hyz[mu] * drz,
            hxz[mu] * drx + hyz[mu] * dry + hzz[mu] * drz};
        const double gdotpg = drx * pgx[mu] + dry * pgy[mu] + drz * pgz[mu];
        const chem::Vec3 x_mu =
            (-2.0 * v.vrho * pphi[mu]) * dphi +
            (-4.0 * v.vsigma) * (pphi[mu] * hdr + gdotpg * dphi);
        add(atom_of[mu], w, x_mu);
        x_total = x_total + x_mu;
      }
      add(gp.parent, -w, x_total);

      // Grid-weight term: w = w0 * P_parent with w0 the (geometry-
      // independent) radial x angular weight. dP uses the same
      // translational-invariance correction for the moving point.
      if (gp.becke > 0.0 && natoms > 1) {
        const double w0e = w / gp.becke * e;
        const auto dp = becke_weight_gradient(mol, gp.parent, gp.pos);
        chem::Vec3 dp_total{0, 0, 0};
        for (std::size_t at_b = 0; at_b < natoms; ++at_b) {
          add(at_b, w0e, dp[at_b]);
          dp_total = dp_total + dp[at_b];
        }
        add(gp.parent, -w0e, dp_total);
      }
    }
  };

  const std::vector<double> total = parallel::sum_slots(
      plan.size(), 3 * natoms, num_threads,
      [&](std::size_t slot, double* acc, std::size_t tid) {
        for (std::size_t b = plan.begin(slot); b < plan.end(slot); ++b)
          run_batch(b, acc, scratch[tid]);
      });
  std::vector<chem::Vec3> grad(natoms);
  for (std::size_t a = 0; a < natoms; ++a)
    grad[a] = chem::Vec3{total[3 * a], total[3 * a + 1], total[3 * a + 2]};
  return grad;
}

}  // namespace mthfx::dft
