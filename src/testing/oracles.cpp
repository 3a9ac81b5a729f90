#include "testing/oracles.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "ints/eri.hpp"

namespace mthfx::testing {

using chem::BasisSet;
using linalg::Matrix;

std::vector<double> naive_eri_tensor(const BasisSet& basis) {
  const std::size_t n = basis.num_functions();
  const std::size_t ns = basis.num_shells();
  std::vector<double> tensor(n * n * n * n, 0.0);
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb < ns; ++sb)
      for (std::size_t sc = 0; sc < ns; ++sc)
        for (std::size_t sd = 0; sd < ns; ++sd) {
          const ints::EriBlock block = ints::eri_shell_quartet(
              basis.shell(sa), basis.shell(sb), basis.shell(sc),
              basis.shell(sd));
          const std::size_t oa = basis.first_function(sa);
          const std::size_t ob = basis.first_function(sb);
          const std::size_t oc = basis.first_function(sc);
          const std::size_t od = basis.first_function(sd);
          for (std::size_t i = 0; i < block.na; ++i)
            for (std::size_t j = 0; j < block.nb; ++j)
              for (std::size_t k = 0; k < block.nc; ++k)
                for (std::size_t l = 0; l < block.nd; ++l)
                  tensor[(((oa + i) * n + (ob + j)) * n + (oc + k)) * n +
                         (od + l)] = block(i, j, k, l);
        }
  return tensor;
}

DenseJk contract_jk(const BasisSet& basis, const std::vector<double>& tensor,
                    const Matrix& density) {
  const std::size_t n = basis.num_functions();
  if (tensor.size() != n * n * n * n)
    throw std::invalid_argument("contract_jk: tensor/basis size mismatch");
  DenseJk out{Matrix(n, n), Matrix(n, n)};
  for (std::size_t mu = 0; mu < n; ++mu)
    for (std::size_t nu = 0; nu < n; ++nu)
      for (std::size_t lam = 0; lam < n; ++lam)
        for (std::size_t sig = 0; sig < n; ++sig) {
          const double p = density(lam, sig);
          out.j(mu, nu) += p * tensor[((mu * n + nu) * n + lam) * n + sig];
          out.k(mu, nu) += p * tensor[((mu * n + lam) * n + nu) * n + sig];
        }
  return out;
}

DenseJk dense_jk_reference(const BasisSet& basis, const Matrix& density) {
  return contract_jk(basis, naive_eri_tensor(basis), density);
}

DenseJk orbit_jk_reference(const BasisSet& basis,
                           const std::vector<double>& tensor,
                           const Matrix& density) {
  const std::size_t n = basis.num_functions();
  if (tensor.size() != n * n * n * n)
    throw std::invalid_argument("orbit_jk_reference: size mismatch");
  DenseJk out{Matrix(n, n), Matrix(n, n)};
  using Quad = std::array<std::size_t, 4>;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      for (std::size_t k = 0; k <= i; ++k)
        for (std::size_t l = 0; l <= k; ++l) {
          // Canonical quartet: i >= j, k >= l, pair(ij) >= pair(kl).
          if (i * (i + 1) / 2 + j < k * (k + 1) / 2 + l) continue;
          const double v = tensor[((i * n + j) * n + k) * n + l];
          // Enumerate the full 8-member permutational orbit and apply
          // the plain update once per *distinct* member.
          const Quad orbit[8] = {{i, j, k, l}, {j, i, k, l}, {i, j, l, k},
                                 {j, i, l, k}, {k, l, i, j}, {l, k, i, j},
                                 {k, l, j, i}, {l, k, j, i}};
          Quad seen[8];
          std::size_t nseen = 0;
          for (const Quad& q : orbit) {
            bool dup = false;
            for (std::size_t s = 0; s < nseen; ++s)
              if (seen[s] == q) {
                dup = true;
                break;
              }
            if (dup) continue;
            seen[nseen++] = q;
            const auto [a, b, c, d] = q;
            out.j(a, b) += density(c, d) * v;
            out.k(a, c) += density(b, d) * v;
          }
        }
  return out;
}

Matrix serial_reduce(const std::vector<Matrix>& parts) {
  if (parts.empty()) return Matrix();
  Matrix sum(parts.front().rows(), parts.front().cols());
  for (const Matrix& p : parts) sum += p;
  return sum;
}

double coulomb_energy_from_tensor(const BasisSet& basis,
                                  const std::vector<double>& tensor,
                                  const Matrix& density) {
  const std::size_t n = basis.num_functions();
  double e = 0.0;
  for (std::size_t mu = 0; mu < n; ++mu)
    for (std::size_t nu = 0; nu < n; ++nu)
      for (std::size_t lam = 0; lam < n; ++lam)
        for (std::size_t sig = 0; sig < n; ++sig)
          e += density(mu, nu) * density(lam, sig) *
               tensor[((mu * n + nu) * n + lam) * n + sig];
  return 0.5 * e;
}

double exchange_energy_from_tensor(const BasisSet& basis,
                                   const std::vector<double>& tensor,
                                   const Matrix& density) {
  const std::size_t n = basis.num_functions();
  double e = 0.0;
  for (std::size_t mu = 0; mu < n; ++mu)
    for (std::size_t nu = 0; nu < n; ++nu)
      for (std::size_t lam = 0; lam < n; ++lam)
        for (std::size_t sig = 0; sig < n; ++sig)
          e += density(mu, nu) * density(lam, sig) *
               tensor[((mu * n + lam) * n + nu) * n + sig];
  return 0.5 * e;
}

dft::XcResult reference_xc(const dft::XcIntegrator& xc,
                           const dft::Functional& functional,
                           const Matrix& density) {
  const dft::MolecularGrid& grid = xc.grid();
  const auto& row_off = xc.ao_table().row_off;
  const auto& cols = xc.ao_table().cols;
  const auto& ao = xc.ao_table().ao;
  const auto& ax = xc.ao_table().ax;
  const auto& ay = xc.ao_table().ay;
  const auto& az = xc.ao_table().az;
  const std::size_t nao = xc.basis().num_functions();
  dft::XcResult result;
  result.v = Matrix(nao, nao);

  std::vector<double> pphi(nao);  // (P phi) at the current point

  for (std::size_t g = 0; g < grid.size(); ++g) {
    const double w = grid.points()[g].weight;
    const std::size_t nloc = row_off[g + 1] - row_off[g];
    const double* phi = ao.data() + row_off[g];
    const double* gx = ax.data() + row_off[g];
    const double* gy = ay.data() + row_off[g];
    const double* gz = az.data() + row_off[g];
    const std::uint32_t* idx = cols.data() + row_off[g];

    double rho = 0.0;
    for (std::size_t mu = 0; mu < nloc; ++mu) {
      double t = 0.0;
      for (std::size_t nu = 0; nu < nloc; ++nu)
        t += density(idx[mu], idx[nu]) * phi[nu];
      pphi[mu] = t;
      rho += t * phi[mu];
    }
    if (rho < 1e-12) continue;
    result.integrated_density += w * rho;

    // grad rho = 2 (P phi) . grad phi.
    double drx = 0.0, dry = 0.0, drz = 0.0;
    if (functional.needs_gradient) {
      for (std::size_t mu = 0; mu < nloc; ++mu) {
        drx += 2.0 * pphi[mu] * gx[mu];
        dry += 2.0 * pphi[mu] * gy[mu];
        drz += 2.0 * pphi[mu] * gz[mu];
      }
    }
    const double sigma = drx * drx + dry * dry + drz * drz;

    const double e = functional.energy_density(rho, sigma);
    result.energy += w * e;

    // Central-difference potentials.
    const double hr = std::max(1e-9, 1e-6 * rho);
    const double vrho = (functional.energy_density(rho + hr, sigma) -
                         functional.energy_density(rho - hr, sigma)) /
                        (2.0 * hr);
    double vsigma = 0.0;
    if (functional.needs_gradient && sigma > 1e-24) {
      const double hs = std::max(1e-12, 1e-6 * sigma);
      vsigma = (functional.energy_density(rho, sigma + hs) -
                functional.energy_density(rho, sigma - hs)) /
               (2.0 * hs);
    }

    // Symmetric rank-2 update: V += t phi^T + phi t^T with
    // t = (w vrho / 2) phi + (2 w vsigma) (grad rho . grad phi).
    for (std::size_t mu = 0; mu < nloc; ++mu) {
      const double d = drx * gx[mu] + dry * gy[mu] + drz * gz[mu];
      const double t = 0.5 * w * vrho * phi[mu] + 2.0 * w * vsigma * d;
      if (t == 0.0) continue;
      for (std::size_t nu = 0; nu < nloc; ++nu) {
        result.v(idx[mu], idx[nu]) += t * phi[nu];
        result.v(idx[nu], idx[mu]) += t * phi[nu];
      }
    }
  }
  return result;
}

dft::XcSpinResult reference_xc_spin(const dft::XcIntegrator& xc,
                                   const dft::SpinFunctional& functional,
                                   const Matrix& density_alpha,
                                   const Matrix& density_beta) {
  using dft::SpinDensity;
  const dft::MolecularGrid& grid = xc.grid();
  const auto& row_off = xc.ao_table().row_off;
  const auto& cols = xc.ao_table().cols;
  const auto& ao = xc.ao_table().ao;
  const auto& ax = xc.ao_table().ax;
  const auto& ay = xc.ao_table().ay;
  const auto& az = xc.ao_table().az;
  const std::size_t nao = xc.basis().num_functions();
  dft::XcSpinResult result;
  result.v_alpha = Matrix(nao, nao);
  result.v_beta = Matrix(nao, nao);

  std::vector<double> pa_phi(nao), pb_phi(nao);

  for (std::size_t g = 0; g < grid.size(); ++g) {
    const double w = grid.points()[g].weight;
    const std::size_t nloc = row_off[g + 1] - row_off[g];
    const double* phi = ao.data() + row_off[g];
    const double* gx = ax.data() + row_off[g];
    const double* gy = ay.data() + row_off[g];
    const double* gz = az.data() + row_off[g];
    const std::uint32_t* idx = cols.data() + row_off[g];

    SpinDensity d;
    for (std::size_t mu = 0; mu < nloc; ++mu) {
      double ta = 0.0, tb = 0.0;
      for (std::size_t nu = 0; nu < nloc; ++nu) {
        ta += density_alpha(idx[mu], idx[nu]) * phi[nu];
        tb += density_beta(idx[mu], idx[nu]) * phi[nu];
      }
      pa_phi[mu] = ta;
      pb_phi[mu] = tb;
      d.rho_a += ta * phi[mu];
      d.rho_b += tb * phi[mu];
    }
    if (d.rho() < 1e-12) continue;
    result.integrated_density += w * d.rho();

    double gax = 0, gay = 0, gaz = 0, gbx = 0, gby = 0, gbz = 0;
    if (functional.needs_gradient) {
      for (std::size_t mu = 0; mu < nloc; ++mu) {
        gax += 2.0 * pa_phi[mu] * gx[mu];
        gay += 2.0 * pa_phi[mu] * gy[mu];
        gaz += 2.0 * pa_phi[mu] * gz[mu];
        gbx += 2.0 * pb_phi[mu] * gx[mu];
        gby += 2.0 * pb_phi[mu] * gy[mu];
        gbz += 2.0 * pb_phi[mu] * gz[mu];
      }
      d.sigma_aa = gax * gax + gay * gay + gaz * gaz;
      d.sigma_bb = gbx * gbx + gby * gby + gbz * gbz;
      d.sigma_ab = gax * gbx + gay * gby + gaz * gbz;
    }

    const double e = functional.energy_density(d);
    result.energy += w * e;

    // Central-difference potentials over the five variables.
    auto deriv = [&](auto mutate, double scale_hint) {
      const double h = std::max(1e-10, 1e-6 * std::abs(scale_hint));
      SpinDensity dp = d, dm = d;
      mutate(dp, h);
      mutate(dm, -h);
      return (functional.energy_density(dp) - functional.energy_density(dm)) /
             (2.0 * h);
    };
    const double vra =
        deriv([](SpinDensity& s, double h) { s.rho_a += h; }, d.rho());
    const double vrb =
        deriv([](SpinDensity& s, double h) { s.rho_b += h; }, d.rho());
    double vsaa = 0, vsbb = 0, vsab = 0;
    if (functional.needs_gradient) {
      const double shint = std::max(1e-8, d.sigma());
      vsaa = deriv([](SpinDensity& s, double h) { s.sigma_aa += h; }, shint);
      vsbb = deriv([](SpinDensity& s, double h) { s.sigma_bb += h; }, shint);
      vsab = deriv([](SpinDensity& s, double h) { s.sigma_ab += h; }, shint);
    }

    // V_a += w [vra phi phi^T + (2 vsaa grad_a + vsab grad_b).(grad(phi)
    // phi^T + phi grad(phi)^T)]; same for beta with labels swapped.
    for (std::size_t mu = 0; mu < nloc; ++mu) {
      const double da = gax * gx[mu] + gay * gy[mu] + gaz * gz[mu];
      const double db = gbx * gx[mu] + gby * gy[mu] + gbz * gz[mu];
      const double ta =
          0.5 * w * vra * phi[mu] + w * (2.0 * vsaa * da + vsab * db);
      const double tb =
          0.5 * w * vrb * phi[mu] + w * (2.0 * vsbb * db + vsab * da);
      for (std::size_t nu = 0; nu < nloc; ++nu) {
        if (ta != 0.0) {
          result.v_alpha(idx[mu], idx[nu]) += ta * phi[nu];
          result.v_alpha(idx[nu], idx[mu]) += ta * phi[nu];
        }
        if (tb != 0.0) {
          result.v_beta(idx[mu], idx[nu]) += tb * phi[nu];
          result.v_beta(idx[nu], idx[mu]) += tb * phi[nu];
        }
      }
    }
  }
  return result;
}


}  // namespace mthfx::testing
