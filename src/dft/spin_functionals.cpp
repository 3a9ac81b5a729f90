#include "dft/spin_functionals.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "dft/functionals.hpp"

namespace mthfx::dft {

namespace {

constexpr double kPi = std::numbers::pi;

// PW92 G-function: -2A(1 + a1 rs) ln[1 + 1/(2A(b1 sqrt(rs) + b2 rs +
// b3 rs^{3/2} + b4 rs^2))].
double pw92_g(double rs, double a, double alpha1, double beta1, double beta2,
              double beta3, double beta4) {
  const double srs = std::sqrt(rs);
  const double q = 2.0 * a *
                   (beta1 * srs + beta2 * rs + beta3 * rs * srs +
                    beta4 * rs * rs);
  return -2.0 * a * (1.0 + alpha1 * rs) * std::log(1.0 + 1.0 / q);
}

// Spin interpolation function f(zeta) and f''(0).
double f_zeta(double zeta) {
  const double zp = std::pow(1.0 + zeta, 4.0 / 3.0);
  const double zm = std::pow(1.0 - zeta, 4.0 / 3.0);
  return (zp + zm - 2.0) / (2.0 * (std::cbrt(2.0) - 1.0));
}
constexpr double kFppZero = 1.7099209341613657;  // f''(0) = 8/(9(2^{1/3}-1))

}  // namespace

double lsda_exchange_energy_density(const SpinDensity& d) {
  return 0.5 * (lda_exchange_energy_density(2.0 * d.rho_a, 0.0) +
                lda_exchange_energy_density(2.0 * d.rho_b, 0.0));
}

double pw92_eps_c_spin(double rs, double zeta) {
  // ec0: unpolarized, ec1: fully polarized, -alpha_c: spin stiffness.
  const double ec0 =
      pw92_g(rs, 0.031091, 0.21370, 7.5957, 3.5876, 1.6382, 0.49294);
  const double ec1 =
      pw92_g(rs, 0.015545, 0.20548, 14.1189, 6.1977, 3.3662, 0.62517);
  const double neg_alpha =
      pw92_g(rs, 0.016887, 0.11125, 10.357, 3.6231, 0.88026, 0.49671);
  const double alpha_c = -neg_alpha;

  const double f = f_zeta(zeta);
  const double z4 = zeta * zeta * zeta * zeta;
  return ec0 + alpha_c * f / kFppZero * (1.0 - z4) + (ec1 - ec0) * f * z4;
}

double pw92_correlation_energy_density_spin(const SpinDensity& d) {
  const double rho = d.rho();
  if (rho <= 0.0) return 0.0;
  const double rs = std::cbrt(3.0 / (4.0 * kPi * rho));
  // A central-difference step can push one spin density below zero
  // (|zeta| > 1), where f(zeta) would take a power of a negative number.
  return rho * pw92_eps_c_spin(rs, std::clamp(d.zeta(), -1.0, 1.0));
}

double pbe_exchange_energy_density_spin(const SpinDensity& d) {
  // Exact spin scaling: E_x[ra, rb] = (E_x[2ra] + E_x[2rb]) / 2, with
  // sigma scaling as 4 sigma_ss for the doubled density.
  return 0.5 * (pbe_exchange_energy_density(2.0 * d.rho_a, 4.0 * d.sigma_aa) +
                pbe_exchange_energy_density(2.0 * d.rho_b, 4.0 * d.sigma_bb));
}

double pbe_correlation_energy_density_spin(const SpinDensity& d) {
  const double rho = d.rho();
  if (rho <= 0.0) return 0.0;
  constexpr double gamma = 0.031090690869654895;
  constexpr double beta = 0.06672455060314922;

  const double rs = std::cbrt(3.0 / (4.0 * kPi * rho));
  const double zeta = std::clamp(d.zeta(), -1.0 + 1e-12, 1.0 - 1e-12);
  const double eps_c = pw92_eps_c_spin(rs, zeta);

  const double phi = 0.5 * (std::pow(1.0 + zeta, 2.0 / 3.0) +
                            std::pow(1.0 - zeta, 2.0 / 3.0));
  const double phi3 = phi * phi * phi;
  const double kf = std::cbrt(3.0 * kPi * kPi * rho);
  const double ks = std::sqrt(4.0 * kf / kPi);
  const double grad = std::sqrt(std::max(0.0, d.sigma()));
  const double t = grad / (2.0 * phi * ks * rho);

  const double expo = std::exp(-eps_c / (gamma * phi3));
  double h = 0.0;
  if (expo != 1.0) {
    const double a_coef = beta / gamma / (expo - 1.0);
    const double t2 = t * t;
    const double num = 1.0 + a_coef * t2;
    const double den = 1.0 + a_coef * t2 + a_coef * a_coef * t2 * t2;
    h = gamma * phi3 * std::log(1.0 + beta / gamma * t2 * num / den);
  }
  return rho * (eps_c + h);
}

SpinFunctional make_spin_functional(const std::string& name) {
  if (name == "lda") {
    return {"lda",
            [](const SpinDensity& d) {
              return lsda_exchange_energy_density(d) +
                     pw92_correlation_energy_density_spin(d);
            },
            0.0, false};
  }
  if (name == "pbe") {
    return {"pbe",
            [](const SpinDensity& d) {
              return pbe_exchange_energy_density_spin(d) +
                     pbe_correlation_energy_density_spin(d);
            },
            0.0, true};
  }
  if (name == "pbe0") {
    return {"pbe0",
            [](const SpinDensity& d) {
              return 0.75 * pbe_exchange_energy_density_spin(d) +
                     pbe_correlation_energy_density_spin(d);
            },
            0.25, true};
  }
  if (name == "hf") {
    return {"hf", [](const SpinDensity&) { return 0.0; }, 1.0, false};
  }
  throw std::invalid_argument("make_spin_functional: unknown functional " +
                              name);
}

}  // namespace mthfx::dft
