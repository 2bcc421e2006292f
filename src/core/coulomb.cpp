#include "core/coulomb.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace xgw {

CoulombPotential::CoulombPotential(const Lattice& lattice, const GSphere& sphere,
                                   CoulombScheme scheme) {
  const idx n = sphere.size();
  const double omega = lattice.cell_volume();
  v_.resize(static_cast<std::size_t>(n));

  // qbz: radius of the sphere with the mini-BZ volume (2 pi)^3 / Omega.
  const double qbz = std::cbrt(6.0 * kPi * kPi / omega);
  // rc: Wigner-Seitz-like spherical truncation radius.
  const double rc = std::cbrt(3.0 * omega / (4.0 * kPi));

  for (idx ig = 0; ig < n; ++ig) {
    const double g2 = sphere.norm2(ig);
    double v = 0.0;
    if (ig == 0) {
      switch (scheme) {
        case CoulombScheme::kSphericalAverage:
          // <4 pi / (Omega q^2)> over the mini-BZ sphere:
          // (3/qbz^3) int_0^qbz 4 q^2/(Omega q^2) dq * pi-factors
          //  = 3 * 4 pi / (Omega qbz^2).
          v = 12.0 * kPi / (omega * qbz * qbz);
          break;
        case CoulombScheme::kSphericalTruncate:
          // lim_{G->0} 4 pi (1 - cos(G Rc)) / (Omega G^2) = 2 pi Rc^2 / Omega.
          v = 2.0 * kPi * rc * rc / omega;
          break;
        case CoulombScheme::kSlabTruncate:
        case CoulombScheme::kExcludeHead:
          v = 0.0;
          break;
      }
    } else {
      const double bare = 4.0 * kPi / (omega * g2);
      switch (scheme) {
        case CoulombScheme::kSphericalTruncate: {
          const double g = std::sqrt(g2);
          v = bare * (1.0 - std::cos(g * rc));
          break;
        }
        case CoulombScheme::kSlabTruncate: {
          // Ismail-Beigi slab truncation at zc = Lz/2 along the third
          // lattice vector (the stacking axis of a layered cell).
          const Vec3 gcart = sphere.cart(lattice, ig);
          const double gz = gcart[2];
          const double gpar = std::hypot(gcart[0], gcart[1]);
          const double lz = std::sqrt(dot(lattice.a(2), lattice.a(2)));
          const double zc = 0.5 * lz;
          if (gpar > 1e-12) {
            v = bare * (1.0 + std::exp(-gpar * zc) *
                                  ((gz / gpar) * std::sin(gz * zc) -
                                   std::cos(gz * zc)));
          } else {
            v = bare * (1.0 - std::cos(gz * zc));
          }
          break;
        }
        default:
          v = bare;
          break;
      }
    }
    v_[static_cast<std::size_t>(ig)] = v;
  }
  fill_sqrt_v();
}

CoulombPotential::CoulombPotential(std::vector<double> values)
    : v_(std::move(values)) {
  fill_sqrt_v();
}

void CoulombPotential::fill_sqrt_v() {
  sqrt_v_.resize(v_.size());
  for (std::size_t i = 0; i < v_.size(); ++i) {
    XGW_REQUIRE(v_[i] > -1e-10, "CoulombPotential: negative v(G)");
    sqrt_v_[i] = std::sqrt(std::max(v_[i], 0.0));
  }
}

}  // namespace xgw
