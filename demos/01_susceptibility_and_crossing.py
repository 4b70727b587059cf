# Transverse spin susceptibility of an optically pumped NV ensemble.
#
# A pumped spin-1 ensemble responds to a transverse field probe through the
# mixing of |0> with |+-1>.  Far below the level crossing the response is
# paramagnetic (chi_perp > 0); ramping the axial field through
# D/gamma_e ~ 102.4 mT inverts the populations of the crossing pair and the
# ensemble turns diamagnetic, with the response enhanced two orders of
# magnitude near the crossing.  Three independent routes are compared:
# the exact derivative of the solved steady state, the
# closed-form Lorentzian expressions, and second-order perturbation
# theory from the level populations.

import numpy as np

from nvspinmech import (SpinParams, steady_state, susceptibility_analytic,
                        susceptibility_numeric, susceptibility_van_vleck)

params = SpinParams()  # 1 ppm per orientation class, 1 MHz pumping
gamma_b = lambda b: params.gyromagnetic_ratio * b / (2 * np.pi)

print("axial field scan of the transverse response (1 ppm, full pumping)")
print(f"{'B (mT)':>8} {'gB/2pi (GHz)':>13} {'numeric':>12} {'closed':>12} "
      f"{'perturbative':>13} {'chi_d':>11}")
for b in [0.0, 0.02, 0.05, 0.08, 0.095, 0.101, 0.1035, 0.11, 0.15, 0.2]:
    num = susceptibility_numeric(params, b)
    ana = susceptibility_analytic(params, b)
    pops = np.diag(steady_state(params, (0.0, 0.0, b))).real
    try:
        vv = susceptibility_van_vleck(params, (pops[2], pops[1], pops[0]), b)
        vv_str = f"{vv:+.3e}"
    except ValueError:
        vv_str = "singular"
    print(f"{b * 1e3:8.1f} {gamma_b(b) / 1e9:13.3f} {num.chi_perp:+12.3e} "
          f"{ana.chi_perp:+12.3e} {vv_str:>13} {ana.chi_d:+11.3e}")

# the paramagnet-to-diamagnet sign change sits just above the crossing
from scipy.optimize import brentq

b_zero = brentq(lambda b: susceptibility_analytic(params, b).chi_perp,
                0.09, 0.12, xtol=1e-9)
print(f"\nchi_perp changes sign at B = {b_zero * 1e3:.3f} mT "
      f"(crossing at {params.zero_field_splitting / params.gyromagnetic_ratio * 1e3:.1f} mT)")

# populations across the crossing: the pumped state stays |0>-like, which
# past the crossing is the HIGHER-energy state of the crossing pair
for b in (0.08, 0.13):
    pops = np.diag(steady_state(params, (0.0, 0.0, b))).real
    print(f"B = {b * 1e3:5.1f} mT: populations (+1, 0, -1) = "
          f"({pops[0]:.4f}, {pops[1]:.4f}, {pops[2]:.4f})")
