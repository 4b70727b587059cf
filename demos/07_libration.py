# Librational frequency of the locked crystal.
#
# The locked orientation oscillates about its equilibrium with a frequency
# set by the total angular stiffness: magnetic stiffness plus trap.  Two
# routes are compared: the exact magnetic stiffness -d(tau)/d(theta) at the
# equilibrium, which is the curvature of the energy landscape, and the
# dispersive single-class closed form sqrt(hbar N P / (I Delta)) *
# gamma_e * B.  The magnetic stiffness grows with optical pumping, which
# is the experimental signature of the effect's optical tunability.

import numpy as np

from nvspinmech import (CrystalOrientation, FieldVector, SpinParams, TrapModel,
                        librational_frequency)

TWO_PI = 2 * np.pi
orientation = CrystalOrientation.identity()

def axial(b):
    return FieldVector.from_array(b * orientation.axis_lab(0), frame="lab")

free = TrapModel(moment_of_inertia=1e-22, trap_frequency=0.0)
params = SpinParams(n_spins_per_class=1e9)

print("field scan, single aligned class of 1e9 spins, no trap")
print(f"{'B (mT)':>8} {'numeric (Hz)':>13} {'closed form (Hz)':>17} {'ratio':>7}")
for b in (0.12, 0.13, 0.15, 0.18, 0.2):
    res = librational_frequency(params, orientation, free, axial(b), classes=(0,))
    print(f"{b * 1e3:8.0f} {res.omega_numeric / TWO_PI:13.1f} "
          f"{res.omega_analytic / TWO_PI:17.1f} "
          f"{res.omega_numeric / res.omega_analytic:7.3f}")

print("\npump-rate scan at B = 150 mT (optical tunability)")
print(f"{'pump (1/s)':>11} {'numeric (Hz)':>13} {'closed form (Hz)':>17}")
for pump in (3e4, 1e5, 3e5, 1e6):
    p = params.with_(pump_rate=pump)
    res = librational_frequency(p, orientation, free, axial(0.15), classes=(0,))
    print(f"{pump:11.0e} {res.omega_numeric / TWO_PI:13.1f} "
          f"{res.omega_analytic / TWO_PI:17.1f}")

print("\nfour classes with a 500 Hz trap at 150 mT (total stiffness)")
trap = TrapModel(moment_of_inertia=1e-22, trap_frequency=TWO_PI * 500.0,
                 theta0=np.deg2rad(3.0))
res = librational_frequency(SpinParams(), orientation, trap, axial(0.15))
print(f"theta* = {np.rad2deg(res.theta_star):.2f} deg, "
      f"frequency = {res.omega_numeric / TWO_PI:.1f} Hz "
      f"(trap alone: 500.0 Hz)")
