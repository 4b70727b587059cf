# Angle and field read-out from the two resonance lines.
#
# The pair of |0>-connected transition frequencies of one orientation
# class pins down both the field magnitude and the angle between the NV
# axis and the field.  The forward model diagonalizes the tilted-field
# Hamiltonian and labels the lines by energy rank; the inversion solves for
# (theta, B) in closed form from the three levels, polishes that point by
# least squares only where rounding or the ranges leave it short of the
# pair (near alignment, near a transverse field, or for lines that no field
# in range reproduces), and propagates the measured linewidths into
# parameter errors.
# Near alignment the lines lose their angular sensitivity quadratically
# and the angle uncertainty inflates accordingly.

import numpy as np

from nvspinmech import (SpinParams, TransitionPair, invert_angle_field,
                        transition_frequencies)

DEG = np.pi / 180
params = SpinParams()

print("forward model: line pair versus tilt at B = 100 mT")
print(f"{'theta (deg)':>12} {'nu_minus (GHz)':>15} {'nu_plus (GHz)':>14}")
for theta in (0, 2, 5, 10, 20, 45):
    tp = transition_frequencies(params, theta * DEG, 0.1)
    print(f"{theta:12.0f} {tp.nu_minus / 1e9:15.4f} {tp.nu_plus / 1e9:14.4f}")

print("\nround trip: synthesize a pair at (7 deg, 86 mT), then invert")
truth = transition_frequencies(params, 7 * DEG, 0.086)
est = invert_angle_field(params, truth)
print(f"recovered theta = {est.theta / DEG:.3f} deg, B = {est.b * 1e3:.3f} mT, "
      f"rms residual {est.residual:.2e} Hz")

print("\nuncertainty from 10 MHz-wide lines:")
for theta_deg in (0.0, 2.0, 10.0):
    tp = transition_frequencies(params, theta_deg * DEG, 0.086)
    pair = TransitionPair(tp.nu_minus, tp.nu_plus,
                          linewidth_minus=10e6, linewidth_plus=10e6)
    est = invert_angle_field(params, pair)
    print(f"  true theta {theta_deg:4.1f} deg -> theta_err = "
          f"{est.theta_err / DEG:6.3f} deg, b_err = {est.b_err * 1e3:.3f} mT")

print("\nmeasured pair from a paramagnetic-regime scan: (2.2254, 3.5146) GHz")
est = invert_angle_field(params, TransitionPair(2.2254e9, 3.5146e9))
print(f"-> theta = {est.theta / DEG:.2f} deg, B = {est.b * 1e3:.2f} mT")
