# Reversed bistability of the nonlinear mechanical resonance.
#
# When the drive is strong enough that the tilt response shifts the
# resonance by more than its linewidth, the scan becomes bistable and the
# response depends on the sweep direction.  Below the crossing an excited
# spin always seeks lower transition frequencies, so the discontinuous
# edge sits on the low-frequency side of either line.  Above the crossing
# the geometry reverses for the lower line: exciting it misaligns the
# crystal, the avoided crossing pushes the transition up, and the sharp
# edge moves to the high-frequency side.

import numpy as np

from nvspinmech import (CrystalOrientation, FieldVector, MicrowaveDrive,
                        SpinParams, TrapModel, equilibrium_angle,
                        hysteresis_pair, sharp_edge_side, tilt_geometry,
                        zero_connected_lines, NV_AXES)

DEG = np.pi / 180
TWO_PI = 2 * np.pi
orientation = CrystalOrientation.identity()

def axial(b):
    return FieldVector.from_array(b * orientation.axis_lab(0), frame="lab")

def line(params, trap, b_mag, which):
    eq = equilibrium_angle(params, orientation, trap, axial(b_mag), classes=(0,))
    geom = tilt_geometry(orientation, axial(b_mag))
    bc = geom.field_and_derivative(eq.theta)[0, 0]
    bz = float(bc @ NV_AXES[0])
    perp = float(np.linalg.norm(bc - bz * NV_AXES[0]))
    lines = zero_connected_lines(params, (perp, 0.0, bz))
    return lines[0] if which == "lower" else lines[1]

def run(params, trap, b_mag, which, rabi_hz, span):
    center = line(params, trap, b_mag, which)
    freqs = np.linspace(center - span / 2, center + span / 2, 61)
    drive = MicrowaveDrive(rabi_rate=TWO_PI * rabi_hz, frequencies=tuple(freqs))
    up, down = hysteresis_pair(params, orientation, trap, axial(b_mag),
                               drive, classes=(0,))
    loop = np.max(np.abs(up.delta_theta - down.delta_theta[::-1])) / DEG
    side = sharp_edge_side(up, down, center)
    print(f"  B = {b_mag * 1e3:5.1f} mT, {which:5} line at "
          f"{center / 1e9:6.3f} GHz: hysteresis loop {loop:5.2f} deg, "
          f"sharp edge on the {side} side")

print("above the crossing (5 MHz linewidth):")
p = SpinParams()
run(p, TrapModel(trap_frequency=TWO_PI * 300, theta0=3 * DEG), 0.12, "lower",
    6e6, 150e6)
run(p, TrapModel(trap_frequency=TWO_PI * 300, theta0=8 * DEG), 0.14, "upper",
    8e6, 300e6)

print("well below the crossing (narrow-line sample, soft trap):")
p_pre = SpinParams(gamma2_star=TWO_PI * 1e6)
trap_pre = TrapModel(trap_frequency=TWO_PI * 120, theta0=10 * DEG)
run(p_pre, trap_pre, 0.023, "lower", 2e6, 60e6)
run(p_pre, trap_pre, 0.023, "upper", 2e6, 60e6)
