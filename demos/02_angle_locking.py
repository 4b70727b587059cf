# Angle locking of the crystal against a harmonic trap.
#
# The equilibrium tilt of the tracked NV axis results from the competition
# between the electrostatic trap torque (preferring theta0), the
# paramagnetic push of the four orientation classes below the crossing,
# and the diamagnetic restoring torque of the aligned class above it.
# Sweeping the field magnitude reproduces the characteristic three-region
# structure: flat at low field, a slow decline at intermediate field, and
# a sharp drop into a locked sub-3-degree state past ~105 mT.

import numpy as np

from nvspinmech import (CrystalOrientation, FieldVector, SpinParams, TrapModel,
                        critical_field, equilibrium_angle)

DEG = np.pi / 180

params = SpinParams()  # N = 1e9 spins split over four classes
orientation = CrystalOrientation.identity()
trap = TrapModel(trap_frequency=2 * np.pi * 500.0, theta0=3 * DEG)

def axial(b):
    return FieldVector.from_array(b * orientation.axis_lab(0), frame="lab")

print("equilibrium tilt versus field magnitude (trap: 500 Hz, 3 deg)")
print(f"{'B (mT)':>8} {'theta* (deg)':>13} {'stability':>10}")
warm = None
for b in np.linspace(0.005, 0.2, 27):
    res = equilibrium_angle(params, orientation, trap, axial(b), warm_start=warm)
    warm = res.theta
    print(f"{b * 1e3:8.1f} {res.theta / DEG:13.3f} {res.stability:10.0f}")

# transition fields: the bare susceptibility zero versus the trapped drop
free = TrapModel(trap_frequency=0.0)
bc_free = critical_field(params, orientation, free)
bc_trap = critical_field(params, orientation, trap, b_range=(0.09, 0.16))
print(f"\ntransition field, no trap:   {bc_free * 1e3:7.2f} mT")
print(f"transition field, 500 Hz trap: {bc_trap * 1e3:7.2f} mT "
      f"(trap torque delays the lock)")
