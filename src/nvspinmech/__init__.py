"""Spin magnetism and angle locking of NV-doped levitated diamonds.

Library layout:

* :mod:`nvspinmech.spincore` -- spin Hamiltonian, driven-damped steady
  states and the three susceptibility routes (numeric, closed form,
  perturbative).
* :mod:`nvspinmech.crystal` -- the four [111] orientation classes and
  the crystal's proper rotation into the lab.
* :mod:`nvspinmech.mechanics` -- torques, angular energy landscapes,
  equilibrium orientation, transition field and librational frequencies.
* :mod:`nvspinmech.mdmr` -- mechanically detected magnetic resonance
  scans and their direction-dependent (hysteretic) nonlinear response.
* :mod:`nvspinmech.magnetometry` -- transition-frequency forward model
  and (theta, B) inversion.
* :mod:`nvspinmech.cli` -- configuration-driven sweep commands with CSV
  output.
"""

__version__ = "0.1.0"

from .constants import GSLAC_FIELD, GYROMAGNETIC_RATIO, HBAR, KB, MU0, PPM_DENSITY, ZERO_FIELD_SPLITTING
from .crystal import NV_AXES, TETRAHEDRAL_ANGLE, CrystalOrientation
from .magnetometry import (AngleFieldEstimate, NoSolutionError, TransitionPair,
                           invert_angle_field, transition_frequencies)
from .mdmr import (MdmrPoint, MdmrSpectrum, hysteresis_pair, mdmr_scan,
                   microwave_superoperator, sharp_edge_side, zero_connected_lines)
from .mechanics import (ALL_CLASSES, EnergyLandscape, EquilibriumResult,
                        LibrationResult, QuadratureError, RangeExhaustedError,
                        RotationPoint, TiltGeometry, axial_field, critical_field,
                        equilibrium_angle, equilibrium_branch, field_rotation_sweep,
                        landscape_curl_check, libration_sweep, librational_frequency,
                        magnetic_energy_landscape, tilt_geometry,
                        tilt_torque_and_slope, tilt_torque_batch)
from .params import FieldVector, MicrowaveDrive, SpinParams, TrapModel
from .spincore import (SX, SY, SZ, SingularDetuningError, SteadyStateError,
                       SusceptibilityTensor, check_density_matrix, detunings,
                       magnetization, spin_expectation, steady_state, steady_state_batch,
                       steady_state_derivative_batch, steady_state_moments,
                       susceptibility_analytic, susceptibility_numeric,
                       susceptibility_numeric_batch, susceptibility_van_vleck)
from .table import ResultTable
