"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at run
time.
"""

import time

import numpy as np
from nvspinmech import (CrystalOrientation, FieldVector, MicrowaveDrive,
                        SpinParams, TrapModel, check_density_matrix,
                        critical_field, equilibrium_angle, field_rotation_sweep,
                        hysteresis_pair, invert_angle_field,
                        librational_frequency, magnetic_energy_landscape,
                        mdmr_scan, sharp_edge_side, steady_state_batch,
                        susceptibility_analytic, susceptibility_numeric,
                        tilt_geometry, tilt_torque, transition_frequencies,
                        zero_connected_lines)
from nvspinmech.mechanics import _integrate_torque, linear_torque_coefficient

TWO_PI = 2.0 * np.pi
DEG = np.pi / 180.0
ORIENTATION = CrystalOrientation.identity()


def report(number, ok, label):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    return ok


def axial(b_mag):
    return FieldVector.from_array(b_mag * ORIENTATION.axis_lab(0), frame="lab")


def line_center(params, trap, b_mag, which, classes=(0,)):
    from nvspinmech import NV_AXES

    eq = equilibrium_angle(params, ORIENTATION, trap, axial(b_mag), classes=classes)
    geom = tilt_geometry(ORIENTATION, axial(b_mag))
    bc = geom.b_crystal(eq.theta)
    bz = float(bc @ NV_AXES[0])
    perp = float(np.linalg.norm(bc - bz * NV_AXES[0]))
    lines = zero_connected_lines(params, (perp, 0.0, bz))
    return lines[0] if which == "lower" else lines[1]


def test_criterion_1_oracle_equivalence():
    """Numeric vs closed-form susceptibility: 1e-6 relative, 50-point grid,
    three pumping levels, under 5 seconds."""
    start = time.perf_counter()
    worst = 0.0
    for pump in (1e4, 1e5, 1e6):
        p = SpinParams(pump_rate=pump)
        for b0 in np.linspace(0.0, 0.2, 50):
            num = susceptibility_numeric(p, b0)
            ana = susceptibility_analytic(p, b0)
            for a, n in ((ana.chi_perp, num.chi_perp), (ana.chi_d, num.chi_d)):
                worst = max(worst, abs(n - a) / max(abs(a), 1e-11 / 1e-6))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    assert report(1, ok, f"oracle equivalence (worst rel {worst:.2e}, "
                         f"{elapsed:.2f} s)")


def test_criterion_2_gslac_transition_field():
    """Zero-trap transition at 102.4 +- 1 mT; a 500 Hz trap shifts it up."""
    p = SpinParams()
    free = TrapModel(trap_frequency=0.0)
    bc_free = critical_field(p, ORIENTATION, free)
    trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=3.0 * DEG)
    bc_trap = critical_field(p, ORIENTATION, trap, b_range=(0.09, 0.16))
    ok = abs(bc_free - 0.1024) < 1e-3 and bc_trap > 0.1024
    assert report(2, ok, f"transition field (free {bc_free * 1e3:.2f} mT, "
                         f"trapped {bc_trap * 1e3:.2f} mT)")


def test_criterion_3_susceptibility_magnitudes():
    """Far-detuned chi_perp in [0.5, 2]e-4 and peak |chi_perp| in
    [0.3, 3]e-2 for 1 ppm at full pumping."""
    p = SpinParams()  # 1 ppm per class, pump 1e6 >> gamma1
    chi_far = susceptibility_analytic(p, 0.0).chi_perp
    grid = np.linspace(0.09, 0.12, 4001)
    peak = max(abs(susceptibility_analytic(p, b).chi_perp) for b in grid)
    ok = 0.5e-4 < chi_far < 2e-4 and 0.3e-2 < peak < 3e-2
    assert report(3, ok, f"magnitudes (far {chi_far:.2e}, peak {peak:.2e})")


def test_criterion_4a_libration_analytic_band():
    """Closed form at B = 0.2 T, N = 1e9, I = 1e-22, full pumping:
    1390 Hz +- 15 percent.

    The reference is derived.  The closed form gamma_e*B*sqrt(hbar*N*P/(I*|Delta_-|))
    is the |Delta_-|-only limit of the second-order energy shift of the
    pumped |0> state, with |<+-1|S_x|0>|^2 = 1/2 and Delta_-/2pi =
    -2.7348 GHz past the crossing; it evaluates to 1388.5 Hz here.  The
    complete single-class stiffness hbar*N*P*(gamma_e*B)^2*(1/|Delta_-| -
    1/Delta_+) equals -linear_torque_coefficient and the landscape
    curvature (1142.7 Hz both), so completing the formula moves away from
    2 kHz, not towards it.  The four-class curvature (1833.1 Hz) comes from
    non-positive off-axis steady states at this pump rate; damping the
    |+-1> coherences with the pumping restores positivity and gives
    1184.0 Hz.  The formerly quoted 2 kHz centre matches 1963.6 Hz, the
    stiffness doubled by taking |<+-1|S_x|0>|^2 = 1, which the three
    susceptibility routes of criterion 1 rule out.  The band rejects that
    factor-2 slip (+41 percent) and the two-transition stiffness in place
    of the closed form (-18 percent).
    """
    p = SpinParams(n_spins_per_class=1e9, pump_rate=1e9)  # pumping factor ~ 1
    trap = TrapModel(moment_of_inertia=1e-22, trap_frequency=0.0)
    res = librational_frequency(p, ORIENTATION, trap, axial(0.2), classes=(0,))
    f_hz = res.omega_analytic / TWO_PI
    center = 1390.0
    ok = abs(f_hz - center) <= 0.15 * center
    assert report("4a", ok, f"analytic libration at 0.2 T = {f_hz:.1f} Hz "
                            f"(band 1181.5-1598.5 Hz, derived |Delta_-|-only "
                            f"closed form; full single-class stiffness gives "
                            f"{res.omega_numeric / TWO_PI:.1f} Hz)")


def test_criterion_4b_libration_numeric_vs_analytic():
    """Stiffness-based frequency within 20 percent of the closed form in
    the dispersive single-class regime, under 10 seconds."""
    start = time.perf_counter()
    p = SpinParams(n_spins_per_class=1e9)
    trap = TrapModel(moment_of_inertia=1e-22, trap_frequency=0.0)
    res = librational_frequency(p, ORIENTATION, trap, axial(0.15), classes=(0,))
    elapsed = time.perf_counter() - start
    ratio = res.omega_numeric / res.omega_analytic
    ok = res.stable and abs(ratio - 1.0) < 0.2 and elapsed < 10.0
    assert report("4b", ok, f"numeric/analytic libration ratio {ratio:.3f} "
                            f"({elapsed:.2f} s)")


def test_criterion_5_angle_vs_field_regions():
    """Three-region structure of the equilibrium tilt under the default
    trap: flat below 45 mT, decreasing mid-field, locked under 3 degrees
    past the transition up to 0.2 T."""
    p = SpinParams()
    trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=3.0 * DEG)
    bs = np.linspace(0.005, 0.2, 40)
    thetas = []
    warm = None
    for b in bs:
        res = equilibrium_angle(p, ORIENTATION, trap, axial(b), warm_start=warm)
        warm = res.theta
        thetas.append(res.theta)
    thetas = np.array(thetas)
    region1 = bs <= 0.045
    flat = np.max(np.abs(thetas[region1] - trap.theta0)) < 1.0 * DEG
    # the paramagnetic push peaks near 65 mT; the decline runs from there
    # down through the transition
    middle = (bs >= 0.07) & (bs <= 0.105)
    decreasing = np.all(np.diff(thetas[middle]) < 2e-4)
    region3 = bs >= 0.115
    locked = np.max(thetas[region3]) <= 3.0 * DEG
    ok = flat and decreasing and locked
    assert report(5, ok, f"regions (flat {flat}, decreasing {decreasing}, "
                         f"locked {locked}, max region-3 "
                         f"{np.max(thetas[region3]) / DEG:.2f} deg)")


def test_criterion_6_field_rotation_locking():
    """Rotating the field by 14 degrees moves the locked axis by < 5
    degrees; the spin-free control follows the full 14 degrees."""
    p = SpinParams(n_spins_per_class=1e9)
    trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=3.0 * DEG)
    sweep = np.linspace(0.0, 14.0 * DEG, 8)
    locked = field_rotation_sweep(p, ORIENTATION, trap, 0.13, sweep)
    drift = abs(locked[-1].theta - locked[0].theta)
    dead = field_rotation_sweep(p.with_(n_spins_per_class=0.0, density=0.0),
                                ORIENTATION, trap, 0.13, sweep)
    control = abs(dead[-1].theta - dead[0].theta)
    ok = drift < 5.0 * DEG and abs(control - 14.0 * DEG) < 1e-4
    assert report(6, ok, f"rotation lock (tilt moved {drift / DEG:.2f} deg, "
                         f"control {control / DEG:.3f} deg)")


def test_criterion_7_hysteresis_edge_sides():
    """Jump sides of the nonlinear resonances: high side for the lower line
    and low side for the upper line past the crossing; low side for both
    well below it."""
    results = {}

    # past the crossing, |0>-|-1|-like line
    p = SpinParams()
    trap = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=3.0 * DEG)
    center = line_center(p, trap, 0.12, "lower")
    freqs = np.linspace(center - 75e6, center + 75e6, 61)
    up, down = hysteresis_pair(p, ORIENTATION, trap, axial(0.12),
                               MicrowaveDrive(rabi_rate=TWO_PI * 6e6,
                                              frequencies=tuple(freqs)),
                               classes=(0,))
    results["after_lower"] = sharp_edge_side(up, down, center)

    # past the crossing, |0>-|+1>-like line
    trap_p = TrapModel(trap_frequency=TWO_PI * 300.0, theta0=8.0 * DEG)
    center = line_center(p, trap_p, 0.14, "upper")
    freqs = np.linspace(center - 150e6, center + 150e6, 61)
    up, down = hysteresis_pair(p, ORIENTATION, trap_p, axial(0.14),
                               MicrowaveDrive(rabi_rate=TWO_PI * 8e6,
                                              frequencies=tuple(freqs)),
                               classes=(0,))
    results["after_upper"] = sharp_edge_side(up, down, center)

    # well below the crossing, both lines (narrow-line sample, soft trap)
    p_pre = SpinParams(gamma2_star=TWO_PI * 1e6)
    trap_pre = TrapModel(trap_frequency=TWO_PI * 120.0, theta0=10.0 * DEG)
    for which in ("lower", "upper"):
        center = line_center(p_pre, trap_pre, 0.023, which)
        freqs = np.linspace(center - 30e6, center + 30e6, 61)
        up, down = hysteresis_pair(p_pre, ORIENTATION, trap_pre, axial(0.023),
                                   MicrowaveDrive(rabi_rate=TWO_PI * 2e6,
                                                  frequencies=tuple(freqs)),
                                   classes=(0,))
        results[f"before_{which}"] = sharp_edge_side(up, down, center)

    ok = (results["after_lower"] == "high" and results["after_upper"] == "low"
          and results["before_lower"] == "low" and results["before_upper"] == "low")
    assert report(7, ok, f"edge sides {results}")


def test_criterion_8_property_suites():
    """Bundle of model-wide properties at their stated tolerances."""
    checks = {}

    # density-matrix invariants over 1000 random draws
    rng = np.random.default_rng(2024)
    ok_dm = True
    for _ in range(100):
        p = SpinParams(gamma2_star=TWO_PI * rng.uniform(1e6, 2e7),
                       gamma1=rng.uniform(5e2, 1e4),
                       pump_rate=rng.uniform(1e4, 1e6))
        for rho in steady_state_batch(p, rng.normal(scale=0.1, size=(10, 3))):
            try:
                check_density_matrix(rho)
            except ValueError:
                ok_dm = False
    checks["density_matrix_1000"] = ok_dm

    # torque equals the negative energy gradient to 1e-6 relative
    p = SpinParams()
    worst = 0.0
    geom_cls = type(tilt_geometry(ORIENTATION, axial(0.1)))
    for _ in range(100):
        b0 = float(rng.uniform(0.02, 0.18))
        theta = float(rng.uniform(0.05, 1.3))
        geom = geom_cls(b_mag=b0, phi=float(rng.uniform(0.0, TWO_PI)))
        tau = tilt_torque(p, geom, theta)

        def du(h):
            upper = _integrate_torque(p, geom, theta, theta + h)
            lower = _integrate_torque(p, geom, theta - h, theta)
            return -(upper + lower) / (2.0 * h)

        grad = (4.0 * du(5e-4) - du(1e-3)) / 3.0
        scale = max(abs(tau), 1e-9 * abs(linear_torque_coefficient(p, b0)))
        worst = max(worst, abs(-grad - tau) / scale)
    checks["torque_grad_1e-6"] = worst < 1e-6

    # landscape has period 2pi/3 in azimuth
    thetas = np.linspace(0.0, 0.9, 6)
    scape = magnetic_energy_landscape(p, ORIENTATION, axial(0.11), thetas,
                                      np.array([0.7, 0.7 + TWO_PI / 3.0]))
    scale = np.max(np.abs(scape.energy))
    checks["phi_period"] = bool(
        np.max(np.abs(scape.energy[:, 0] - scape.energy[:, 1])) < 1e-9 * scale)

    # longitudinal susceptibility vanishes
    checks["chi_parallel_zero"] = all(
        abs(susceptibility_numeric(p, b0).chi_par) < 1e-12
        for b0 in (0.0, 0.05, 0.15))

    # zero-drive scan leaves the tilt untouched at every frequency
    trap = TrapModel(trap_frequency=TWO_PI * 500.0, theta0=3.0 * DEG)
    spec = mdmr_scan(p, ORIENTATION, trap, axial(0.023),
                     MicrowaveDrive(rabi_rate=0.0,
                                    frequencies=tuple(np.linspace(2e9, 4e9, 9))))
    checks["zero_drive_identity"] = bool(np.all(spec.delta_theta == 0.0))

    # magnetometry round trip to (0.1 deg, 0.1 mT) on a 20x20 grid
    ok_rt = True
    for theta in np.linspace(1.0, 89.0, 20) * DEG:
        for b in np.linspace(0.01, 0.12, 20):
            tp = transition_frequencies(p, theta, b)
            est = invert_angle_field(p, tp)
            if abs(est.theta - theta) > 0.1 * DEG or abs(est.b - b) > 1e-4:
                ok_rt = False
    checks["magnetometry_round_trip"] = ok_rt

    ok = all(checks.values())
    assert report(8, ok, f"property suites {checks}")
