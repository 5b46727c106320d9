"""Coherent-dynamics experiments: Rabi nutation, Ramsey fringes, photon echo.

Simulates the three time-domain experiments on the cavity-coupled ion and
runs each extraction routine on its own synthetic data, closing the loop
between forward models and fitters.

    python demos/03_coherent_dynamics.py
"""

import math

import numpy as np

from rexsim.cavity import g0_from_rabi
from rexsim.dynamics import (
    extract_rabi_frequencies,
    extract_t2star,
    fit_pure_dephasing,
    fit_t2_from_echo,
    rabi_nutation_scan,
    simulate_echo_decay,
    simulate_ramsey,
)
from rexsim.quantities import angular_from_ordinary as ang
from rexsim.spinbath import eseem_envelope

g0 = ang(28.5e6)
pulse = 250e-9

print("== Rabi nutation ==")
print("A 250 ns square pulse drives the ion at Omega = 2 g0 sqrt(n_bar); the")
print("photoluminescence oscillates as the pulse area sweeps through pi, 2pi, ...\n")
nbar = np.linspace(0.0, 0.2, 2000)
scan = rabi_nutation_scan(g0, nbar, pulse, t1=2.1e-6, t2=4.0e-6)
nb, omegas = extract_rabi_frequencies(scan, pulse)
print(f"extrema found at n_bar = {np.round(nb[:5], 4).tolist()} ... "
      f"(areas pi, 2pi, 3pi, ...)")
fitted, err = g0_from_rabi(nb, omegas)
print(f"slope of Omega vs sqrt(n_bar) recovers g0 = 2pi x "
      f"{fitted/2/math.pi/1e6:.2f} +- {err/2/math.pi/1e6:.2f} MHz\n")

print("== Ramsey interference ==")
beat = 741.5e3  # superhyperfine ground-state doublet splitting
delays = np.linspace(0.05e-6, 12e-6, 960)
ramsey = simulate_ramsey(delays, t2_star=4.0e-6, beat=beat)
fit = extract_t2star(ramsey)
print(f"two pi/2 pulses, beat at {beat/1e3:.0f} kHz: envelope nodes every "
      f"{1e6/beat:.2f} us")
print(f"fitted T2* = {fit.value*1e6:.2f} +- {fit.stderr*1e6:.2f} us")
print(f"fitted beat: {fit.extras['beat_hz']/1e3:.1f} kHz\n")

print("== Two-pulse photon echo ==")
t12 = np.linspace(0.05e-6, 30e-6, 600)
envelope = eseem_envelope(741.5e3, 789.5e3, 0.2, t12)
echo = simulate_echo_decay(t12, t2=25.4e-6, envelope=envelope)
fit = fit_t2_from_echo(echo, t_min=4e-6)
print("echo intensity decays as exp(-4 t12/T2) under the superhyperfine")
print(f"modulation; the linear log section beyond 4 us gives T2 = "
      f"{fit.value*1e6:.1f} us (residual rms {fit.residual_rms:.2f})\n")

print("== Pure dephasing from T2 vs T1 ==")
t1 = np.array([2.1e-6, 4e-6, 10e-6, 30e-6, 60e-6, 90e-6])
t2 = 1.0 / (math.pi * (9.7e3 + 1.0 / (2 * math.pi * t1)))
fit = fit_pure_dephasing(np.column_stack([t1, t2]))
print("sweeping the Purcell enhancement changes T1; the offset of 1/(pi T2)")
print(f"from 1/(2 pi T1) is the pure dephasing: gamma* = {fit.value/1e3:.1f} kHz")
print("(an ion is radiatively limited exactly when that offset vanishes)")
