"""Pulsed photon counting: antibunching, shelving bunching, fine structure.

    python demos/05_photon_statistics.py
"""

import numpy as np

from rexsim.dynamics import fit_power_law, single_ion_threshold
from rexsim.photonstats import (
    EmitterLevelScheme,
    bunching_lag_constant,
    coupling_histogram,
    g2_estimator,
    g2_zero_analytic,
    sfs_generate,
    simulate_emitter_stream,
)

PERIOD = 40e-6  # 25 kHz pulse rate

print("== Antibunching of a single ion over a weak background ==")
rho = 0.954
signal = 0.02
scheme = EmitterLevelScheme(p_excite=0.5, p_detect=signal / 0.5, p_shelve=0.0)
background = signal * (1 - rho) / rho  # counts per pulse
record = simulate_emitter_stream(scheme, background, 3_000_000, PERIOD, seed=8)
trace = g2_estimator(record, max_lag=50)
print(f"signal fraction rho = {rho}: mean rate {record.mean_rate:.0f} counts/s")
print(f"g2(0) = {trace.y[0]:.3f} +- {trace.extra['sigma'][0]:.3f} "
      f"(analytic 1 - rho^2 = {g2_zero_analytic(rho):.3f})")
print("far-lag g2 ->", np.round(trace.y[-5:], 3).tolist(), "\n")

print("== Bunching from shelving into a dark state ==")
shelver = EmitterLevelScheme(p_excite=0.6, p_detect=0.5, p_shelve=0.05,
                             shelf_recovery=1.0 / 600e-6)
bunchy = g2_estimator(
    simulate_emitter_stream(shelver, 0.0, 2_000_000, PERIOD, seed=9),
    max_lag=100,
)
print("g2 at the first lags:", np.round(bunchy.y[1:6], 2).tolist())
print(f"shoulder lag constant: {bunching_lag_constant(bunchy)*1e6:.0f} us "
      "(set by the dark-state recovery)\n")

print("== Statistical fine structure of the inhomogeneous tail ==")
sfs = sfs_generate(1.13e4, 2.9, 2.0, 30.0, 0.2, seed=10)
runs = [sfs_generate(1.13e4, 2.9, 2.0, 30.0, 0.2, seed=s).y for s in range(40)]
means = np.mean(runs, axis=0)
usable = means > 0
fit = fit_power_law(sfs.x[usable], means[usable])
print(f"ion count per bandwidth falls as detuning^-{fit.value:.2f}")
print(f"fewer than one ion per bandwidth beyond "
      f"{single_ion_threshold(1.13e4, 2.9):.1f} GHz detuning -")
print("that is where resolvable single-ion lines emerge.\n")

print("== Where do the ions sit in the cavity mode? ==")
hist = coupling_histogram(300_000, seed=11)
print("fraction of ions per relative-PL bin (dimmest to brightest):")
print(np.round(hist.y, 3).tolist())
print("most ions couple weakly (random positions), a rare few sit near an")
print("antinode and dominate the bright end - the shape behind the measured")
print("intensity histogram.")
