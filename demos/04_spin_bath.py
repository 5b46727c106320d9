"""Ligand nuclear spins: superhyperfine splittings, echo modulation, flip-flops.

    python demos/04_spin_bath.py
"""

import numpy as np

from rexsim.spinbath import (
    FlipFlopParams,
    SpinBathSite,
    dipolar_field,
    electronic_moment,
    eseem_envelope,
    flipflop_added_dephasing,
    flipflop_gamma_sd,
    flipflop_tm,
    sublevel_count_and_range,
    superhyperfine_dephasing_bound,
    superhyperfine_splitting,
)

ground = electronic_moment(2.36)
excited = electronic_moment(0.9)
y_site = SpinBathSite("Y", 0.5, 2.1e6, 3.9e-10)
v_site = SpinBathSite("V", 3.5, 11.2e6, 3.14e-10)

print("== Nearest-neighbour yttrium (I = 1/2, 2.1 MHz/T, 3.9 A) ==")
print(f"electronic dipolar field at the site: {dipolar_field(ground, y_site)*1e3:.1f} mT "
      "(ground), "
      f"{dipolar_field(excited, y_site)*1e3:.1f} mT (excited)\n")

for b in (0.0, 0.39):
    dg = superhyperfine_splitting(y_site, ground, b)
    de = superhyperfine_splitting(y_site, excited, b)
    print(f"B = {b*1e3:4.0f} mT: ground doublet {dg/1e3:6.1f} kHz, "
          f"excited doublet {de/1e3:6.1f} kHz")
print("(at high field both approach the bare nuclear Zeeman value, "
      f"{y_site.gyromagnetic_ratio*0.39/1e3:.0f} kHz at 390 mT)\n")

print("== Nearest vanadium (I = 7/2, 11.2 MHz/T, 3.14 A) ==")
count, smallest, largest = sublevel_count_and_range(v_site, ground, 0.39)
print(f"{count} sublevels; pairwise splittings span "
      f"{smallest/1e6:.1f} to {largest/1e6:.1f} MHz -")
print("well outside the 2 MHz excitation bandwidth, so only the yttrium")
print("beats appear in the interference data.\n")

print("== Echo envelope modulation ==")
tau = np.linspace(0.0, 10e-6, 11)
dg = superhyperfine_splitting(y_site, ground, 0.39)
de = superhyperfine_splitting(y_site, excited, 0.39)
trace = eseem_envelope(dg, de, 0.2, tau)
print(f"beats at Dg = {dg/1e3:.0f} kHz, De = {de/1e3:.0f} kHz, "
      f"De-Dg = {(de-dg)/1e3:.0f} kHz, De+Dg = {(de+dg)/1e3:.0f} kHz")
print("V(tau) samples:", np.round(trace.y, 3).tolist(), "\n")

print("== Dopant flip-flop spectral diffusion ==")
params = FlipFlopParams(
    intrinsic_linewidth=10e3,   # free parameter; set to the measured
    dopant_density=6.3e23,      # superhyperfine-limited dephasing scale
    flip_rate=1 / 98e-3,
    temperature=0.5,
    b_field=0.39,
    g_ground=2.36,
    g_excited=0.9,
)
gamma_sd = flipflop_gamma_sd(params)
tm = flipflop_tm(params.intrinsic_linewidth, gamma_sd, params.flip_rate)
added = flipflop_added_dephasing(params.intrinsic_linewidth, gamma_sd, params.flip_rate)
print(f"dipolar linewidth Gamma_SD = {gamma_sd/1e3:.0f} kHz, phase-memory "
      f"T_M = {tm*1e6:.0f} us")
print(f"added optical dephasing: {added:.0f} Hz - negligible against the")
bound = superhyperfine_dephasing_bound(90e-6, 27e-6)
print(f"superhyperfine bound of {bound/1e3:.1f} kHz, matching the conclusion")
print("that the nuclear bath, not dopant flip-flops, limits the coherence.")
