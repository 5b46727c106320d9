"""Cavity QED figures of merit for the measured nanobeam resonator.

Computes both Purcell routes (closed form and 4 g0^2 T_rad / kappa), the
lifetime the cavity imposes on a resonant ion, the cooperativity, the
photon detection budget, and what a ten-fold better quality factor buys.

    python demos/02_cavity_figures_of_merit.py
"""

import math

from rexsim.cavity import (
    CavityDevice,
    CoherenceSummary,
    DetectionChain,
    cavity_lifetime,
    cooperativity,
    detection_budget,
    indistinguishability,
    max_coupling_g0,
    max_purcell,
    mean_photon_number,
    measured_purcell,
    project_q_scaling,
)
from rexsim.quantities import angular_from_ordinary as ang
from rexsim.spectroscopy import LocalFieldModel, MaterialSpec, derive_transition, local_field_correction

material = MaterialSpec(
    absorption_area=102e9 * 100, ion_density=1.24e23, refractive_index=2.1785,
    wavelength=880e-9, t1_fluorescence=90e-6, g_ground=2.36,
)
tr = derive_transition(material)
device = CavityDevice(
    q_factor=3900, mode_volume=0.056e-18, resonance=material.angular_frequency,
    input_fraction=0.45, kappa=ang(90e9),
)
chi = local_field_correction(2.1785, LocalFieldModel.REAL)

print("Device: Q = 3900, V = 0.056 um^3, kappa = 2pi x 90 GHz, kappa_in/kappa = 0.45\n")

g0_max = max_coupling_g0(tr.dipole_moment, 2.1785, device.resonance, device.mode_volume)
f_max = max_purcell(880e-9, 2.1785, chi, 3900, 0.056e-18)
print(f"vacuum coupling (dipole at antinode): g0 = 2pi x {g0_max/2/math.pi/1e6:.1f} MHz")
print(f"maximum Purcell factor:               F  = {f_max:.0f}")
print(f"cross-check 4 g0^2 T_rad / kappa:     F  = "
      f"{4*g0_max**2*tr.radiative_lifetime/(device.resonance/3900):.0f} (same physics, two routes)\n")

t_cav = cavity_lifetime(g0_max, device.kappa, tr.branching_ratio, 90e-6)
print(f"predicted on-resonance lifetime: T_cav = {t_cav*1e6:.2f} us (bulk: 90 us)")
f_meas = measured_purcell(2.1e-6, 90e-6, tr.branching_ratio, tr.radiative_lifetime)
print(f"measured T_cav = 2.1 us implies   F    = {f_meas:.0f}")
print("(the shortfall against the maximum reflects the ion sitting away from")
print(" the antinode and fabrication deviations from the simulated volume)\n")

g0_meas = ang(28.5e6)
c = cooperativity(g0_meas, device.kappa, 25.4e-6)
print(f"with the fitted g0 = 2pi x 28.5 MHz and T2 = 25.4 us: C = {c:.2f}")
print(f"single-ion indistinguishability T2*/(2 T1) = {indistinguishability(4.0e-6, 2.1e-6):.3f}\n")

nbar = mean_photon_number(71.8e-9, ang(40e9), ang(90e9), device.resonance)
print(f"71.8 nW at the input mirror maintains n_bar = {nbar:.3f} intracavity photons\n")

chain = DetectionChain(stages=(
    ("cavity_out", 0.45), ("waveguide_fiber", 0.19), ("fiber_path", 0.80),
    ("circulator", 0.65), ("detector", 0.82),
))
rows, total = detection_budget(chain)
print("photon detection budget:")
for name, eff, cum in rows:
    print(f"  {name:<16} {eff:5.2f}  -> cumulative {cum:.4f}")
print(f"  overall: {total:.1%}\n")

coherence = CoherenceSummary(t1=90e-6, t2=25.4e-6, pure_dephasing=9.7e3)
_, c_10, _ = project_q_scaling(device, coherence, g0_meas, tr.branching_ratio, 90e-6, 10.0)
t_cav_10, _, i_10 = project_q_scaling(device, coherence, g0_max, tr.branching_ratio, 90e-6, 10.0)
print("a 10x higher-Q cavity (already demonstrated elsewhere) would reach:")
print(f"  C = {c_10:.0f} (measured-coupling route)")
print(f"  I = {i_10:.3f} with T_cav = {t_cav_10*1e9:.0f} ns "
      "(antinode-coupling route)")
