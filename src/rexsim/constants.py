"""Physical constants (CODATA 2018, SI units).

Values are compiled in rather than read from configuration so that the
golden numbers produced by the rest of the package are reproducible
bit-for-bit across installations.
"""

EPS0 = 8.8541878128e-12      # vacuum permittivity, F/m
M_E = 9.1093837015e-31       # electron mass, kg
E_CHARGE = 1.602176634e-19   # elementary charge, C
C_LIGHT = 299792458.0        # speed of light, m/s
HBAR = 1.054571817e-34       # reduced Planck constant, J s
H_PLANCK = 6.62607015e-34    # Planck constant, J s
K_B = 1.380649e-23           # Boltzmann constant, J/K
MU_B = 9.2740100783e-24      # Bohr magneton, J/T
MU_0 = 1.25663706212e-6      # vacuum permeability, T m/A
