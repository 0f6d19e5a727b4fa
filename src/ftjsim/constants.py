"""Physical constants used throughout the package.

Everything internal runs in SI units (m, s, A, V, J, K). Barrier energies
are accepted in eV at the interfaces and converted exactly once, at the
point of entry, via Q_E.
"""

Q_E = 1.602176634e-19       # elementary charge, C
K_B = 1.380649e-23          # Boltzmann constant, J/K
EPS_0 = 8.8541878128e-12    # vacuum permittivity, F/m
M_E = 9.1093837015e-31      # electron rest mass, kg
H_PLANCK = 6.62607015e-34   # Planck constant, J s
