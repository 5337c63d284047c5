"""Physical constants and the spectral-quantity vocabulary.

Everything internal to this package works with two-sided power spectral
densities in SI units and angular frequency (rad/s).  Published figures
are one-sided; the single factor 2 between the conventions is applied
in the bound inversion (exclusion.py) and in the CLI's one-sided
output, nowhere else.
"""

# Fundamental constants (SI).  Fixed at build time, never configurable.
HBAR = 1.054571817e-34  # reduced Planck constant, J s
C_LIGHT = 299792458.0  # speed of light, m/s
M_NUCLEON = 1.66053906660e-27  # nucleon reference mass (one amu), kg
M_PLANCK = 2.176434e-8  # Planck mass, kg

# Native quantities a noise figure or spectrum may be given in.
QUANTITIES = ("force", "displacement", "strain", "acceleration")
