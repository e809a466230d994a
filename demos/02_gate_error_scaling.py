"""Intrinsic gate error versus squeezing: the inverse-quartic law.

Runs the lossless gate on a grid-qubit input over a range of squeezing
levels, optimizing the displacement at each point, then fits the power law.
Expected: E ~ lam^-4 and alpha* ~ lam^3. Takes about a second.
"""

import warnings

import numpy as np

from kerrcubic import (
    GateConfig,
    GkpParams,
    fit_power_law,
    gkp_state,
    lambda_from_db,
    optimize_alpha,
)

warnings.simplefilter("ignore")

N = 128
psi = gkp_state(GkpParams("z+", 0.5), N)

rows = []
coeff = 1.85
print(f"{'lam_dB':>7s} {'alpha*':>9s} {'E_int':>11s}")
for db in (5.0, 7.5, 10.0, 12.5, 15.0):
    lam = lambda_from_db(db)
    cfg = GateConfig(lam=lam, alpha=coeff * lam**3, gamma=0.1, n_fock=N)
    center = coeff * lam**3
    opt = optimize_alpha(cfg, (0.45 * center, 3.0 * center), psi)
    coeff = opt.alpha / lam**3
    rows.append((lam, opt.alpha, opt.error))
    print(f"{db:7.1f} {opt.alpha:9.1f} {opt.error:11.3e}")

lams = np.array([r[0] for r in rows])
fit_e = fit_power_law([(r[0], r[2]) for r in rows])
fit_a = fit_power_law([(r[0], r[1]) for r in rows])
print(f"\ngate-error exponent : {fit_e.exponent:+.2f}   (inverse-quartic: -4)")
print(f"displacement exponent: {fit_a.exponent:+.2f}   (cubic: +3)")
