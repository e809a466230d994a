"""Deterministic cubic-phase-state preparation with realistic loss.

Drives the gate on a finitely squeezed vacuum at the reference operating
point (15 dB squeezing, alpha = 1.4e4, chi/kappa = 1e-4), applies the free
Gaussian state-preparation correction, and reports the fidelity against the
ideal cubic-phase image together with the Wigner-function negativity.
Takes ~3 s.
"""

import warnings

import numpy as np

from kerrcubic import GateConfig, generate_cubic_state

warnings.simplefilter("ignore")

cfg = GateConfig.make(lam_db=15.0, alpha=1.4e4, gamma=0.1,
                      chi_over_kappa=1e-4, n_fock=128)
res = generate_cubic_state(cfg, delta=0.5)

print(f"raw gate fidelity            : {res.raw_fidelity:.4f}")
print(f"with Gaussian state-prep corr: {res.fidelity:.4f}")
print(f"nonlinear-quadrature variance: {res.nlq_variance:.4f}")
print(f"Wigner minimum (negativity)  : {res.wigner.min():+.4f}")

# a coarse ASCII picture of the Wigner function (columns x, rows p)
w = res.wigner[::8, ::8].T[::-1]
scale = np.abs(w).max()
chars = " .:-=+*#%@"
print("\nWigner function (x horizontal, p vertical; '~' marks negative regions):")
for row in w:
    line = "".join(
        "~" if v < -0.02 * scale else chars[min(int(abs(v) / scale * 9.99), 9)]
        for v in row
    )
    print("  " + line)
