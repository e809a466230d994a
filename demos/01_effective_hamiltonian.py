"""How a driven Kerr nonlinearity becomes a cubic phase Hamiltonian.

Sandwiching a Kerr medium between squeezing (field gain lambda) and a
displacement alpha maps the mode operator to
a -> cosh(ln lam) a + sinh(ln lam) a^dag + alpha. The detuning and drive are
then chosen to cancel the quadratic and linear position terms, leaving
-mu x^3 plus residuals that shrink with the squeezing. `frame_hamiltonian`
performs the substitution, with the counter-terms of `cubic_counterterms`
inserted symbolically.

This script prints the full quadrature-form coefficient table and shows that
the counter-term cancellation is symbolically exact, not a small float.
"""

from kerrcubic import cubic_counterterms, cubic_parameters, frame_hamiltonian, to_quadrature_form

chi, lam_db, alpha, gamma = 1.0, 10.0, 50.0, 0.1
lam = 10.0 ** (lam_db / 20.0)

print("counter-terms: delta = 3 chi a^2 - chi, beta = -2 chi a^3 (alpha symbolic)")
print(f"operating point: lambda = {lam:.3f} ({lam_db} dB), alpha = {alpha}, gamma = {gamma}\n")

quad = to_quadrature_form(frame_hamiltonian(chi, lam, *cubic_counterterms(chi)))

print(f"{'monomial':10s} {'coefficient':>22s}")
for (j, k) in sorted(quad.terms, key=lambda t: (t[0] + t[1], t)):
    c = quad.quad_coefficient(j, k, alpha)
    label = f"x^{j} p^{k}"
    print(f"{label:10s} {c.real:+22.12g}" + (f"  {c.imag:+.3g}i" if abs(c.imag) > 0 else ""))

print("\nthe pure x and x^2 monomials are absent: their stored polynomial")
print("coefficients are identically zero —")
print("  x   coefficient is_zero:", quad.coefficient(1, 0).is_zero)
print("  x^2 coefficient is_zero:", quad.coefficient(2, 0).is_zero)

params = cubic_parameters(chi, lam, alpha, gamma)
got = quad.quad_coefficient(3, 0, alpha).real
print(f"\nx^3 coefficient  : {got:+.12g}")
print(f"-mu = -chi lam^3 alpha / sqrt(2): {-params.mu:+.12g}")
print(f"gate time tau = sqrt(2) gamma / (chi alpha lam^3) = {params.tau:.6g}")
print(f"mu * tau == gamma exactly: {params.mu * params.tau == gamma}")

# at the reference operating point of the lossy state-generation run the
# cancelling terms are ~chi alpha^4 ~ 4e16 while mu ~ 2e6: only the exact
# algebra survives that gap
big = to_quadrature_form(frame_hamiltonian(1.0, 10**0.75, *cubic_counterterms(1.0)))
print("\nat alpha = 1.4e4 (15 dB):")
print("  cancelled x-term magnitude would be ~", f"{2 * 1.4e4**3 * 10**0.75:.3g}")
print("  x coefficient is_zero:", big.coefficient(1, 0).is_zero)
print("  x^3 coefficient:", f"{big.quad_coefficient(3, 0, 1.4e4).real:+.6g}")
