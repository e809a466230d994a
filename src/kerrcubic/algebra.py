"""Exact symbolic algebra for normal-ordered bosonic polynomials.

The engine that turns a driven Kerr Hamiltonian

    H = -(chi/2) a^dag^2 a^2 + delta a^dag a + beta a^dag + conj(beta) a

into its squeezed-displaced-frame form under the substitution

    a  ->  cosh(ln lam) a + sinh(ln lam) a^dag + alpha

with the displacement alpha kept symbolic. Coefficients are polynomials in
alpha over exact rational complex numbers, so the counter-term choice

    delta = 3 chi alpha^2 - chi,   beta = -2 chi alpha^3

cancels the linear and quadratic position terms *identically* (every stored
coefficient becomes zero), rather than through floating-point cancellation.
That distinction matters: at alpha ~ 1e4 the cancelling terms are ~chi*alpha^4
~ 1e16 while the surviving cubic rate is ~1e6, far beyond double precision.

Floats convert exactly to rationals, so cosh/sinh(ln lam) = (lam ± 1/lam)/2
are exact and the Bogoliubov identity cosh^2 - sinh^2 = 1 holds exactly too.

Quadrature-form output uses the scaled operators X = sqrt(2) x, P = sqrt(2) p
(i.e. X = a + a^dag, P = i(a^dag - a), [X, P] = 2i), in which every expansion
coefficient stays rational; the sqrt(2) powers enter only when a coefficient
is reported in x/p units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from .fock import Operator, InvalidDimensionError


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(z) -> "ExactComplex":
        if isinstance(z, ExactComplex):
            return z
        if isinstance(z, complex):
            return ExactComplex(Fraction(z.real), Fraction(z.imag))
        return ExactComplex(Fraction(z), Fraction(0))

    def __add__(self, other):
        other = ExactComplex.of(other)
        return ExactComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = ExactComplex.of(other)
        return ExactComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = ExactComplex.of(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ExactComplex(-self.re, -self.im)

    def conjugate(self) -> "ExactComplex":
        return ExactComplex(self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"({float(self.re):.6g}{float(self.im):+.6g}j)"


_EC_ZERO = ExactComplex(Fraction(0), Fraction(0))
_EC_ONE = ExactComplex(Fraction(1), Fraction(0))
_EC_I = ExactComplex(Fraction(0), Fraction(1))

Scalar = Union[int, float, complex, ExactComplex]


# ---------------------------------------------------------------------------
# polynomials in the displacement symbol
# ---------------------------------------------------------------------------


class AlphaPoly:
    """Polynomial in the real displacement symbol alpha, exact coefficients.

    coeffs[k] multiplies alpha**k; trailing zeros are pruned.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, (int, float, complex, ExactComplex)):
            coeffs = (coeffs,)
        cs = [ExactComplex.of(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    SYMBOL: "AlphaPoly"  # set below: the polynomial alpha itself

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> ExactComplex:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _EC_ZERO

    def __add__(self, other):
        other = _as_alpha_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return AlphaPoly(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_alpha_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return AlphaPoly(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)]
        )

    def __neg__(self):
        return AlphaPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        other = _as_alpha_poly(other)
        if self.is_zero or other.is_zero:
            return AlphaPoly()
        out = [_EC_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return AlphaPoly(out)

    __rmul__ = __mul__

    def conjugate(self) -> "AlphaPoly":
        """Complex conjugate; valid because the symbol alpha is real."""
        return AlphaPoly([c.conjugate() for c in self.coeffs])

    def __call__(self, alpha: float) -> complex:
        out = 0j
        for c in reversed(self.coeffs):
            out = out * alpha + complex(c)
        return out

    def degree0(self) -> "AlphaPoly":
        """The alpha-independent part."""
        return AlphaPoly(self.coeffs[:1])

    def __eq__(self, other):
        return isinstance(other, AlphaPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "AlphaPoly(0)"
        parts = [f"{c!r}*a^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero]
        return "AlphaPoly(" + " + ".join(parts) + ")"


AlphaPoly.SYMBOL = AlphaPoly([0, 1])


def _as_alpha_poly(v) -> AlphaPoly:
    return v if isinstance(v, AlphaPoly) else AlphaPoly(v)


# ---------------------------------------------------------------------------
# normal-ordered polynomials in a, a^dag
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _contraction_factor(n1: int, m2: int, k: int) -> int:
    # a^n (a^dag)^m = sum_k k! C(n,k) C(m,k) (a^dag)^(m-k) a^(n-k)
    return math.factorial(k) * math.comb(n1, k) * math.comb(m2, k)


class BosonPolynomial:
    """Normal-ordered polynomial: map (m, n) -> AlphaPoly for (a^dag)^m a^n."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        clean = {}
        if terms:
            for key, val in terms.items():
                poly = _as_alpha_poly(val)
                if not poly.is_zero:
                    clean[(int(key[0]), int(key[1]))] = poly
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "BosonPolynomial":
        return BosonPolynomial()

    @staticmethod
    def lowering() -> "BosonPolynomial":
        return BosonPolynomial({(0, 1): 1})

    @staticmethod
    def raising() -> "BosonPolynomial":
        return BosonPolynomial({(1, 0): 1})

    @staticmethod
    def constant(c) -> "BosonPolynomial":
        return BosonPolynomial({(0, 0): c})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for key, poly in other.terms.items():
            out[key] = out[key] + poly if key in out else poly
        return BosonPolynomial(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, ExactComplex, AlphaPoly)):
            scale = _as_alpha_poly(other)
            return BosonPolynomial({k: v * scale for k, v in self.terms.items()})
        out: dict = {}
        for (m1, n1), p in self.terms.items():
            for (m2, n2), q in other.terms.items():
                pq = p * q
                for k in range(min(n1, m2) + 1):
                    c = _contraction_factor(n1, m2, k)
                    key = (m1 + m2 - k, n1 + n2 - k)
                    contrib = pq * c
                    out[key] = out[key] + contrib if key in out else contrib
        return BosonPolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, ExactComplex, AlphaPoly)):
            return self.__mul__(other)
        return NotImplemented

    def dagger(self) -> "BosonPolynomial":
        return BosonPolynomial(
            {(n, m): poly.conjugate() for (m, n), poly in self.terms.items()}
        )

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((m + n for (m, n) in self.terms), default=0)

    def coefficient(self, m: int, n: int) -> AlphaPoly:
        return self.terms.get((m, n), AlphaPoly())

    def drop_constant(self) -> "BosonPolynomial":
        out = dict(self.terms)
        out.pop((0, 0), None)
        return BosonPolynomial(out)

    def is_hermitian_symbolic(self) -> bool:
        """Exact check of coefficient(m,n) == conj(coefficient(n,m)) (alpha real)."""
        for (m, n), poly in self.terms.items():
            if not (self.coefficient(n, m).conjugate() - poly).is_zero:
                return False
        return True

    def evaluated(self, alpha: float) -> dict:
        return {key: poly(alpha) for key, poly in self.terms.items()}

    def __eq__(self, other):
        return isinstance(other, BosonPolynomial) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "BosonPolynomial(0)"
        bits = [
            f"(ad^{m} a^{n}): {poly!r}"
            for (m, n), poly in sorted(self.terms.items())
        ]
        return "BosonPolynomial{" + ", ".join(bits) + "}"


# ---------------------------------------------------------------------------
# the Gaussian-frame substitution
# ---------------------------------------------------------------------------


def substitute_gaussian_frame(
    p: BosonPolynomial,
    lam: float,
    offset: AlphaPoly | Scalar | None = None,
) -> BosonPolynomial:
    """Apply a -> cosh(ln lam) a + sinh(ln lam) a^dag + alpha (+ offset).

    The symbol alpha stays symbolic. `offset` is an optional additional
    (possibly complex, possibly alpha-dependent) displacement added to the
    image of a; the image of a^dag gets its conjugate. Exact in the
    coefficients.
    """
    if lam <= 0:
        raise ValueError(f"squeeze factor lam must be positive, got {lam}")
    lam_frac = Fraction(float(lam))
    c = ExactComplex((lam_frac + 1 / lam_frac) / 2, Fraction(0))
    s = ExactComplex((lam_frac - 1 / lam_frac) / 2, Fraction(0))

    shift = AlphaPoly.SYMBOL
    if offset is not None:
        shift = shift + _as_alpha_poly(offset)

    image_a = BosonPolynomial({(0, 1): c, (1, 0): s, (0, 0): shift})
    image_adag = BosonPolynomial({(1, 0): c, (0, 1): s, (0, 0): shift.conjugate()})

    out = BosonPolynomial()
    for (m, n), poly in p.terms.items():
        term = BosonPolynomial.constant(poly)
        for _ in range(m):
            term = term * image_adag
        for _ in range(n):
            term = term * image_a
        out = out + term
    return out


# ---------------------------------------------------------------------------
# canonical quadrature form
# ---------------------------------------------------------------------------


class QuadraturePolynomial:
    """Polynomial in X = sqrt(2) x, P = sqrt(2) p, canonical order X^j P^k.

    [X, P] = 2i. Coefficients are AlphaPoly (exact). The x^j p^k coefficient
    in physical units is coeffs[(j,k)] * 2^((j+k)/2).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        clean = {}
        if terms:
            for key, val in terms.items():
                poly = _as_alpha_poly(val)
                if not poly.is_zero:
                    clean[(int(key[0]), int(key[1]))] = poly
        self.terms = clean

    @staticmethod
    def big_x() -> "QuadraturePolynomial":
        return QuadraturePolynomial({(1, 0): 1})

    @staticmethod
    def big_p() -> "QuadraturePolynomial":
        return QuadraturePolynomial({(0, 1): 1})

    @staticmethod
    def constant(c) -> "QuadraturePolynomial":
        return QuadraturePolynomial({(0, 0): c})

    def __add__(self, other):
        out = dict(self.terms)
        for key, poly in other.terms.items():
            out[key] = out[key] + poly if key in out else poly
        return QuadraturePolynomial(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex, ExactComplex, AlphaPoly)):
            scale = _as_alpha_poly(other)
            return QuadraturePolynomial({k: v * scale for k, v in self.terms.items()})
        out: dict = {}
        minus_2i = ExactComplex(Fraction(0), Fraction(-2))
        for (j1, k1), p in self.terms.items():
            for (j2, k2), q in other.terms.items():
                pq = p * q
                # P^k1 X^j2 = sum_t t! C(k1,t) C(j2,t) (-2i)^t X^(j2-t) P^(k1-t)
                comm = _EC_ONE
                for t in range(min(k1, j2) + 1):
                    c = _contraction_factor(k1, j2, t)
                    key = (j1 + j2 - t, k1 + k2 - t)
                    contrib = pq * (c * comm)
                    out[key] = out[key] + contrib if key in out else contrib
                    comm = comm * minus_2i
        return QuadraturePolynomial(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex, ExactComplex, AlphaPoly)):
            return self.__mul__(other)
        return NotImplemented

    def coefficient(self, j: int, k: int) -> AlphaPoly:
        """Exact coefficient of the canonical monomial X^j P^k."""
        return self.terms.get((j, k), AlphaPoly())

    def quad_coefficient(self, j: int, k: int, alpha: float) -> complex:
        """Coefficient of x^j p^k in physical quadrature units, evaluated."""
        return self.coefficient(j, k)(alpha) * 2.0 ** (0.5 * (j + k))

    def __eq__(self, other):
        return isinstance(other, QuadraturePolynomial) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "QuadraturePolynomial(0)"
        bits = [
            f"(X^{j} P^{k}): {poly!r}" for (j, k), poly in sorted(self.terms.items())
        ]
        return "QuadraturePolynomial{" + ", ".join(bits) + "}"


def to_quadrature_form(p: BosonPolynomial) -> QuadraturePolynomial:
    """Rewrite a normal-ordered polynomial in canonical X^j P^k order.

    Substitutes a = (X + iP)/2, a^dag = (X - iP)/2 and reorders; exact.
    """
    half = ExactComplex(Fraction(1, 2), Fraction(0))
    half_i = ExactComplex(Fraction(0), Fraction(1, 2))
    img_a = QuadraturePolynomial({(1, 0): half, (0, 1): half_i})
    img_ad = QuadraturePolynomial({(1, 0): half, (0, 1): -half_i})
    out = QuadraturePolynomial()
    for (m, n), poly in p.terms.items():
        term = QuadraturePolynomial.constant(poly)
        for _ in range(m):
            term = term * img_ad
        for _ in range(n):
            term = term * img_a
        out = out + term
    return out


# ---------------------------------------------------------------------------
# driven Kerr Hamiltonian and the cubic-gate parameter point
# ---------------------------------------------------------------------------


def driven_kerr(chi: float, delta=0, beta=0) -> BosonPolynomial:
    """-(chi/2) a^dag^2 a^2 + delta a^dag a + beta a^dag + conj(beta) a.

    delta and beta may be numbers or AlphaPoly (e.g. the symbolic
    counter-terms); delta must be real-valued for hermiticity.
    """
    if not chi > 0:
        raise ValueError(f"Kerr rate chi must be positive, got {chi}")
    half_chi = ExactComplex(-Fraction(float(chi)) / 2, Fraction(0))
    beta_poly = _as_alpha_poly(beta)
    return BosonPolynomial(
        {
            (2, 2): half_chi,
            (1, 1): _as_alpha_poly(delta),
            (1, 0): beta_poly,
            (0, 1): beta_poly.conjugate(),
        }
    )


def cubic_counterterms(chi: float) -> tuple[AlphaPoly, AlphaPoly]:
    """The detuning and drive that cancel the x^2 and x terms.

    delta = 3 chi alpha^2 - chi, beta = -2 chi alpha^3 (alpha symbolic).
    """
    c = Fraction(float(chi))
    delta = AlphaPoly([ExactComplex(-c, Fraction(0)), _EC_ZERO,
                       ExactComplex(3 * c, Fraction(0))])
    beta = AlphaPoly([_EC_ZERO, _EC_ZERO, _EC_ZERO,
                      ExactComplex(-2 * c, Fraction(0))])
    return delta, beta


@dataclass(frozen=True)
class CubicGateParams:
    """All derived quantities of one cubic-gate operating point."""

    chi: float
    lam: float
    alpha: float
    gamma: float
    delta_cubic: AlphaPoly
    beta_cubic: AlphaPoly
    tau: float   # gate time sqrt(2) gamma / (chi alpha lam^3)
    mu: float    # cubic rate chi lam^3 alpha / sqrt(2); mu * tau == gamma exactly


def cubic_parameters(chi: float, lam: float, alpha: float, gamma: float) -> CubicGateParams:
    if min(chi, lam, alpha, gamma) <= 0:
        raise ValueError(
            f"cubic_parameters requires positive inputs, got "
            f"chi={chi}, lam={lam}, alpha={alpha}, gamma={gamma}"
        )
    delta_c, beta_c = cubic_counterterms(chi)
    q = chi * alpha * lam**3
    tau0 = math.sqrt(2.0) * gamma / q
    tau, mu = _exact_rate_time_pair(gamma, tau0)
    return CubicGateParams(chi, lam, alpha, gamma, delta_c, beta_c, tau, mu)


def _exact_rate_time_pair(gamma: float, tau0: float) -> tuple[float, float]:
    """Floats (tau, mu) with mu * tau == gamma bit-exactly and tau ~ tau0.

    Searches a few ulps around (tau0, gamma/tau0); the nudge is <= ~1e-14
    relative, far below any physical tolerance, and makes the rate-time pair
    behave as the single unit it is.
    """
    ulp = math.ulp(tau0)
    offsets = [0]
    fine = list(range(1, 25))
    coarse = []
    step = 32
    while step < 100_000:
        coarse.append(step)
        step = int(step * 1.7) + 1
    for k in fine + coarse:
        offsets.extend((k, -k))
    for k in offsets:
        tau = tau0 + k * ulp
        mu = gamma / tau
        for _ in range(10):
            mu = math.nextafter(mu, 0.0)
        for _ in range(21):
            if mu * tau == gamma:
                return tau, mu
            mu = math.nextafter(mu, math.inf)
    return tau0, gamma / tau0


def effective_cubic_hamiltonian(
    chi: float, lam: float, alpha: float, gamma: float
) -> BosonPolynomial:
    """Frame-substituted driven Kerr with the counter-terms inserted symbolically.

    The constant monomial is dropped (global phase). The linear and quadratic
    position terms cancel identically; the x^3 coefficient is
    -chi lam^3 alpha / sqrt(2). The alpha argument is only validated here;
    evaluation happens at matrix-build time.
    """
    params = cubic_parameters(chi, lam, alpha, gamma)
    h = driven_kerr(chi, params.delta_cubic, params.beta_cubic)
    return substitute_gaussian_frame(h, lam).drop_constant()


@lru_cache(maxsize=64)
def _ladder_diagonal(j: int, n: int) -> np.ndarray:
    """r_j[k] = sqrt(k+1) sqrt(k+2) ... sqrt(k+j): the one nonzero diagonal of a^j.

    Multiplied left to right, as the matrix powers a^(j-1) @ a would; read-only.
    """
    if j == 0:
        out = np.ones(n)
    else:
        out = _ladder_diagonal(j - 1, n)[: n - j] * np.sqrt(np.arange(j, n, dtype=float))
    out.setflags(write=False)
    return out


def to_matrix(p: BosonPolynomial, alpha: float, n: int) -> Operator:
    """Evaluate the alpha symbol and assemble the dense Fock-space matrix.

    The monomial (a^dag)^m a^n has one nonzero diagonal, with entry
    [k+m, k+n] = r_m[k] r_n[k] (see `_ladder_diagonal`), so every monomial is
    added as a band in O(N); the result is bit-identical to the dense products
    (a^dag)^m @ a^n. Each monomial's alpha polynomial is evaluated on its own
    and added in sorted order: regrouping the sum by powers of alpha would
    reintroduce the cancellation the exact algebra avoids at alpha ~ 1e4.
    """
    deg = p.degree
    if n < deg + 2:
        raise InvalidDimensionError(
            f"Fock dimension {n} too small for polynomial degree {deg}"
        )
    out = np.zeros((n, n), dtype=complex)
    flat = out.reshape(-1)
    for (m, nn), poly in sorted(p.terms.items()):
        length = n - max(m, nn)
        band = _ladder_diagonal(m, n)[:length] * _ladder_diagonal(nn, n)[:length]
        start = m * n + nn
        flat[start: start + length * (n + 1): n + 1] += poly(alpha) * band
    return Operator(out)
