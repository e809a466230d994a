"""Exact symbolic algebra for ordered bosonic polynomials.

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

One ordered-polynomial core, `OrderedPolynomial`, does all of the operator
algebra: a polynomial in two generators whose monomials are kept in one fixed
order, multiplied by Wick reordering with a constant commutator, and rewritten
in other generators by one `substitute` routine. Its two orderings differ only
in that constant. `BosonPolynomial` orders (a^dag)^m a^n with [a, a^dag] = 1;
the frame substitution maps it to itself. `QuadraturePolynomial` orders X^j P^k
with [P, X] = -2i, for the scaled operators X = sqrt(2) x, P = sqrt(2) p (i.e.
X = a + a^dag, P = i(a^dag - a)), in which every expansion coefficient stays
rational; the sqrt(2) powers enter only when a coefficient is reported in x/p
units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Union

import numpy as np

from .fock import InvalidDimensionError


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
        return self + -_as_alpha_poly(other)

    def __neg__(self):
        return AlphaPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented  # lets OrderedPolynomial.__rmul__ scale itself
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
# ordered polynomials in two generators
# ---------------------------------------------------------------------------

_SCALARS = (int, float, complex, ExactComplex, AlphaPoly)


@lru_cache(maxsize=None)
def _wick_weight(n: int, m: int, k: int, comm) -> int | ExactComplex:
    """Weight k! C(n,k) C(m,k) comm^k of one contraction term.

    second^n first^m = sum_k weight(n, m, k) first^(m-k) second^(n-k) when
    [second, first] = comm. With comm = 1 the weight stays an int.
    """
    w = math.factorial(k) * math.comb(n, k) * math.comb(m, k)
    for _ in range(k):
        w = w * comm
    return w


class OrderedPolynomial:
    """Polynomial in two generators, every monomial ordered first^i second^j.

    Stored as a map (i, j) -> AlphaPoly. The commutator [second, first] is
    the constant `COMMUTATOR`, so a product is reordered exactly by Wick's
    theorem; subclasses fix the generators and their commutator.
    """

    __slots__ = ("terms",)
    COMMUTATOR: int | ExactComplex
    LABELS: tuple[str, str]

    def __init__(self, terms: Mapping[tuple, object] | None = None):
        clean = {}
        if terms:
            for key, val in terms.items():
                poly = _as_alpha_poly(val)
                if not poly.is_zero:
                    clean[(int(key[0]), int(key[1]))] = poly
        self.terms = clean

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): c})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for key, poly in other.terms.items():
            out[key] = out[key] + poly if key in out else poly
        return type(self)(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            scale = _as_alpha_poly(other)
            return type(self)({k: v * scale for k, v in self.terms.items()})
        comm = self.COMMUTATOR
        out: dict = {}
        for (i1, j1), p in self.terms.items():
            for (i2, j2), q in other.terms.items():
                pq = p * q
                for k in range(min(j1, i2) + 1):
                    key = (i1 + i2 - k, j1 + j2 - k)
                    contrib = pq * _wick_weight(j1, i2, k, comm)
                    out[key] = out[key] + contrib if key in out else contrib
        return type(self)(out)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def substitute(self, image_first, image_second):
        """Replace the two generators by polynomials of one class; exact."""
        cls = type(image_first)
        out = cls()
        for (i, j), poly in self.terms.items():
            term = cls.constant(poly)
            for _ in range(i):
                term = term * image_first
            for _ in range(j):
                term = term * image_second
            out = out + term
        return out

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((i + j for (i, j) in self.terms), default=0)

    def coefficient(self, i: int, j: int) -> AlphaPoly:
        """Exact coefficient of the ordered monomial first^i second^j."""
        return self.terms.get((i, j), AlphaPoly())

    def drop_constant(self):
        out = dict(self.terms)
        out.pop((0, 0), None)
        return type(self)(out)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}(0)"
        first, second = self.LABELS
        bits = [
            f"({first}^{i} {second}^{j}): {poly!r}"
            for (i, j), poly in sorted(self.terms.items())
        ]
        return name + "{" + ", ".join(bits) + "}"


class BosonPolynomial(OrderedPolynomial):
    """Normal-ordered polynomial: (m, n) -> AlphaPoly for (a^dag)^m a^n."""

    __slots__ = ()
    COMMUTATOR = 1  # [a, a^dag]
    LABELS = ("ad", "a")

    def dagger(self) -> "BosonPolynomial":
        return BosonPolynomial(
            {(n, m): poly.conjugate() for (m, n), poly in self.terms.items()}
        )


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
    return p.substitute(image_adag, image_a)


# ---------------------------------------------------------------------------
# canonical quadrature form
# ---------------------------------------------------------------------------


class QuadraturePolynomial(OrderedPolynomial):
    """Polynomial in X = sqrt(2) x, P = sqrt(2) p, canonical order X^j P^k.

    [X, P] = 2i. Coefficients are AlphaPoly (exact). The x^j p^k coefficient
    in physical units is coeffs[(j,k)] * 2^((j+k)/2).
    """

    __slots__ = ()
    COMMUTATOR = ExactComplex(Fraction(0), Fraction(-2))  # [P, X]
    LABELS = ("X", "P")

    def quad_coefficient(self, j: int, k: int, alpha: float) -> complex:
        """Coefficient of x^j p^k in physical quadrature units, evaluated."""
        return self.coefficient(j, k)(alpha) * 2.0 ** (0.5 * (j + k))


def to_quadrature_form(p: BosonPolynomial) -> QuadraturePolynomial:
    """Rewrite a normal-ordered polynomial in canonical X^j P^k order.

    Substitutes a = (X + iP)/2, a^dag = (X - iP)/2 and reorders; exact.
    """
    half = ExactComplex(Fraction(1, 2), Fraction(0))
    half_i = ExactComplex(Fraction(0), Fraction(1, 2))
    img_a = QuadraturePolynomial({(1, 0): half, (0, 1): half_i})
    img_ad = QuadraturePolynomial({(1, 0): half, (0, 1): -half_i})
    return p.substitute(img_ad, img_a)


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
    return AlphaPoly([-c, 0, 3 * c]), AlphaPoly([0, 0, 0, -2 * c])


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


def to_matrix(p: BosonPolynomial, alpha: float, n: int) -> np.ndarray:
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
    return out
