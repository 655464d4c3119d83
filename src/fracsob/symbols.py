"""Parameter-dependent Fourier-multiplier symbols a(lambda, m).

Built-in families (all scalar multiples of the identity, so positivity and
Hermitian structure are immediate):

  constant_coefficient  sum_j alpha_j (2*pi*m/lambda)^(2j)
  scale_invariant       lambda^-3 sum_j alpha_j (2*pi*m)^(2j)
  bessel_fractional     alpha_0 (1 + (2*pi*m/lambda)^2)^r
  two_term_fractional   alpha_0 + alpha_1 (2*pi*m/lambda)^(2r)

plus custom_table for stored matrix-valued symbols. The order attribute is
r, the induced operator has order 2r. Analytic lambda-derivatives are
available for every built-in family; custom tables need a user-supplied
derivative table before they can be used in the geodesic spray.

This module turns a symbol into multipliers for every operator variant in
VARIANTS, for scalar and matrix symbols alike: _values gives the values or
the lambda-derivative on a set of modes, _variant applies one variant and
holds the positivity check. _variant_rows gives every variant at once
from one joint evaluation (_evaluate: the values and the
lambda-derivative together, lambda checked once), bitwise what _variant
gives each: a custom table's inverse and square roots share one eigh per
block, and the positive variants exist only on positive values.
operators keeps one such table per curve and symbol and applies it.
"""

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError, NotPositiveDefiniteError, NotSupportedError
from .spectral import TWO_PI

FAMILIES = (
    "constant_coefficient",
    "scale_invariant",
    "bessel_fractional",
    "two_term_fractional",
    "custom_table",
)

_SCALAR_FAMILIES = FAMILIES[:4]

VARIANTS = ("identity", "inverse", "sqrt", "sqrt_inverse", "lambda_derivative")

#: the lengths lambda over which MetricConfig admits a symbol and fracsob check reports its class
LAMBDA_RANGE = (0.5, 20.0)

#: points of its lambda range at which class_report samples a symbol
LAMBDA_SAMPLES = 5


@dataclass(frozen=True)
class LambdaSymbol:
    """One family member a(lambda, m); use the module constructors below.

    alphas are the nonnegative coefficients of the family; alpha_0 = 0 is
    accepted so that degenerate symbols can be constructed for diagnostics,
    positivity is enforced where an inverse or square root is requested.
    For custom_table, table holds (m_max, values, derivative) with values of
    shape (2*m_max + 1, dim, dim) indexed by m + m_max. The hash is the
    dataclass's field hash, so a custom table, which holds arrays, refuses
    it; the operators key their caches by the symbol object, not its hash.
    """

    family: str
    order: float
    alphas: tuple = ()
    dim: int = 2
    table: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown symbol family {self.family!r}")
        if self.order < 0:
            raise DomainError(f"symbol order r must be nonnegative, got {self.order}")
        if self.dim < 1:
            raise DomainError(f"symbol dimension must be positive, got {self.dim}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if any(a < 0 for a in self.alphas):
            raise DomainError(f"coefficients must be nonnegative, got {self.alphas}")

    @property
    def is_scalar(self):
        return self.family in _SCALAR_FAMILIES

    @property
    def has_derivative(self):
        if self.family == "custom_table":
            return self.table[2] is not None
        return True


def constant_coefficient(alphas, dim=2):
    """Integer-order family sum_j alpha_j (2*pi*m/lambda)^(2j); r = n."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas or alphas[-1] <= 0:
        raise DomainError("constant_coefficient needs a positive leading coefficient")
    return LambdaSymbol("constant_coefficient", float(len(alphas) - 1), alphas, dim)


def scale_invariant(alphas, dim=2):
    """Integer-order family lambda^-3 sum_j alpha_j (2*pi*m)^(2j); r = n."""
    alphas = tuple(float(a) for a in alphas)
    if not alphas or alphas[-1] <= 0:
        raise DomainError("scale_invariant needs a positive leading coefficient")
    return LambdaSymbol("scale_invariant", float(len(alphas) - 1), alphas, dim)


def bessel_fractional(r, alpha0=1.0, dim=2):
    """Fractional family alpha_0 (1 + (2*pi*m/lambda)^2)^r."""
    if alpha0 <= 0:
        raise DomainError("bessel_fractional needs alpha_0 > 0")
    return LambdaSymbol("bessel_fractional", float(r), (float(alpha0),), dim)


def two_term_fractional(r, alpha0, alpha1, dim=2):
    """Fractional family alpha_0 + alpha_1 (2*pi*m/lambda)^(2r).

    alpha_0 = 0 is allowed and yields a symbol that vanishes at m = 0; the
    class report then returns a negative ellipticity verdict.
    """
    if alpha1 <= 0:
        raise DomainError("two_term_fractional needs alpha_1 > 0")
    return LambdaSymbol("two_term_fractional", float(r), (float(alpha0), float(alpha1)), dim)


def custom_table(values, order, derivative=None, dim=None):
    """Matrix-valued symbol from a stored table over m = -m_max .. m_max.

    values has shape (2*m_max + 1, d, d) and must be Hermitian and even in m.
    The table does not depend on lambda; a derivative table of the same shape
    may be supplied (zero is the natural choice) and is required before the
    symbol can enter the geodesic spray.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 3 or vals.shape[1] != vals.shape[2] or vals.shape[0] % 2 != 1:
        raise DomainError(f"custom table must have shape (2*m_max + 1, d, d), got {vals.shape}")
    d = vals.shape[1]
    if dim is not None and dim != d:
        raise DomainError(f"declared dim {dim} does not match table dimension {d}")
    m_max = vals.shape[0] // 2
    herm = np.max(np.abs(vals - np.conj(np.swapaxes(vals, 1, 2))))
    if herm > 1e-12 * max(1.0, np.max(np.abs(vals))):
        raise DomainError(f"custom table is not Hermitian, deviation {herm:.3e}")
    even = np.max(np.abs(vals - vals[::-1]))
    if even > 1e-12 * max(1.0, np.max(np.abs(vals))):
        raise DomainError(f"custom table is not even in m, deviation {even:.3e}")
    deriv = None
    if derivative is not None:
        deriv = np.asarray(derivative, dtype=complex)
        if deriv.shape != vals.shape:
            raise DomainError("derivative table shape does not match the value table")
    vals.setflags(write=False)
    if deriv is not None:
        deriv.setflags(write=False)
    return LambdaSymbol("custom_table", float(order), (), d, table=(m_max, vals, deriv))


def _require_lambda(lam):
    # lam is a float (a single curve's length), or an array of parameters
    # broadcast against m; a NaN fails the comparison
    if not all(0.0 < x < math.inf for x in ((lam,) if isinstance(lam, float) else np.ravel(lam).tolist())):
        raise DomainError(f"symbol parameter lambda must be positive, got {lam}")


def _scalar_pair(sym, lam, m, values=True, derivative=True):
    """a(lambda, m) and d/dlambda a(lambda, m) of a built-in family from one evaluation.

    The halves share (2 pi m / lambda)^2, and 1 + (2 pi m / lambda)^2 for
    bessel_fractional, lambda^-3 (...) for scale_invariant, and y^r for
    two_term_fractional; lam is checked once. A half not asked for is None.
    scalar_values and scalar_derivative_values are the two halves, each
    bitwise what the pair gives.
    """
    _require_lambda(lam)
    m = np.asarray(m, dtype=float)
    family, alphas, r = sym.family, sym.alphas, sym.order
    vals = der = None
    if family == "constant_coefficient":
        y = (TWO_PI * m / lam) ** 2
        if values:
            vals = np.polynomial.polynomial.polyval(y, np.asarray(alphas))
        if derivative:
            coeffs = np.asarray(alphas) * np.arange(len(alphas))
            der = -2.0 / lam * np.polynomial.polynomial.polyval(y, coeffs)
    elif family == "scale_invariant":
        y = (TWO_PI * m) ** 2
        vals = lam ** -3 * np.polynomial.polynomial.polyval(y, np.asarray(alphas))
        if derivative:
            der = -3.0 / lam * vals
    elif family == "bessel_fractional":
        x2 = (TWO_PI * m / lam) ** 2
        base = 1.0 + x2
        if values:
            vals = alphas[0] * base ** r
        if derivative:
            der = alphas[0] * r * base ** (r - 1.0) * (-2.0 * x2 / lam)
    elif family == "two_term_fractional":
        y = (TWO_PI * m / lam) ** 2
        yr = y ** r
        if values:
            vals = alphas[0] + alphas[1] * yr
        if derivative:
            # m = 0 gets an exact +0.0; np.where, unlike a masked assignment,
            # broadcasts against per-member parameters lam of shape (B, 1)
            der = np.where(y > 0, -2.0 * r / lam * alphas[1] * yr, 0.0)
    else:
        raise NotSupportedError(f"{family} has no scalar {'values' if values else 'derivative'}")
    return (vals if values else None), der


def scalar_values(sym, lam, m):
    """Scalar multiplier values a(lambda, m) for the built-in families."""
    return _scalar_pair(sym, lam, m, derivative=False)[0]


def scalar_derivative_values(sym, lam, m):
    """Analytic d/dlambda of the scalar multiplier for built-in families."""
    return _scalar_pair(sym, lam, m, values=False)[1]


_NO_DERIVATIVE = "custom table has no lambda-derivative table"


def _table_lookup(sym, m, which):
    m_max, vals, deriv = sym.table
    m = np.asarray(m, dtype=int)
    if np.max(np.abs(m)) > m_max:
        raise DomainError(f"custom table covers |m| <= {m_max}, requested |m| = {np.max(np.abs(m))}")
    src = vals if which == "value" else deriv
    if src is None:
        raise NotSupportedError(_NO_DERIVATIVE)
    return src[m + m_max]


def _values(sym, lam, m, derivative=False):
    """a(lambda, m), or its lambda-derivative, on modes m.

    Scalar families give real rows broadcast against lam; a custom table
    gives (len(m), d, d) blocks, which do not depend on lam.
    """
    if sym.is_scalar:
        return (scalar_derivative_values if derivative else scalar_values)(sym, lam, m)
    _require_lambda(lam)
    return _table_lookup(sym, m, "derivative" if derivative else "value")


def _evaluate(sym, lam, m):
    """(a, d/dlambda a) on modes m: one joint evaluation, lam checked once.

    Each half is bitwise what _values gives. A custom table's derivative
    half is None when it has no derivative table.
    """
    if sym.is_scalar:
        return _scalar_pair(sym, lam, m)
    _require_lambda(lam)
    vals = _table_lookup(sym, m, "value")
    return vals, (_table_lookup(sym, m, "derivative") if sym.table[2] is not None else None)


#: the variants that need positive values: 1/x, sqrt(x) and 1/sqrt(x)
_POSITIVE = ("inverse", "sqrt", "sqrt_inverse")


def _spectrum(vals):
    """(w, v): one eigh of a custom table's blocks; scalar rows are their own eigenvalues, v None."""
    return np.linalg.eigh(vals) if np.iscomplexobj(vals) else (vals, None)


def _not_positive(w, variant):
    """The message of a positive variant requested on values with eigenvalues w, min(w) <= 0."""
    return f"symbol has smallest eigenvalue {w.min():.3e}, not positive, so variant {variant!r} is undefined"


def _positive_functions(w, v):
    """The multipliers of inverse, sqrt and sqrt_inverse from a positive spectrum (w, v)."""
    s = np.sqrt(w)
    fs = (1.0 / w, s, 1.0 / s)
    if v is None:
        return fs
    vh = np.conj(np.swapaxes(v, -1, -2))
    return tuple((v * f[..., None, :]) @ vh for f in fs)


def _variant(vals, variant):
    """The multipliers of an operator variant from symbol values given by _values.

    identity and lambda_derivative take the values as they are (the latter
    from the derivative table); inverse, sqrt and sqrt_inverse apply 1/x,
    sqrt(x) and 1/sqrt(x) to scalar values, or to the eigenvalues of each
    (d, d) block, and need them positive.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown operator variant {variant!r}")
    if variant in ("identity", "lambda_derivative"):
        return vals
    w, v = _spectrum(vals)
    if w.min() <= 0:
        raise NotPositiveDefiniteError(_not_positive(w, variant))
    return _positive_functions(w, v)[_POSITIVE.index(variant)]


def _variant_rows(sym, lam, m):
    """The multipliers of every variant on modes m at lam, from one joint evaluation.

    Returns (names, rows, refused): rows stacks the multipliers of the
    variants in names along a new first axis, each bitwise what _variant
    gives from _values; refused maps every other variant of VARIANTS to
    the (error class, message) a request for it raises. The positive
    variants exist only on positive values, so none divides by zero or
    takes the root of a negative number; a custom table's three share one
    eigh per block, and its lambda-derivative exists only with a
    derivative table.
    """
    vals, der = _evaluate(sym, lam, m)
    names, rows, refused = ("identity",), [vals], {}
    if der is None:
        refused["lambda_derivative"] = (NotSupportedError, _NO_DERIVATIVE)
    else:
        names += ("lambda_derivative",)
        rows.append(der)
    w, v = _spectrum(vals)
    if w.min() <= 0:
        refused.update((variant, (NotPositiveDefiniteError, _not_positive(w, variant))) for variant in _POSITIVE)
    else:
        names += _POSITIVE
        rows += _positive_functions(w, v)
    return names, np.array(rows), refused


def _refuse(refused, variant):
    """Raise the error of a variant missing from a _variant_rows table."""
    if variant not in VARIANTS:
        raise DomainError(f"unknown operator variant {variant!r}")
    cls, message = refused[variant]
    raise cls(message)


def _matrices(sym, lam, m, variant):
    """(len(m), d, d) blocks of a variant; scalar families expand to multiples of I."""
    vals = _variant(_values(sym, lam, np.atleast_1d(m), variant == "lambda_derivative"), variant)
    return vals[:, None, None] * np.eye(sym.dim) if sym.is_scalar else vals


def matrix_values(sym, lam, m):
    """(len(m), d, d) symbol matrices; scalar families expand to multiples of I."""
    return _matrices(sym, lam, m, "identity")


def eval_symbol(sym, lam, m):
    """The d x d Hermitian matrix a(lambda, m)."""
    return _matrices(sym, lam, int(m), "identity")[0]


def symbol_lambda_derivative(sym, lam, m):
    """The d x d Hermitian matrix d/dlambda a(lambda, m)."""
    return _matrices(sym, lam, int(m), "lambda_derivative")[0]


def sqrt_symbol(sym, lam, m):
    """Unique positive Hermitian square root b with b @ b = a(lambda, m)."""
    return _matrices(sym, lam, int(m), "sqrt")[0]


def _operator_norms(mats):
    """Spectral norms of a stack of matrices."""
    return np.linalg.norm(mats, ord=2, axis=(1, 2))


@dataclass(frozen=True)
class ClassReport:
    """Finite-range symbol-class diagnostics.

    seminorms[alpha] = max over sampled (lambda, m), |m| <= m_max, of
    ||Delta^alpha a(lambda, m)|| <m>^(alpha - 2r), the forward-difference
    seminorm with operator order 2r. margin is the locally uniform
    ellipticity constant min sigma_min(a) <m>^(-2r).
    """

    family: str
    order: float
    m_max: int
    alpha_max: int
    lambdas: tuple
    seminorms: tuple
    margin: float
    hermitian_ok: bool
    positive_ok: bool
    elliptic: bool

    def to_dict(self):
        return {**asdict(self), "lambdas": list(self.lambdas), "seminorms": list(self.seminorms)}

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)


def class_report(sym, lambda_range, m_max=256, alpha_max=3):
    """Numerical class and ellipticity diagnostics over a compact range.

    lambda_range is a positive interval (lo, hi) sampled at LAMBDA_SAMPLES
    points. Differences in m are anchored so that Delta^alpha a(m) uses
    a(m), ..., a(m + alpha); anchors run over |m| <= m_max.
    """
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if lo <= 0 or hi < lo:
        raise DomainError(f"lambda range must be a positive interval, got ({lo}, {hi})")
    if m_max < 8 or alpha_max < 2:
        raise DomainError("class_report needs m_max >= 8 and alpha_max >= 2")
    lambdas = np.linspace(lo, hi, LAMBDA_SAMPLES)
    ms = np.arange(-m_max - alpha_max, m_max + alpha_max + 1)
    two_r = 2.0 * sym.order
    bracket = np.sqrt(1.0 + ms.astype(float) ** 2)

    seminorms = np.zeros(alpha_max + 1)
    margin = np.inf
    hermitian_ok = True
    positive_ok = True
    for lam in lambdas:
        if sym.is_scalar:
            vals = scalar_values(sym, lam, ms)
            norms = np.abs(vals)
            smallest = vals.copy()
            herm_dev = 0.0
        else:
            mats = matrix_values(sym, lam, ms)
            norms = _operator_norms(mats)
            eigs = np.linalg.eigvalsh(mats)
            smallest = eigs[:, 0]
            herm_dev = float(np.max(np.abs(mats - np.conj(np.swapaxes(mats, 1, 2)))))
        if herm_dev > 1e-12 * max(1.0, norms.max()):
            hermitian_ok = False
        inner = np.abs(ms) <= m_max
        if smallest[inner].min() <= 0:
            positive_ok = False
        margin = min(margin, float((np.maximum(smallest[inner], 0.0) * bracket[inner] ** (-two_r)).min()))
        for alpha in range(alpha_max + 1):
            if sym.is_scalar:
                diffs = np.diff(vals, n=alpha) if alpha else vals
                dnorm = np.abs(diffs)
            else:
                diffs = np.diff(mats, n=alpha, axis=0) if alpha else mats
                dnorm = _operator_norms(diffs)
            anchors = ms[: diffs.shape[0]]
            keep = np.abs(anchors) <= m_max
            weight = np.sqrt(1.0 + anchors[keep].astype(float) ** 2) ** (alpha - two_r)
            seminorms[alpha] = max(seminorms[alpha], float(np.max(dnorm[keep] * weight)))
    return ClassReport(
        family=sym.family,
        order=sym.order,
        m_max=int(m_max),
        alpha_max=int(alpha_max),
        lambdas=tuple(float(x) for x in lambdas),
        seminorms=tuple(float(x) for x in seminorms),
        margin=float(margin),
        hermitian_ok=bool(hermitian_ok),
        positive_ok=bool(positive_ok),
        elliptic=bool(positive_ok and margin > 0.0),
    )


__all__ = [
    "FAMILIES",
    "LAMBDA_RANGE",
    "ClassReport",
    "LambdaSymbol",
    "bessel_fractional",
    "class_report",
    "constant_coefficient",
    "custom_table",
    "eval_symbol",
    "matrix_values",
    "scalar_derivative_values",
    "scalar_values",
    "scale_invariant",
    "sqrt_symbol",
    "symbol_lambda_derivative",
    "two_term_fractional",
]
