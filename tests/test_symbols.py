"""Tests for the length-dependent Fourier multiplier families."""

import pickle

import numpy as np
import pytest

from fracsob.errors import DomainError
from fracsob.symbols import (
    bessel_fractional,
    class_report,
    constant_coefficient,
    custom_table,
    eval_symbol,
    matrix_values,
    scalar_derivative_values,
    scalar_values,
    scale_invariant,
    sqrt_symbol,
    symbol_lambda_derivative,
    two_term_fractional,
)

TWO_PI = 2.0 * np.pi
MS = np.arange(-8, 9)


def test_constant_coefficient_polynomial_values():
    # at lambda = 2 pi the frequency variable reduces to the raw mode number
    sym = constant_coefficient((1.0, 0.5, 0.25))
    assert sym.order == pytest.approx(2.0)
    vals = scalar_values(sym, TWO_PI, MS)
    expected = 1.0 + 0.5 * MS**2 + 0.25 * MS**4
    assert np.allclose(vals, expected, rtol=1e-14)


def test_bessel_matches_binomial_expansion_at_integer_order():
    # (1 + y)^2 = 1 + 2 y + y^2 with y = (2 pi m / lambda)^2
    b = bessel_fractional(2.0, alpha0=1.0)
    p = constant_coefficient((1.0, 2.0, 1.0))
    for lam in (1.0, TWO_PI, 9.5):
        assert np.allclose(
            scalar_values(b, lam, MS), scalar_values(p, lam, MS), rtol=1e-13
        )


def test_scale_invariant_homogeneity_in_lambda():
    sym = scale_invariant((1.0, 1.0))
    for factor in (0.5, 2.0, 5.0):
        lhs = scalar_values(sym, factor * 3.0, MS)
        rhs = scalar_values(sym, 3.0, MS) / factor**3
        assert np.allclose(lhs, rhs, rtol=1e-13)


def test_two_term_values_and_zero_offset():
    sym = two_term_fractional(1.5, 2.0, 0.5)
    vals = scalar_values(sym, TWO_PI, MS)
    assert np.allclose(vals, 2.0 + 0.5 * np.abs(MS.astype(float)) ** 3.0, rtol=1e-13)
    # alpha0 = 0 is a legal degenerate member; it only fails admissibility later
    degenerate = two_term_fractional(1.2, 0.0, 1.0)
    assert scalar_values(degenerate, 1.0, np.array([0]))[0] == 0.0


def test_lambda_derivative_matches_finite_differences():
    syms = [
        constant_coefficient((1.0, 1.0)),
        scale_invariant((1.0, 0.5)),
        bessel_fractional(1.5),
        two_term_fractional(0.8, 1.0, 1.2),
    ]
    lam = 3.7
    delta = 1e-6 * lam
    for sym in syms:
        assert sym.has_derivative
        analytic = scalar_derivative_values(sym, lam, MS)
        fd = (scalar_values(sym, lam + delta, MS) - scalar_values(sym, lam - delta, MS)) / (
            2 * delta
        )
        scale = np.max(np.abs(analytic)) + 1.0
        assert np.max(np.abs(analytic - fd)) < 1e-7 * scale


@pytest.mark.parametrize("evaluate", [scalar_values, scalar_derivative_values])
@pytest.mark.parametrize(
    "sym",
    [
        constant_coefficient((1.0, 1.0)),
        scale_invariant((1.0, 0.5)),
        bessel_fractional(1.5),
        two_term_fractional(1.5, 1.0, 1.0),
    ],
)
def test_values_broadcast_over_a_column_of_parameters(evaluate, sym):
    # a batch of curves passes its lengths as a (B, 1) column
    lams = np.array([[1.3], [TWO_PI], [9.5]])
    rows = evaluate(sym, lams, MS)
    assert rows.shape == (3, MS.size)
    for lam, row in zip(lams[:, 0], rows):
        assert np.array_equal(row, evaluate(sym, lam, MS))


def test_sqrt_symbol_squares_back():
    sym = bessel_fractional(1.5)
    vals = scalar_values(sym, 4.2, MS)
    for m, v in zip(MS, vals):
        root = sqrt_symbol(sym, 4.2, int(m))
        assert np.allclose(root @ root, v * np.eye(2), rtol=1e-13)
    # a coupled table: the root comes from the eigenvalues of each block
    table = np.einsum("m,ij->mij", 2.0 + MS.astype(float) ** 2, np.eye(2))
    table[:, 0, 1] = table[:, 1, 0] = 0.7
    coupled = custom_table(table, order=1.0)
    for m, block in zip(MS, table):
        root = sqrt_symbol(coupled, 4.2, int(m))
        assert np.allclose(root, np.conj(root.T), rtol=0.0, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(root)) > 0
        assert np.allclose(root @ root, block, rtol=1e-13)


def test_symbol_lambda_derivative_is_scalar_consistent():
    sym = scale_invariant((1.0, 1.0))
    lam = 2.5
    ders = scalar_derivative_values(sym, lam, MS)
    for m, d in zip(MS, ders):
        got = symbol_lambda_derivative(sym, lam, int(m))
        assert np.allclose(got, d * np.eye(2), rtol=1e-14)


def test_eval_symbol_agrees_with_table_of_values():
    sym = bessel_fractional(0.8)
    vals = scalar_values(sym, 5.0, MS)
    for m, v in zip(MS, vals):
        assert np.allclose(eval_symbol(sym, 5.0, int(m)), v * np.eye(2), rtol=1e-13)


def test_constructor_validation():
    with pytest.raises(DomainError):
        constant_coefficient(())
    with pytest.raises(DomainError):
        constant_coefficient((1.0, -2.0))
    with pytest.raises(DomainError):
        scale_invariant((1.0, 0.0))  # leading coefficient must be positive
    with pytest.raises(DomainError):
        bessel_fractional(1.5, alpha0=0.0)
    with pytest.raises(DomainError):
        two_term_fractional(1.5, 1.0, 0.0)  # alpha1 drives the order
    with pytest.raises(DomainError):
        two_term_fractional(-0.5, 1.0, 1.0)


def test_values_reject_nonpositive_lambda():
    sym = bessel_fractional(1.0)
    with pytest.raises(DomainError):
        scalar_values(sym, 0.0, MS)
    with pytest.raises(DomainError):
        scalar_values(sym, -2.0, MS)


def _bessel_table(m_max, r=1.5):
    base = bessel_fractional(r)
    ms = np.arange(-m_max, m_max + 1)
    vals = scalar_values(base, TWO_PI, ms)
    table = np.einsum("m,ij->mij", vals, np.eye(2))
    return table, ms


def test_custom_table_reproduces_scalar_family():
    table, ms = _bessel_table(16)
    sym = custom_table(table, order=1.5)
    assert not sym.is_scalar
    assert not sym.has_derivative
    got = matrix_values(sym, TWO_PI, MS)
    want = np.einsum(
        "m,ij->mij", scalar_values(bessel_fractional(1.5), TWO_PI, MS), np.eye(2)
    )
    assert np.allclose(got, want, rtol=1e-14)
    # tables carry no lambda dependence by construction
    assert np.allclose(matrix_values(sym, 1.0, MS), got, rtol=1e-14)


def test_custom_table_supports_derivative_tables():
    table, _ = _bessel_table(16)
    sym = custom_table(table, order=1.5, derivative=np.zeros_like(table))
    assert sym.has_derivative


def test_custom_table_validation():
    table, _ = _bessel_table(16)
    with pytest.raises(DomainError):
        custom_table(table[:-1], order=1.5)  # even number of rows: no m = 0 center
    skew = table.copy()
    skew[3, 0, 1] = 1.0
    with pytest.raises(DomainError):
        custom_table(skew, order=1.5)  # not Hermitian
    odd = table.copy()
    odd[0] = 2.0 * odd[0]
    with pytest.raises(DomainError):
        custom_table(odd, order=1.5)  # a(-m) must equal a(m) transposed
    with pytest.raises(DomainError):
        custom_table(table, order=1.5, derivative=np.zeros((3, 2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_custom_table_refuses_nonfinite_values(bad):
    # a NaN deviation is never above the Hermitian or even tolerance
    with pytest.raises(DomainError, match="table values must be finite"):
        custom_table(np.full((5, 2, 2), bad), order=1.0)
    table, _ = _bessel_table(16)
    table[2, 1, 1] = table[-3, 1, 1] = bad
    with pytest.raises(DomainError, match="table values must be finite"):
        custom_table(table, order=1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_custom_table_refuses_a_nonfinite_derivative_table(bad):
    table, _ = _bessel_table(16)
    derivative = np.zeros_like(table)
    derivative[4, 0, 0] = bad
    with pytest.raises(DomainError, match="derivative table values must be finite"):
        custom_table(table, order=1.5, derivative=derivative)


def test_custom_table_requests_beyond_range_fail():
    table, _ = _bessel_table(4)
    sym = custom_table(table, order=1.5)
    with pytest.raises(DomainError):
        matrix_values(sym, TWO_PI, np.array([7]))


def test_class_report_verdicts_for_builtins():
    for sym in (
        constant_coefficient((1.0, 1.0)),
        scale_invariant((1.0, 1.0)),
        bessel_fractional(1.5),
        two_term_fractional(1.5, 1.0, 1.0),
    ):
        rep = class_report(sym, (0.5, 20.0), m_max=128)
        assert rep.hermitian_ok
        assert rep.positive_ok
        assert rep.elliptic
        assert rep.margin > 0
        assert len(rep.seminorms) == 4
        assert all(np.isfinite(s) for s in rep.seminorms)


def test_class_report_flags_degenerate_symbol():
    rep = class_report(two_term_fractional(1.2, 0.0, 1.0), (0.5, 20.0), m_max=64)
    assert rep.hermitian_ok
    assert not rep.positive_ok
    assert not rep.elliptic


def test_class_report_roundtrips_to_json():
    import json

    rep = class_report(bessel_fractional(1.0), (1.0, 4.0), m_max=32)
    payload = json.loads(rep.to_json())
    assert payload["family"] == "bessel_fractional"
    assert payload["elliptic"] is True


def test_symbol_hash_is_the_field_hash_and_a_table_refuses_it():
    sym = bessel_fractional(1.5)
    assert hash(sym) == hash(("bessel_fractional", 1.5, (1.0,), 2, None))
    assert hash(sym) == hash(sym) == hash(bessel_fractional(1.5))
    copy = pickle.loads(pickle.dumps(sym))
    assert copy == sym and hash(copy) == hash(sym)
    # str hashes differ between processes, so a kept hash must not travel
    object.__setattr__(sym, "_hash", hash(sym) + 1)
    assert hash(pickle.loads(pickle.dumps(sym))) == hash(bessel_fractional(1.5))
    table = custom_table(np.ones((3, 2, 2)), order=1.0)
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(table)
