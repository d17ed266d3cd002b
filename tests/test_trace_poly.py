"""Algebra of trace polynomials: ring ops, norms, evaluation, word reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import poly_strategy
from heatspec.errors import InvalidParameter, PolyParseError, SingularMatrix
from heatspec.simulate import haar_unitary
from heatspec.trace_poly import (
    TracePoly,
    WordPoly,
    eval_at_one,
    eval_on_matrix,
    eval_word_on_matrix,
    format_poly,
    l1_norm,
    lp_word,
    mono_degree,
    mono_index_sum,
    parse_poly,
    star_poly,
    trace_degree,
    unitary_reduce,
    v,
    wp_star,
)


# -- products ------------------------------------------------------------------


def test_product_of_generators():
    p = v(1) * v(-1)
    assert p.terms == {((-1, 1), (1, 1)): 1.0}


def test_one_is_multiplicative_identity():
    p = 3 * v(2) * v(-1) + v(1)
    assert TracePoly.one() * p == p


def test_difference_of_squares():
    assert (v(2) + 1) * (v(2) - 1) == v(2) ** 2 - 1


def _naive_product(a: TracePoly, b: TracePoly) -> dict:
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            exps = {}
            for k, e in list(ma) + list(mb):
                exps[k] = exps.get(k, 0) + e
            key = tuple(sorted(exps.items()))
            out[key] = out.get(key, 0) + ca * cb
    return {m: c for m, c in out.items() if c != 0}


@given(poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_product_matches_distributive_expansion(a, b):
    assert (a * b).terms == pytest.approx(_naive_product(a, b))


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_product_commutative_associative(a, b, c):
    assert a * b == b * a
    lhs = (a * b) * c
    rhs = a * (b * c)
    for m in set(lhs.terms) | set(rhs.terms):
        assert lhs.terms.get(m, 0) == pytest.approx(rhs.terms.get(m, 0), abs=1e-12)


# -- degree and norms ----------------------------------------------------------


def test_trace_degree_examples():
    assert trace_degree(v(2) * v(-1)) == 3
    assert trace_degree(TracePoly.const(7)) == 0
    assert trace_degree(TracePoly.zero()) == 0
    assert trace_degree(v(1) ** 3 + v(3)) == 3


def test_degree_of_product_adds():
    a, b = v(2) * v(-1), v(3) ** 2
    assert trace_degree(a * b) == trace_degree(a) + trace_degree(b)


def test_l1_norm_examples():
    assert l1_norm(3 * v(2) * v(-1) - 1j * v(1)) == 4.0
    assert l1_norm(TracePoly.zero()) == 0.0
    assert l1_norm(v(1) + v(1)) == 2.0  # merged to 2*v1 before summing


@given(poly_strategy(), poly_strategy())
@settings(max_examples=60, deadline=None)
def test_l1_norm_submultiplicative(a, b):
    assert l1_norm(a * b) <= l1_norm(a) * l1_norm(b) + 1e-9


def test_mono_index_sum():
    assert mono_index_sum(((-2, 1), (3, 2))) == 4
    assert mono_degree(((-2, 1), (3, 2))) == 8


# -- evaluation ----------------------------------------------------------------


def test_eval_at_one_examples():
    assert eval_at_one(3 * v(2) * v(-1) + v(1)) == 4
    assert eval_at_one(TracePoly.zero()) == 0
    assert eval_at_one((v(1) - 1) ** 3) == 0


@given(poly_strategy())
@settings(max_examples=60, deadline=None)
def test_eval_at_one_bounded_by_l1(p):
    assert abs(eval_at_one(p)) <= l1_norm(p) + 1e-12


def test_eval_on_identity():
    assert eval_on_matrix(v(1), np.eye(4)) == pytest.approx(1.0)


def test_eval_with_inverse_on_diagonal():
    Z = np.diag([2.0, 0.5]).astype(complex)
    got = eval_on_matrix(v(1) * v(-1), Z)
    assert got == pytest.approx(25.0 / 16.0, abs=1e-14)


def test_eval_unitary_traces_bounded(rng):
    U = haar_unitary(5, rng)
    assert abs(eval_on_matrix(v(2), U)) <= 1.0 + 1e-12


def test_eval_singular_matrix_with_negative_power():
    Z = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SingularMatrix):
        eval_on_matrix(v(-1), Z)


@given(poly_strategy(max_index=2), poly_strategy(max_index=2))
@settings(max_examples=30, deadline=None)
def test_eval_is_ring_homomorphism(a, b):
    rng = np.random.default_rng(7)
    Z = haar_unitary(3, rng)  # unitary: well-conditioned for negative powers
    lhs = eval_on_matrix(a * b, Z)
    rhs = eval_on_matrix(a, Z) * eval_on_matrix(b, Z)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_conjugate_trace_is_negative_index(rng):
    U = haar_unitary(6, rng)
    for k in (1, 2, 3):
        lhs = np.conj(eval_on_matrix(v(k), U))
        rhs = eval_on_matrix(v(-k), U)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_star_poly_involution():
    p = (2 + 1j) * v(2) * v(-1) + 3 * v(1)
    assert star_poly(star_poly(p)) == p


# -- words ---------------------------------------------------------------------


def test_unitary_reduce_examples():
    w = WordPoly.from_terms([((1, 2), 1.0)])  # U U*
    assert unitary_reduce(w) == TracePoly.one()
    w = WordPoly.from_terms([((1, 1, 2), 1.0)])  # U U U*
    assert unitary_reduce(w) == v(1)
    w = WordPoly.from_terms([((1, 1), 1.0), ((-2, -2), 2.0)])
    assert unitary_reduce(w) == 3 * v(2)


def test_word_star_reverses_and_stars():
    f = WordPoly.from_terms([((1, -1, 2), 2.0 + 1j)])
    fs = wp_star(f)
    # reverse (1,-1,2) -> (2,-1,1); star letterwise -> (1,-2,2)
    assert fs.terms == (((1, -2, 2), 2.0 - 1j),)


def test_lp_word_examples():
    f = WordPoly.from_terms([((1,), 1.0)])  # the word "z"
    g2 = lp_word(f, 2)
    assert g2.terms == (((1, 2), 1.0),)
    g4 = lp_word(f, 4)
    assert g4.terms == (((1, 2, 1, 2), 1.0),)
    fc = WordPoly.from_terms([((1,), 1j)])  # unimodular coefficient
    assert lp_word(fc, 2).terms == (((1, 2), 1.0),)


def test_lp_word_rejects_odd_p():
    f = WordPoly.from_terms([((1,), 1.0)])
    with pytest.raises(InvalidParameter):
        lp_word(f, 3)


def test_word_evaluation_matches_reduction_on_unitary(rng):
    U = haar_unitary(4, rng)
    w = WordPoly.from_terms([((1, 1, 2), 0.5), ((2, 2), 1.0), ((), 2.0)])
    A = eval_word_on_matrix(w, U)
    direct = np.trace(A) / 4
    reduced = eval_on_matrix(unitary_reduce(w), U)
    assert direct == pytest.approx(reduced, abs=1e-12)


# -- text format ---------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "v1", "v-3", "3*v2*v-1 + (0,-1)*v1", "0.5*v2*v2 - 3",
    "(1+2j)*v1", "2j*v-2 + 1", "v1 + v-1",
])
def test_parse_format_round_trip(text):
    p = parse_poly(text)
    q = parse_poly(format_poly(p))
    assert p == q


@pytest.mark.parametrize("bad", ["v0", "v", "v1**2", "2**v1", "v1 +", "(1,2", "q3"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(PolyParseError):
        parse_poly(bad)


def test_parse_example_from_grammar():
    p = parse_poly("3*v2*v-1 + (0,-1)*v1")
    assert p == 3 * v(2) * v(-1) - 1j * v(1)
