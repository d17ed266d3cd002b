"""Commutative algebra of normalized-trace symbols and matrix word polynomials.

A trace polynomial here is an element of C[{v_k : k nonzero integer}], where
v_k stands for the normalized trace of the k-th matrix power (negative k uses
the inverse).  v_0 is identified with the constant 1 and is never stored.

Monomials are canonical: tuples of (index, exponent) pairs sorted by ascending
index, with strictly positive exponents.  Polynomials map monomials to complex
coefficients and never store exact zeros, so dict equality is polynomial
equality.  Everything is immutable after construction and all operations are
pure functions.

Word polynomials are linear combinations of words over the four-letter
alphabet {matrix, inverse, adjoint, inverse-adjoint}, encoded as integers
+1, -1, +2, -2.  On the unitary group the adjoint equals the inverse, so every
word collapses to a single v_k; that reduction is `unitary_reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidParameter, PolyParseError, SingularMatrix

# A monomial: ((k, exp), ...) with ascending k, k != 0, exp >= 1.
Mono = tuple
ONE_MONO: Mono = ()

# Word letters: +1 matrix, -1 inverse, +2 adjoint, -2 inverse of adjoint.
LETTER_NAMES = {1: "z", -1: "z^-1", 2: "z*", -2: "z*^-1"}
_STAR = {1: 2, 2: 1, -1: -2, -2: -1}
# On unitaries: z -> +1 power, z^-1 -> -1, z* -> -1, z*^-1 -> +1.
_UNITARY_POWER = {1: 1, -1: -1, 2: -1, -2: 1}


def _mono_from_exps(exps: Mapping[int, int]) -> Mono:
    items = []
    for k in sorted(exps):
        e = exps[k]
        if e == 0:
            continue
        if k == 0:
            raise InvalidParameter("v_0 is the constant 1, not an indeterminate")
        if e < 0:
            raise InvalidParameter(f"negative exponent {e} for v_{k}")
        items.append((k, e))
    return tuple(items)


def mono_degree(m: Mono) -> int:
    """Trace degree of a monomial: sum over factors of |index| * exponent."""
    return sum(abs(k) * e for k, e in m)


def mono_index_sum(m: Mono) -> int:
    """Signed index sum of a monomial: sum over factors of index * exponent.

    On 1x1 matrices every v_k collapses to the k-th power of a single scalar,
    so a monomial evaluates to that scalar raised to this signed sum.  Both
    flow generators conserve it.
    """
    return sum(k * e for k, e in m)


def mono_mul(a: Mono, b: Mono) -> Mono:
    exps: dict[int, int] = dict(a)
    for k, e in b:
        exps[k] = exps.get(k, 0) + e
    return _mono_from_exps(exps)


def mono_div_var(m: Mono, k: int, times: int = 1) -> Mono:
    """Divide a monomial by v_k**times; exponent must be large enough."""
    exps = dict(m)
    if exps.get(k, 0) < times:
        raise InvalidParameter(f"monomial not divisible by v_{k}^{times}")
    exps[k] -= times
    return _mono_from_exps(exps)


def mono_mul_var(m: Mono, k: int, times: int = 1) -> Mono:
    """Multiply a monomial by v_k**times; k = 0 is the constant 1 (no-op)."""
    if k == 0 or times == 0:
        return m
    exps = dict(m)
    exps[k] = exps.get(k, 0) + times
    return _mono_from_exps(exps)


class TracePoly:
    """Sparse polynomial in the v_k with complex coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, complex] | None = None):
        clean: dict[Mono, complex] = {}
        if terms:
            for m, c in terms.items():
                clean[tuple(m)] = clean.get(tuple(m), 0) + complex(c)
        # prunes zero inputs and duplicates that cancelled
        self.terms = {m: c for m, c in clean.items() if c != 0}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "TracePoly":
        return TracePoly()

    @staticmethod
    def const(c: complex) -> "TracePoly":
        return TracePoly({ONE_MONO: c})

    @staticmethod
    def one() -> "TracePoly":
        return TracePoly.const(1.0)

    # -- ring structure ----------------------------------------------------
    def __add__(self, other) -> "TracePoly":
        other = _coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return TracePoly(out)

    __radd__ = __add__

    def __neg__(self) -> "TracePoly":
        return TracePoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "TracePoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "TracePoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "TracePoly":
        other = _coerce(other)
        out: dict[Mono, complex] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = mono_mul(ma, mb)
                out[m] = out.get(m, 0) + ca * cb
        return TracePoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "TracePoly":
        if n < 0:
            raise InvalidParameter("negative polynomial power")
        out = TracePoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, float, complex)):
            other = TracePoly.const(other)
        if not isinstance(other, TracePoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"TracePoly({format_poly(self)!r})"

    def __bool__(self) -> bool:
        return bool(self.terms)


def _coerce(x) -> TracePoly:
    if isinstance(x, TracePoly):
        return x
    if isinstance(x, (int, float, complex)):
        return TracePoly.const(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a trace polynomial")


def v(k: int) -> TracePoly:
    """The generator v_k (normalized trace of the k-th power)."""
    if k == 0:
        raise InvalidParameter("v_0 is the constant 1, not an indeterminate")
    return TracePoly({((k, 1),): 1.0})


def trace_degree(p: TracePoly) -> int:
    """Max over monomials of sum |index|*exponent; 0 for constants and 0."""
    if not p.terms:
        return 0
    return max(mono_degree(m) for m in p.terms)


def l1_norm(p: TracePoly) -> float:
    """Sum of coefficient magnitudes in the canonical representation."""
    return float(sum(abs(c) for c in p.terms.values()))


def eval_at_one(p: TracePoly) -> complex:
    """Set every v_k to 1.  A unital algebra homomorphism to C."""
    return complex(sum(p.terms.values()))


def star_poly(p: TracePoly) -> TracePoly:
    """Adjoint on the unitary side: negate all indices, conjugate coefficients."""
    out: dict[Mono, complex] = {}
    for m, c in p.terms.items():
        sm = tuple(sorted(((-k, e) for k, e in m)))
        out[sm] = out.get(sm, 0) + np.conj(c)
    return TracePoly(out)


def _matrix_power(Z: np.ndarray, e: int) -> np.ndarray:
    """Z**e for e >= 1 by repeated squaring."""
    result = None
    base = Z
    n = e
    while n:
        if n & 1:
            result = base if result is None else result @ base
        n >>= 1
        if n:
            base = base @ base
    return result


def eval_on_matrix(p: TracePoly, Z: np.ndarray, *, cond_cap: float = 1e12) -> complex:
    """Substitute v_k -> normalized trace of Z**k and evaluate.

    Negative indices use the inverse, computed once and powered; raises
    SingularMatrix when the 1-norm condition estimate exceeds cond_cap.
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise InvalidParameter("expected a square matrix")
    N = Z.shape[0]
    needed = sorted({k for m in p.terms for k, _ in m})
    traces: dict[int, complex] = {}
    Zinv = None
    if any(k < 0 for k in needed):
        try:
            Zinv = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("matrix inverse failed") from exc
        cond = np.linalg.norm(Z, 1) * np.linalg.norm(Zinv, 1)
        if not np.isfinite(cond) or cond > cond_cap:
            raise SingularMatrix(
                f"condition estimate {cond:.3g} above cap {cond_cap:.3g}"
            )
    for k in needed:
        base = Z if k > 0 else Zinv
        traces[k] = np.trace(_matrix_power(base, abs(k))) / N
    total = 0.0 + 0.0j
    for m, c in p.terms.items():
        val = c
        for k, e in m:
            val *= traces[k] ** e
        total += val
    return complex(total)


# -- word polynomials ------------------------------------------------------

Word = tuple  # tuple of letters from {1, -1, 2, -2}


@dataclass(frozen=True)
class WordPoly:
    """Linear combination of words in a matrix, its inverse and adjoints.

    Words are stored unreduced; identical words are merged (coefficients add)
    but no free-group cancellation is performed.
    """

    terms: tuple  # ((word, coeff), ...)

    @staticmethod
    def from_terms(terms: Iterable[tuple[Sequence[int], complex]]) -> "WordPoly":
        merged: dict[Word, complex] = {}
        for word, c in terms:
            word = tuple(word)
            for letter in word:
                if letter not in _STAR:
                    raise InvalidParameter(f"unknown word letter {letter!r}")
            c = complex(c)
            merged[word] = merged.get(word, 0) + c
        return WordPoly(tuple(sorted(
            ((w, c) for w, c in merged.items() if c != 0),
            key=lambda item: (len(item[0]), item[0]),
        )))

    def __add__(self, other: "WordPoly") -> "WordPoly":
        return WordPoly.from_terms(list(self.terms) + list(other.terms))

    def __mul__(self, other: "WordPoly") -> "WordPoly":
        prods = []
        for wa, ca in self.terms:
            for wb, cb in other.terms:
                prods.append((wa + wb, ca * cb))
        return WordPoly.from_terms(prods)


def word_star(w: Word) -> Word:
    """Adjoint of a word: reverse it and star each letter."""
    return tuple(_STAR[letter] for letter in reversed(w))


def wp_star(f: WordPoly) -> WordPoly:
    """Adjoint of a word polynomial (conjugate coefficients, star words)."""
    return WordPoly.from_terms((word_star(w), np.conj(c)) for w, c in f.terms)


def lp_word(f: WordPoly, p: int) -> WordPoly:
    """The word polynomial (f f*)**(p/2) whose trace gives the p-norm power."""
    if p < 2 or p % 2 != 0:
        raise InvalidParameter(f"p must be an even integer >= 2, got {p}")
    g = f * wp_star(f)
    out = g
    for _ in range(p // 2 - 1):
        out = out * g
    return out


def unitary_reduce(w: WordPoly) -> TracePoly:
    """Collapse each word to v_k using adjoint == inverse on unitaries."""
    out: dict[Mono, complex] = {}
    for word, c in w.terms:
        k = sum(_UNITARY_POWER[letter] for letter in word)
        m = ONE_MONO if k == 0 else ((k, 1),)
        out[m] = out.get(m, 0) + c
    return TracePoly(out)


def eval_word_on_matrix(f: WordPoly, Z: np.ndarray, *, cond_cap: float = 1e12) -> np.ndarray:
    """Evaluate a word polynomial to a matrix: sum of coeff * letter products."""
    Z = np.asarray(Z, dtype=complex)
    N = Z.shape[0]
    mats = {1: Z, 2: Z.conj().T}
    if any(letter < 0 for word, _ in f.terms for letter in word):
        try:
            Zinv = np.linalg.inv(Z)
        except np.linalg.LinAlgError as exc:
            raise SingularMatrix("matrix inverse failed") from exc
        cond = np.linalg.norm(Z, 1) * np.linalg.norm(Zinv, 1)
        if not np.isfinite(cond) or cond > cond_cap:
            raise SingularMatrix(
                f"condition estimate {cond:.3g} above cap {cond_cap:.3g}"
            )
        mats[-1] = Zinv
        mats[-2] = Zinv.conj().T
    total = np.zeros((N, N), dtype=complex)
    for word, c in f.terms:
        acc = np.eye(N, dtype=complex)
        for letter in word:
            acc = acc @ mats[letter]
        total += c * acc
    return total


# -- text format -----------------------------------------------------------
#
# term  ::= coeff ('*' 'v' int)*      e.g.  3*v2*v-1 + (0,-1)*v1
# coeff ::= float | '(' float ',' float ')'     (complex as (re,im))
# A bare generator like `v1` is accepted with implied coefficient 1.


def parse_poly(text: str) -> TracePoly:
    """Parse the CLI polynomial grammar into a TracePoly."""
    if not isinstance(text, str) or not text.strip():
        raise PolyParseError("empty polynomial string")
    terms = _split_terms(text)
    total = TracePoly.zero()
    for sign, term in terms:
        total = total + sign * _parse_term(term)
    return total


def _split_terms(text: str) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    depth = 0
    sign = 1
    cur: list[str] = []
    prev_sig = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PolyParseError("unbalanced parentheses")
        if ch in "+-" and depth == 0 and prev_sig not in ("e", "E", "v", "(", ","):
            if cur and "".join(cur).strip():
                out.append((sign, "".join(cur).strip()))
            elif out or "".join(cur).strip():
                raise PolyParseError(f"dangling sign in {text!r}")
            sign = 1 if ch == "+" else -1
            cur = []
            prev_sig = ""
            continue
        cur.append(ch)
        if not ch.isspace():
            prev_sig = ch
    if depth != 0:
        raise PolyParseError("unbalanced parentheses")
    if not "".join(cur).strip():
        raise PolyParseError(f"trailing sign in {text!r}")
    out.append((sign, "".join(cur).strip()))
    return out


def _parse_term(term: str) -> TracePoly:
    factors = _split_factors(term)
    coeff = 1.0 + 0.0j
    exps: dict[int, int] = {}
    for factor in factors:
        factor = factor.strip()
        if not factor:
            raise PolyParseError(f"empty factor in term {term!r}")
        if factor[0] in "vV":
            try:
                k = int(factor[1:])
            except ValueError:
                raise PolyParseError(f"bad generator {factor!r}") from None
            if k == 0:
                raise PolyParseError("v0 is not an indeterminate (it is 1)")
            exps[k] = exps.get(k, 0) + 1
        elif factor[0] == "(":
            if not factor.endswith(")"):
                raise PolyParseError(f"bad complex literal {factor!r}")
            inner = factor[1:-1]
            try:
                if "," in inner:
                    re_s, im_s = inner.split(",", 1)
                    coeff *= complex(float(re_s), float(im_s))
                else:  # also accept python-style literals like (1+2j)
                    coeff *= complex(inner.replace(" ", ""))
            except ValueError:
                raise PolyParseError(f"bad complex literal {factor!r}") from None
        else:
            try:
                coeff *= complex(factor) if factor.endswith("j") else float(factor)
            except ValueError:
                raise PolyParseError(f"bad coefficient {factor!r}") from None
    return TracePoly({_mono_from_exps(exps): coeff})


def _split_factors(term: str) -> list[str]:
    out = []
    depth = 0
    cur: list[str] = []
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            out.append("".join(cur))
            cur = []
            continue
        cur.append(ch)
    out.append("".join(cur))
    return out


def _format_coeff(c: complex) -> str:
    if c.imag == 0:
        r = c.real
        return f"{int(r)}" if r == int(r) else repr(r)
    re = int(c.real) if c.real == int(c.real) else c.real
    im = int(c.imag) if c.imag == int(c.imag) else c.imag
    return f"({re},{im})"


def format_poly(p: TracePoly) -> str:
    """Inverse of parse_poly on canonical polynomials."""
    if not p.terms:
        return "0"
    chunks: list[str] = []
    for m in sorted(p.terms, key=lambda m: (mono_degree(m), m)):
        c = p.terms[m]
        # pull a real minus sign out so the result stays parseable
        negative = c.imag == 0 and c.real < 0
        if negative:
            c = -c
        gens = "*".join(f"v{k}" for k, e in m for _ in range(e))
        if not gens:
            body = _format_coeff(c)
        elif c == 1:
            body = gens
        else:
            body = f"{_format_coeff(c)}*{gens}"
        if not chunks:
            chunks.append(("-" if negative else "") + body)
        else:
            chunks.append((" - " if negative else " + ") + body)
    return "".join(chunks)
