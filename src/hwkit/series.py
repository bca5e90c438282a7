"""Truncated power series over exact rationals.

A RationalSeries is a dense list of rational coefficients (index n = the
coefficient of x^n) together with two small pieces of symbolic baggage that
keep everything exact:

* ``prefactor_sq`` -- the series stands for sqrt(prefactor_sq) * sum c_n x^n.
  This carries the surd sqrt(3) that multiplies the Hartman-Watson
  prefactor expansion without ever rounding it to a float.
* ``offset`` -- an optional symbolic additive constant (currently only
  ``pi^2/2 - 1``, the value of the Hartman-Watson exponent function at its
  expansion point), again kept out of the rational coefficient table.

Every operation below is exact: no floating point enters this module.
Coefficients are fractions.Fraction over Python int.  The four kernels
that do real work (product, division, square root, composition) do no
per-term rational arithmetic; they run on one fraction-free integer core:
a rational vector is scaled to ints over a single common denominator
(math.lcm), the work is int products and sums, and each output
coefficient becomes a Fraction once.

* series_mul: both operands scaled, one integer convolution.
* series_div, series_sqrt: triangular recurrences that hold the output so
  far as integers over one running denominator D.  Each new term q is one
  integer dot product and arrives as q D = num/div; _append_term takes
  g = gcd(num, div), appends num/g and rescales the row by div/g, so D
  stays the least common denominator of the terms so far (one gcd per
  term, no Fraction and no lcm on the way), and the output coefficient
  is one Fraction of the appended numerator over D.
* series_compose: the inner series' powers are built by integer
  convolution with a content-gcd reduction per step, and the outer sums
  f_k s^k as one integer vector over a running denominator.  Powers are
  streamed, not stored, so memory stays O(order).  Newton reversion is
  its one user in the package; hwkit.tables uses neither.

Coefficient growth is real: at order 100 the tables have numerators and
denominators of several hundred digits, and intermediate products a few
thousand.  DEFAULT_MAX_ORDER caps requests at 128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .rational import rat, ZERO, ONE, rational_sqrt

DEFAULT_MAX_ORDER = 128

OFFSET_NONE = ""
OFFSET_PI2_HALF_MINUS_1 = "pi^2/2-1"
_KNOWN_OFFSETS = (OFFSET_NONE, OFFSET_PI2_HALF_MINUS_1)


class SeriesError(ValueError):
    pass


@dataclass(frozen=True)
class RationalSeries:
    """Truncated series sqrt(prefactor_sq) * sum_n coeffs[n] x^n (+ offset)."""

    coeffs: tuple
    prefactor_sq: Fraction = field(default_factory=lambda: ONE)
    offset: str = OFFSET_NONE

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(rat(c) for c in self.coeffs))
        object.__setattr__(self, "prefactor_sq", rat(self.prefactor_sq))
        if not self.coeffs:
            raise SeriesError("series needs at least the constant coefficient")
        if self.prefactor_sq <= 0:
            raise SeriesError("prefactor_sq must be positive")
        if self.offset not in _KNOWN_OFFSETS:
            raise SeriesError(f"unknown offset flag {self.offset!r}")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def truncate(self, order: int) -> "RationalSeries":
        if order >= self.order:
            pad = (ZERO,) * (order - self.order)
            return RationalSeries(self.coeffs + pad, self.prefactor_sq, self.offset)
        return RationalSeries(self.coeffs[: order + 1], self.prefactor_sq, self.offset)

    def float_coeffs(self):
        return [float(c) for c in self.coeffs]

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:5])
        tail = ", ..." if self.order > 4 else ""
        pf = f", prefactor_sq={self.prefactor_sq}" if self.prefactor_sq != 1 else ""
        off = f", offset={self.offset!r}" if self.offset else ""
        return f"RationalSeries([{head}{tail}], order={self.order}{pf}{off})"


def _common_order(a: RationalSeries, b: RationalSeries) -> int:
    return min(a.order, b.order)


# -- fraction-free integer core -----------------------------------------------

def _to_scaled(coeffs):
    """(integer coefficient list, common denominator) for a rational list."""
    den = 1
    for c in coeffs:
        den = math.lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _content_reduce(nums, den):
    g = den
    for c in nums:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                return nums, den
    return [c // g for c in nums], den // g


def _int_conv(a, b, n):
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if ai:
            row = b[: n + 1 - i]
            for j, bj in enumerate(row):
                if bj:
                    out[i + j] += ai * bj
    return out


def _append_term(nums, den, num, div):
    """Append q = num / (div den) to the integer row nums, held over den.

    One gcd: with g = gcd(num, div), every entry is rescaled by div // g
    and num // g is appended, in place.  Returns the new running
    denominator den * (div // g), the least multiple of den over which q
    is an integer, i.e. lcm(den, denominator of q).  div is nonzero.
    """
    if div < 0:
        num, div = -num, -div
    g = math.gcd(num, div)
    up = div // g
    if up != 1:
        nums[:] = [c * up for c in nums]
    nums.append(num // g)
    return den * up


def series_add(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    """Coefficientwise sum, truncated to the smaller order.

    Addition under a square-root prefactor has no rational closed form
    unless the prefactors agree, so mismatched prefactors are an error.
    """
    if a.prefactor_sq != b.prefactor_sq:
        raise SeriesError("cannot add series with different surd prefactors")
    if a.offset and b.offset:
        raise SeriesError("cannot add two offset-carrying series")
    n = _common_order(a, b)
    coeffs = tuple(a.coeffs[i] + b.coeffs[i] for i in range(n + 1))
    return RationalSeries(coeffs, a.prefactor_sq, a.offset or b.offset)


def series_mul(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    """Cauchy product truncated to min(order); surd prefactors multiply.

    Both operands are scaled to integer vectors over one denominator each,
    convolved in integers, and each output coefficient becomes one rational.
    """
    if a.offset or b.offset:
        raise SeriesError("multiply the offset in by hand before calling series_mul")
    n = _common_order(a, b)
    A, da = _to_scaled(a.coeffs[: n + 1])
    B, db = _to_scaled(b.coeffs[: n + 1])
    den = da * db
    return RationalSeries(tuple(Fraction(c, den) for c in _int_conv(A, B, n)),
                          a.prefactor_sq * b.prefactor_sq)


def series_div(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    """a/b by the triangular recurrence b_0 q_k = a_k - sum_{i>=1} b_i q_{k-i}.

    Needs b[0] != 0.  The divisor is scaled to integers B/db and the
    quotient so far is held as integers N over one running denominator D,
    so each new term is one integer dot product and one gcd:
    q_k D = (a_k db D - sum_i B_i N_{k-i}) / B_0, with a_k = p/q.
    """
    if a.offset or b.offset:
        raise SeriesError("offset-carrying series cannot be divided")
    if b.coeffs[0] == 0:
        raise SeriesError("division needs a nonzero constant term in the divisor")
    n = _common_order(a, b)
    B, db = _to_scaled(b.coeffs[: n + 1])
    tail = B[1:]
    out = []
    N, D = [], 1
    for k in range(n + 1):
        ak = a.coeffs[k]
        p, q = ak.numerator, ak.denominator
        dot = sum(map(mul, tail[:k], reversed(N)))
        D = _append_term(N, D, p * db * D - q * dot, q * B[0])
        out.append(Fraction(N[k], D))
    return RationalSeries(tuple(out), a.prefactor_sq / b.prefactor_sq)


def series_diff(a: RationalSeries) -> RationalSeries:
    if a.order == 0:
        return RationalSeries((ZERO,), a.prefactor_sq)
    return RationalSeries(tuple(a.coeffs[i] * i for i in range(1, a.order + 1)),
                          a.prefactor_sq)


def series_compose(f: RationalSeries, s: RationalSeries) -> RationalSeries:
    """f(s(x)), truncated to min(f.order, s.order).  Requires s(0) = 0.

    Each power of s is built by fraction-free integer convolution (single
    running denominator, content-reduced per step) and used once before
    the next replaces it.  The sum f_k s^k is one integer vector over a
    running denominator (one lcm per term) and becomes rational only at
    the end.  The offset and surd prefactor of f pass through.
    """
    if s.coeffs[0] != 0:
        raise SeriesError("inner series must have zero constant term")
    if s.prefactor_sq != 1 or s.offset:
        raise SeriesError("inner series must be plain (no surd, no offset)")
    n = min(f.order, s.order)
    S, ds = _to_scaled(s.coeffs[: n + 1])
    # sum_k f_k s^k == acc / den, the k = 0 term to start
    acc = [f.coeffs[0].numerator] + [0] * n
    den = f.coeffs[0].denominator
    P, dp = S, ds
    for k in range(1, n + 1):
        fk = f.coeffs[k]
        if fk:
            dk = fk.denominator * dp
            lcm = math.lcm(den, dk)
            if lcm != den:
                up = lcm // den
                acc = [c * up for c in acc]
            mult = fk.numerator * (lcm // dk)
            for j in range(k, n + 1):  # s^k has no terms below x^k
                if P[j]:
                    acc[j] += mult * P[j]
            den = lcm
        if k < n:
            P, dp = _content_reduce(_int_conv(P, S, n), dp * ds)
    return RationalSeries(tuple(Fraction(c, den) for c in acc),
                          f.prefactor_sq, f.offset)


def series_sqrt(a: RationalSeries, prefactor_sq=1) -> RationalSeries:
    """Square root of a series, with an optional declared surd factor.

    The result r satisfies r*r == a termwise, where r carries
    ``prefactor_sq``; hence a.coeffs[0]/prefactor_sq must be the square of
    a rational.  Callers split off the surd themselves (for the
    Hartman-Watson prefactor that factor is 3).  The recurrence
    2 r_0 r_k = a_k / prefactor_sq - sum_{0<i<k} r_i r_{k-i} runs with the
    root so far held as integers N over one running denominator D: each
    new term is one integer dot product (halved by symmetry) and one gcd.
    """
    if a.offset:
        raise SeriesError("offset-carrying series has no exact square root")
    if a.prefactor_sq != 1:
        raise SeriesError("sqrt of an already-prefactored series is not supported")
    pf = rat(prefactor_sq)
    c0 = a.coeffs[0] / pf
    r0 = rational_sqrt(c0)
    if r0 is None or r0 == 0:
        raise SeriesError(
            f"constant term {a.coeffs[0]} is not a rational square times {pf}")
    pn, pd = pf.numerator, pf.denominator
    rn2, rd = 2 * r0.numerator, r0.denominator
    out = [r0]
    N, D = [r0.numerator], r0.denominator
    for k in range(1, a.order + 1):
        ak = a.coeffs[k]
        half = N[1:(k + 1) // 2]
        dot = 2 * sum(map(mul, half, reversed(N[k - len(half):k])))
        if k % 2 == 0:
            dot += N[k // 2] * N[k // 2]
        # r_k D = (a_k/pf - dot/D^2) D / (2 r0)
        qn = ak.denominator * pn
        D = _append_term(N, D, (ak.numerator * pd * D * D - qn * dot) * rd,
                         qn * D * rn2)
        out.append(Fraction(N[k], D))
    return RationalSeries(tuple(out), pf)


def revert_series(g: RationalSeries) -> RationalSeries:
    """Compositional inverse of g(z) - g(0), by Newton iteration on series.

    Given g with nonzero linear coefficient, returns h with
    g(h(w)) == g(0) + w to the common truncation order.  The iteration
    doubles the attained order each step, so the cost is dominated by the
    two compositions (g-hat and g') at full order; classical Lagrange inversion is kept in the
    test-suite as an independent oracle at small orders.
    """
    if g.prefactor_sq != 1 or g.offset:
        raise SeriesError("reversion needs a plain rational series")
    if g.order < 1 or g.coeffs[1] == 0:
        raise SeriesError("vanishing linear coefficient: series not invertible")
    n = g.order
    ghat = RationalSeries((ZERO,) + g.coeffs[1:])
    gprime = series_diff(ghat)
    h = RationalSeries((ZERO, 1 / g.coeffs[1]))
    order = 1
    while order < n:
        order = min(2 * order, n)
        ho = h.truncate(order)
        gh = series_compose(ghat.truncate(order), ho)
        gph = series_compose(gprime.truncate(order), ho)
        resid = list(gh.coeffs)
        resid[1] -= ONE  # g(h(w)) - w
        corr = series_div(RationalSeries(tuple(resid)), gph)
        h = RationalSeries(tuple(a - b for a, b in zip(ho.coeffs, corr.coeffs)))
    return h


# -- serialization ------------------------------------------------------------

def series_to_text(a: RationalSeries) -> str:
    """Line-oriented exact dump: header, then one `n num/den` pair per line."""
    lines = [f"# rational-series order={a.order} prefactor_sq={a.prefactor_sq} "
             f"offset={a.offset or 'none'}"]
    for n, c in enumerate(a.coeffs):
        lines.append(f"{n} {c.numerator}/{c.denominator}")
    return "\n".join(lines) + "\n"


def series_from_text(text: str) -> RationalSeries:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# rational-series"):
        raise SeriesError("missing rational-series header")
    fields = dict(tok.split("=", 1) for tok in lines[0].split()[2:])
    order = int(fields["order"])
    prefactor_sq = rat(fields["prefactor_sq"])
    offset = fields.get("offset", "none")
    offset = OFFSET_NONE if offset == "none" else offset
    coeffs = [ZERO] * (order + 1)
    for ln in lines[1:]:
        idx, frac = ln.split()
        coeffs[int(idx)] = rat(frac)
    return RationalSeries(tuple(coeffs), prefactor_sq, offset)
