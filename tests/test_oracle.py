"""The ring operations of `demuskin.localring` against the naive model in
`oracle.py`, at precision N.

Every operand has a shift in [-N, 2N], and each product of two operands a
shift of at least -N, so every result is known at N.  Multiplying through
by pi^c, with c a multiple of e at least every pole order, makes the lifts
of all operands integral; a result is then checked to agree with the model
mod pi^(c'+N), where c' is the power of pi it carries, and its valuation to
be the model's below N and math.inf from N on.

The pi-shift and the reduction `_fold` under every product are checked
exactly, in O_F/pi^Nint, the quotient the digits live in.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from demuskin.linalg import Mat, Poly
from demuskin.localring import LocalElement, _shift_up, make_field
from oracle import Oracle

ORACLE_FIELDS = [make_field(5, 5, 2, 32), make_field(3, 9, 2, 36), make_field(7, 7, 1, 24),
                 make_field(3, 3, 3, 16), make_field(7, 7, 2, 36), make_field(7, 1, 2, 16)]
ORACLE_SETTINGS = settings(max_examples=40, deadline=None)
# q = 1 (e = 1) with f0 = 1 and f0 = 3 besides
FOLD_FIELDS = ORACLE_FIELDS + [make_field(5, 1, 1, 16), make_field(3, 1, 3, 16)]
FOLD_SETTINGS = settings(max_examples=15, deadline=None)


# one model per field, so its table of pi-powers is built once
DIFF_MODELS = {}


def field_ids(f):
    return f"p{f.p}q{f.q}f{f.f0}N{f.N}"


@st.composite
def element(draw, f, lowest=None):
    """A unit, pi^k, all-(pM - 1) or arbitrary digit vector (stripped into
    the shift), or zero, at a shift in [lowest, 2N] (default lowest -N)."""
    shift = draw(st.integers(-f.N if lowest is None else lowest, 2 * f.N))
    kind = draw(st.sampled_from(["unit", "unit", "pi", "top", "any", "zero"]))
    if kind == "zero":
        return f.zero()
    if kind == "pi":
        return LocalElement(f, shift, f._one.digits)
    if kind == "top":
        return LocalElement(f, shift, (f.pM - 1,) * (f.e * f.f0))
    digits = draw(st.lists(st.integers(0, f.pM - 1), min_size=f.e * f.f0, max_size=f.e * f.f0))
    if kind == "unit" and not any(c % f.p for c in digits[:f.f0]):
        digits[0] += 1
    return f.element(shift, tuple(digits))


@st.composite
def product_pair(draw, f):
    """Two elements with shifts in [-N, 2N] whose product shift is at least
    -N."""
    x = draw(element(f))
    return x, draw(element(f, lowest=max(-f.N, -f.N - x.shift)))


@st.composite
def near_pair(draw, f):
    """x drawn by `element`, and y drawn the same way or as x + pi^k z with
    k up to N + 3 past x's shift, so that x - y often vanishes at N or just
    below it."""
    x = draw(element(f))
    if draw(st.booleans()):
        return x, draw(element(f))
    z = draw(element(f)).digits
    return x, x + LocalElement(f, x.shift + draw(st.integers(0, f.N + 3)), z)


def assert_agrees(model, r, want, c):
    """r times pi^c equals want mod pi^(c+N), and r's valuation at N is
    want's, less c."""
    N = r.field.N
    assert model.valuation(model.add(model.lift(r, c), model.neg(want))) >= c + N
    v = model.valuation(want) - c
    assert r.valuation() == (v if v < N else math.inf)


@pytest.mark.parametrize("f", ORACLE_FIELDS, ids=field_ids)
class TestAgainstOracle:
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_add_sub_neg(self, f, data):
        x, y = data.draw(element(f)), data.draw(element(f))
        c = f.N
        model = Oracle(f, 2 * f.N)
        mx, my = model.lift(x, c), model.lift(y, c)
        assert_agrees(model, x + y, model.add(mx, my), c)
        assert_agrees(model, x - y, model.add(mx, model.neg(my)), c)
        assert_agrees(model, -x, model.neg(mx), c)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_diff_valuation(self, f, data):
        """diff_valuation is (x - y).valuation() and the model's valuation
        of x - y (math.inf from N on), for elements and entry by entry for
        a 2x2 Mat and a Poly; == and, on elements and Mats, eq_at agree
        with it."""
        c = f.N
        model = DIFF_MODELS.setdefault(f, Oracle(f, 2 * f.N))

        def want(x, y):
            v = model.valuation(model.add(model.lift(x, c), model.neg(model.lift(y, c)))) - c
            return v if v < f.N else math.inf

        def check(a, b, got, diff, expect):
            assert got == diff == expect
            if not isinstance(a, Poly):
                for t in (0, f.tau, f.N, data.draw(st.integers(-f.N, f.N + 3))):
                    assert a.eq_at(b, t) == (got >= t)
            assert (a == b) == (got == math.inf)

        x, y = data.draw(near_pair(f))
        check(x, y, x.diff_valuation(y), (x - y).valuation(), want(x, y))
        pairs = [data.draw(near_pair(f)) for _ in range(4)]
        a = Mat(f, [[x for x, _ in pairs[:2]], [x for x, _ in pairs[2:]]])
        b = Mat(f, [[y for _, y in pairs[:2]], [y for _, y in pairs[2:]]])
        check(a, b, a.diff_valuation(b), (a - b).min_entry_valuation(),
              min(want(x, y) for x, y in pairs))
        k = data.draw(st.integers(1, 3))
        pairs = [data.draw(near_pair(f)) for _ in range(k)]
        lo = data.draw(st.integers(1, k))  # b may have fewer coefficients
        a, b = Poly(f, [x for x, _ in pairs]), Poly(f, [y for _, y in pairs[:lo]])
        check(a, b, a.diff_valuation(b), (a - b).valuation(),
              min(want(x, y if i < lo else f.zero()) for i, (x, y) in enumerate(pairs)))

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_mul(self, f, data):
        x, y = data.draw(product_pair(f))
        c = f.N
        model = Oracle(f, 3 * f.N)
        assert_agrees(model, x * y, model.mul(model.lift(x, c), model.lift(y, c)), 2 * c)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_dot(self, f, data):
        pairs = data.draw(st.lists(product_pair(f), max_size=8))
        terms = [(x, y, data.draw(st.booleans())) for x, y in pairs]
        # exact cancellations: the negation of some drawn terms
        terms += [(x, y, not neg) for x, y, neg in terms if data.draw(st.booleans())]
        c = f.N
        model = Oracle(f, 3 * f.N)
        want = (0,) * (f.e * f.f0)
        for x, y, neg in terms:
            prod = model.mul(model.lift(x, c), model.lift(y, c))
            want = model.add(want, model.neg(prod) if neg else prod)
        assert_agrees(model, f.dot(terms), want, 2 * c)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_dot_of_nearby_shifts(self, f, data):
        """Products whose shifts lie in [base, base + 2e] share the blocks
        of e shifts that `dot` reduces at once."""
        base = data.draw(st.integers(-f.N, f.N))
        terms = []
        for _ in range(data.draw(st.integers(2, 8))):
            s = data.draw(st.integers(base, base + 2 * f.e))
            sx = data.draw(st.integers(-f.N, 2 * f.N))
            dx, dy = data.draw(element(f)).digits, data.draw(element(f)).digits
            terms.append((LocalElement(f, sx, dx), LocalElement(f, s - sx, dy),
                          data.draw(st.booleans())))
        c = 3 * f.N
        model = Oracle(f, 7 * f.N)
        want = (0,) * (f.e * f.f0)
        for x, y, neg in terms:
            prod = model.mul(model.lift(x, c), model.lift(y, c))
            want = model.add(want, model.neg(prod) if neg else prod)
        assert_agrees(model, f.dot(terms), want, 2 * c)


def digit_vector(f):
    return st.tuples(*[st.integers(0, f.pM - 1)] * (f.e * f.f0))


@pytest.mark.parametrize("f", FOLD_FIELDS, ids=field_ids)
class TestFold:
    @FOLD_SETTINGS
    @given(data=st.data())
    def test_shift_up_is_pi_power_times_digits(self, f, data):
        u = data.draw(digit_vector(f))
        model = Oracle(f, f.Nint)
        want = u
        for k in range(f.Nint + 1):
            assert _shift_up(f, u, k) == want
            want = model.mul(want, model.pi)

    @FOLD_SETTINGS
    @given(data=st.data())
    def test_fold_of_more_rows_than_a_dot_block(self, f, data):
        """Rows as `_reduce_packed` extracts them, 2 f0 - 1 signed
        coefficients of a^j each, but more of them than the 3e - 2 of a
        `dot` block."""
        width = 2 * f.f0 - 1
        coeff = st.integers(-f.pM ** 2, f.pM ** 2)
        rows = data.draw(st.lists(st.lists(coeff, min_size=width, max_size=width),
                                  min_size=3 * f.e - 1, max_size=4 * f.e + 4))
        model = Oracle(f, f.Nint)
        apow = [model.one]
        for _ in range(width - 1):  # a is the digit at index 1 when f0 > 1
            apow.append(model.mul(apow[-1], tuple(int(i == 1) for i in range(f.e * f.f0))))
        want, pik = (0,) * (f.e * f.f0), model.one
        for row in rows:
            for c, aj in zip(row, apow):
                want = model.add(want, model.mul(pik, tuple(c * x for x in aj)))
            pik = model.mul(pik, model.pi)
        assert f._fold([list(r) for r in rows], f.pM) == want
