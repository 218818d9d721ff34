"""The ring operations of `demuskin.localring` against the naive model in
`oracle.py`, at precision N.

Every operand has a shift in [-N, 2N], and each product of two operands a
shift of at least -N.  An operand at shift s is known mod pi^(s+Nint), so
below s = -G (Nint = N + G) some results are known below N only.
Multiplying through by pi^c, with c a multiple of e at least every pole
order, makes the lifts of all operands integral; a result is then checked
to agree with the model mod pi^(c'+min(N, h)), where c' is the power of pi
it carries and h its horizon, and each decision at N (valuation, zero-ness,
comparison) to be the model's, or to raise PrecisionExhaustedError where
the model's answer does not lie below h.  Where every operand and product
shift is at least -G, nothing raises and every result is known at N.

The pi-shift and its schoolbook `_fold`, the packed reduction
`_reduce_packed` under every 2-D product and dot block, and the column
kernel (`_pack_columns`, `_kara_interp`, `_reduce_columns`) of the fields
with wide slots are checked exactly, in O_F/pi^Nint, the quotient the
digits live in, and in each smaller quotient a Newton step of a unit
inverse works in.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from demuskin.linalg import Mat, Poly
from demuskin.localring import (
    COLUMN_SLOT_BITS,
    DOT_TERMS,
    LocalElement,
    NotInvertibleError,
    PrecisionExhaustedError,
    _kara_eval,
    _kara_interp,
    _shift_up,
    make_field,
)
from oracle import Oracle, assert_agrees, assert_known_at_N, decided

ORACLE_FIELDS = [make_field(5, 5, 2, 32), make_field(3, 9, 2, 36), make_field(7, 7, 1, 24),
                 make_field(3, 3, 3, 16), make_field(7, 7, 2, 36), make_field(7, 1, 2, 16)]
ORACLE_SETTINGS = settings(max_examples=40, deadline=None)
# q = 1 (e = 1) with f0 = 1 and f0 = 3 besides
FOLD_FIELDS = ORACLE_FIELDS + [make_field(5, 1, 1, 16), make_field(3, 1, 3, 16)]
FOLD_SETTINGS = settings(max_examples=15, deadline=None)
# and two fields whose residues of pi^k mod p^m lie far below the exact
# coefficients of pi^k mod eis
REDUCE_FIELDS = FOLD_FIELDS + [make_field(3, 27, 1, 72), make_field(5, 25, 1, 80)]


# one model per field, so its table of pi-powers is built once
DIFF_MODELS = {}
INV_MODELS = {}
LIFT_MODELS = {}


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
def product_pair(draw, f, lowest=None):
    """Two elements with shifts in [-N, 2N] whose product shift is at least
    `lowest` (default -N) unless one of them is zero."""
    lowest = -f.N if lowest is None else lowest
    x = draw(element(f))
    return x, draw(element(f, lowest=max(-f.N, lowest - x.shift)))


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
        with it.  On elements all of them raise PrecisionExhaustedError
        together, where the answer does not lie below the horizon; on a Mat
        or Poly each either agrees or raises, and may raise only where some
        entry pair's answer does not lie below its horizon h < N."""
        c = f.N
        model = DIFF_MODELS.setdefault(f, Oracle(f, 2 * f.N))

        def want(x, y):
            v = model.valuation(model.add(model.lift(x, c), model.neg(model.lift(y, c)))) - c
            return v if v < f.N else math.inf

        def check(a, b, got, diff, expect):
            assert got == diff == expect
            for t in (0, f.tau, f.N, data.draw(st.integers(-f.N, f.N + 3))):
                assert a.eq_at(b, t) == (got >= t)
            assert (a == b) == (got == math.inf)

        x, y = data.draw(near_pair(f))
        got = decided(f, want(x, y), min(x.h, y.h), lambda: x.diff_valuation(y))
        if got is None:
            for decide in (lambda: x == y, lambda: x.eq_at(y), (x - y).valuation):
                with pytest.raises(PrecisionExhaustedError):
                    decide()
        else:
            check(x, y, got, (x - y).valuation(), want(x, y))

        def check_entries(a, b, diff, pairs):
            expect = min(want(x, y) for x, y in pairs)
            may_raise = any(min(x.h, y.h) < f.N and want(x, y) >= min(x.h, y.h)
                            for x, y in pairs)

            def ask(decide):
                try:
                    return decide()
                except PrecisionExhaustedError:
                    assert may_raise
                    return None

            assert ask(lambda: a.diff_valuation(b)) in (None, expect)
            assert ask(diff) in (None, expect)
            if not isinstance(a, Poly):
                for t in (0, f.tau, f.N, data.draw(st.integers(-f.N, f.N + 3))):
                    assert ask(lambda: a.eq_at(b, t)) in (None, expect >= t)
            assert ask(lambda: a == b) in (None, expect == math.inf)

        pairs = [data.draw(near_pair(f)) for _ in range(4)]
        a = Mat(f, [[x for x, _ in pairs[:2]], [x for x, _ in pairs[2:]]])
        b = Mat(f, [[y for _, y in pairs[:2]], [y for _, y in pairs[2:]]])
        check_entries(a, b, lambda: (a - b).min_entry_valuation(), pairs)
        k = data.draw(st.integers(1, 3))
        pairs = [data.draw(near_pair(f)) for _ in range(k)]
        lo = data.draw(st.integers(1, k))  # b may have fewer coefficients
        a, b = Poly(f, [x for x, _ in pairs]), Poly(f, [y for _, y in pairs[:lo]])
        check_entries(a, b, lambda: (a - b).valuation(),
                      [(x, y if i < lo else f.zero()) for i, (x, y) in enumerate(pairs)])

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_mul(self, f, data):
        x, y = data.draw(product_pair(f))
        c = f.N
        model = Oracle(f, 3 * f.N)
        assert_agrees(model, x * y, model.mul(model.lift(x, c), model.lift(y, c)), 2 * c)

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_inv(self, f, data):
        """x.inv() against the model's inverse of x's digits: x = pi^s u,
        s in [-N, 2N], has the inverse pi^-s u^-1, and x * x.inv() is one,
        each as `assert_agrees` checks it.  An element that is zero at N is
        not invertible, and inv may raise PrecisionExhaustedError only
        where x's valuation does not lie below its horizon."""
        x = data.draw(element(f))
        model = INV_MODELS.setdefault(f, Oracle(f, 3 * f.N))
        v = model.valuation(model.lift(x, f.N)) - f.N
        try:
            z = decided(f, v if v < f.N else math.inf, x.h, x.inv)
        except NotInvertibleError:
            assert v >= f.N
            return
        assert v < f.N
        if z is None:
            return
        c = 2 * f.N
        u = tuple(d % model.mod for d in x.digits)
        assert_agrees(model, z, model.mul(model.pi_pow(c - x.shift), model.inv(u)), c)
        assert_agrees(model, x * z, model.one, 0)

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

    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_nothing_is_lost_from_shift_minus_G(self, f, data):
        """Operands and products at shift -G or above (the zero is at
        shift 0): every sum, product and dot is known at N, and nothing
        asked of it raises.  A shift here is the one `element` draws: an
        element it strips to a higher shift stays known only to the drawn
        shift + Nint, its h, so a product is kept by h - Nint."""
        x, y = data.draw(element(f, -f.G)), data.draw(element(f, -f.G))
        pairs = [(a, b) for a, b in data.draw(st.lists(product_pair(f, -f.G), max_size=8))
                 if a.h + b.h - 2 * f.Nint >= -f.G]
        terms = [(a, b, data.draw(st.booleans())) for a, b in pairs]
        terms += [(a, b, not neg) for a, b, neg in terms if data.draw(st.booleans())]
        assert_known_at_N(x + y, x - y, -x, f.dot(terms), *(a * b for a, b in pairs))
        x.diff_valuation(y), x.eq_at(y), x == y


@st.composite
def two_lifts(draw, f):
    """An element known only mod pi^h, h drawn from its shift up to
    shift + Nint, and another lift of the same value: pi^h z added, which
    changes its digits from relative depth h - shift on."""
    x = draw(element(f))
    h = draw(st.integers(x.shift, x.shift + f.Nint))
    if h < x.h:
        x = x._at(h)
    return x, x + LocalElement(f, h, draw(element(f)).digits)


@pytest.mark.parametrize("f", ORACLE_FIELDS, ids=field_ids)
class TestHorizonBoundsTheLift:
    @ORACLE_SETTINGS
    @given(data=st.data())
    def test_results_agree_below_their_horizon_whatever_the_lift(self, f, data):
        """Each operand is replaced by another lift of what it is known to
        be: every sum, product, dot and inverse is the same mod
        pi^min(N, h) for the horizon h of either result, and where both
        decide a valuation they decide the same one."""
        (x, x2), (y, y2) = data.draw(two_lifts(f)), data.draw(two_lifts(f))
        negs = [data.draw(st.booleans()) for _ in range(3)]

        def ops(x, y):
            out = [x + y, x - y, x * y,
                   f.dot([(x, y, negs[0]), (y, x, negs[1]), (x, x, negs[2])])]
            try:
                out.append(x.inv())
            except (PrecisionExhaustedError, NotInvertibleError):
                pass
            return out

        def valuation(r):
            try:
                return r.valuation()
            except PrecisionExhaustedError:
                return None

        c = 3 * f.N
        model = LIFT_MODELS.setdefault(f, Oracle(f, 7 * f.N))
        for r, r2 in zip(ops(x, y), ops(x2, y2)):
            h = min(f.N, max(r.h, r2.h))
            assert model.valuation(model.add(model.lift(r, c), model.neg(model.lift(r2, c)))) >= c + h
            assert None in (valuation(r), valuation(r2)) or valuation(r) == valuation(r2)


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
    def test_packed_fold_is_the_shift_up_fold(self, f, data):
        """A digit vector moved up by b pi-rows, b < 2e - 1, as `dot` moves
        a packed product: the packed reduction and the schoolbook fold of
        `_shift_up` give the same digits."""
        u = data.draw(digit_vector(f))
        for b in range(2 * f.e - 1):
            assert f._reduce_packed(f._pack(u) << b * f._lay.rowbits) == _shift_up(f, u, b)

    @FOLD_SETTINGS
    @given(data=st.data())
    def test_fold_of_more_rows_than_a_dot_block(self, f, data):
        """Rows of f0 signed coefficients of a^j, wider than digits, and
        more of them than the 3e - 2 of a `dot` block."""
        coeff = st.integers(-f.pM ** 2, f.pM ** 2)
        rows = data.draw(st.lists(st.lists(coeff, min_size=f.f0, max_size=f.f0),
                                  min_size=3 * f.e - 1, max_size=4 * f.e + 4))
        model = Oracle(f, f.Nint)
        want, pik = (0,) * (f.e * f.f0), model.one
        for row in rows:
            row_digits = tuple(row) + (0,) * ((f.e - 1) * f.f0)
            want = model.add(want, model.mul(pik, tuple(c % model.mod for c in row_digits)))
            pik = model.mul(pik, model.pi)
        assert f._fold([list(r) for r in rows], f.pM) == want


# (field, m) -> model of O_F/pi^(e m) and its images of pi^k a^j
REDUCE_MODELS = {}


def model_images(f, m):
    """(model, images): the model of O_F/pi^(e m), and images[k][j] its
    pi^k a^j for every pi-row k a product or dot block can have (k < 3e -
    2, and k <= e at least) and every a-column j < 2 f0 - 1."""
    if (f, m) not in REDUCE_MODELS:
        model = Oracle(f, f.e * m)
        apow = [model.one]
        for _ in range(2 * f.f0 - 2):  # a is the digit at index 1 when f0 > 1
            apow.append(model.mul(apow[-1], tuple(int(i == 1) for i in range(f.e * f.f0))))
        images = [[model.mul(model.pi_pow(k), aj) for aj in apow]
                  for k in range(max(3 * f.e - 2, f.e + 1))]
        REDUCE_MODELS[f, m] = model, images
    return REDUCE_MODELS[f, m]


def layouts(f):
    """(layout, model, images) for the full packing layout and each layout
    of a Newton step, as `model_images` gives them."""
    f._dig_inv(f._one.digits)  # builds every Newton layout
    return [(f._layouts[m], *model_images(f, m)) for m in sorted(f._layouts)]


def slot_bound(f, lay):
    """The largest slot `_reduce_packed` takes: a convolution coefficient,
    or in the full layout DOT_TERMS of them plus the offset of `dot`."""
    top = f.e * f.f0 * (lay.mod - 1) ** 2
    return 2 * DOT_TERMS * top + lay.mod if lay is f._lay else top


def pack_rows(lay, rows):
    """Packed integer of rows of 2 f0 - 1 slots each."""
    w = 8 * lay.bb
    return sum(c << k * lay.rowbits + j * w for k, row in enumerate(rows) for j, c in enumerate(row))


def image(model, images, rows):
    """The model's sum_k pi^k sum_j rows[k][j] a^j."""
    want = (0,) * (model.e * model.f0)
    for row, imgs in zip(rows, images):
        for c, img in zip(row, imgs):
            if c:
                want = model.add(want, tuple(c * x for x in img))
    return want


def signed_slots(packed, width, count):
    """The `count` signed coefficients of a sum of c_i 2^(i*width)."""
    out = []
    for _ in range(count):
        c = packed & ((1 << width) - 1)
        if c >> (width - 1):
            c -= 1 << width
        out.append(c)
        packed = (packed - c) >> width
    assert packed == 0
    return out


@pytest.mark.parametrize("f", REDUCE_FIELDS, ids=field_ids)
class TestPackedReduction:
    @FOLD_SETTINGS
    @given(data=st.data())
    def test_products_and_dot_blocks(self, f, data):
        """One packed product in any layout, or in the full layout a dot
        block as `_dot_digits` builds it: the offset of row offset b < e
        plus up to DOT_TERMS signed products, each moved up by at most b
        pi-rows, of all-(mod - 1), random or zero digit vectors."""
        lays = layouts(f)
        lay, model, _ = data.draw(st.sampled_from(lays))
        rng = data.draw(st.randoms(use_true_random=False))
        kinds = st.sampled_from(["top", "random", "zero"])

        def factor(kind):
            if kind == "top":
                return (lay.mod - 1,) * (f.e * f.f0)
            if kind == "zero":
                return (0,) * (f.e * f.f0)
            return tuple(rng.randrange(lay.mod) for _ in range(f.e * f.f0))

        if lay is not f._lay:
            x, y = factor(data.draw(kinds)), factor(data.draw(kinds))
            assert f._reduce_packed(f._pack(x, lay) * f._pack(y, lay), lay) == model.mul(x, y)
            return
        b = data.draw(st.integers(0, f.e - 1))
        n = data.draw(st.one_of(st.integers(1, 6), st.just(DOT_TERMS)))
        xkind, ykind = data.draw(kinds), data.draw(kinds)
        z, want = f._offsets[b], (0,) * (f.e * f.f0)
        for _ in range(n):
            x, y, s, neg = factor(xkind), factor(ykind), rng.randint(0, b), rng.random() < 0.5
            t = f._pack(x) * f._pack(y) << s * lay.rowbits
            prod = model.mul(model.pi_pow(s), model.mul(x, y))
            z, want = (z - t, model.add(want, model.neg(prod))) if neg else (z + t, model.add(want, prod))
        assert f._reduce_packed(z) == want

    def test_extreme_slots(self, f):
        """Every layout against the model, on the corners of the input box
        (each slot 0 or the largest value it may hold, over every row a dot
        block can have) where a digit slot, or a slot of a column a^j with
        j >= f0 before its fold, takes its least or its largest value: the
        offset must keep every slot nonnegative there, and the slot width
        must hold it.  The residues the layout folds with must be the
        symmetric residues mod its modulus."""
        e, f0, S = f.e, f.f0, 2 * f.f0 - 1
        for lay, model, images in layouts(f):
            mod, top, rows = lay.mod, slot_bound(f, lay), len(images)

            def sym(c):
                return (c + mod // 2) % mod - mod // 2

            # r[k][i], the coefficient of pi^i in pi^k, and a[j][m], of a^m in a^j
            r = [[sym(images[k][0][i * f0]) for i in range(e)] for k in range(rows)]
            a = [[sym(images[0][j][m]) for m in range(f0)] for j in range(S)]
            assert [signed_slots(pk, lay.rowbits, e) for pk in lay.pis] == r[e:]
            assert [signed_slots(aj, 8 * lay.bb, f0) for _, aj in lay.apows] == a[f0:]
            for i in range(e):
                for m in range(S):
                    # weight of input slot (k, j) in slot (i, m): pi-fold, then a-fold
                    weight = [[r[k][i] * (a[j][m] if m < f0 else j == m) for j in range(S)]
                              for k in range(rows)]
                    for sign in (1, -1):
                        grid = [[top if sign * w > 0 else 0 for w in row] for row in weight]
                        assert f._reduce_packed(pack_rows(lay, grid), lay) == image(model, images, grid)

    def test_full_slots_of_one_batch(self, f):
        """DOT_TERMS products of all-(pM - 1) digit vectors, all of one sign,
        all at row offset 0 or all at b, with the offset of row offset b."""
        lay, model, _ = layouts(f)[-1]
        assert lay is f._lay
        top = (f.pM - 1,) * (f.e * f.f0)
        t = f._pack(top) * f._pack(top)
        for b in range(f.e):
            for s in {0, b}:
                want = tuple(DOT_TERMS * c % model.mod
                             for c in model.mul(model.pi_pow(s), model.mul(top, top)))
                z = DOT_TERMS * t << s * lay.rowbits
                assert f._reduce_packed(f._offsets[b] + z) == want
                assert f._reduce_packed(f._offsets[b] - z) == model.neg(want)


# fields whose full layout has slots of COLUMN_SLOT_BITS or more, so they
# multiply by a-columns: e = 4, f0 = 2; e = 2, f0 = 3 (Karatsuba splits the
# three columns unevenly); e = 6, f0 = 2
COLUMN_FIELDS = [make_field(5, 5, 2, 256), make_field(3, 3, 3, 256), make_field(7, 7, 2, 402)]


def test_slot_width_picks_the_kernel():
    """The 88- and 80-bit slots of (7,7,2,36) and (5,5,2,32) keep the 2-D
    kernel; the 1232-bit slots of (5,5,2,1024) take columns, and so do the
    256-bit slots of (3,9,2,402) and the COLUMN_FIELDS; e = 1 or f0 = 1
    keeps the 2-D kernel however wide the slots, as its pack has no gap."""
    for f in (make_field(7, 7, 2, 36), make_field(5, 5, 2, 32)):
        assert 8 * f._lay.bb < COLUMN_SLOT_BITS and f._col is None
    for f in (make_field(5, 5, 2, 1024), make_field(3, 9, 2, 402), *COLUMN_FIELDS):
        assert 8 * f._lay.bb >= COLUMN_SLOT_BITS and f._col is not None
    for f in (make_field(7, 1, 2, 256), make_field(5, 5, 1, 1024)):
        assert 8 * f._lay.bb >= COLUMN_SLOT_BITS and f._col is None


@pytest.mark.parametrize("f", COLUMN_FIELDS, ids=field_ids)
class TestColumnKernel:
    @FOLD_SETTINGS
    @given(data=st.data())
    def test_products_and_dot_blocks(self, f, data):
        """One product, or a dot block as `_dot_digits` builds it: up to
        DOT_TERMS signed products, each moved up by at most b < e pi-rows,
        of all-(pM - 1), random or zero digit vectors, summed over their
        Karatsuba evaluations and reduced once.  The column kernel gives
        the model's digits, and the 2-D kernel's on the same block."""
        model, _ = model_images(f, f.Nint // f.e)
        rng = data.draw(st.randoms(use_true_random=False))
        kinds = st.sampled_from(["top", "random", "zero"])

        def factor(kind):
            if kind == "top":
                return (f.pM - 1,) * (f.e * f.f0)
            if kind == "zero":
                return (0,) * (f.e * f.f0)
            return tuple(rng.randrange(f.pM) for _ in range(f.e * f.f0))

        if data.draw(st.booleans()):
            x, y = factor(data.draw(kinds)), factor(data.draw(kinds))
            got = f._mul_columns(f._pack_columns(x), f._pack_columns(y))
            assert got == model.mul(x, y) == f._dig_mul_packed(f._pack(x), f._pack(y))
            return
        b = data.draw(st.integers(0, f.e - 1))
        n = data.draw(st.one_of(st.integers(1, 6), st.just(DOT_TERMS)))
        xkind, ykind = data.draw(kinds), data.draw(kinds)
        vals, z, want = None, f._offsets[b], (0,) * (f.e * f.f0)
        for _ in range(n):
            x, y, s, neg = factor(xkind), factor(ykind), rng.randint(0, b), rng.random() < 0.5
            # x*y moved up by s pi-rows, as `_dot_digits` forms it
            ev = [a * c << s * f._col.w
                  for a, c in zip(_kara_eval(f._pack_columns(x)), _kara_eval(f._pack_columns(y)))]
            t = f._pack(x) * f._pack(y) << s * f._lay.rowbits
            prod = model.mul(model.pi_pow(s), model.mul(x, y))
            if neg:
                ev, t, prod = [-c for c in ev], -t, model.neg(prod)
            vals = ev if vals is None else [v + c for v, c in zip(vals, ev)]
            z, want = z + t, model.add(want, prod)
        assert f._reduce_columns(_kara_interp(vals, f.f0), b) == want == f._reduce_packed(z)

    def test_extreme_slots(self, f):
        """The column reduction against the model on the corners of its
        input box: 2 f0 - 1 columns of 2e - 1 + b rows for every row offset
        b < e, each slot 0 or +-big, big = DOT_TERMS e f0 (pM - 1)^2 (the
        largest |slot| of a signed batch), signed so that a digit slot, or
        a slot of a low column after its a-fold, takes its least or its
        largest value: the offsets must keep every slot the pi-fold splits
        nonnegative, and the slot width must hold them.  The coefficients
        the layout folds with must be the symmetric residues mod pM."""
        e, f0, S, col = f.e, f.f0, 2 * f.f0 - 1, f._col
        model, images = model_images(f, f.Nint // f.e)
        mod, big = model.mod, DOT_TERMS * f.e * f.f0 * (f.pM - 1) ** 2

        def sym(c):
            return (c + mod // 2) % mod - mod // 2

        # r[k][i], the coefficient of pi^i in pi^k, and a[k][j], of a^j in a^k
        r = [[sym(images[k][0][i * f0]) for i in range(e)] for k in range(len(images))]
        a = [[sym(images[0][k][j]) for j in range(f0)] for k in range(S)]
        assert [[dict((sh // col.w, c) for sh, c in row).get(i, 0) for i in range(e)]
                for row in col.pifold] == r[e:len(col.pifold) + e]
        assert [dict(fold) for fold in col.afold] == [
            {k: a[k][j] for k in range(f0, S) if a[k][j]} for j in range(f0)]
        # weight of column k in low column j after the a-fold
        afold = [[1 if k == j else a[k][j] if k >= f0 else 0 for k in range(S)] for j in range(f0)]
        for b in range(e):
            rows = 2 * e - 1 + b
            targets = [[r[k][i] if k >= e else int(k == i) for k in range(rows)]
                       for i in range(e)]  # weight of row k in digit row i
            targets += [[int(k == m) for k in range(rows)] for m in range(rows)]  # row m itself
            for j in range(f0):
                for rowweight in targets:
                    for sign in (1, -1):
                        grid = [[big * (sign * w > 0) - big * (sign * w < 0)
                                 for w in (rw * aw for aw in afold[j])] for rw in rowweight]
                        cols = [sum(grid[k][m] << k * col.w for k in range(rows)) for m in range(S)]
                        assert f._reduce_columns(cols, b) == image(model, images, grid)
