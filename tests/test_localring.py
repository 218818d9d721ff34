import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from demuskin.localring import (
    DOT_TERMS,
    FieldDescriptor,
    LocalElement,
    NotIntegralError,
    NotInvertibleError,
    PrecisionExhaustedError,
    SquareRootError,
    UnsupportedParametersError,
    _mask_digits,
    _poly_is_irreducible,
    _shift_up,
    _vp_int,
    enumerate_mu_q,
    find_irreducible_poly,
    hensel_sqrt,
    make_field,
    mu_q_index,
    reduce_mod_m,
)
from oracle import Oracle, assert_agrees, assert_known_at_N


@pytest.fixture(scope="module")
def f33():
    return make_field(3, 3, 1, 32)


@pytest.fixture(scope="module")
def f55():
    return make_field(5, 5, 1, 32)


def unramified_generator(field):
    """The generator a of the unramified part: digit 1 at a^1."""
    d = [0] * (field.e * field.f0)
    d[1] = 1
    return field.element(0, tuple(d))


def truncate(x, depth):
    """x with all digits from pi-valuation `depth` upward forgotten."""
    f = x.field
    if x.is_zero() or x.shift >= depth:
        return f.zero()
    return f.element(x.shift, _mask_digits(f, x.digits, depth - x.shift))


def random_element(rng, field, shift=0):
    return field.element(shift, tuple(rng.randrange(field.pM)
                                      for _ in range(field.e * field.f0)))


class TestMakeField:
    def test_eisenstein_for_q3(self, f33):
        # expanding (1+pi)^3 = 1 and dividing off the degree-1 factor
        # leaves pi^2 + 3 pi + 3
        assert f33.e == 2
        assert f33.eis == (3, 3)
        assert f33.from_int(3).valuation() == 2

    def test_q1_is_unramified(self):
        f = make_field(5, 1, 1, 16)
        assert f.e == 1
        assert f.from_int(5).valuation() == 1
        assert (f.uniformizer() - 5).is_zero()

    def test_q2_rejected(self):
        with pytest.raises(UnsupportedParametersError):
            make_field(3, 2, 1, 32)

    def test_q_not_p_power_rejected(self):
        with pytest.raises(UnsupportedParametersError):
            make_field(3, 5, 1, 32)
        with pytest.raises(UnsupportedParametersError):
            make_field(3, 6, 1, 32)

    def test_precision_floor(self):
        with pytest.raises(UnsupportedParametersError):
            make_field(3, 3, 1, 7)

    def test_q5_eisenstein(self, f55):
        assert f55.e == 4
        assert f55.eis == (5, 10, 10, 5)

    def test_precision_rounds_up_to_multiple_of_e(self):
        f = make_field(3, 3, 1, 33)
        assert f.N == 34 and f.M == 17

    def test_one_field_per_parameter_set(self):
        f = make_field(5, 5, 2, 32)
        assert make_field(5, 5, 2, 30) is f
        assert make_field(5, 5, 2, 32, tau=f.tau) is f
        g = make_field(5, 5, 2, 32, tau=f.tau + 1)
        assert g is not f and g != f
        assert g.tau == f.tau + 1


class TestArith:
    def test_inv_one(self, f33):
        assert f33.one().inv() == f33.one()

    def test_inv_four_is_unit(self, f33):
        x = f33.from_int(4)
        y = x.inv()
        assert y.valuation() == 0
        assert (x * y - 1).is_zero()

    def test_inv_uniformizer_shifts(self, f33):
        pi = f33.uniformizer()
        assert pi.inv().shift == -1
        assert (pi.inv() * pi - 1).is_zero()

    def test_inv_of_zero_raises(self, f33):
        with pytest.raises(NotInvertibleError):
            f33.zero().inv()

    def test_ring_axioms_spot(self, f33):
        rng = random.Random(7)
        for _ in range(50):
            a = random_element(rng, f33)
            b = random_element(rng, f33)
            c = random_element(rng, f33)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a - a).is_zero()

    def test_double_inverse(self, f33):
        rng = random.Random(8)
        for _ in range(50):
            a = random_element(rng, f33)
            if a.valuation() != 0:
                continue
            assert a.inv().inv() == a

    def test_valuation_additivity(self, f33):
        rng = random.Random(9)
        cap = f33.N // 4
        for _ in range(1000):
            a = random_element(rng, f33, shift=rng.randrange(cap))
            b = random_element(rng, f33, shift=rng.randrange(cap))
            if a.is_zero() or b.is_zero():
                continue
            if a.valuation() < cap and b.valuation() < cap:
                assert (a * b).valuation() == a.valuation() + b.valuation()

    def test_eq_at_threshold(self, f33):
        pi = f33.uniformizer()
        a = f33.one()
        b = f33.one() + pi ** f33.tau
        assert a.eq_at(b)
        assert not a.eq_at(f33.one() + pi ** (f33.tau - 1))

    def test_truncate_keeps_exactly_the_digits_below_depth(self, f55):
        # the coefficient of pi^i survives truncation at depth d mod
        # p^ceil((d - shift - i)/e), which keeps the value mod pi^d
        rng = random.Random(6)
        for depth in (1, 7, 12, 21):
            x = random_element(rng, f55)
            t = truncate(x, depth)
            assert (x - t).valuation() >= depth
            digits = t.to_json(f55.N)[1:] if not t.is_zero() else ()
            for i, c in enumerate(digits[:f55.e]):
                k = -(-(depth - t.shift - i) // f55.e)
                assert int(c) < f55.p ** max(k, 0)

    def test_sum_keeps_summand_past_N_at_negative_shift(self, f33):
        # relative to pi^-3 the summand pi^30 sits at depth 33 > N, inside
        # the guard band, but its absolute valuation 30 is below N
        pi = f33.uniformizer()
        a = pi ** -3
        b = pi ** 30
        assert ((a + b) - a).valuation() == 30
        assert not (a + b == a)

    def test_mix_fields_rejected(self, f33, f55):
        with pytest.raises(ValueError):
            f33.one() + f55.one()


class TestMuQ:
    def test_q1(self):
        f = make_field(5, 1, 1, 16)
        assert enumerate_mu_q(f) == (f.one(),)

    def test_q3_powers_of_one_plus_pi(self, f33):
        mus = enumerate_mu_q(f33)
        z = f33.zeta()
        assert mus[0] == f33.one()
        assert mus[1] == z
        assert mus[2] == z * z
        for x in mus:
            assert (x ** 3 - 1).is_zero()
            assert reduce_mod_m(x) == 1

    def test_pairwise_distinct_at_half_precision(self, f55):
        mus = enumerate_mu_q(f55)
        assert len(mus) == 5
        for i in range(5):
            for j in range(i):
                assert (mus[i] - mus[j]).valuation() < f55.N // 2

    def test_index_lookup(self, f55):
        mus = enumerate_mu_q(f55)
        for j, x in enumerate(mus):
            assert mu_q_index(x) == j
        pi = f55.uniformizer()
        assert mu_q_index(mus[2] + pi ** (f55.N - 2)) == 2

    def test_exact_root_matches(self, f33):
        assert mu_q_index(f33.one()) == 0
        assert mu_q_index(f33.zeta()) == 1

    def test_perturbed_zeta_below_threshold_matches_nothing(self, f33):
        # theta = max(r + 1, tau - v(3)) = 22 on (3,3,1,32): zeta + pi^10 is
        # no q-th root of unity at tau, as v(x^3 - 1) = v(3) + 10 = 12
        x = f33.zeta() + f33.uniformizer() ** 10
        assert mu_q_index(x) is None
        assert (x ** 3 - 1).valuation() == 12

    def test_truncated_zeta5_matches(self, f55):
        assert mu_q_index(truncate(f55.zeta(), 12)) == 1

    def test_non_root_unit_matches_nothing(self, f33):
        assert mu_q_index(f33.from_int(2)) is None

    def test_non_unit_matches_nothing(self, f33):
        assert mu_q_index(f33.uniformizer()) is None


def _monic(p, deg):
    """Every monic polynomial of the given degree over F_p, lowest
    coefficient first."""
    for code in range(p ** deg):
        yield [(code // p ** i) % p for i in range(deg)] + [1]


def _has_factor(f, p):
    """Brute force: some monic g with 1 <= deg g <= deg f / 2 divides f."""
    for dg in range(1, (len(f) - 1) // 2 + 1):
        for g in _monic(p, dg):
            r = list(f)
            for k in range(len(r) - 1, dg - 1, -1):
                c = r[k]
                for i in range(dg + 1):
                    r[k - dg + i] = (r[k - dg + i] - c * g[i]) % p
            if not any(r):
                return True
    return False


class TestIrreducible:
    CASES = [(2, d) for d in range(2, 7)] + [(3, d) for d in range(2, 7)] \
        + [(5, d) for d in range(2, 5)]

    @pytest.mark.parametrize("p,deg", CASES)
    def test_matches_trial_division(self, p, deg):
        wrong = [f for f in _monic(p, deg)
                 if _poly_is_irreducible(tuple(f[:-1]), p) == _has_factor(f, p)]
        assert wrong == []

    @pytest.mark.parametrize("p,deg", CASES)
    def test_finds_smallest_irreducible(self, p, deg):
        first = next(f for f in _monic(p, deg) if not _has_factor(f, p))
        assert find_irreducible_poly(p, deg) == tuple(first[:-1])

    def test_field_with_inertia_degree_three(self):
        f = make_field(3, 3, 3, 16)
        a = unramified_generator(f)
        assert a * a.inv() == f.one()
        assert reduce_mod_m(a) == 3


class TestReduce:
    def test_values(self, f33):
        assert reduce_mod_m(f33.one()) == 1
        assert reduce_mod_m(f33.uniformizer()) == 0
        assert reduce_mod_m(f33.zeta()) == 1
        assert reduce_mod_m(f33.from_int(5)) == 2

    def test_pole_rejected(self, f33):
        with pytest.raises(NotIntegralError):
            reduce_mod_m(f33.uniformizer().inv())

    def test_residue_field_f9(self):
        f = make_field(3, 3, 2, 32)
        a = unramified_generator(f)
        assert reduce_mod_m(a) == 3  # encodes the class of the generator
        assert reduce_mod_m(a * a + 1) == 0  # a^2 = -1 for the chosen polynomial


class TestTameRootsAndSqrt:
    def test_sqrt_of_exact_square(self):
        f = make_field(3, 3, 2, 32)
        rng = random.Random(3)
        for _ in range(20):
            a = random_element(rng, f, shift=rng.randrange(3))
            y = a * a
            r = hensel_sqrt(y)
            assert (r * r - y).is_zero()

    def test_sqrt_odd_valuation(self, f33):
        with pytest.raises(SquareRootError):
            hensel_sqrt(f33.uniformizer())


class TestSerialization:
    def test_roundtrip(self, f55):
        rng = random.Random(4)
        for _ in range(20):
            x = random_element(rng, f55, shift=rng.randrange(-3, 5))
            blob = x.to_json(f55.N)
            assert LocalElement.from_json(f55, blob) == x

    def test_digits_masked_at_relative_depth(self, f55):
        # absolute precision N: the coefficient of pi^i is published
        # mod p^ceil((N - shift - i)/e)
        rng = random.Random(5)
        for shift in (-3, 0, 5):
            x = random_element(rng, f55, shift=shift)
            s, *digits = x.to_json(f55.N)
            for i in range(f55.e):
                k = -(-(f55.N - s - i) // f55.e)
                assert int(digits[i]) < f55.p ** k

    def test_digit_strings(self, f33):
        blob = f33.zeta().to_json(f33.N)
        assert blob[0] == 0
        assert len(blob) == 1 + f33.e * f33.f0
        assert all(isinstance(s, str) for s in blob[1:])

    def test_only_what_to_json_writes_parses(self, f55):
        """A digit string that is not str(int(s)), a digit not masked at
        N - shift (or not below pM), a digit vector that is not a unit, or
        a shift below -G (an element not known at N) is no element's
        JSON."""
        f = f55
        good = [3, "7", "1", *["0"] * (f.e * f.f0 - 2)]
        assert LocalElement.from_json(f, good).to_json(f.N) == good
        top = f.p ** -(-(f.N - 3) // f.e)  # row 0 is masked mod this
        bad = [[3, "07", *good[2:]], [3, "+7", *good[2:]], [3, " 7", *good[2:]],
               [3, "7.0", *good[2:]], [3, str(top + 7), *good[2:]], [3, "-1", *good[2:]],
               [3, "5", "10", *good[3:]], [3, "0", *good[2:]],
               [f.N, "1", *good[2:]], [-f.G - 1, "1", *good[2:]],
               [-f.G, str(f.pM + 1), *good[2:]]]
        for obj in bad:
            with pytest.raises(ValueError):
                LocalElement.from_json(f, obj)
        low = [-f.G, "1", *good[2:]]
        assert LocalElement.from_json(f, low).to_json(f.N) == low

    def test_zero_at_N_is_written_as_0(self, f33):
        pi = f33.uniformizer()
        for x in (f33.zero(), pi ** f33.N, pi.inv() * pi ** (f33.N + 1)):
            assert x.to_json(f33.N) == 0
        assert LocalElement.from_json(f33, 0) is f33.zero()


class TestHorizon:
    def test_a_pole_past_the_guard_is_known_below_N(self, f33):
        """pi^-(G+1) is known mod pi^(N-1): its valuation lies below that
        and is decided, but its digits at N and its difference with itself
        are not.  Multiplied back by pi^(G+1) it is known at Nint again."""
        f = f33
        pole = f.uniformizer() ** -(f.G + 1)
        assert (pole.shift, pole.h) == (-(f.G + 1), f.N - 1)
        assert pole.valuation() == -(f.G + 1)
        for decide in (lambda: pole.to_json(f.N), (pole - pole).is_zero, lambda: pole == pole):
            with pytest.raises(PrecisionExhaustedError):
                decide()
        back = pole * f.uniformizer() ** (f.G + 1)
        assert back.h == f.Nint
        assert back == f.one() and back.to_json(f.N) == f.one().to_json(f.N)

    def test_a_dropped_term_caps_the_horizon(self):
        """1 + pi^35 at N = 32 is 1 with pi^35 left out, so it is known to
        pi^35 only, and so is the dot that leaves out the product pi^35.
        Times pi^-4 it is known to pi^31, where it differs from
        pi^-4 + pi^31: its bytes and the comparison raise instead of
        publishing or reading that digit."""
        f = make_field(5, 5, 2, 32)
        x, y, z = f.one(), f.uniformizer() ** 35, f.uniformizer() ** -4
        assert (x + y).h == (y + x).h == 35
        assert f.dot([(x, x, False), (y, x, False)]).h == 35
        a, b = (x + y) * z, x * z + y * z
        assert (a.h, b.h) == (31, f.Nint - 4)
        assert b.diff_valuation(z) == 31
        for decide in (lambda: a.to_json(f.N), lambda: a == b, lambda: a.diff_valuation(b)):
            with pytest.raises(PrecisionExhaustedError):
                decide()

    @pytest.mark.parametrize("p,q,f0,N,G,Nint", [
        (5, 5, 2, 32, 16, 48), (7, 7, 2, 36, 18, 54), (5, 5, 2, 1024, 16, 1040),
        (5, 1, 1, 16, 16, 32)])
    def test_guard_rule(self, p, q, f0, N, G, Nint):
        """G = e*ceil(16/e), on the fields of the three workloads and one
        with e = 1."""
        f = make_field(p, q, f0, N)
        assert (f.G, f.Nint, f.pM) == (G, Nint, p ** (Nint // f.e))


STRIP_FIELDS = [make_field(5, 5, 2, 32), make_field(3, 9, 2, 36), make_field(7, 7, 1, 24),
                make_field(3, 3, 3, 16), make_field(7, 1, 2, 16)]
STRIP_SETTINGS = settings(max_examples=60, deadline=None)


def field_ids(f):
    return f"p{f.p}q{f.q}f{f.f0}N{f.N}"


@st.composite
def unit_and_depth(draw, f, lowest=0):
    """A unit digit vector of f and a depth v in [lowest, Nint)."""
    u = draw(st.lists(st.integers(0, f.pM - 1), min_size=f.e * f.f0,
                      max_size=f.e * f.f0))
    if not any(c % f.p for c in u[:f.f0]):
        u[0] += 1
    return tuple(u), draw(st.integers(lowest, f.Nint - 1))


def vp_by_division(c, p):
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


class TestStrip:
    @pytest.mark.parametrize("f", STRIP_FIELDS, ids=field_ids)
    @STRIP_SETTINGS
    @given(data=st.data())
    def test_strip_undoes_shift_below_known_depth(self, f, data):
        u, v = data.draw(unit_and_depth(f))
        x = _shift_up(f, u, v)
        got = f._dig_strip(x, v)
        by_pi = x
        for _ in range(v):
            by_pi = f._dig_div_pi(by_pi)
        known = f.Nint - v
        assert _mask_digits(f, got, known) == _mask_digits(f, u, known)
        assert _mask_digits(f, got, known) == _mask_digits(f, by_pi, known)

    @pytest.mark.parametrize("f", STRIP_FIELDS, ids=field_ids)
    @STRIP_SETTINGS
    @given(data=st.data())
    def test_strip_past_the_valuation_raises(self, f, data):
        u, v = data.draw(unit_and_depth(f, lowest=1))
        with pytest.raises(NotIntegralError):
            f._dig_strip(_shift_up(f, u, v - 1), v)

    @STRIP_SETTINGS
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 300), st.integers(1, 10 ** 40))
    def test_vp_int_matches_division_loop(self, p, k, m):
        c = p ** k * m
        assert _vp_int(c, p) == vp_by_division(c, p)


def full_width_inverse(f, u):
    """Reference unit inverse: the same Newton iteration with every step on
    full-width products mod pM."""
    z = f._k_inv(tuple(c % f.p for c in u[:f.f0])) + (0,) * ((f.e - 1) * f.f0)
    for _ in range(math.ceil(math.log2(f.Nint))):
        t = f._dig_mul(u, z)
        z = f._dig_mul(z, tuple((2 * (i == 0) - c) % f.pM for i, c in enumerate(t)))
    return z


INV_FIELDS = STRIP_FIELDS + [make_field(5, 5, 2, 1024)]


def is_reduced(f, x):
    return all(0 <= c < f.pM for c in x.digits)


class TestUnitInverse:
    @pytest.mark.parametrize("f", INV_FIELDS, ids=field_ids)
    @STRIP_SETTINGS
    @given(data=st.data())
    def test_inverse_matches_full_width_newton(self, f, data):
        u, _ = data.draw(unit_and_depth(f))
        assert f._dig_inv(u) == full_width_inverse(f, u)

    @pytest.mark.parametrize("f", STRIP_FIELDS, ids=field_ids)
    @STRIP_SETTINGS
    @given(data=st.data())
    def test_pi_power_multiplies_and_inverts_as_a_shift(self, f, data):
        u, _ = data.draw(unit_and_depth(f))
        s = data.draw(st.integers(-f.N, 2 * f.N))
        k = data.draw(st.integers(-f.N, 2 * f.N))
        x = LocalElement(f, s, u)
        pik = f.uniformizer() ** k
        assert (pik.shift, pik.digits) == (k, f._one.digits)
        want = f._dig_mul_packed(f._pack(u), f._pack(pik.digits))
        for prod in (x * pik, pik * x):
            assert (prod.shift, prod.digits) == (s + k, want)
        if k < f.N:
            assert (pik.inv().shift, pik.inv().digits) == (-k, f._dig_inv(pik.digits))

    @pytest.mark.parametrize("f", INV_FIELDS, ids=field_ids)
    @STRIP_SETTINGS
    @given(data=st.data())
    def test_non_unit_digit_vectors_are_refused(self, f, data):
        """A digit vector of positive valuation, or zero, has no inverse:
        `_dig_inv` raises NotInvertibleError, with the message the final
        u*z == 1 check used to give."""
        u, v = data.draw(unit_and_depth(f, lowest=1))
        for x in (_shift_up(f, u, v), (0,) * (f.e * f.f0)):
            with pytest.raises(NotInvertibleError, match="inversion failed at working precision"):
                f._dig_inv(x)

    @pytest.mark.parametrize("f", STRIP_FIELDS, ids=field_ids)
    @STRIP_SETTINGS
    @given(data=st.data())
    def test_every_result_digit_is_reduced(self, f, data):
        shifts = st.integers(-f.N, 2 * f.N)
        digits = st.tuples(*[st.integers(0, f.pM - 1)] * (f.e * f.f0))
        x = f.element(data.draw(shifts), data.draw(digits))
        u, v = data.draw(unit_and_depth(f))
        y = f.element(data.draw(shifts), _shift_up(f, u, v))
        results = [x, y, x + y, x - y, y - x, x * y, -x]
        results += [z.inv() for z in (x, y) if any(z.digits) and not z.is_zero()]
        assert all(is_reduced(f, z) for z in results)


def test_unit_inverse_takes_ceil_log2_newton_steps(monkeypatch):
    """The start is exact mod pi and each Newton step at most doubles
    that, so the steps reach the halvings of Nint = 1040 from the bottom
    up, 2, 3, 5, 9, 17, 33, 65, 130, 260, 520, 1040 digits: ceil(log2(Nint))
    = 11 steps, only the last at full width.  The step to P digits makes
    two multiplies mod p^ceil(P/e), and nothing else multiplies: a unit is
    told by its residue, so no full-width product checks the result."""
    f = make_field(5, 5, 2, 1024)
    u = random_element(random.Random(6), f).digits
    moduli = []
    original = FieldDescriptor._dig_mul_packed

    def counted(self, xp, yp, lay=None):
        moduli.append((lay or self._lay)[0])
        return original(self, xp, yp, lay)

    monkeypatch.setattr(FieldDescriptor, "_dig_mul_packed", counted)
    z = f._dig_inv(u)
    steps = [f.p ** -(-P // f.e) for P in (2, 3, 5, 9, 17, 33, 65, 130, 260, 520, 1040)]
    assert moduli == [m for m in steps for _ in range(2)]
    assert original(f, f._pack(u), f._pack(z)) == f._one.digits


DOT_FIELDS = STRIP_FIELDS + [make_field(5, 5, 2, 1024)]


def sequential_dot(f, terms):
    """The chain acc = acc + x*y (or - x*y) that `dot` fuses."""
    acc = None
    for x, y, neg in terms:
        prod = -(x * y) if neg else x * y
        acc = prod if acc is None else acc + prod
    return f.zero() if acc is None else acc


# one model per field: factor shifts lie in [-3N, 3N], so c = 3N makes
# every lift integral, and 7N covers each product's lift and N above it
DOT_MODELS = {}


def assert_same_at_N(f, terms, got, chain):
    """The dot `got` and the chain both agree with the model mod
    pi^min(N, h) and decide at N as it does, or raise
    PrecisionExhaustedError past their horizon h.  Where both are known at
    N they publish the same bytes, and a vanishing dot keeps a horizon
    shift + N no higher than the chain's, which drops a vanished partial
    sum when a nonvanishing product follows it."""
    c = 3 * f.N
    model = DOT_MODELS.setdefault(f, Oracle(f, 7 * f.N))
    want = (0,) * (f.e * f.f0)
    for x, y, neg in terms:
        prod = model.mul(model.lift(x, c), model.lift(y, c))
        want = model.add(want, model.neg(prod) if neg else prod)
    assert_agrees(model, got, want, 2 * c)
    assert_agrees(model, chain, want, 2 * c)
    if got.h >= f.N and chain.h >= f.N:
        assert got.to_json(f.N) == chain.to_json(f.N)
        if chain.is_zero():
            assert got.shift <= chain.shift


@st.composite
def dot_factor(draw, f, shift):
    """A unit, pi^k or all-(pM - 1) digit vector at the given shift (at N
    or above it vanishes with nonzero digits), zero, or a degraded zero
    pi^-k - pi^-k."""
    kind = draw(st.sampled_from(["unit", "unit", "pi", "top", "zero", "lost"]))
    if kind == "zero":
        return f.zero()
    if kind == "lost":
        deep = f.uniformizer() ** -draw(st.integers(1, f.N))
        return deep - deep
    digits = {"unit": lambda: draw(unit_and_depth(f))[0],
              "pi": lambda: f._one.digits,
              "top": lambda: (f.pM - 1,) * (f.e * f.f0)}[kind]()
    return LocalElement(f, shift, digits)


@st.composite
def dot_term(draw, f):
    """(x, y, neg) whose product shift, when both digit vectors are nonzero,
    lies in [-N, 2N]."""
    s = draw(st.integers(-f.N, 2 * f.N))
    sx = draw(st.integers(-f.N, 2 * f.N))
    return draw(dot_factor(f, sx)), draw(dot_factor(f, s - sx)), draw(st.booleans())


@st.composite
def block_term(draw, f, base):
    """(x, y, neg) whose product shift, when both digit vectors are nonzero,
    lies in [base, base + 2e]: the blocks of e shifts of a dot then hold
    products at every row offset 0..e-1, and break between blocks."""
    s = draw(st.integers(base, base + 2 * f.e))
    sx = draw(st.integers(-f.N, 2 * f.N))
    return draw(dot_factor(f, sx)), draw(dot_factor(f, s - sx)), draw(st.booleans())


class TestDot:
    @pytest.mark.parametrize("f", DOT_FIELDS, ids=field_ids)
    @STRIP_SETTINGS
    @given(data=st.data())
    def test_dot_equals_the_sequential_sum(self, f, data):
        terms = data.draw(st.lists(dot_term(f), max_size=10))
        # exact cancellations: the negation of some drawn terms
        terms += [(x, y, not neg) for x, y, neg in terms if data.draw(st.booleans())]
        terms = data.draw(st.permutations(terms))
        assert_same_at_N(f, terms, f.dot(terms), sequential_dot(f, terms))

    @pytest.mark.parametrize("f", DOT_FIELDS, ids=field_ids)
    @STRIP_SETTINGS
    @given(data=st.data())
    def test_products_at_shift_minus_G_lose_nothing(self, f, data):
        """Every product at shift -G or above: the dot is known at N, and
        nothing asked of it raises."""
        terms = [t for t in data.draw(st.lists(dot_term(f), max_size=10))
                 if t[0].shift + t[1].shift >= -f.G]
        terms += [(x, y, not neg) for x, y, neg in terms if data.draw(st.booleans())]
        assert_known_at_N(f.dot(terms), sequential_dot(f, terms))

    @pytest.mark.parametrize("f", DOT_FIELDS, ids=field_ids)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_full_slots_at_the_longest_dot(self, f, data):
        """DOT_TERMS products of all-(pM - 1) digit vectors fill every slot
        up to its headroom, with or without the signed offset; one product
        more starts a second batch."""
        n = data.draw(st.sampled_from([DOT_TERMS, DOT_TERMS + 1]))
        negs = data.draw(st.one_of(st.just([False] * n), st.just([True] * n),
                                   st.lists(st.booleans(), min_size=n, max_size=n)))
        top = LocalElement(f, data.draw(st.integers(-f.N, f.N)), (f.pM - 1,) * (f.e * f.f0))
        terms = [(top, top, neg) for neg in negs]
        assert_same_at_N(f, terms, f.dot(terms), sequential_dot(f, terms))

    @pytest.mark.parametrize("f", DOT_FIELDS, ids=field_ids)
    @STRIP_SETTINGS
    @given(data=st.data())
    def test_nearby_shifts_equal_the_sequential_sum(self, f, data):
        base = data.draw(st.integers(-f.N, f.N))
        terms = data.draw(st.lists(block_term(f, base), min_size=2, max_size=12))
        terms += [(x, y, not neg) for x, y, neg in terms if data.draw(st.booleans())]
        terms = data.draw(st.permutations(terms))
        assert_same_at_N(f, terms, f.dot(terms), sequential_dot(f, terms))

    @pytest.mark.parametrize("f", DOT_FIELDS, ids=field_ids)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_full_slots_at_every_row_offset(self, f, data):
        """All-(pM - 1) products at every shift of one block fill the slots
        of every row the block moves them to; one product more starts a
        second batch."""
        n = data.draw(st.sampled_from([DOT_TERMS, DOT_TERMS + 1]))
        negs = data.draw(st.one_of(st.just([False] * n), st.just([True] * n),
                                   st.lists(st.booleans(), min_size=n, max_size=n)))
        base = data.draw(st.integers(-f.N, f.N))
        top = (f.pM - 1,) * (f.e * f.f0)
        unit = LocalElement(f, 0, top)
        terms = [(LocalElement(f, base + k % f.e, top), unit, neg)
                 for k, neg in enumerate(negs)]
        terms = data.draw(st.permutations(terms))
        assert_same_at_N(f, terms, f.dot(terms), sequential_dot(f, terms))

    def test_sum_vanishing_with_digits_left_is_the_clean_zero(self):
        # 75 - 54 products pi^14 u^2 sum to valuation 16 = N; the chain
        # drops its vanished partial sums and ends on an exact cancellation
        f = make_field(3, 3, 3, 16)
        top = LocalElement(f, 7, (f.pM - 1,) * (f.e * f.f0))
        terms = [(top, top, 74 <= k <= 127) for k in range(129)]
        assert sequential_dot(f, terms).shift == 0
        assert_same_at_N(f, terms, f.dot(terms), sequential_dot(f, terms))

    @pytest.mark.parametrize("shift", [0, 5])
    def test_block_vanishing_at_N_is_the_clean_zero_unstripped(self, monkeypatch, shift):
        """x*y - x*y' with y' = y + pi^N w: one block whose digits are
        lift digits only.  It is the clean zero, as the model says, and no
        valuation is stripped to learn that.  The block it leaves out has
        valuation x.shift + y.shift + N, past which the zero is not known."""
        f = make_field(5, 5, 2, 32)
        rng = random.Random(3)
        x = f.element(shift, tuple(rng.randrange(f.pM) for _ in range(f.e * f.f0)))
        y = f.element(1, (1,) + tuple(rng.randrange(f.pM) for _ in range(f.e * f.f0 - 1)))
        # p^M = pi^N times a unit: the digits change from relative depth N up
        y2 = LocalElement(f, 1, tuple((c + f.p ** f.M * rng.randrange(1, f.p)) % f.pM
                                      for c in y.digits))
        assert y2.digits != y.digits and y2.diff_valuation(y) >= f.N
        c = f.N
        model = Oracle(f, 3 * f.N)
        mx = model.lift(x, c)
        want = model.add(model.mul(mx, model.lift(y, c)), model.neg(model.mul(mx, model.lift(y2, c))))
        assert model.valuation(want) >= 2 * c + f.N
        strips = []
        original = FieldDescriptor._dig_strip

        def counted(self, digits, v):
            strips.append(v)
            return original(self, digits, v)

        monkeypatch.setattr(FieldDescriptor, "_dig_strip", counted)
        terms = [(x, y, False), (x, y2, True)]
        got = f.dot(terms)
        assert (got.shift, got.digits) == (0, f.zero().digits)
        assert got.h == x.shift + y.shift + f.N  # v(x*(y - y')), y - y' = pi^(1+N) unit
        assert strips == []
        assert_same_at_N(f, terms, f.dot(terms), sequential_dot(f, terms))

    def test_vanishing_sum_keeps_the_lowest_horizon(self):
        # the chain drops lost * 1 once 1 * 1 follows it and ends on the
        # clean zero of 1 - 1; the dot keeps the horizon N - 10 of lost
        f = make_field(3, 3, 1, 32)
        deep = f.uniformizer() ** -10
        lost, one = deep - deep, f.one()
        terms = [(lost, one, False), (one, one, False), (one, one, True)]
        assert sequential_dot(f, terms).shift == 0
        assert f.dot(terms).shift == -10
        assert f.dot(terms[::-1]).shift == sequential_dot(f, terms[::-1]).shift == -10


# Fields for the root-of-unity match: small and wide q, f0 > 1, and two
# whose threshold is r + 1: (3,3,2,32) with tau = 3, and (3,27,1,72), where
# v(q) = 54 = tau puts theta = 10 far below N/2.
MU_FIELDS = [make_field(3, 3, 1, 32), make_field(5, 5, 2, 32), make_field(3, 9, 2, 36),
             make_field(3, 3, 2, 32, tau=3), make_field(3, 27, 1, 72),
             make_field(5, 25, 1, 80)]


def roots_and_spread(f):
    """The powers of zeta = 1 + pi, and the largest valuation of a
    difference of two distinct ones, by brute force."""
    z = f.zeta()
    roots = [z ** j for j in range(f.q)]
    spread = max((roots[i] - roots[j]).valuation()
                 for i in range(f.q) for j in range(i))
    return roots, spread


@st.composite
def near_root(draw, f):
    """zeta^j (1 + pi^s y) or zeta^j + pi^s y, y arbitrary, s in [1, N + 3]."""
    j = draw(st.integers(0, f.q - 1))
    s = draw(st.integers(1, f.N + 3))
    y = f.element(0, tuple(draw(st.integers(0, f.pM - 1)) for _ in range(f.e * f.f0)))
    root = f.zeta() ** j
    if draw(st.booleans()):
        return root * (1 + f.uniformizer() ** s * y)
    return root + f.uniformizer() ** s * y


class TestMuQThreshold:
    @pytest.mark.parametrize("f", MU_FIELDS, ids=field_ids)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_match_is_the_nearest_root_and_a_miss_is_far(self, f, data):
        roots, spread = roots_and_spread(f)
        x = data.draw(near_root(f))
        dist = [(x - r).valuation() for r in roots]
        on_mu = (x ** f.q - 1).valuation() >= f.tau
        j = mu_q_index(x)
        if j is not None:
            assert on_mu
            assert all(d < dist[j] for k, d in enumerate(dist) if k != j)
        elif on_mu:
            assert max(dist) < spread + 1
