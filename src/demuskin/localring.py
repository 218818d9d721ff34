"""Fixed-precision arithmetic in cyclotomic/unramified p-adic rings.

The working ring is O_F for F = Q_p(zeta_q) composed with the unramified
extension of inertia degree f0.  Internally an element of O_F is a polynomial
in the uniformizer pi = zeta_q - 1 (degree < e = phi(q)) whose coefficients
are polynomials in an unramified generator a (degree < f0) with integer
coefficients mod p^(M + G/e).  With N = e*M this quotient is exactly
O_F / pi^Nint, Nint = N + G: the working precision N plus a guard band of
G = e*ceil(16/e) digits, whatever N.  Ring operations and unit inversion are
exact in it; only division by a non-unit costs precision, and that is
handled by an explicit power-of-pi shift carried next to the digits.  A
LocalElement is

    x = pi^shift * digits,   digits a unit of O_F/pi^Nint or the zero vector,

known mod pi^h, its knowledge horizon (at most shift + Nint).  Negative
shifts give elements of F = O_F[1/pi].  The horizon follows the capped
relative ("zealous") precision model of X. Caruso, *Computations with p-adic
numbers* (arXiv:1701.06794): a sum is known to the lower horizon of its
terms (and to the valuation of a term that vanishes at N and is left
out), a product x*y to min(h_x + v(y), h_y + v(x)), an inverse of
pi^s u to h - 2s.  A decision that reads digits up to N (zero-ness,
valuation, comparison, serialization) is decided when its answer lies below
h; otherwise, when h < N, it raises PrecisionExhaustedError instead of
reading lift digits.

The defining Eisenstein polynomial is the degree-phi(q) factor of
(1+pi)^q - 1, i.e. Phi_q(1+pi), so zeta_q = 1 + pi holds on the nose and the
q-th roots of unity are exactly representable.  For q = 1 the ring is just
the unramified extension and we formally take pi = p (Eisenstein x - p),
which keeps a single code path.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from operator import itemgetter

# Most products `FieldDescriptor.dot` sums in one block before one
# reduction; the full packing layout has slot headroom for this many.  A
# product moved up by whole pi-rows still adds at most one coefficient to
# each slot, so the count holds whatever the shifts in the block.  The
# longest dot the bench workloads issue has 7 terms (a 6x6 product entry or
# Laplace minor, or one coefficient of a Poly product); 128 covers n up to
# 128 at the same slot width as 8 on their fields.  A longer block is
# reduced in batches.
DOT_TERMS = 128

# Slot width in bits of the full packing layout from which a field with
# e >= 2 and f0 >= 2 multiplies by a-columns (`FieldDescriptor._columns`)
# instead of the 2-D pack; see the FieldDescriptor docstring.
COLUMN_SLOT_BITS = 256


class LocalFieldError(Exception):
    """Base class for arithmetic errors in this package."""


class UnsupportedParametersError(LocalFieldError):
    """Field or operation parameters outside the supported range."""


class NotInvertibleError(LocalFieldError):
    """Inversion of an element that vanishes at working precision."""


class NotIntegralError(LocalFieldError):
    """An integral element was required but the shift is negative."""


class SquareRootError(LocalFieldError):
    """The element has no square root in the field."""


class PrecisionExhaustedError(LocalFieldError):
    """A decision needs digits past what is known: an element's horizon h,
    or a rank or eigenspace decision in the ambiguity band [tau, N)."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _vp_int(c: int, p: int) -> int:
    """p-adic valuation of a nonzero integer, by descent over p^(2^j):
    square p while the square still divides c, then divide back down."""
    if c % p:
        return 0
    pows = [p]
    while c % (sq := pows[-1] * pows[-1]) == 0:
        pows.append(sq)
    v = 0
    for j in range(len(pows) - 1, -1, -1):
        if c % pows[j] == 0:
            c //= pows[j]
            v += 1 << j
    return v


# --- residue field F_{p^f0}, elements encoded as ints 0 <= r < p^f0 ---------

def find_irreducible_poly(p: int, deg: int) -> tuple[int, ...]:
    """Non-leading coefficients (c_0,...,c_{deg-1}) of the lexicographically
    smallest monic irreducible of the given degree over F_p."""
    if deg == 1:
        return (0,)  # x itself; the generator reduces to 0, i.e. W = Z_p
    for code in range(p ** deg):
        coeffs = tuple((code // p ** i) % p for i in range(deg))
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise UnsupportedParametersError(f"no irreducible polynomial of degree {deg} over F_{p}")


def _polmul_mod(a, b, mod_coeffs, p):
    # product of coefficient lists, reduced mod the monic poly with
    # non-leading coeffs mod_coeffs, over F_p
    deg = len(mod_coeffs)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    for k in range(len(out) - 1, deg - 1, -1):
        c = out[k]
        if c:
            for j in range(deg):
                out[k - deg + j] = (out[k - deg + j] - c * mod_coeffs[j]) % p
        out[k] = 0
    return out[:deg]


def _polpow_mod(a, n, mod_coeffs, p):
    deg = len(mod_coeffs)
    result = [1] + [0] * (deg - 1)
    base = list(a) + [0] * (deg - len(a))
    while n:
        if n & 1:
            result = _polmul_mod(result, base, mod_coeffs, p)
        base = _polmul_mod(base, base, mod_coeffs, p)
        n >>= 1
    return result


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Rabin's test for the monic f of degree deg = len(coeffs) over F_p:
    x^(p^deg) = x mod f, and gcd(x^(p^(deg/l)) - x, f) = 1 for every prime
    l dividing deg."""
    deg = len(coeffs)

    def frobenius_minus_x(k):
        acc = [0, 1]
        for _ in range(k):
            acc = _polpow_mod(acc, p, coeffs, p)
        acc[1] = (acc[1] - 1) % p
        return acc

    if any(frobenius_minus_x(deg)):
        return False
    monic = list(coeffs) + [1]
    return all(_polgcd_is_one(frobenius_minus_x(deg // ell), monic, p)
               for ell in range(2, deg + 1) if deg % ell == 0 and is_prime(ell))


def _polgcd_is_one(a, b, p):
    """Whether coefficient lists a and b (lowest degree first) are coprime
    over F_p, by the Euclidean algorithm."""
    def trim(c):
        c = [x % p for x in c]
        while c and not c[-1]:
            c.pop()
        return c

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, k = a[-1] * inv, len(a) - len(b)
            a = trim([x - c * b[i - k] if i >= k else x for i, x in enumerate(a)])
        a, b = b, a
    return len(a) == 1


def _cyclotomic_shifted(p: int, q: int) -> list[int]:
    """Integer coefficients of Phi_q(1+x), q = p^k >= 3, degree phi(q)."""
    qp = q // p
    # sum over i of (1+x)^(i*qp), computed with exact binomials
    e = q - qp
    out = [0] * (e + 1)
    for i in range(p):
        m = i * qp
        c = 1
        for j in range(m + 1):
            if j <= e:
                out[j] += c
            c = c * (m - j) // (j + 1)
    assert out[e] == 1 and out[0] == p
    return out


def _residues(low, count, mod):
    """x^k mod the monic x^d + sum_i low[i] x^i, d = len(low), for k = d,
    ..., d + count - 1: coefficient lists, each coefficient the symmetric
    residue mod `mod`."""
    half = mod // 2
    r, out = [-c for c in low], []
    for _ in range(count):
        r = [(c + half) % mod - half for c in r]
        out.append(r)
        r = [(r[i - 1] if i else 0) - r[-1] * c for i, c in enumerate(low)]
    return out


def _kara_eval(cols):
    """Karatsuba evaluation of the polynomial sum_j cols[j] a^j: for one
    column the column itself, else the evaluations of the low half L, of
    L + H and of the high half H, L taking the extra column.  The products
    of two evaluations, value by value, are the evaluation of the product
    that `_kara_interp` reads back."""
    n = len(cols)
    if n == 1:
        return list(cols)
    if n == 2:
        return [cols[0], cols[0] + cols[1], cols[1]]
    h = (n + 1) // 2
    lo, hi = cols[:h], cols[h:]
    mid = [c + hi[i] if i < n - h else c for i, c in enumerate(lo)]
    return _kara_eval(lo) + _kara_eval(mid) + _kara_eval(hi)


def _kara_count(n):
    """Number of values in the Karatsuba evaluation of n columns."""
    return 1 if n == 1 else 2 * _kara_count((n + 1) // 2) + _kara_count(n // 2)


def _kara_interp(vals, n):
    """The 2n - 1 columns of the product whose evaluation `vals` is, for
    factors of n columns: lo + a^h (mid - lo - hi) + a^(2h) hi."""
    if n == 1:
        return list(vals)
    if n == 2:
        lo, mid, hi = vals
        return [lo, mid - lo - hi, hi]
    h = (n + 1) // 2
    size = _kara_count(h)
    lo = _kara_interp(vals[:size], h)
    mid = _kara_interp(vals[size:2 * size], h)
    hi = _kara_interp(vals[2 * size:], n - h)
    out = lo + [0] * (2 * (n - h))
    for k, c in enumerate(hi):
        out[2 * h + k] += c
    for k, c in enumerate(mid):
        out[h + k] += c - lo[k] - (hi[k] if k < len(hi) else 0)
    return out


# A packing layout (`FieldDescriptor._layout`): the modulus, slot bytes,
# bits per pi-row and in the e low rows, masks of one row and of the low
# rows, the packed residues P_k, the mask of one slot column, (bit shift,
# packed residue) per a-column, the offset, and the byte start of each
# digit slot.
_Layout = namedtuple("_Layout", "mod bb rowbits lowbits rowmask lowmask pis amask apows off starts")

# The column layout (`FieldDescriptor._columns`): slot bits and bytes, the
# masks of one slot and of the e low slots of a column, per low column j
# its a-fold ((k, coefficient of a^j in a^k), ...) over the columns k >= f0,
# per pi-row k >= e its fold ((bit shift of slot i, coefficient of pi^i in
# pi^k), ...), per row offset b the a-fold offset of each low column, the
# pi-fold offset of the low columns side by side, and the byte start of
# each digit slot.
_Columns = namedtuple("_Columns", "w bb slotmask lowmask afold pifold aoffs poff starts")


class FieldDescriptor:
    """Finite-precision model of O_F and F = Frac(O_F).

    Attributes: p, q, f0, e (ramification index), N (working precision in
    uniformizer digits, a multiple of e), M = N/e (the same precision counted
    in powers of p), G and Nint = N + G (guard band and internal precision,
    below), pM, tau (equality threshold, default ceil(3N/4)), unram and eis
    (non-leading coefficients of the defining polynomials).

    Internally every digit vector lives in O_F/pi^Nint with Nint = N + G,
    G = e*ceil(16/e) guard digits, and the integer coefficients are kept
    modulo pM = p^(M + G/e), which matches pi^Nint.  The guard covers the
    precision that poles cost, which does not grow with N: on the bench
    inputs (N from 32 to 1024) the lowest horizon of a product lies at
    most 5 digits below its shift + Nint, and at most 9 over the advertised
    parameter sets.  A larger loss makes a decision raise; it never
    publishes a digit.  Because the pi^i a^j basis is a Z_p-basis of O_F,
    reducing the coefficients mod p^m instead gives O_F/pi^(e*m); the
    Newton steps of a unit inverse work in these smaller quotients, with
    one packing layout per modulus.
    Stripping a valuation v into the shift divides the digits by pi^v,
    which commits to one of several lifts: the quotient's digits below
    relative depth Nint - v are exact, and only those from that depth
    upward are a choice.  So an element built at shift s is known mod
    pi^(s + Nint) at best, and each element carries its horizon h (see
    `LocalElement`).  All published semantics (valuation, equality,
    zero-ness, serialization) are at precision N, and decided only below h.

    Digit vectors multiply as Kronecker-packed integers: one byte-aligned
    slot per pi^i a^j, one bigint product, then a reduction on the packed
    integer itself (`_reduce_packed`): each pi-row k >= e folds into the
    low e rows with one multiply by the packed residue of pi^k mod eis,
    each a-column j >= f0 with one multiply by the residue of a^j mod
    unram, then one to_bytes and one mod p^m per digit.  The slots of the
    full layout have headroom for the sum of DOT_TERMS products, so `dot`
    adds the products of a block of e consecutive shifts unreduced and
    reduces once.  Multiplying by pi^b with b < e moves a packed product up
    by b pi-rows, so a block sum has up to 3e - 2 rows, each with its
    residue in the layout.  For a signed sum `dot` adds a precomputed packed
    offset whose every slot is a multiple of pM at least DOT_TERMS products
    deep: the slots stay nonnegative, so the rows still split, and the
    offset vanishes in the final mod.  A pi-shift of a digit vector by up to
    Nint rows (`_shift_up`) is folded by schoolbook division (`_fold`).

    That 2-D pack (D. Harvey, J. Symbolic Comput. 44, 2009) gives each
    pi-row of a factor 2 f0 - 1 slots of which f0 hold digits, so where
    slots are wide the bigint multiply, inflated by those gaps, is most of
    a product.  A field with e >= 2, f0 >= 2 and full-layout slots of at
    least COLUMN_SLOT_BITS bits multiplies by columns instead: an element
    caches its f0 a-columns, each packed dense in pi (`_pack_columns`), and
    a product is Karatsuba over a (A. Karatsuba and Yu. Ofman, 1962): one
    bigint multiply per value of the two evaluations (`_kara_eval`; x0,
    x0 + x1 and x1 for f0 = 2, three products of about a third of the 2-D
    length), one interpolation to the 2 f0 - 1 columns of the product
    (`_kara_interp`), then `_reduce_columns`: each column a^k with k >= f0
    folds into the low columns, each low column's pi-rows k >= e into its e
    low slots, then one to_bytes and one mod per digit.  `dot` sums the
    evaluations of a block's products and interpolates and reduces once.
    Digits are canonical mod pM, so both kernels give the same digits.
    Per product plus reduction (timeit in one process, 2-D -> columns) the
    columns lose on narrow slots, where the multiply is a small share and
    the column fold costs more Python operations: 11.3 -> 17.6 us at 88
    bits on (7,7,2,36), 5.6 -> 10.2 at 80 on (5,5,2,32), 12.8 -> 17.9 at
    248 on (3,3,3,128), 189 -> 228 at 168 on (5,25,2,400); from 256 bits
    they win: 35.5 -> 24.6 at 256 on (3,9,2,402), 23.9 -> 15.6 at 344 on
    (5,5,2,256), 95 -> 65 at 1232 on (5,5,2,1024).  For e = 1 the 2-D pack
    is one dense row and has no gap to save (16.9 -> 16.6 us at 1544 bits
    on (7,1,2,256)).  Newton steps and strips keep the 2-D kernel.

    make_field returns one shared descriptor per parameter set, so fields
    compare by identity first.
    """

    __slots__ = ("p", "q", "f0", "e", "N", "G", "Nint", "M", "pM", "tau", "unram",
                 "eis", "_u0inv", "_mu_cache", "_one",
                 "_zero", "_inv2", "_winv", "_stride", "_lay", "_layouts",
                 "_offsets", "_col", "_kinv", "_ppow", "__weakref__")

    def __init__(self, p, q, f0, N, tau):
        """Takes the parameters as make_field normalizes them: N a multiple
        of e, tau resolved."""
        self.p = p
        self.q = q
        self.f0 = f0
        e = self.e = (q - q // p) if q >= 3 else 1
        self.N = N
        self.G = e * -(-16 // e)
        self.Nint = N + self.G
        self.M = N // e
        self.pM = p ** (self.Nint // e)
        # p^k for every k up to Nint/e, the moduli of `_mask_digits`
        self._ppow = tuple(p ** k for k in range(self.Nint // e + 1))
        self.tau = tau
        self.unram = find_irreducible_poly(p, f0)
        if q >= 3:
            self.eis = tuple(_cyclotomic_shifted(p, q)[: self.e])
        else:
            self.eis = (-p,)
        self._precompute()
        self._mu_cache = None
        self._zero = LocalElement(self, 0, (0,) * (self.e * f0))
        self._one = self.from_int(1)
        self._inv2 = None
        self._winv = None

    def _precompute(self):
        e, f0 = self.e, self.f0
        c0 = self.eis[0]
        u0 = c0 // self.p
        self._u0inv = pow(u0, -1, self.pM)
        self._stride = 2 * f0 - 1
        self._layouts = {}
        self._lay = self._layout(self.Nint // e)
        wide = e > 1 and f0 > 1 and 8 * self._lay.bb >= COLUMN_SLOT_BITS
        self._col = self._columns() if wide else None
        self._kinv = {}
        # every product slot at the least multiple of pM above DOT_TERMS
        # products: a signed sum of up to DOT_TERMS products plus this stays
        # inside [0, 2^(8 bb)) slot by slot, and reduces to the same digits.
        # Offset b covers the 2e - 1 + b rows of products moved up by at
        # most b pi-rows.
        pM, bb = self.pM, self._lay.bb
        slot = pM * -(-(DOT_TERMS * e * f0 * (pM - 1) ** 2) // pM)
        self._offsets = tuple(sum(slot << (8 * bb * k) for k in range((2 * e - 1 + b) * self._stride))
                              for b in range(e))

    # -- equality / hashing on the defining data --------------------------

    def _key(self):
        return (self.p, self.q, self.f0, self.N, self.tau)

    def __eq__(self, other):
        return isinstance(other, FieldDescriptor) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"FieldDescriptor(p={self.p}, q={self.q}, f0={self.f0}, "
                f"e={self.e}, N={self.N})")

    # -- digit-level arithmetic (flat tuples, index i*f0+j <-> pi^i a^j) --

    def _layout(self, m):
        """Kronecker packing layout for digits mod p^m, built once per m.

        A packed product has one byte-aligned slot per monomial pi^i a^j, a
        row of 2 f0 - 1 slots per power of pi; `_reduce_packed` takes slots
        in [0, top], one convolution coefficient, or for the full layout
        (m = Nint/e) DOT_TERMS of them plus the signed offset of `dot`.  The
        layout also holds what that reduction folds with: the packed
        residue P_k = sum_i r_k[i] 2^(i*rowbits), r_k the coefficients of
        pi^k mod eis, for every pi-row k in [e, max(3e - 2, e + 1)) that a
        product or dot block can have; the residue of a^j mod unram, packed
        over one row, for each column j in [f0, 2 f0 - 1); and one offset,
        a multiple of p^m in every slot of the low e rows.  Each residue
        coefficient is the symmetric residue mod p^m, far below the exact
        one where p^m is small.  The offset lifts every slot to
        nonnegative before the columns are split and again before the
        digits are, and the slot width holds the largest slot either fold
        can make: top times 1 + sum_k |r_k[i]|, then the same growth by the
        a-residues, offsets included."""
        lay = self._layouts.get(m)
        if lay is None:
            e, f0, S = self.e, self.f0, self._stride
            mod = self.p ** m
            top = e * f0 * (mod - 1) ** 2
            if m == self.Nint // e:
                top = 2 * DOT_TERMS * top + mod
            pis = _residues(self.eis, max(2 * e - 2, 1), mod)
            apows = _residues(self.unram, f0 - 1, mod)

            def lift(v):  # least multiple of mod that is at least v
                return mod * -(-v // mod)

            offs, high = [], top
            for i in range(e):
                # slot (i, j) with the pi-rows folded in: in [-top*neg,
                # top*(1 + pos)], then in [0, b] with the offset o
                o = lift(top * sum(max(-r[i], 0) for r in pis))
                b = top * (1 + sum(max(r[i], 0) for r in pis)) + o
                row = [o] * S
                for j in range(f0):
                    # and column j < f0 with the a-columns folded in
                    o2 = lift(b * sum(max(-a[j], 0) for a in apows))
                    row[j] += o2
                    high = max(high, b + o2 + b * sum(max(a[j], 0) for a in apows))
                offs.append(row)
            bb = -(-high.bit_length() // 8)
            w = 8 * bb
            rowbits = w * S
            lay = self._layouts[m] = _Layout(
                mod, bb, rowbits, e * rowbits, (1 << rowbits) - 1, (1 << e * rowbits) - 1,
                tuple(sum(c << i * rowbits for i, c in enumerate(r)) for r in pis),
                sum(((1 << w) - 1) << i * rowbits for i in range(e)),
                tuple((j * w, sum(c << k * w for k, c in enumerate(a)))
                      for j, a in enumerate(apows, f0)),
                sum(o << i * rowbits + j * w for i, row in enumerate(offs) for j, o in enumerate(row)),
                tuple((i * S + j) * bb for i in range(e) for j in range(f0)))
        return lay

    def _columns(self):
        """Column layout of the full modulus pM, for `_reduce_columns`.

        A slot of the 2 f0 - 1 product columns is a signed sum of the
        coefficients of at most DOT_TERMS products: |slot| <= big =
        DOT_TERMS e f0 (pM - 1)^2.  The a-fold adds to low column j < f0
        a^k's coefficient of a^j times column k for each k >= f0, then an
        offset, a multiple of pM in every slot of the 2e - 1 + b rows a
        block moved up by at most b rows has, that makes each slot
        nonnegative; the pi-fold adds each row k >= e times each coefficient
        of pi^k mod eis (symmetric residues mod pM, as in `_layout`) to its
        slot, then a second offset.  Both offsets and the slot width come
        from the exact range of each slot, for every b.  A row folds by one
        small multiply-add per coefficient, not by one product with a packed
        residue as in `_reduce_packed`: over wide slots that product
        multiplies the row by e - 1 slots of zeros, and one reduction on
        (5,5,2,1024) took 40 us that way against 23 us."""
        e, f0, mod = self.e, self.f0, self.pM
        pis = _residues(self.eis, max(2 * e - 2, 1), mod)
        apows = _residues(self.unram, f0 - 1, mod)

        def lift(v):  # least multiple of mod that is at least v
            return mod * -(-v // mod)

        big = DOT_TERMS * e * f0 * (mod - 1) ** 2
        afold, aoffs, poffs, high = [], [], [], big
        for j in range(f0):
            folds = tuple((k, a[j]) for k, a in enumerate(apows, f0) if a[j])
            g = big * (1 + sum(abs(c) for _, c in folds))
            o = lift(g)
            lo, hi = o - g, o + g  # the range of a slot after the a-fold
            afold.append(folds)
            aoffs.append(o)
            for i in range(e):
                # slot i after the pi-fold of the e - 1 + b rows above the
                # low ones, for each row offset b: in [least, most] + o2
                least = most = 0
                for b in range(e):
                    rs = [r[i] for r in pis[:e - 1 + b]]
                    pos, neg = sum(c for c in rs if c > 0), -sum(c for c in rs if c < 0)
                    least = min(least, lo * (1 + pos) - hi * neg)
                    most = max(most, hi * (1 + pos) - lo * neg)
                o2 = lift(-least)
                poffs.append((j * e + i, o2))
                high = max(high, most + o2)
        bb = -(-high.bit_length() // 8)
        w = 8 * bb
        return _Columns(
            w, bb, (1 << w) - 1, (1 << e * w) - 1, tuple(afold),
            tuple(tuple((i * w, c) for i, c in enumerate(r) if c) for r in pis),
            tuple(tuple(sum(o << k * w for k in range(2 * e - 1 + b)) for o in aoffs)
                  for b in range(e)),
            sum(o << k * w for k, o in poffs),
            tuple((j * e + i) * bb for i in range(e) for j in range(f0)))

    def _pack_columns(self, x):
        """The f0 a-columns of a digit vector, column j packed dense in pi:
        slot i holds the digit of pi^i a^j."""
        w, e, f0 = self._col.w, self.e, self.f0
        cols = []
        for j in range(f0):
            c = 0
            for i in range(e):
                c |= x[i * f0 + j] << i * w
            cols.append(c)
        return tuple(cols)

    def _reduce_columns(self, cols, b=0):
        """Digits mod pM of the 2 f0 - 1 a-columns of a product, or of a
        signed sum of at most DOT_TERMS products each moved up by at most b
        < e pi-rows: for each low column j, the a-columns k >= f0 folded in
        by a^k's coefficient of a^j plus the a-fold offset, then each pi-row
        k >= e by a small multiply-add per coefficient of its residue; the low
        columns side by side plus the pi-fold offset, one to_bytes and one
        mod per digit slot."""
        w, bb, slotmask, lowmask, afold, pifold, aoffs, out, starts = self._col
        lowbits = self.e * w
        for j, (folds, off) in enumerate(zip(afold, aoffs[b])):
            d = cols[j] + off
            for k, c in folds:
                d += c * cols[k]
            acc = d & lowmask
            d >>= lowbits
            for row in pifold:
                if not d:
                    break
                t = d & slotmask
                for sh, c in row:
                    acc += t * c << sh
                d >>= w
            out += acc << j * lowbits
        buf = out.to_bytes(self.f0 * lowbits // 8, "little")
        fb, mod = int.from_bytes, self.pM
        return tuple([fb(buf[i:i + bb], "little") % mod for i in starts])

    def _mul_columns(self, xs, ys):
        """Digit product of two `_pack_columns` forms: one bigint multiply
        per value of their Karatsuba evaluations, one interpolation, one
        reduction."""
        vals = [a * b for a, b in zip(_kara_eval(xs), _kara_eval(ys))]
        return self._reduce_columns(_kara_interp(vals, self.f0))

    def _pack(self, x, lay=None):
        bb = (lay or self._lay)[1]
        S = self._stride
        out = 0
        f0 = self.f0
        for i in range(self.e):
            base = i * f0
            rowoff = i * S * bb * 8
            for j in range(f0):
                c = x[base + j]
                if c:
                    out |= c << (rowoff + j * bb * 8)
        return out

    def _reduce_packed(self, z, lay=None):
        """Digits of a packed product, or of a packed sum of products moved
        up by whole pi-rows (at most 3e - 2 rows), mod the layout's modulus
        (default: the full layout, mod pM), folded on the packed integer:
        the low e rows plus the layout's offset, one multiply-add of each
        higher pi-row k by its packed residue P_k, one multiply-add of each
        a-column j >= f0 by the packed residue of a^j, then one to_bytes
        and one mod per digit slot."""
        (mod, bb, rowbits, lowbits, rowmask, lowmask, pis, amask, apows, off,
         starts) = lay or self._lay
        acc = (z & lowmask) + off
        z >>= lowbits
        for pk in pis:
            if not z:
                break
            acc += (z & rowmask) * pk
            z >>= rowbits
        for shift, aj in apows:
            acc += ((acc >> shift) & amask) * aj
        buf = acc.to_bytes(lowbits // 8, "little")
        fb = int.from_bytes
        return tuple([fb(buf[i:i + bb], "little") % mod for i in starts])

    def _fold(self, acc, mod):
        """Digit vector mod `mod` of sum_k pi^k sum_j acc[k][j] a^j, for at
        least e rows of f0 integers each, by schoolbook division by `eis`:
        top down, pi^k for k >= e folds into pi^(k-e) ... pi^(k-1).  The
        rows are changed in place; one mod at the end.

        Only `_shift_up` folds this way.  Its rows are single digits, not
        convolution sums, and it moves them up by up to Nint rows, far more
        than a product has; the packed fold of `_reduce_packed` would need
        a residue per row and slots as wide as a product's, and a one-row
        shift on (5,5,2,1024) costs about five times as much that way."""
        e, f0 = self.e, self.f0
        pired = [(i, -c) for i, c in enumerate(self.eis) if c]
        for k in range(len(acc) - 1, e - 1, -1):
            row = acc[k]
            for j in range(f0):
                c = row[j]
                if c:
                    for i, u in pired:
                        acc[k - e + i][j] += c * u
        return tuple(acc[i][j] % mod for i in range(e) for j in range(f0))

    def _dig_mul_packed(self, xp, yp, lay=None):
        """Digit product from two packed integers: one bigint multiply and
        one reduction."""
        return self._reduce_packed(xp * yp, lay)

    def _dig_mul(self, x, y):
        return self._dig_mul_packed(self._pack(x), self._pack(y))

    def dot(self, terms):
        """Sum of the products x*y, each negated where neg is true, over the
        (x, y, neg) terms: equal at precision N to the chain acc = acc + x*y
        (or - x*y), with one reduction per block of e consecutive product
        shifts instead of one per product.  Its horizon is the lowest
        horizon of the products (`_product_horizon`), the vanished ones
        included, capped at the raw valuation of each product or block sum
        it leaves out, as `+` caps it.

        A product that vanishes at N is left out, as `+` leaves it out.  If
        the sum vanishes or nothing is left, the result is the zero with the
        lowest degraded-zero horizon (smallest shift) among the sum and the
        vanishing products, the zero that `+` keeps of two; the chain can
        end on a higher one, since it drops a vanished partial sum that a
        nonvanishing product follows.  A sum that vanishes with digits left
        (at shift N or more) holds lift digits only, and counts as the clean
        zero, on which the chain can end by an exact cancellation after such
        a drop.

        The products are taken in order of shift.  A block starts at the
        lowest shift s_b not yet placed and takes every product of shift
        below s_b + e; a block with a single product takes the ordinary
        multiply, and the sums of the blocks are joined with `+`.  A product
        of shift s is exact mod pi^(s+Nint), so a block sum is exact mod
        pi^(s_b+Nint), as the chain is: the digits at N agree whenever
        s_b >= -G.  For e = 1 a block is one shift."""
        N, e, p = self.N, self.e, self.p
        live = []
        low = None
        h = math.inf
        # the least raw valuation of the vanished products other than low:
        # the result is known to no more than that past a dropped product
        hd = math.inf
        for x, y, neg in terms:
            s = x.shift + y.shift
            dx, dy = x.digits, y.digits
            nonzero = any(dx) and any(dy)
            hp = _product_horizon(x, y, s)
            if hp < h:
                h = hp
            if s >= N or not nonzero:
                # x*y vanishes; as a zero vector at s >= 0 it is the clean zero
                zs = s if s < 0 or nonzero else 0
                vp = x._raw_valuation() + y._raw_valuation()
                if low is None or zs <= low[0]:
                    if low is not None and low[3] < hd:
                        hd = low[3]
                    low = (zs, x, y, vp)
                elif vp < hd:
                    hd = vp
                continue
            live.append((s, x, y, neg))
        live.sort(key=itemgetter(0))
        total = None
        k, n = 0, len(live)
        while k < n:
            end = live[k][0] + e
            j = k + 1
            while j < n and live[j][0] < end:
                j += 1
            if j == k + 1:
                _, x, y, neg = live[k]
                v = -(x * y) if neg else x * y
            else:
                sb, d = live[k][0], self._dot_digits(live[k:j])
                # a block that vanishes at N with digits left is lift digits
                # only: the clean zero, which rule (*) below gives it anyway,
                # here without a strip.  A coefficient prime to p means a
                # valuation below e, which element() reads at once, so only
                # the other blocks are masked.
                lift_only = (any(d) and not any(c % p for c in d)
                             and not any(_mask_digits(self, d, N - sb)))
                if lift_only:
                    v = self._zero
                    hd = min(hd, sb + self._dig_val(d))
                else:
                    v = self.element(sb, d, h)
            total = v if total is None else total + v
            k = j
        if total is not None and total._vanishes() and total.shift > 0:
            hd = min(hd, total._raw_valuation())
            total = self._zero  # (*)
        if low is not None:
            if total is None or total._vanishes():
                v = low[1] * low[2]
                total = v if total is None else total + v
            elif low[3] < hd:
                hd = low[3]
        if total is None:
            total = self._zero
        if hd < h:
            h = hd
        return total if total.h <= h else total._at(h)

    def _dot_digits(self, terms):
        """Digit vector of the sum of +-pi^(s - s_b) x*y over the (s, x, y,
        neg) terms of one block, sorted by shift s from s_b: DOT_TERMS
        packed products at a time, each moved up by s - s_b pi-rows and
        added to the offset that covers its rows, each batch reduced once
        with s - s_b more fold rows.  The packed product is moved, not a
        factor, so the bigint multiply keeps its size; a factor pi^k adds
        its partner's packed digits with no bigint product.  On a column
        field the products' Karatsuba evaluations are moved and summed
        instead, and the reduction's a-fold offset covers the signed sum."""
        one = self._one.digits
        sb = terms[0][0]
        col = self._col
        rowbits = self._lay.rowbits if col is None else col.w
        out = None
        for k in range(0, len(terms), DOT_TERMS):
            batch = terms[k:k + DOT_TERMS]
            if col is None:
                z = self._offsets[batch[-1][0] - sb]
                for s, x, y, neg in batch:
                    if y.digits == one:
                        t = x._packed()
                    elif x.digits == one:
                        t = y._packed()
                    else:
                        t = x._packed() * y._packed()
                    if s != sb:
                        t <<= rowbits * (s - sb)
                    if neg:
                        z -= t
                    else:
                        z += t
                d = self._reduce_packed(z)
            else:
                # the evaluations of the products, summed value by value,
                # are the evaluation of the sum: one interpolation per batch
                vals = [0] * _kara_count(self.f0)
                for s, x, y, neg in batch:
                    sh = rowbits * (s - sb)
                    evs = zip(_kara_eval(x._packed()), _kara_eval(y._packed()))
                    for i, (a, c) in enumerate(evs):
                        if neg:
                            vals[i] -= a * c << sh
                        else:
                            vals[i] += a * c << sh
                d = self._reduce_columns(_kara_interp(vals, self.f0), batch[-1][0] - sb)
            out = d if out is None else self._dig_add(out, d)
        return out

    def _dig_add(self, x, y):
        pM = self.pM
        return tuple((a + b) % pM for a, b in zip(x, y))

    def _dig_neg(self, x):
        pM = self.pM
        return tuple((-a) % pM for a in x)

    def _dig_val(self, x):
        """Valuation in pi-digits of a digit vector; None if all zero."""
        e, f0, p = self.e, self.f0, self.p
        best = None
        for i in range(e):
            for j in range(f0):
                c = x[i * f0 + j]
                if c:
                    t = self.e * _vp_int(c, p) + i
                    if best is None or t < best:
                        best = t
                        if best == i:
                            break
            if best == i:
                break
        return best

    def _dig_div_pi(self, x):
        """Exact solve of pi*z = x when val(x) >= 1; canonical top digit."""
        e, f0, pM, p = self.e, self.f0, self.pM, self.p
        z = [0] * (e * f0)
        ztop = []
        for j in range(f0):
            w0 = x[j]
            if w0 % p != 0:
                raise NotIntegralError("digit vector not divisible by the uniformizer")
            t = (w0 // p) % pM
            ztop.append((-t * self._u0inv) % pM)
        for j in range(f0):
            z[(e - 1) * f0 + j] = ztop[j]
        for i in range(1, e):
            ci = self.eis[i] % pM
            for j in range(f0):
                z[(i - 1) * f0 + j] = (x[i * f0 + j] + ztop[j] * ci) % pM
        return tuple(z)

    def _dig_strip(self, x, v):
        """Divide a digit vector of valuation >= v by pi^v, exact below
        relative depth Nint - v.

        pi^e = p*w with w the unit -sum(eis_i/p * pi^i), so with
        a, b = divmod(v, e) the quotient is b single-pi solves, then an
        exact division of every integer coefficient by p^a, then a multiply
        by w^(-a), one packed multiply per set bit of a.  The integer
        division leaves the top a p-digits zero: that is the lift choice.
        """
        a, b = divmod(v, self.e)
        for _ in range(b):
            x = self._dig_div_pi(x)
        if a:
            pa = self.p ** a
            if any(c % pa for c in x):
                raise NotIntegralError("digit vector not divisible by the uniformizer")
            x = tuple(c // pa for c in x)
            if self.e > 1:  # for q = 1, pi = p and w = 1
                for wk in self._winv_powers():
                    if a & 1:
                        x = self._dig_mul_packed(self._pack(x), wk)
                    a >>= 1
                    if not a:
                        break
        return x

    def _winv_powers(self):
        """Packed w^(-2^j) for 2^j < Nint/e, where pi^e = p*w; built once.
        A strip depth is below Nint, so its p-exponent is below Nint/e."""
        if self._winv is None:
            w = [0] * (self.e * self.f0)
            for i in range(self.e):
                w[i * self.f0] = (-self.eis[i] // self.p) % self.pM
            z = self._dig_inv(tuple(w))
            out = [self._pack(z)]
            while 1 << len(out) < self.Nint // self.e:
                z = self._dig_mul(z, z)
                out.append(self._pack(z))
            self._winv = tuple(out)
        return self._winv

    def _k_mul(self, x, y):
        return tuple(_polmul_mod(x, y, self.unram, self.p))

    def _k_inv(self, x):
        """Inverse of a nonzero residue x, memoized per field."""
        z = self._kinv.get(x)
        if z is None:
            z = self._kinv[x] = tuple(_polpow_mod(x, self.p ** self.f0 - 2, self.unram, self.p))
        return z

    def _dig_inv(self, u):
        """Inverse of a unit digit vector, exact in O_F/pi^Nint.

        Newton z <- z(2 - u z) from the residue-field inverse, which is exact
        mod pi.  A step at most doubles the known precision, so the steps
        reach P = 2, ..., ceil(Nint/4), ceil(Nint/2), Nint digits, the
        halvings of Nint taken from the bottom up: ceil(log2(Nint)) steps,
        with only the last at full width.  The step to P works mod p^m with
        m = ceil(P/e), i.e. in O_F/pi^(e*m), so it multiplies numbers only
        as wide as the precision it reaches.  The last step works mod pM,
        and a unit has one inverse there, so the digits are the canonical
        ones.  A digit vector is a unit exactly when its residue is
        nonzero, and Newton from the exact residue inverse is exact, so
        that residue test is the only check: no full-width u*z == 1.
        """
        e, f0, p = self.e, self.f0, self.p
        r = tuple(u[j] % p for j in range(f0))
        if not any(r):
            raise NotInvertibleError("inversion failed at working precision")
        z = self._k_inv(r) + (0,) * ((e - 1) * f0)
        steps = [self.Nint]
        while steps[-1] > 2:
            steps.append(-(-steps[-1] // 2))
        for P in reversed(steps):
            lay = self._layout(-(-P // e))
            mod = lay.mod
            zp = self._pack(z, lay)
            t = self._dig_mul_packed(self._pack(tuple(c % mod for c in u), lay), zp, lay)
            t = ((2 - t[0]) % mod,) + tuple(-c % mod for c in t[1:])
            z = self._dig_mul_packed(zp, self._pack(t, lay), lay)
        return z

    # -- element constructors ---------------------------------------------

    def element(self, shift, digits, h=None):
        """Normalized element pi^shift * digits, known mod pi^h: the digit
        valuation is stripped into the shift, so nonzero digit vectors are
        units and the shift is the exact valuation.  A strip of depth v
        leaves the digits below relative depth Nint - v exact, so h is
        capped at shift + Nint with the shift before the strip (the default
        h).  A vanished digit vector at negative shift keeps the shift,
        recording that the value is only known to vanish mod
        pi^(shift+N) (the rule of `linalg._classify_remaining`); at
        nonnegative shift it is the zero of shift 0.  The stripped digits
        are a unit, so the element keeps the valuation computed here."""
        cap = shift + self.Nint
        if h is None or h > cap:
            h = cap
        v = self._dig_val(digits)
        if v is None:
            if shift < 0:
                return LocalElement(self, shift, digits, math.inf, h)
            return self._zero if h >= self.Nint else LocalElement(self, 0, digits, math.inf, h)
        if v:
            digits = self._dig_strip(digits, v)
            shift += v
        return LocalElement(self, shift, digits, shift, h)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, n: int):
        d = [0] * (self.e * self.f0)
        d[0] = n % self.pM
        return self.element(0, tuple(d))

    def uniformizer(self):
        return LocalElement(self, 1, self._one.digits)

    def zeta(self):
        """The fixed primitive q-th root of unity, 1 + pi exactly."""
        if self.q == 1:
            return self.one()
        d = [0] * (self.e * self.f0)
        d[0] = 1
        d[self.f0] = 1
        return LocalElement(self, 0, tuple(d))


class LocalElement:
    """An element of F at working precision: pi^shift * digits, known mod
    pi^h.

    Normalized: the digit vector is a unit of the internal quotient (or the
    zero vector), so the shift is the exact valuation.  Zero-ness, equality
    and the reported valuation are all at the published precision N; digits
    in the guard band above N are carried for arithmetic but are never
    meaningful on their own.  Comparisons (`==`, `eq_at`, `diff_valuation`)
    are decided on the aligned digits of the two operands and never build
    their difference as an element.

    h, the knowledge horizon, is the absolute precision to which the value
    is known: at most shift + Nint, which constants, sampled and parsed
    elements have.  `+` keeps the lower horizon of its operands, `*` the
    product horizon min(h_x + v(y), h_y + v(x)), `inv` h - 2*shift, and
    `FieldDescriptor.dot` the lowest horizon of its products.  The
    shortcuts of `+` and `dot` that drop a term vanishing at N do not
    decide on it: they keep its horizon and cap the result's at its raw
    valuation (at least N), past which the kept value and the sum differ.
    A decision (`is_zero`, `valuation`, `diff_valuation`, `to_json`) whose
    answer does not lie below h raises PrecisionExhaustedError when h < N;
    while h >= N every decision at N is decided.

    Every stored digit is reduced into [0, pM): each constructor and ring
    operation reduces its result.  The shortcuts for pi^k (digits equal to
    those of one) rely on this: multiplying by pi^k adds k to the shift and
    inverting it negates the shift, with the digits as they are.

    `val` is the raw valuation when the caller knows it, as for a result
    whose digits are a unit (then it is the shift); otherwise it is
    computed on first use.
    """

    __slots__ = ("field", "shift", "digits", "h", "_pk", "_val")

    def __init__(self, field, shift, digits, val=False, h=None):
        self.field = field
        self.shift = shift
        self.digits = digits
        self.h = shift + field.Nint if h is None else h
        self._pk = None
        self._val = val

    def _packed(self):
        """The packed form products read, built once: the 2-D pack, or the
        column form where the field multiplies by columns."""
        if self._pk is None:
            f = self.field
            self._pk = f._pack(self.digits) if f._col is None else f._pack_columns(self.digits)
        return self._pk

    def _at(self, h):
        """This element known only mod pi^h, for h below its horizon."""
        out = LocalElement(self.field, self.shift, self.digits, self._val, h)
        out._pk = self._pk
        return out

    def _capped(self, h, dropped):
        """This element standing for self + dropped, a term that vanishes
        at N and is left out: known to h and to the dropped term's raw
        valuation (at least N), past which the two differ."""
        v = dropped._raw_valuation()
        if v < h:
            h = v
        return self if self.h == h else self._at(h)

    def _raw_valuation(self):
        """shift + digit valuation, possibly beyond N; math.inf for a
        vanished digit vector."""
        if self._val is False:
            v = self.field._dig_val(self.digits)
            self._val = math.inf if v is None else self.shift + v
        return self._val

    def _vanishes(self):
        """Zero at N by its digits, whatever its horizon: the test of the
        shortcuts that drop a vanished term.  Not a decision."""
        return self._raw_valuation() >= self.field.N

    def is_zero(self) -> bool:
        """Indistinguishable from zero at the published precision N."""
        v = self._raw_valuation()
        N = self.field.N
        if self.h < N:
            _decide(self.field, v, self.h)
        return v >= N

    def valuation(self):
        """Exact valuation in uniformizer digits; math.inf when the element
        is indistinguishable from zero at precision N."""
        v = self._raw_valuation()
        N = self.field.N
        if self.h < N:
            _decide(self.field, v, self.h)
        return v if v < N else math.inf

    def __add__(self, other):
        other = _coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        h = self.h if self.h < other.h else other.h
        if self._vanishes():
            # of two zeros, keep the lower degraded-zero horizon shift + N
            r = self if other._vanishes() and self.shift < other.shift else other
            return r._capped(h, other if r is self else self)
        if other._vanishes():
            return self._capped(h, other)
        s = min(self.shift, other.shift)
        dx = self.digits
        dy = other.digits
        kx = self.shift - s
        ky = other.shift - s
        if kx:
            dx = _shift_up(f, dx, kx)
        if ky:
            dy = _shift_up(f, dy, ky)
        return f.element(s, f._dig_add(dx, dy), h)

    __radd__ = __add__

    def __neg__(self):
        if self._vanishes():
            return self
        return LocalElement(self.field, self.shift, self.field._dig_neg(self.digits),
                            self.shift, self.h)

    def __sub__(self, other):
        other = _coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        f = self.field
        shift = self.shift + other.shift
        h = _product_horizon(self, other, shift)
        if not any(self.digits) or not any(other.digits):
            return f.element(shift, (0,) * (f.e * f.f0), h)
        one = f._one.digits
        if other.digits == one:
            return LocalElement(f, shift, self.digits, shift, h)
        if self.digits == one:
            return LocalElement(f, shift, other.digits, shift, h)
        xp, yp = self._packed(), other._packed()
        d = f._dig_mul_packed(xp, yp) if f._col is None else f._mul_columns(xp, yp)
        return LocalElement(f, shift, d, shift, h)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise NotInvertibleError("not invertible at precision")
        f = self.field
        s = self.shift
        if self.digits == f._one.digits:
            return LocalElement(f, -s, self.digits, -s, self.h - 2 * s)
        return LocalElement(f, -s, f._dig_inv(self.digits), -s, self.h - 2 * s)

    def __truediv__(self, other):
        other = _coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        result = self.field._one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, LocalElement):
            other = _coerce(self.field, other)
            if other is NotImplemented:
                return NotImplemented
        if self.field is not other.field and self.field != other.field:
            return False
        return self.diff_valuation(other) == math.inf

    __hash__ = None  # representations of one value can differ in shift

    def diff_valuation(self, other):
        """(self - other).valuation(), decided on the digits that `+` would
        hand to `element()`, without building the difference: those digits
        are tested for vanishing at precision N, and only a nonvanishing
        difference has its digit valuation read.  A strip never changes the
        valuation, so this is exact.  Decided below the lower horizon of the
        two, as the difference is known to it."""
        other = _coerce(self.field, other)
        f = self.field
        if self._vanishes():
            v = other._raw_valuation()
        elif other._vanishes():
            v = self._raw_valuation()
        else:
            s = min(self.shift, other.shift)
            dx, dy = self.digits, other.digits
            if self.shift > s:
                dx = _shift_up(f, dx, self.shift - s)
            if other.shift > s:
                dy = _shift_up(f, dy, other.shift - s)
            pM = f.pM
            d = tuple((a - b) % pM for a, b in zip(dx, dy))
            v = s + f._dig_val(d) if any(_mask_digits(f, d, f.N - s)) else math.inf
        h = self.h if self.h < other.h else other.h
        if h < f.N:
            _decide(f, v, h)
        return v if v < f.N else math.inf

    def eq_at(self, other, threshold=None) -> bool:
        """Equality at valuation threshold (default: the field's tau)."""
        t = threshold if threshold is not None else self.field.tau
        return self.diff_valuation(other) >= t

    def __repr__(self):
        if self._vanishes():
            return f"LocalElement(0 at precision, h={self.h})"
        return f"LocalElement(shift={self.shift}, digits={self.digits}, h={self.h})"

    def to_json(self):
        """`0` for an element that is zero at N; otherwise
        `[shift, "d_0", ..., "d_(e*f0-1)"]`, the digits published at
        absolute precision N, i.e. the unit part masked at relative depth
        N - shift, which is what equality compares.  For a positive shift
        nothing of the guard band leaves the process.  Raises
        PrecisionExhaustedError when the element is known below N only, so
        no digit past its horizon is published."""
        f = self.field
        if self.h < f.N:
            raise PrecisionExhaustedError(
                f"element known mod pi^{self.h} only, below the published precision {f.N}")
        if self._vanishes():
            return 0
        masked = _mask_digits(f, self.digits, f.N - self.shift)
        return [self.shift, *map(str, masked)]

    @staticmethod
    def from_json(field, obj):
        """The element `to_json` writes as obj; ValueError when obj is not
        what `to_json` writes for some element: `0`, or a shift of at least
        -G (so the element is known at N) with e*f0 digit strings, each the
        decimal `str` of an int already masked at relative depth N - shift,
        whose digit vector is a unit."""
        if type(obj) is int and obj == 0:
            return field._zero
        if (type(obj) is not list or len(obj) != 1 + field.e * field.f0
                or type(obj[0]) is not int
                or any(type(s) is not str for s in obj[1:])):
            raise ValueError(f"expected 0 or [shift, {field.e * field.f0} digit strings]")
        shift = obj[0]
        if shift + field.Nint < field.N:
            raise ValueError(f"shift {shift} below -{field.G}: not known at precision {field.N}")
        digits = tuple(map(int, obj[1:]))
        if list(map(str, digits)) != obj[1:]:
            raise ValueError("digit strings must be canonical decimals")
        if _mask_digits(field, digits, field.N - shift) != digits:
            raise ValueError(f"digits not masked at relative depth {field.N - shift}")
        if not any(c % field.p for c in digits[:field.f0]):
            raise ValueError("digit vector is not a unit")
        return LocalElement(field, shift, digits, shift)


def _decide(field, v, h):
    """Raise PrecisionExhaustedError unless the answer v of a decision at N
    is decided at horizon h < N: v < h."""
    if v >= h:
        raise PrecisionExhaustedError(
            f"decision at valuation {v} past the horizon {h}, below the precision {field.N}")


def _product_horizon(x, y, shift):
    """The horizon of x*y at its shift: min(h_x + v(y), h_y + v(x)) with
    v(z) = min(raw valuation, h), a lower bound of z's valuation that is
    h for a vanished digit vector; capped at shift + Nint, where the digit
    product is exact.  When both are known to shift + Nint, v(z) >= shift
    makes that cap the horizon."""
    hx, hy = x.h, y.h
    cap = shift + x.field.Nint
    if hx + hy - cap == x.field.Nint:
        return cap
    vx, vy = x._raw_valuation(), y._raw_valuation()
    return min(hx + (vy if vy < hy else hy), hy + (vx if vx < hx else hx), cap)


def _coerce(field, x):
    if isinstance(x, LocalElement):
        if x.field is not field and x.field != field:
            raise ValueError("elements from different fields")
        return x
    if isinstance(x, int):
        return field.from_int(x)
    return NotImplemented


def _mask_digits(field, digits, depth):
    """The digit vector reduced mod pi^depth.

    Index i*f0+j holds the coefficient of pi^i a^j and p is pi^e times a
    unit, so a coefficient at pi-index i only matters mod p^ceil((depth-i)/e).
    With depth = k*e + r that is p^(k+1) for the rows i < r and p^k for the
    others, read from the field's table of p-powers; past Nint/e the modulus
    is pM, which leaves a reduced digit as it is.
    """
    k, r = divmod(depth, field.e)
    pows = field._ppow
    top = len(pows) - 1
    hi = pows[top if k >= top else k + 1 if k >= 0 else 0]
    lo = pows[top if k > top else k if k > 0 else 0]
    cut = r * field.f0
    return tuple([c % hi for c in digits[:cut]] + [c % lo for c in digits[cut:]])


def _shift_up(field, digits, k):
    """digits * pi^k inside O_F/pi^Nint, the quotient the digits live in:
    the digit rows moved up by k zero rows, then one `_fold`."""
    f0 = field.f0
    if k >= field.Nint:
        return (0,) * (field.e * f0)
    return field._fold([[0] * f0 for _ in range(k)]
                       + [list(digits[i:i + f0]) for i in range(0, len(digits), f0)], field.pM)


# --- public operations -------------------------------------------------------


_FIELDS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def make_field(p: int, q: int, f0: int = 1, N: int = 32, tau=None) -> FieldDescriptor:
    """The working ring O_F for F = Q_{p^f0}(zeta_q) at precision N.

    q must be 1 or a power of p that is at least 3 (q = 2 is rejected).
    N is counted in uniformizer digits and is rounded up to a multiple of
    the ramification index; it must be at least 4*max(1, phi(q)).

    Returns the shared field of the normalized parameters (p, q, f0, N
    rounded up, tau resolved): while one such field is alive, every call
    with the same parameters returns that object, caches included.
    """
    if not is_prime(p):
        raise UnsupportedParametersError(f"p = {p} is not prime")
    if q != 1:
        if q == 2:
            raise UnsupportedParametersError("q = 2 is not supported")
        k, m = 0, q
        while m % p == 0:
            m //= p
            k += 1
        if m != 1 or k == 0 or q < 3:
            raise UnsupportedParametersError(f"q = {q} is not a power of p = {p} with q >= 3")
    if f0 < 1:
        raise UnsupportedParametersError("f0 must be at least 1")
    e = (q - q // p) if q >= 3 else 1
    if N < 4 * max(1, e):
        raise UnsupportedParametersError(f"precision N = {N} below the minimum {4 * max(1, e)}")
    N = e * -(-N // e)
    key = (p, q, f0, N, tau if tau is not None else -(-3 * N // 4))
    field = _FIELDS.get(key)
    if field is None:
        field = _FIELDS[key] = FieldDescriptor(*key)
    return field


def enumerate_mu_q(field: FieldDescriptor) -> tuple[LocalElement, ...]:
    """The q-th roots of unity as exact elements, ordered as powers of the
    fixed primitive root zeta = 1 + pi."""
    if field._mu_cache is None:
        z = field.zeta()
        out = [field.one()]
        cur = field.one()
        for _ in range(field.q - 1):
            cur = cur * z
            out.append(cur)
        field._mu_cache = tuple(out)
    return field._mu_cache


def mu_q_index(x: LocalElement) -> int | None:
    """Index j of the q-th root of unity with v(x - zeta^j) >= theta, or
    None when no root lies that close.

    theta = max(r + 1, tau - v(q)), where r = q/p (0 for q = 1) is the
    largest valuation of a difference of two distinct roots, so at most one
    root matches.  Past r, v(x^q - 1) = v(q) + v(x - zeta^j): a match gives
    x^q = 1 at tau, and x^q = 1 at tau without a match means that x lies no
    closer than r to every root.
    """
    f = x.field
    theta = max(f.q // f.p + 1, f.tau - f.e * _vp_int(f.q, f.p))
    for j, root in enumerate(enumerate_mu_q(f)):
        if x.diff_valuation(root) >= theta:
            return j
    return None


def reduce_mod_m(x: LocalElement) -> int:
    """Image in the residue field F_{p^f0}, encoded base p as an integer."""
    f = x.field
    v = x.valuation()
    if v == math.inf:
        return 0
    if v < 0:
        raise NotIntegralError("element has a pole")
    if v > 0:
        return 0
    return sum((x.digits[j] % f.p) * f.p ** j for j in range(f.f0))


def hensel_sqrt(x: LocalElement) -> LocalElement:
    """Square root of an element whose valuation is even and whose unit part
    is a square in the residue field (p odd)."""
    f = x.field
    if f.p == 2:
        raise UnsupportedParametersError("square roots need odd residue characteristic")
    if x.is_zero():
        return x
    v = x.valuation()
    if v % 2:
        raise SquareRootError("odd valuation has no square root in F")
    res = tuple(x.digits[j] % f.p for j in range(f.f0))
    root = None
    for code in range(1, f.p ** f.f0):
        cand = tuple((code // f.p ** i) % f.p for i in range(f.f0))
        if f._k_mul(cand, cand) == res:
            root = cand
            break
    if root is None:
        raise SquareRootError("unit part is not a square in the residue field")
    d = [0] * (f.e * f.f0)
    for j in range(f.f0):
        d[j] = root[j]
    u = LocalElement(f, 0, x.digits, 0, x.h - x.shift)
    z = f.element(0, tuple(d))
    if f._inv2 is None:
        f._inv2 = f.from_int(2).inv()
    inv2 = f._inv2
    cap = math.ceil(math.log2(f.N)) + 4
    for _ in range(cap):
        r = z * z - u
        if r.is_zero():
            break
        z = (z + u / z) * inv2
    if not (z * z - u).is_zero():
        raise SquareRootError("square root iteration did not converge")
    return f.uniformizer() ** (v // 2) * z
