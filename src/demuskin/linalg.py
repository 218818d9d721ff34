"""Matrix algebra over LocalElements and over polynomials in them.

`Mat` is ring-generic: its entries are LocalElements or `Poly`s over one
field, and products, powers, determinants and adjugates work the same way
over both (in sums and products a LocalElement acts as a constant
polynomial).  The path verifier uses it over `Poly` to check the relation
word W identically in t, in a cleared form built from products, adjugates
and determinants only: W - I times a matrix and a scalar that are
invertible at every point of a path in 1 + M_n(m), so its valuation is
that of W - I, and no polynomial is inverted.  `mat_inv` is for
LocalElement entries.

Every rank, kernel and eigenspace stage is decided at the field's tau,
read off its entries: none guesses when an elementary divisor lands in
[tau, N), and each raises PrecisionExhaustedError instead.  Rank, kernel and
span membership share one elimination sweep, `_kernel_rectangular`: a rank
is the column count minus the kernel dimension.  Determinants expand
division-free (memoized Laplace over column subsets), so they never consume
precision.  Each matrix keeps its Laplace memo table, and `adjugate` takes
all n^2 cofactors from it: the cofactors of row i expand the other rows in
order, and a minor of k columns spans the last k rows, the same rows as in
the full expansion when k <= n-1-i.  Masks range over the original
columns, so every minor is the same dot, with the same terms, signs and
order, as an expansion of the cofactor's own submatrix.  `mat_inv` divides the adjugate by the
determinant once.

Each Laplace minor and each entry of a matrix product is one fused dot,
`_dot`: its products are summed packed and reduced once per block of e
consecutive product shifts (`FieldDescriptor.dot`) instead of once per
product.  Over `Poly` the same dot runs once per output coefficient, and a
product of two `Poly`s is a dot of one term.
"""

from __future__ import annotations

import math

from .localring import (
    FieldDescriptor,
    LocalElement,
    NotInvertibleError,
    PrecisionExhaustedError,
)


class SingularMatrixError(NotInvertibleError):
    """Matrix not invertible at working precision."""


class Mat:
    """Square matrix over one field, with entries in one ring over it:
    LocalElements or Polys.  The entry ring is read off the entries.
    Immutable, so `det` keeps its Laplace memo table and `charpoly` its
    result on the matrix."""

    __slots__ = ("field", "n", "rows", "_minors", "_charpoly")

    def __init__(self, field: FieldDescriptor, rows):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.n = len(self.rows)
        self._minors = None
        self._charpoly = None
        for r in self.rows:
            if len(r) != self.n:
                raise ValueError("matrix must be square")

    @staticmethod
    def identity(field, n):
        one, zero = field.one(), field.zero()
        return Mat(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @staticmethod
    def diag(field, entries):
        entries = list(entries)
        zero = field.zero()
        n = len(entries)
        return Mat(field, [[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    def __mul__(self, other):
        if isinstance(other, Mat):
            f = self.field
            cols = tuple(zip(*other.rows))
            return Mat(f, [[_dot(f, [(x, y, False) for x, y in zip(r, c)]) for c in cols]
                           for r in self.rows])
        if isinstance(other, LocalElement):
            return self.scale(other)
        return NotImplemented

    def scale(self, x):
        return Mat(self.field, [[e * x for e in r] for r in self.rows])

    def __add__(self, other):
        return Mat(self.field, [[a + b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Mat(self.field, [[a - b for a, b in zip(ra, rb)]
                                for ra, rb in zip(self.rows, other.rows)])

    def __pow__(self, k: int):
        if k < 0:
            return mat_inv(self) ** (-k)
        if k == 0:
            return Mat.identity(self.field, self.n)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    __hash__ = None

    def diff_valuation(self, other):
        """(self - other).min_entry_valuation(), entry by entry on aligned
        digits (`LocalElement.diff_valuation`), with no difference built."""
        return min(a.diff_valuation(b)
                   for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def eq_at(self, other):
        return all(a.diff_valuation(b) >= self.field.tau
                   for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb))

    def is_identity(self):
        one = self._ring()[0]
        return all(e.diff_valuation(one) == math.inf if i == j else e.is_zero()
                   for i, r in enumerate(self.rows) for j, e in enumerate(r))

    def min_entry_valuation(self):
        return min(e.valuation() for r in self.rows for e in r)

    def _ring(self):
        """(one, zero) of the entry ring."""
        f = self.field
        if self.n and isinstance(self.rows[0][0], Poly):
            return Poly.const(f, f.one()), Poly.const(f, f.zero())
        return f.one(), f.zero()

    def __repr__(self):
        return f"Mat(n={self.n}, field={self.field!r})"


def _det_minor(rows, r, mask, zero, memo):
    """Determinant of rows r.. restricted to the columns in mask, as one
    fused dot over the nonzero entries of row r: division-free Laplace
    expansion by rows, memoized over active-column bitmasks, for entries of
    either ring of `Mat`.  A module-level function, not a closure, so that
    no reference cycle keeps the memo table alive longer than its owner."""
    hit = memo.get(mask)
    if hit is not None:
        return hit
    terms = []
    neg = False
    m = mask
    while m:
        low = m & -m
        entry = rows[r][low.bit_length() - 1]
        if not entry.is_zero():
            terms.append((entry, _det_minor(rows, r + 1, mask ^ low, zero, memo), neg))
        neg = not neg
        m &= m - 1
    total = memo[mask] = _dot(zero.field, terms) if terms else zero
    return total


def _dot(field, terms):
    """Sum of the products x*y, each negated where neg is true, over the
    (x, y, neg) terms, whose factors are LocalElements or Polys (a
    LocalElement acts as a constant polynomial).  Over LocalElements this is
    `field.dot`; with a Poly among the factors it is one `field.dot` per
    output coefficient, over the products of nonzero coefficients."""
    if not any(isinstance(x, Poly) or isinstance(y, Poly) for x, y, _ in terms):
        return field.dot(terms)
    by_degree = []
    for x, y, neg in terms:
        b = _nonzero_coeffs(y)
        for i, c in _nonzero_coeffs(x):
            for j, d in b:
                while len(by_degree) <= i + j:
                    by_degree.append([])
                by_degree[i + j].append((c, d, neg))
    return Poly(field, [field.dot(t) for t in by_degree])


def _nonzero_coeffs(x):
    """(degree, coefficient) of the coefficients of x nonzero at N."""
    return [(i, c) for i, c in enumerate(x.coeffs if isinstance(x, Poly) else (x,))
            if not c.is_zero()]


def det(M: Mat):
    """Determinant, the top entry of the matrix's Laplace memo table, which
    is expanded once per matrix."""
    top = (1 << M.n) - 1
    if M._minors is None:
        one, zero = M._ring()
        M._minors = {0: one}
        _det_minor(M.rows, 0, top, zero, M._minors)
    return M._minors[top]


def adjugate(M: Mat) -> Mat:
    """Transposed cofactor matrix, so M * adjugate(M) = det(M) I; computed
    division-free over either entry ring.

    The cofactors of row i share one memo over the other rows, seeded with
    the minors of the full expansion whose rows all lie below i."""
    n = M.n
    zero = M._ring()[1]
    top = (1 << n) - 1
    det(M)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        rows = M.rows[:i] + M.rows[i + 1:]
        memo = {m: v for m, v in M._minors.items() if m.bit_count() <= n - 1 - i}
        for j in range(n):
            cof = _det_minor(rows, 0, top ^ (1 << j), zero, memo)
            out[j][i] = -cof if (i + j) % 2 else cof
    return Mat(M.field, out)


def mat_inv(M: Mat) -> Mat:
    """Inverse over F of a matrix of LocalElements via adjugate /
    determinant (exact when det is a unit; for non-unit determinants the
    pole goes into the shifts)."""
    adj = adjugate(M)
    d = det(M)
    if d.is_zero():
        raise SingularMatrixError("singular at working precision")
    return adj.scale(d.inv())


class Poly:
    """Polynomial in one variable with LocalElement coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs) if coeffs else (field.zero(),)

    @staticmethod
    def const(field, c):
        return Poly(field, (c,))

    @staticmethod
    def monomial(field, c, k):
        return Poly(field, tuple([field.zero()] * k) + (c,))

    def degree(self):
        """Largest index with a coefficient nonzero at precision; -1 if none."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if not self.coeffs[i].is_zero():
                return i
        return -1

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def valuation(self):
        """Smallest coefficient valuation."""
        return min(c.valuation() for c in self.coeffs)

    def diff_valuation(self, other):
        """(self - other).valuation(), coefficient by coefficient on aligned
        digits (`LocalElement.diff_valuation`)."""
        if isinstance(other, LocalElement):
            other = Poly.const(self.field, other)
        return min(self.coeff(k).diff_valuation(other.coeff(k))
                   for k in range(max(len(self.coeffs), len(other.coeffs))))

    def coeff(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else self.field.zero()

    def __add__(self, other):
        if isinstance(other, LocalElement):
            other = Poly.const(self.field, other)
        la, lb = len(self.coeffs), len(other.coeffs)
        z = self.field.zero()
        return Poly(self.field, tuple(
            (self.coeffs[i] if i < la else z) + (other.coeffs[i] if i < lb else z)
            for i in range(max(la, lb))))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, LocalElement):
            other = Poly.const(self.field, other)
        return self + (-other)

    def __mul__(self, other):
        return _dot(self.field, [(self, other, False)])

    __rmul__ = __mul__

    def __call__(self, x: LocalElement) -> LocalElement:
        return horner(self.coeffs, x)

    def __eq__(self, other):
        return self.diff_valuation(other) == math.inf

    __hash__ = None

    def __repr__(self):
        return f"Poly(deg<={len(self.coeffs)-1})"


def charpoly(M: Mat) -> tuple[LocalElement, ...]:
    """Coefficients (c_0,...,c_n) of det(xI - M), monic of degree n;
    expanded once per matrix."""
    if M._charpoly is None:
        f = M.field
        one, zero = f.one(), f.zero()
        xi_m = Mat(f, [[Poly(f, ((-M.rows[i][j]), one) if i == j else (-M.rows[i][j],))
                        for j in range(M.n)] for i in range(M.n)])
        coeffs = list(det(xi_m).coeffs)
        coeffs += [zero] * (M.n + 1 - len(coeffs))
        M._charpoly = tuple(coeffs[: M.n + 1])
    return M._charpoly


def synthetic_divide(coeffs, lam):
    """Divide a monic-or-not coefficient list by (x - lam); returns the
    quotient coefficients, discarding the (checked-elsewhere) remainder."""
    n = len(coeffs) - 1
    out = [None] * n
    acc = coeffs[n]
    for i in range(n - 1, -1, -1):
        out[i] = acc
        acc = coeffs[i] + acc * lam
    return tuple(out)


def horner(coeffs, x):
    """Value at x of the coefficient list (c_0,...,c_d)."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def deflate(coeffs, lam):
    """(multiplicity, quotient): divide the coefficient list by (x - lam)
    for as long as its value at lam vanishes at tau."""
    mult = 0
    while len(coeffs) > 1 and horner(coeffs, lam).valuation() >= lam.field.tau:
        coeffs = synthetic_divide(coeffs, lam)
        mult += 1
    return mult, coeffs


# --- rank / kernels at a valuation threshold ---------------------------------


def _classify_remaining(entries, tau, N):
    """After reduction stops, the remaining entries are the zero divisors.

    Nonzero digit vectors carry an exact valuation, so a value at or above
    tau is a decided zero divisor, not a guess (this is what makes
    diag(1, pi^(N-1)) have rank 1 at tau).  The genuinely ambiguous case is
    a vanished digit vector whose knowledge horizon shift+N dropped below
    tau through pole cancellation: there we abort rather than guess.
    """
    for x in entries:
        if x.is_zero() and x.shift + N < tau:
            raise PrecisionExhaustedError(
                f"entry only known to vanish mod pi^{x.shift + N}, below the "
                f"threshold {tau}; raise the working precision")


def rank_at_threshold(M: Mat) -> int:
    """Number of elementary divisors with valuation below the threshold."""
    return M.n - len(_kernel_rectangular(M.rows))


def rank_of_columns(cols) -> int:
    """Rank at threshold of the matrix whose columns are `cols`."""
    if not cols:
        return 0
    return len(cols) - len(_kernel_rectangular(list(zip(*cols))))


def kernel_basis_at_threshold(M: Mat):
    """Basis of the right kernel at threshold, as unimodular column vectors.

    Column reduction with global minimal-valuation pivots, mirrored on an
    identity matrix; the mirror columns of the unreduced columns form the
    kernel.  The mirror stays in GL_n(O_F), so each basis vector has a unit
    coordinate.
    """
    return _kernel_rectangular(M.rows)


def solve_in_span(cols, target):
    """Coefficients expressing target in the span of the given columns, or
    raise if it is not there at threshold.  Found from a kernel vector of
    the augmented matrix whose last coordinate is a unit."""
    n = len(target)
    aug_rows = [[cols[k][i] for k in range(len(cols))] + [target[i]] for i in range(n)]
    kern = _kernel_rectangular(aug_rows)
    for vec in kern:
        if vec[-1].valuation() == 0:
            s = -vec[-1].inv()
            return [c * s for c in vec[:-1]]
    raise PrecisionExhaustedError("target vector not in span at threshold")


def _kernel_rectangular(rows):
    """Mirror columns of the columns left unreduced by global
    minimal-valuation pivoting.  Each pivot is the next elementary divisor
    below tau, so the column count minus the kernel dimension is the rank."""
    f = rows[0][0].field
    nr = len(rows)
    nc = len(rows[0])
    work = [list(r) for r in rows]
    mirror = [[f.one() if i == j else f.zero() for j in range(nc)] for i in range(nc)]
    act_r = list(range(nr))
    act_c = list(range(nc))
    while act_r and act_c:
        best = None
        for r in act_r:
            for c in act_c:
                v = work[r][c].valuation()
                if v != math.inf and (best is None or v < best[0]):
                    best = (v, r, c)
        if best is None or best[0] >= f.tau:
            break
        _, pr, pc = best
        targets = [c for c in act_c if c != pc and not work[pr][c].is_zero()]
        if targets:
            pinv = work[pr][pc].inv()
            for c in targets:
                m = work[pr][c] * pinv
                for i in range(nr):
                    work[i][c] = work[i][c] - m * work[i][pc]
                for i in range(nc):
                    mirror[i][c] = mirror[i][c] - m * mirror[i][pc]
        act_r.remove(pr)
        act_c.remove(pc)
    _classify_remaining([work[r][c] for r in act_r for c in act_c], f.tau, f.N)
    return [tuple(mirror[i][c] for i in range(nc)) for c in act_c]


# --- generalized eigenspaces --------------------------------------------------


class Filtration:
    """Nested kernel stages of (M - lambda): an ordered vector list where the
    first shape[0] vectors span stage 1, the first shape[1] span stage 2, and
    so on.  Vectors are unimodular columns."""

    __slots__ = ("vectors", "shape")

    def __init__(self, vectors, shape):
        self.vectors = tuple(tuple(v) for v in vectors)
        self.shape = tuple(shape)
        for v in self.vectors:
            if min(x.valuation() for x in v) != 0:
                raise ValueError("filtration vectors must be unimodular")

    def dimension(self):
        return self.shape[-1] if self.shape else 0


def generalized_eigenspace(M: Mat, lam: LocalElement) -> Filtration:
    """The flag ker(M-lam) in ker(M-lam)^2 in ... up to stabilization.

    The top dimension is cross-checked against the multiplicity of lam in
    the characteristic polynomial; disagreement is a precision failure, not
    a guess.
    """
    f = M.field
    n = M.n
    A = M - Mat.identity(f, n).scale(lam)
    vectors = []
    shape = []
    Apow = A
    for _ in range(n):
        kern = kernel_basis_at_threshold(Apow)
        if len(kern) == len(vectors):
            break
        added = _extend_basis(vectors, kern)
        vectors = vectors + added
        shape.append(len(vectors))
        if len(vectors) == n:
            break
        Apow = Apow * A
    if shape:
        mult, _ = deflate(charpoly(M), lam)
        if mult != shape[-1]:
            raise PrecisionExhaustedError(
                f"eigenspace dimension {shape[-1]} disagrees with characteristic "
                f"multiplicity {mult}")
    return Filtration(vectors, shape)


def _extend_basis(current, candidates):
    added = []
    target = len(candidates)
    cur = list(current)
    for v in candidates:
        if len(cur) >= target:
            break
        if rank_of_columns(cur + [v]) > len(cur):
            cur.append(v)
            added.append(v)
    if len(cur) != target:
        raise PrecisionExhaustedError("could not extend stage basis at threshold")
    return added


# --- Iwasawa decomposition ----------------------------------------------------


def iwasawa_decompose(E: Mat) -> Mat:
    """The integral factor E0 in GL_n(O_F) of E = Nup * E0, with Nup
    upper-triangular over F.

    Rows are processed bottom-up, so the row operations applied to E form
    an upper-triangular matrix T and E0 = T E, Nup = T^-1: eliminate the
    pivot columns of the rows below, rescale by a power of the uniformizer
    to minimal valuation 0, then pivot on the rightmost unit entry.
    Uniformizer rescaling is a pure shift, hence exact.

    The rows below are used nearest-last (descending r).  Row r is clear only
    in the pivot columns of the rows beneath it, so subtracting it never
    refills a column that a lower row has already cleared; in ascending
    order it would refill the columns of the rows between i and r.  A row
    is final once processed, so its pivot is inverted once, when first used.
    """
    f = E.field
    n = E.n
    work = [list(r) for r in E.rows]
    pivot_col = [None] * n
    pivot_inv = [None] * n
    for i in range(n - 1, -1, -1):
        for r in range(n - 1, i, -1):
            c = pivot_col[r]
            t = work[i][c]
            if not t.is_zero():
                if pivot_inv[r] is None:
                    pivot_inv[r] = work[r][c].inv()
                m = t * pivot_inv[r]
                for j in range(n):
                    work[i][j] = work[i][j] - m * work[r][j]
        vmin = min(x.valuation() for x in work[i])
        if vmin == math.inf:
            raise SingularMatrixError("matrix not invertible over F")
        if vmin != 0:
            s = f.uniformizer() ** (-vmin)
            for j in range(n):
                work[i][j] = work[i][j] * s
        used = pivot_col[i + 1:]
        cands = [c for c in range(n) if c not in used
                 and work[i][c].valuation() == 0]
        if not cands:
            raise PrecisionExhaustedError("no unit pivot available in Iwasawa step")
        pivot_col[i] = max(cands)
    E0 = Mat(f, work)
    if det(E0).valuation() != 0:
        raise PrecisionExhaustedError("integral factor is not in GL_n(O_F)")
    return E0


def is_upper_triangular(M: Mat) -> bool:
    return all(M.rows[i][j].valuation() >= M.field.tau
               for i in range(M.n) for j in range(i))

