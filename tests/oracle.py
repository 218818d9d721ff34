"""A naive model of O_F/pi^K, to check `demuskin.localring` against.

An element is a tuple of e*f0 plain integers mod p^(K/e): the coefficient
of pi^i a^j sits at index i*f0 + j, as in a `FieldDescriptor` digit vector.
Since p is pi^e times a unit and the pi^i a^j form a Z_p-basis of O_F,
these coefficient tuples are exactly O_F/pi^K for K a multiple of e.  A
product is the schoolbook product of the two polynomials in (pi, a),
reduced by schoolbook division by the defining polynomials: a^f0 by
`unram`, then pi^e by `eis`.  There is no packing, no shift and no guard
band.  `assert_agrees` checks a LocalElement result against the model.
"""

import math

from demuskin.localring import PrecisionExhaustedError


class Oracle:
    def __init__(self, field, K):
        e, f0 = field.e, field.f0
        assert K % e == 0
        self.e, self.f0, self.p = e, f0, field.p
        self.eis, self.unram = field.eis, field.unram
        self.K, self.mod = K, field.p ** (K // e)
        pi = [0] * (e * f0)
        pi[f0 if e > 1 else 0] = 1 if e > 1 else field.p  # for q = 1, pi = p
        self.one = (1,) + (0,) * (e * f0 - 1)
        self.pi = tuple(pi)
        self._pi_pows = [self.one]
        self._residue_inverses = {}

    def add(self, x, y):
        return tuple((a + b) % self.mod for a, b in zip(x, y))

    def neg(self, x):
        return tuple(-a % self.mod for a in x)

    def mul(self, x, y):
        e, f0 = self.e, self.f0
        grid = [[0] * (2 * f0 - 1) for _ in range(2 * e - 1)]
        for i in range(e):
            for j in range(f0):
                for k in range(e):
                    for m in range(f0):
                        grid[i + k][j + m] += x[i * f0 + j] * y[k * f0 + m]
        for row in grid:
            for j in range(2 * f0 - 2, f0 - 1, -1):  # a^f0 = -sum unram_m a^m
                for m, u in enumerate(self.unram):
                    row[j - f0 + m] -= row[j] * u
        for i in range(2 * e - 2, e - 1, -1):        # pi^e = -sum eis_k pi^k
            for j in range(f0):
                for k, u in enumerate(self.eis):
                    grid[i - e + k][j] -= grid[i][j] * u
        return tuple(grid[i][j] % self.mod for i in range(e) for j in range(f0))

    def inv(self, u):
        """Inverse of a unit u: the inverse of its residue (the pi^0
        coefficients mod p), found by trial over the p^f0 - 1 nonzero
        residues, then Newton z <- z(2 - u z), each step exact to twice the
        depth, until u z = 1."""
        p, f0 = self.p, self.f0
        res = tuple(c % p for c in u[:f0])
        z = self._residue_inverses.get(res)
        if z is None:
            pad = (0,) * ((self.e - 1) * f0)
            for code in range(1, p ** f0):
                z = tuple(code // p ** j % p for j in range(f0)) + pad
                if tuple(c % p for c in self.mul(u, z)[:f0]) == self.one[:f0]:
                    break
            self._residue_inverses[res] = z
        two = self.add(self.one, self.one)
        while (t := self.mul(u, z)) != self.one:
            z = self.mul(z, self.add(two, self.neg(t)))
        return z

    def pi_pow(self, k):
        """pi^k, from a table of the powers built so far."""
        pows = self._pi_pows
        while len(pows) <= min(k, self.K):  # pi^K = 0
            pows.append(self.mul(pows[-1], self.pi))
        return pows[min(k, self.K)]

    def lift(self, x, c):
        """pi^c times the LocalElement x = pi^shift * digits, for
        shift + c >= 0."""
        return self.mul(self.pi_pow(x.shift + c), tuple(d % self.mod for d in x.digits))

    def valuation(self, x):
        """min of e*v_p(c) + i over the nonzero coefficients c of pi^i a^j;
        math.inf for zero."""
        best = math.inf
        for idx, c in enumerate(x):
            if c:
                v = 0
                while c % self.p == 0:
                    c //= self.p
                    v += 1
                best = min(best, self.e * v + idx // self.f0)
        return best


def decided(f, want, h, decide):
    """decide(), or None where it raised PrecisionExhaustedError, which it
    may only where the answer `want` (a valuation, math.inf from N on) does
    not lie below the horizon h < N."""
    try:
        return decide()
    except PrecisionExhaustedError:
        assert h < f.N and want >= h
        return None


def assert_agrees(model, r, want, c):
    """r times pi^c equals want mod pi^(c+min(N, h)), h the horizon of r,
    and r's valuation and zero-ness at N are want's, less c, or raise
    PrecisionExhaustedError past h."""
    f = r.field
    N = f.N
    assert model.valuation(model.add(model.lift(r, c), model.neg(want))) >= c + min(N, r.h)
    v = model.valuation(want) - c
    v = v if v < N else math.inf
    assert decided(f, v, r.h, r.valuation) in (None, v)
    assert decided(f, v, r.h, r.is_zero) in (None, v == math.inf)


def assert_known_at_N(*results):
    """No loss: every result is known at N, so nothing it is asked raises."""
    for r in results:
        assert r.h >= r.field.N
        r.valuation(), r.is_zero(), r.to_json()
