"""SU(2) weight combinatorics: tensor decompositions and superspin multiplets.

Half-integers are carried as doubled integers (2*spin), keeping everything
in exact integer arithmetic.
"""

from __future__ import annotations


class NotARepresentation(ValueError):
    pass


def _as_doubled(x):
    d = int(round(2 * x))
    if 2 * x != d:
        raise ValueError(f"{x} is not a half-integer")
    return d


class WeightMultiset:
    """Map doubled-weight -> multiplicity."""

    __slots__ = ("mult",)

    def __init__(self, mult=None):
        self.mult = {}
        if mult:
            for w, k in mult.items():
                if k:
                    self.mult[w] = self.mult.get(w, 0) + k

    def __getitem__(self, w2):
        return self.mult.get(w2, 0)

    def __eq__(self, other):
        return self.mult == other.mult

    def __add__(self, other):
        out = dict(self.mult)
        for w, k in other.mult.items():
            out[w] = out.get(w, 0) + k
        return WeightMultiset(out)

    def tensor(self, other):
        out = {}
        for w1, k1 in self.mult.items():
            for w2, k2 in other.mult.items():
                out[w1 + w2] = out.get(w1 + w2, 0) + k1 * k2
        return WeightMultiset(out)

    def dimension(self):
        return sum(self.mult.values())

    def is_symmetric(self):
        return all(self[w] == self[-w] for w in self.mult)


class SpinDecomposition:
    """Map doubled-spin -> multiplicity, with dimension bookkeeping."""

    __slots__ = ("mult",)

    def __init__(self, mult=None):
        self.mult = {}
        if mult:
            for s, k in mult.items():
                if k:
                    if s < 0:
                        raise ValueError("spins are non-negative")
                    self.mult[s] = self.mult.get(s, 0) + k

    def __getitem__(self, s2):
        return self.mult.get(s2, 0)

    def __eq__(self, other):
        return self.mult == other.mult

    def dimension(self):
        return sum((s + 1) * k for s, k in self.mult.items())

    def as_spin_dict(self):
        return {s / 2 if s % 2 else s // 2: k for s, k in sorted(self.mult.items())}

    def __repr__(self):
        return f"SpinDecomposition({self.as_spin_dict()!r})"


def weights_of_sym(sigma):
    """Weights of Sym^{2 sigma}: unit multiplicities from -sigma to sigma."""
    s2 = _as_doubled(sigma)
    if s2 < 0:
        raise ValueError("sigma must be non-negative")
    return WeightMultiset({w: 1 for w in range(-s2, s2 + 1, 2)})


def weight_decompose(w):
    """Highest-weight stripping of a symmetric weight multiset."""
    if not w.is_symmetric():
        raise NotARepresentation("weight multiset is not symmetric under negation")
    work = dict(w.mult)
    out = {}
    while any(work.values()):
        top = max(x for x, k in work.items() if k)
        if top < 0:
            raise NotARepresentation("negative highest weight")
        k = work[top]
        out[top] = out.get(top, 0) + k
        for x in range(-top, top + 1, 2):
            work[x] = work.get(x, 0) - k
            if work[x] < 0:
                raise NotARepresentation("stripping produced a negative multiplicity")
    return SpinDecomposition(out)


def tensor_sym_decompose(alpha, beta):
    """Sym^{2a} (x) Sym^{2b}: multiplicity-one spins from a+b down to |a-b|."""
    a2, b2 = _as_doubled(alpha), _as_doubled(beta)
    if a2 < 0 or b2 < 0:
        raise ValueError("alpha, beta must be non-negative")
    lo, hi = abs(a2 - b2), a2 + b2
    return SpinDecomposition({s: 1 for s in range(lo, hi + 1, 2)})


# Weights of the full exterior algebra on S_+^*: C + S_+^* + C (spins 0,1/2,0).
def _wedge_weights():
    return (weights_of_sym(0) + weights_of_sym(0)
            + WeightMultiset({-1: 1, 1: 1}))


def superspin_multiplet(sigma):
    """Spin content of the superspin-sigma multiplet, derived from the
    weights of Wedge(S_+^*) (x) Sym^{2 sigma} rather than hard-coded."""
    s2 = _as_doubled(sigma)
    if s2 < 0:
        raise ValueError("sigma must be non-negative")
    w = _wedge_weights().tensor(weights_of_sym(sigma))
    return weight_decompose(w)


def dof_check(sigma):
    """Bosonic and fermionic dimensions of the multiplet (they agree)."""
    s2 = _as_doubled(sigma)
    even = weights_of_sym(0) + weights_of_sym(0)   # wedge^0 + wedge^2
    odd = WeightMultiset({-1: 1, 1: 1})             # wedge^1 = S_+^*
    sym = weights_of_sym(sigma)
    bos = even.tensor(sym).dimension()
    fer = odd.tensor(sym).dimension()
    return {"bosonic": bos, "fermionic": fer}


def scalar_superfield_content(sigma=0):
    """Superspin content of Wedge(S_C^*) (x) Sym^{2 sigma}: the multiplicity
    space Wedge(S_-^*) decomposes as C + S_-^* + C, so the superspin content
    is two copies of sigma plus one each of sigma -/+ 1/2 (sigma > 0), and
    {0: 2, 1/2: 1} at sigma = 0."""
    s2 = _as_doubled(sigma)
    if s2 < 0:
        raise ValueError("sigma must be non-negative")
    # The multiplicity space Wedge(S_-^*) has K-weights C + S_-^* + C; each
    # K-irreducible of spin s in its product with Sym^{2 sigma} contributes
    # one superparticle of superspin s.
    mult_space = _wedge_weights()
    return weight_decompose(mult_space.tensor(weights_of_sym(sigma)))
