"""Signed alphabet, circular words, crossing pairs and their node algebra.

Conventions used throughout the package:

* A *signed index* is a nonzero int; ``-i`` is the reoriented version of
  curve ``i``.
* A *crossing pair* names one of the four intersection points of two
  curves.  It is stored as a sorted 2-tuple of signed indices, e.g.
  ``(-1, 2)``.  Each of the four sign combinations on a base pair names a
  distinct intersection point.
* The *slot* of a crossing along a carrier curve is its rank (1..4) among
  the four crossings with the same co-curve, in walk order.  Slot and sign
  pair determine each other::

      slot 1 <-> (carrier -, co -)      slot 2 <-> (carrier -, co +)
      slot 3 <-> (carrier +, co -)      slot 4 <-> (carrier +, co +)

  The table is calibrated once against the published node sets of the
  standard non-simple three-curve example and frozen here; see
  ``docs`` in the README for the calibration trace.
* A *circular word* is a tuple compared up to rotation;
  :func:`min_rotation` gives the canonical representative.  The census
  quotient acts on words packed into bytes (:func:`pack`), where
  :func:`least_rotation` plays its part.
"""

from collections.abc import Sequence
from itertools import permutations, product
from math import factorial

from .errors import MalformedWord

# slot (1-based) -> (carrier sign, co sign)
SLOT_SIGNS = {1: (-1, -1), 2: (-1, 1), 3: (1, -1), 4: (1, 1)}
SIGNS_SLOT = {v: k for k, v in SLOT_SIGNS.items()}


def pair_of(carrier, co, slot):
    """Crossing pair for the ``slot``-th crossing of ``co`` along ``carrier``.

    Both arguments are positive bases.

    >>> pair_of(1, 2, 1)
    (-2, -1)
    >>> pair_of(1, 3, 4)
    (1, 3)
    """
    cs, os_ = SLOT_SIGNS[slot]
    a, b = cs * carrier, os_ * co
    return (a, b) if a < b else (b, a)


def slot_of(pair, carrier):
    """Slot of a crossing pair along the given positive carrier base."""
    a, b = pair
    if abs(a) == carrier:
        mine, other = a, b
    elif abs(b) == carrier:
        mine, other = b, a
    else:
        raise MalformedWord("pair %r does not involve carrier %d" % (pair, carrier))
    return SIGNS_SLOT[(1 if mine > 0 else -1, 1 if other > 0 else -1)]


def co_index(pair, carrier):
    """The signed co-index of ``pair`` as seen from ``carrier`` (positive base)."""
    a, b = pair
    return b if abs(a) == carrier else a


def carrier_part(pair, carrier):
    """The signed carrier entry of ``pair`` for the given positive base."""
    a, b = pair
    return a if abs(a) == carrier else b


def otimes(x, y):
    """Rename the vertex shared by two same-carrier crossing pairs.

    ``x`` and ``y`` are crossing pairs sharing a carrier base ``i`` and
    lying in one prime factor, listed in factor order.  The result is the
    pair naming the same vertex on the two co-curves.  For ``x == y`` the
    pair itself is returned (same vertex seen from the co-curve).

    >>> otimes((1, 2), (1, 2))
    (1, 2)
    >>> otimes((1, 2), (1, 3))       # {+1,+2} * {+1,+3} -> {+2,-3}
    (-3, 2)
    >>> otimes((-1, 2), (1, 3))      # {-1,+2} * {+1,+3} -> {+2,+3}
    (2, 3)
    """
    if x == y:
        return x
    common = {abs(a) for a in x} & {abs(b) for b in y}
    if len(common) != 1:
        raise MalformedWord("pairs %r, %r share no unique carrier" % (x, y))
    i = common.pop()
    a = carrier_part(x, i)
    b = carrier_part(y, i)
    j = co_index(x, i)
    js = co_index(y, i)
    if abs(j) == abs(js):
        raise MalformedWord("co-indices of %r, %r coincide" % (x, y))
    u = j if b > 0 else -j
    v = -js if a > 0 else js
    return (u, v) if u < v else (v, u)


def roll(block, position, carrier):
    """Transport a prime factor to the cycle of one of its co-curves.

    ``block`` is a sequence of crossing pairs sharing the positive carrier
    base ``carrier`` with pairwise distinct co-bases; ``position`` is
    1-based.  Returns the corresponding prime factor of the side cycle
    indexed by the signed co-index at ``position`` (a negative target
    means the reversed cycle).

    >>> roll([(1, 2)], 1, carrier=1)
    ((1, 2),)
    """
    k = len(block)
    if not 1 <= position <= k:
        raise MalformedWord("roll position %d out of range 1..%d" % (position, k))
    p = position - 1
    bases = {abs(co_index(b, carrier)) for b in block}
    if len(bases) != k:
        raise MalformedWord("block %r is not a prime factor" % (block,))
    bp = block[p]
    alpha = [None] * k
    alpha[p] = bp
    for q in range(k):
        if q == p:
            continue
        alpha[q] = otimes(bp, block[q]) if q > p else otimes(block[q], bp)
    order = list(range(p + 1, k)) + [p] + list(range(p))
    seq = [alpha[q] for q in order]
    if carrier_part(bp, carrier) > 0:
        seq.reverse()
    return tuple(seq)


# ---------------------------------------------------------------------------
# circular words


def min_rotation(word):
    """Lexicographically least rotation of a tuple; it starts at an
    occurrence of the least letter, so only those starts are tried.

    >>> min_rotation((2, -1, 3))
    (-1, 3, 2)
    """
    w = tuple(word)
    if not w:
        return w
    m = min(w)
    i = w.index(m)
    best = w[i:] + w[:i]
    for _ in range(w.count(m) - 1):
        i = w.index(m, i + 1)
        rot = w[i:] + w[:i]
        if rot < best:
            best = rot
    return best


_SHIFT, _UNSHIFT = (128).__add__, (-128).__add__


def pack(word):
    """The word as bytes, letter ``x`` as byte ``x + 128``, for letters
    with ``|x| <= 127``; the census groups are out of reach long before
    n = 128.  The shift keeps order: packed words, and tuples of them,
    compare as the words and tuples of words do.

    >>> pack((-1, 2))
    b'\\x7f\\x82'
    >>> pack((1, 2)) < pack((1, 2, -3)) < pack((1, 3))
    True
    """
    return bytes(map(_SHIFT, word))


def unpack(packed):
    """The word of a packed word: the inverse of :func:`pack`.

    >>> unpack(pack((2, -1, 3)))
    (2, -1, 3)
    """
    return tuple(map(_UNSHIFT, packed))


def least_rotation(doubled, n):
    """Least rotation of the packed word of length ``n`` whose doubling
    (the word written twice) is ``doubled``; only the starts at the least
    byte are tried.

    >>> unpack(least_rotation(pack((2, -1, 3, -1, 4)) * 2, 5))
    (-1, 3, -1, 4, 2)
    """
    if not n:
        return b""
    m = min(doubled)
    i = doubled.find(m)
    best = doubled[i:i + n]
    i = doubled.find(m, i + 1, n)
    while i >= 0:
        rot = doubled[i:i + n]
        if rot < best:
            best = rot
        i = doubled.find(m, i + 1, n)
    return best


def rotations(word):
    w = tuple(word)
    return [w[i:] + w[:i] for i in range(len(w))]


def cyclic_eq(a, b):
    a, b = tuple(a), tuple(b)
    return len(a) == len(b) and min_rotation(a) == min_rotation(b)


# ---------------------------------------------------------------------------
# signed permutations


class SignedPermutation:
    """Bijection of the signed indices commuting with negation."""

    __slots__ = ("images",)

    def __init__(self, images):
        """``images`` maps each positive base to a signed image."""
        self.images = dict(images)
        bases = sorted(self.images)
        tgt = sorted(abs(v) for v in self.images.values())
        if bases != tgt:
            raise MalformedWord("not a signed permutation: %r" % (self.images,))

    @classmethod
    def identity(cls, bases):
        return cls({i: i for i in bases})

    @classmethod
    def all(cls, bases):
        """All n! * 2^n signed permutations of the given positive bases,
        as an indexed sequence in the order of :func:`signed_permutations`;
        a member is built when it is read.

        >>> group = SignedPermutation.all((1, 2, 3))
        >>> len(group), group[9], group[-1]
        (48, SignedPermutation(1 3 -2), SignedPermutation(-3 -2 -1))
        """
        return SignedGroup(bases)

    def __call__(self, s):
        v = self.images[abs(s)]
        return v if s > 0 else -v

    def inverse(self):
        inv = {}
        for k, v in self.images.items():
            inv[abs(v)] = k if v > 0 else -k
        return SignedPermutation(inv)

    def compose(self, other):
        """self after other: (self * other)(x) = self(other(x))."""
        return SignedPermutation({k: self(other(k)) for k in other.images})

    def __mul__(self, other):
        return self.compose(other)

    def __eq__(self, other):
        return isinstance(other, SignedPermutation) and self.images == other.images

    def __hash__(self):
        return hash(tuple(sorted(self.images.items())))

    def __repr__(self):
        body = " ".join(str(self.images[k]) for k in sorted(self.images))
        return "SignedPermutation(%s)" % body

    def one_line(self):
        return tuple(self.images[k] for k in sorted(self.images))


def signed_permutations(bases, perms=None, signs=None):
    """Yield the signed permutations of ``bases`` that send each base to
    its entry in a permutation of ``perms`` times its entry in a sign
    vector of ``signs``, permutation by permutation; ``perms`` defaults
    to every permutation and ``signs`` to every sign vector, in the order
    of :func:`itertools.permutations` and :func:`itertools.product`."""
    bases = tuple(bases)
    if perms is None:
        perms = permutations(bases)
    for perm in perms:
        for sg in (product((1, -1), repeat=len(bases)) if signs is None
                   else signs):
            # a bijection by construction: skip the constructor's check
            sigma = object.__new__(SignedPermutation)
            sigma.images = {b: s * p for b, p, s in zip(bases, perm, sg)}
            yield sigma


class SignedGroup(Sequence):
    """The signed permutations of ``bases`` as a read-only sequence.

    Member ``k`` is member ``k`` of :func:`signed_permutations`: the
    permutation of rank ``k >> n`` in :func:`itertools.permutations`
    order, with the sign vector of rank ``k & (2**n - 1)`` in
    :func:`itertools.product` order.  It is decoded from ``k`` on each
    read, so the group takes no room; iterating walks the generator.
    """

    __slots__ = ("bases", "_len")

    def __init__(self, bases):
        self.bases = tuple(bases)
        self._len = factorial(len(self.bases)) << len(self.bases)

    def __len__(self):
        return self._len

    def __iter__(self):
        return signed_permutations(self.bases)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(*k.indices(self._len))]
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("signed permutation index out of range")
        bases = self.bases
        n = len(bases)
        rank = k >> n
        pool = list(bases)
        images = {}
        for t, b in enumerate(bases):
            q, rank = divmod(rank, factorial(n - 1 - t))
            image = pool.pop(q)
            images[b] = -image if k >> (n - 1 - t) & 1 else image
        sigma = object.__new__(SignedPermutation)
        sigma.images = images
        return sigma


def act_pair(sigma, pair):
    a, b = sigma(pair[0]), sigma(pair[1])
    return (a, b) if a < b else (b, a)
