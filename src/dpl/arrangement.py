"""Arrangements of double pseudolines encoded by their side cycles.

An arrangement on an index set ``I`` is stored as two families of circular
words over the signed co-indices: the disk-side cycles ``D_i`` and the
crosscap-side cycles ``M_i``.  Validation follows the side-cycle
characterization: every co-index occurs four times per cycle with cyclic
sign pattern a rotation of ``(-,-,+,+)``; the slotted cycles admit a
unique decomposition into prime factors that the crosscap cycle lists
blockwise reversed; and every prime factor transported by
:func:`dpl.words.roll` is a prime factor of the target cycle.

Slot anchoring: in ``D_i`` the four occurrences of ``j`` matching the
linear pattern ``(-j, -j, +j, +j)`` get slots 1..4; in ``M_i`` the anchor
pattern is ``(+j, +j, -j, -j)``.  Both anchors are calibrated on the
two-curve arrangement and on the published pair of arrangements sharing
their disk cycles (see README).
"""

from . import words as W
from .errors import (
    BadSignPattern,
    FormatError,
    NoBlockDecomposition,
    NotSimple,
    RollMismatch,
    SubsetTooSmall,
    UnknownIndex,
    WrongMultiplicity,
)

_D_ANCHOR = (-1, -1, 1, 1)
_M_ANCHOR = (1, 1, -1, -1)

# anchor -> {signs of a co-index's four occurrences, positive as True:
# the occurrence that gets slot 1}, one entry per rotation of the anchor
_ANCHOR_STARTS = {
    anchor: {tuple(anchor[(t - r) % 4] > 0 for t in range(4)): r
             for r in range(4)}
    for anchor in (_D_ANCHOR, _M_ANCHOR)}


# (carrier, co-index) -> for each start r of the anchor pattern, the
# crossing pairs of the four occurrences in walk order; each row is built
# on first use and kept for the process
_PAIR_ROWS = {}


def _pair_row(carrier, base):
    slots = [W.pair_of(carrier, base, s) for s in (1, 2, 3, 4)]
    row = _PAIR_ROWS[carrier, base] = tuple(
        tuple(slots[(q - r) % 4] for q in range(4)) for r in range(4))
    return row


def _slot_positions(word, carrier, anchor):
    """Crossing pair at each position of a side cycle, or raise."""
    occ = {}
    for p, letter in enumerate(word):
        base = letter if letter > 0 else -letter
        if base in occ:
            occ[base].append(p)
        else:
            occ[base] = [p]
    if carrier in occ or 0 in occ:
        letter = next(x for x in word if x in (carrier, -carrier, 0))
        raise BadSignPattern(
            "cycle of %d contains illegal letter %d" % (carrier, letter),
            carrier=carrier,
        )
    starts = _ANCHOR_STARTS[anchor]
    pairs = [None] * len(word)
    for base, positions in occ.items():
        if len(positions) != 4:
            raise WrongMultiplicity(
                "index %d occurs %d times in cycle of %d"
                % (base, len(positions), carrier),
                carrier=carrier, co=base,
            )
        a, b, c, d = positions
        start = starts.get((word[a] > 0, word[b] > 0, word[c] > 0,
                            word[d] > 0))
        if start is None:
            raise BadSignPattern(
                "signs of %d in cycle of %d are not a rotation of the "
                "elementary cycle" % (base, carrier),
                carrier=carrier, co=base,
            )
        row = _PAIR_ROWS.get((carrier, base)) or _pair_row(carrier, base)
        pairs[a], pairs[b], pairs[c], pairs[d] = row[start]
    return tuple(pairs)


def _require_every_co(word, carrier, indices):
    """Raise unless every co-index occurs in a side cycle.

    Called after :func:`_slot_positions` accepted ``word``: each letter
    present is then a co-index occurring four times, so the cycle holds
    every co-index exactly when its length is four per co-index.
    """
    if len(word) != 4 * (len(indices) - 1):
        co = min(set(indices) - {carrier} - {abs(x) for x in word})
        raise WrongMultiplicity(
            "index %d occurs 0 times in cycle of %d" % (co, carrier),
            carrier=carrier, co=co,
        )


def _decompose(S, T_given, max_block, carrier):
    """Align the crosscap slots with the disk slots and find the factors.

    Returns ``(shift, spans)``: walk position ``p`` corresponds to position
    ``(p + shift) % L`` of the given crosscap cycle, and ``spans`` lists the
    prime-factor position tuples in walk order.

    Nothing is searched.  Put ``u[q] = q + w(q) (mod L)``, ``w(q)`` the
    walk position of the pair at crosscap position ``q``.  A factor of
    ``k`` letters reversed at crosscap positions ``c`` on has
    ``u = 2c + k - 1 - shift`` all along, and the next one, of ``k'``
    letters, ``u`` larger by ``k + k'``.  With three or more factors
    ``0 < k + k' < L``, so the factors are the maximal runs of equal ``u``.
    A constant ``u`` means one or two factors, which no cycle of
    ``4 * max_block`` letters (all that :func:`validate` passes) has, so
    it is rejected.
    """
    L = len(S)
    if sorted(S) != sorted(T_given):
        raise NoBlockDecomposition(
            "disk and crosscap slots of %d disagree" % carrier, carrier=carrier
        )
    walk_pos = {pair: p for p, pair in enumerate(S)}
    u = [(q + walk_pos[pair]) % L for q, pair in enumerate(T_given)]
    cuts = [q for q in range(L) if u[q] != u[q - 1]]
    solution = _factors(S, u, cuts, max_block, carrier) if cuts else None
    if solution is None:
        raise NoBlockDecomposition(
            "no blockwise-reversed factorization for cycle of %d" % carrier,
            carrier=carrier,
        )
    return solution


def _factors(S, u, cuts, max_block, carrier):
    """``(shift, spans)`` of the factors starting at the crosscap positions
    ``cuts``, or None: each factor fixes the shift, which all must share,
    and holds at most ``max_block`` letters of distinct co-indices (a
    one-letter factor trivially)."""
    L = len(S)
    shift, spans = None, []
    for c, d in zip(cuts, cuts[1:] + [cuts[0] + L]):
        k = d - c
        if k > max_block:
            return None
        r = (2 * c + k - 1 - u[c]) % L
        if shift is None:
            shift = r
        elif r != shift:
            return None
        if k == 1:
            spans.append(((c - r) % L,))
            continue
        span = tuple((c - r + t) % L for t in range(k))
        if len({abs(W.co_index(S[p], carrier)) for p in span}) != k:
            return None
        spans.append(span)
    # the spans partition the positions, so their first entries differ
    return shift, tuple(sorted(spans))


def _node_of_block(block):
    """Node (set of crossing pairs) determined by a prime factor."""
    out = set(block)
    for l in range(len(block)):
        for m in range(l + 1, len(block)):
            out.add(W.otimes(block[l], block[m]))
    return frozenset(out)


class Arrangement:
    """A validated arrangement; immutable once constructed.

    Use :func:`validate`, :func:`from_disk_only` or the generators
    :func:`cyclic_thin` / :func:`all_c64` instead of calling the
    constructor directly.
    """

    def __init__(self, disk, crosscap, S, spans, nodes, node_cycles):
        self.indices = tuple(sorted(disk))
        self.disk = disk            # i -> letter tuple
        self.crosscap = crosscap    # i -> letter tuple, aligned with disk
        self.S = S                  # i -> crossing pair per position
        self.spans = spans          # i -> prime factor position tuples
        self.nodes = nodes          # node frozenset -> {carrier: span index}
        self.node_cycles = node_cycles  # i -> node tuple in walk order
        self._complex = None

    # -- basic derived counts ------------------------------------------

    @property
    def n(self):
        return len(self.indices)

    @property
    def vertex_count(self):
        return len(self.nodes)

    @property
    def edge_count(self):
        return sum(len(s) for s in self.spans.values())

    def blocks(self, i):
        """Prime factors of the slotted disk cycle of ``i``."""
        return tuple(tuple(self.S[i][p] for p in span) for span in self.spans[i])

    # -- flag complex and everything it derives ------------------------

    @property
    def complex(self):
        if self._complex is None:
            from .flags import FlagComplex
            self._complex = FlagComplex(self)
        return self._complex

    @property
    def genus(self):
        return self.complex.genus

    @property
    def f_vector(self):
        return self.complex.f_vector

    # -- predicates -----------------------------------------------------

    def is_simple(self):
        return all(len(span) == 1 for s in self.spans.values() for span in s)

    def is_thin(self):
        """No vertex lies in the crosscap side of any curve."""
        if not self.is_simple():
            return False
        sides = self.complex.vertex_sides
        return all(side < 0 for per_curve in sides.values()
                   for side in per_curve.values())

    def is_martagon(self, i):
        """All crossings with each other curve consecutive along ``i``."""
        if i not in self.indices:
            raise UnknownIndex("no curve %d" % i)
        if any(len(span) != 1 for span in self.spans[i]):
            return False
        word = self.disk[i]
        L = len(word)
        for j in self.indices:
            if j == i:
                continue
            pos = sorted(p for p, x in enumerate(word) if abs(x) == j)
            gaps = [(q - p) % L for p, q in zip(pos, pos[1:] + pos[:1])]
            if sum(1 for g in gaps if g != 1) > 1:
                return False
        return True

    # -- transforms -----------------------------------------------------

    def act(self, sigma):
        """Relabeled/reoriented version: curve at new index k is old curve
        ``sigma(k)``, reversed when the image is negative."""
        idx = self.indices
        disk, cross = self._acted_families(sigma)
        return validate(dict(zip(idx, disk)), dict(zip(idx, cross)))

    def acted_key(self, sigma):
        """``self.act(sigma).key()`` without validating the acted families."""
        return (self.indices,) + tuple(
            tuple(W.min_rotation(w) for w in words)
            for words in self._acted_families(sigma))

    def _acted_families(self, sigma):
        """The disk and crosscap words of :meth:`act`, in index order."""
        idx = self.indices
        return (act_words(sigma, idx, tuple(self.disk[i] for i in idx)),
                act_words(sigma, idx, tuple(self.crosscap[i] for i in idx)))

    def restriction(self, J):
        J = frozenset(J)
        if not J <= set(self.indices):
            raise UnknownIndex("%r is not a subset of %r" % (sorted(J), self.indices))
        if len(J) < 2:
            raise SubsetTooSmall("restriction needs at least 2 indices")
        disk = {i: tuple(x for x in self.disk[i] if abs(x) in J)
                for i in sorted(J)}
        cross = {i: tuple(x for x in self.crosscap[i] if abs(x) in J)
                 for i in sorted(J)}
        return validate(disk, cross)

    # -- canonical form ---------------------------------------------------

    def key(self):
        """Canonical form of the indexed-oriented isotopy class."""
        return family_key(self.indices, self.disk, self.crosscap)

    def __eq__(self, other):
        return isinstance(other, Arrangement) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Arrangement(indices=%r, V=%d, E=%d)" % (
            self.indices, self.vertex_count, self.edge_count)

    # -- serialization ----------------------------------------------------

    def to_text(self, name=None):
        lines = []
        if name:
            lines.append("# %s" % name)
        lines.append("indices: %s" % " ".join(str(i) for i in self.indices))
        for i in self.indices:
            lines.append("D %d: %s" % (i, " ".join(str(x) for x in self.disk[i])))
        for i in self.indices:
            lines.append("M %d: %s" % (i, " ".join(str(x) for x in self.crosscap[i])))
        return "\n".join(lines) + "\n"

    def to_json(self, name=None):
        data = {
            "indices": list(self.indices),
            "disk_cycles": {str(i): list(self.disk[i]) for i in self.indices},
            "crosscap_cycles": {str(i): list(self.crosscap[i]) for i in self.indices},
            "genus": self.genus,
            "f_vector": {str(s): c for s, c in sorted(self.f_vector.items())},
            "simple": self.is_simple(),
            "thin": self.is_thin(),
        }
        if name:
            data = {"name": name, **data}
        return data


def family_key(indices, disk, crosscap):
    """:meth:`Arrangement.key` of the given side-cycle families."""
    return (indices,
            tuple(W.min_rotation(disk[i]) for i in indices),
            tuple(W.min_rotation(crosscap[i]) for i in indices))


def act_words(sigma, indices, words):
    """Word-family transform under a signed permutation (no validation)."""
    inv = sigma.inverse()
    out = []
    for k in indices:
        m = sigma(k)
        w = words[indices.index(abs(m))]
        if m < 0:
            w = w[::-1]
        out.append(tuple(inv(x) for x in w))
    return tuple(out)


def validate(disk, crosscap):
    """Build an :class:`Arrangement` from side-cycle families, or raise.

    ``disk`` and ``crosscap`` map each index to a sequence of signed
    letters; the rotation of each word is irrelevant.

    >>> arr = validate({1: (-2, -2, 2, 2), 2: (-1, -1, 1, 1)},
    ...                {1: (2, 2, -2, -2), 2: (1, 1, -1, -1)})
    >>> arr.S[1]
    ((-2, -1), (-1, 2), (-2, 1), (1, 2))
    >>> arr.crosscap[1], arr.spans[1]
    ((2, 2, -2, -2), ((0,), (1,), (2,), (3,)))
    >>> arr.node_cycles[2][0]
    frozenset({(-2, -1)})
    """
    disk = {i: tuple(w) for i, w in disk.items()}
    crosscap = {i: tuple(w) for i, w in crosscap.items()}
    indices = tuple(sorted(disk))
    if len(indices) < 2:
        raise SubsetTooSmall("an arrangement needs at least 2 curves")
    if indices[0] <= 0:
        raise FormatError("curve indices must be positive, got %r"
                          % (indices,))
    if set(crosscap) != set(disk):
        raise FormatError("disk and crosscap cycles cover different indices")
    letters = set(indices).union([-i for i in indices])
    for i in indices:
        for word in (disk[i], crosscap[i]):
            if not letters.issuperset(word):
                x = next(x for x in word if x not in letters)
                raise UnknownIndex(
                    "letter %d outside index set in cycle of %d" % (x, i))

    max_block = len(indices) - 1
    S, spans, aligned = {}, {}, {}
    for i in indices:
        S[i] = _slot_positions(disk[i], i, _D_ANCHOR)
        _require_every_co(disk[i], i, indices)
        t_raw = _slot_positions(crosscap[i], i, _M_ANCHOR)
        _require_every_co(crosscap[i], i, indices)
        r, spans[i] = _decompose(S[i], t_raw, max_block, i)
        aligned[i] = crosscap[i][r:] + crosscap[i][:r]

    blocks = {}
    for i in indices:
        Si = S[i]
        blocks[i] = [(Si[span[0]],) if len(span) == 1
                     else tuple(map(Si.__getitem__, span))
                     for span in spans[i]]
    blocksets = {i: set(blocks[i]) for i in indices}

    # a one-letter factor is its own roll and its own node
    nodes = {}
    node_cycles = {}
    for i in indices:
        cyc = []
        for si, block in enumerate(blocks[i]):
            if len(block) == 1:
                a, b = block[0]
                co = b if a == i or a == -i else a
                if block not in blocksets[co if co > 0 else -co]:
                    raise RollMismatch(
                        "block %r of %d does not transport to cycle %d"
                        % (block, i, co),
                        carrier=i, target=co,
                    )
                node = frozenset(block)
            else:
                for p in range(1, len(block) + 1):
                    rolled = W.roll(block, p, carrier=i)
                    target = W.co_index(block[p - 1], i)
                    ok = (rolled in blocksets[target] if target > 0
                          else rolled[::-1] in blocksets[-target])
                    if not ok:
                        raise RollMismatch(
                            "block %r of %d does not transport to cycle %d"
                            % (block, i, target),
                            carrier=i, target=target,
                        )
                node = _node_of_block(block)
            carriers = nodes.get(node)
            if carriers is None:
                carriers = nodes[node] = {}
            elif i in carriers:
                raise RollMismatch(
                    "node %r met twice on curve %d" % (sorted(node), i),
                    carrier=i,
                )
            carriers[i] = si
            cyc.append(node)
        node_cycles[i] = tuple(cyc)

    # every carrier of a node is one of its curves, so a one-letter node
    # seen from two carriers is seen from both of its curves
    for node, carriers in nodes.items():
        if len(node) == 1 and len(carriers) == 2:
            continue
        bases = {abs(x) for pair in node for x in pair}
        if carriers.keys() != bases:
            raise RollMismatch(
                "node %r seen from %r but involves %r"
                % (sorted(node), sorted(carriers), sorted(bases)),
            )

    return Arrangement(disk, aligned, S, spans, nodes, node_cycles)


def from_disk_only(disk):
    """Arrangement of a simple family given by its disk cycles only.

    For a simple arrangement the crosscap cycle is the disk cycle with all
    letter signs flipped (blockwise reversal of singletons).
    """
    crosscap = {i: tuple(-x for x in w) for i, w in disk.items()}
    arr = validate(disk, crosscap)
    if not arr.is_simple():
        raise NotSimple("derived crosscap cycles produce non-singleton blocks")
    return arr


def cyclic_thin(n):
    """Thin double of the cyclic arrangement of ``n`` pseudolines."""
    bases = tuple(range(1, n + 1))
    if len(bases) < 2:
        raise SubsetTooSmall("cyclic_thin needs n >= 2")
    disk = {}
    for k, i in enumerate(bases):
        cos = bases[k + 1:] + bases[:k]
        word = [x for j in cos for x in (j, j)]
        word += [x for j in cos for x in (-j, -j)]
        disk[i] = tuple(word)
    return from_disk_only(disk)


def all_c64(n):
    """The arrangement whose 3-subarrangements all have three crosscap
    tetragons (cyclic block pattern, one class per size)."""
    bases = tuple(range(1, n + 1))
    if len(bases) < 3:
        raise SubsetTooSmall("all_c64 needs n >= 3")
    disk = {}
    for k, i in enumerate(bases):
        cos = bases[k + 1:] + bases[:k]
        word = [x for j in cos for x in (j, -j)]
        word += [x for j in cos for x in (-j, j)]
        disk[i] = tuple(word)
    return from_disk_only(disk)


# ---------------------------------------------------------------------------
# text / json formats


def parse_header(line, raw):
    """The curve indices of the ``indices:`` header ``line`` of the input
    line ``raw``; each index may occur once."""
    try:
        indices = [int(t) for t in line[len("indices:"):].split()]
    except ValueError as exc:
        raise FormatError("unparseable line: %r" % raw) from exc
    if len(set(indices)) != len(indices):
        raise FormatError("repeated index in 'indices:' header: %r" % raw)
    return indices


def parse_text(text):
    """Parse the one-arrangement text format (see README)."""
    indices = None
    disk, crosscap = {}, {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("indices:"):
            if indices is not None:
                raise FormatError("repeated 'indices:' header: %r" % raw)
            indices = parse_header(line, raw)
            continue
        kind, _, rest = line.partition(" ")
        if kind not in ("D", "M") or ":" not in rest:
            raise FormatError("unparseable line: %r" % raw)
        head, _, body = rest.partition(":")
        try:
            i = int(head)
            letters = tuple(int(t) for t in body.split())
        except ValueError as exc:
            raise FormatError("unparseable line: %r" % raw) from exc
        side = disk if kind == "D" else crosscap
        if i in side:
            raise FormatError("repeated %s %d line: %r" % (kind, i, raw))
        side[i] = letters
    if indices is None:
        raise FormatError("missing 'indices:' header")
    if set(disk) != set(indices):
        raise FormatError("disk cycles do not match the header")
    if not crosscap:
        return from_disk_only(disk)
    if set(crosscap) != set(indices):
        raise FormatError("crosscap cycles do not match the header")
    return validate(disk, crosscap)


def load(path):
    with open(path) as fh:
        return parse_text(fh.read())

