"""Chirotopes: triple classes, k-extension checking and reconstruction.

A chirotope assigns to every 3-subset of the index set the indexed-oriented
class of the subarrangement on that triple.  A chirotope is a k-chirotope
when every subset of size up to k carries a common extension; 5-chirotopes
are exactly the chirotopes of genus-one arrangements, and the obstruction
at size five is the transitivity of the per-carrier ternary relations read
off the 4-subset cycles.
"""

from functools import cache, cmp_to_key
from itertools import combinations, product

from . import catalog
from . import words as W
from .arrangement import (
    _D_ANCHOR,
    _M_ANCHOR,
    _slot_positions,
    family_key,
    from_disk_only,
    parse_header,
    validate,
)
from .errors import (
    BlockInconsistent,
    DplError,
    FormatError,
    NoArrangement,
    NotTransitive,
    TooFewIndices,
)

# ---------------------------------------------------------------------------
# naming of triple classes


def _reference(name):
    """The catalog class ``name`` on indices 1, 2, 3."""
    ref = catalog.arrangement(name)
    if ref.indices != (1, 2, 3):
        raise FormatError("%s is not a three-curve class" % name)
    return ref


def _substituted(arr, sub):
    """The side cycles of ``arr`` with each index ``r`` substituted by
    ``sub[r]``, as disk and crosscap dicts; a negative image reorients the
    curve."""
    def letter(x):
        return sub[x] if x > 0 else -sub[-x]

    disk, cross = {}, {}
    for r, t in sub.items():
        d, m = arr.disk[r], arr.crosscap[r]
        if t < 0:
            d, m = d[::-1], m[::-1]
        disk[abs(t)] = tuple(letter(x) for x in d)
        cross[abs(t)] = tuple(letter(x) for x in m)
    return disk, cross


@cache
def _name_table():
    """Canonical words on (1,2,3) -> (class name, signed images)."""
    table = {}
    for name in catalog.THIRTEEN:
        ref = _reference(name)
        for sigma in W.signed_permutations((1, 2, 3)):
            images = tuple(sigma.images[r] for r in (1, 2, 3))
            key = family_key((1, 2, 3), *_substituted(ref, sigma.images))
            prev = table.get(key)
            if prev is None or (prev[0] == name and images < prev[1]):
                table[key] = (name, images)
    return table


def class_version(name, images):
    """The named class with reference indices substituted by ``images``.

    ``class_version("C04", (1, 5, 3))`` is the arrangement on indices
    {1, 3, 5} whose letters substitute 1 -> 1, 2 -> 5, 3 -> 3; a negative
    image reorients the curve.  Its disk cycles are least rotations.

    >>> class_version("C04", (1, 5, 3)).indices
    (1, 3, 5)
    """
    if len(images) != 3 or len({abs(t) for t in images}) != 3 or 0 in images:
        raise FormatError("class %s needs three distinct nonzero images, "
                          "got %r" % (name, tuple(images)))
    disk, cross = _substituted(_reference(name), dict(zip((1, 2, 3), images)))
    return validate({i: W.min_rotation(w) for i, w in disk.items()}, cross)


def entry_name(arr):
    """Pretty name of a 3-curve class, or None for unnamed classes.

    The arrangement is relabeled order-preservingly onto (1,2,3) before
    lookup; the reported images live in the arrangement's own indices,
    the least images that name the class.

    >>> entry_name(class_version("C04", (1, 5, 3)))
    'C04(-5 -3 1)'
    """
    i, j, k = arr.indices
    hit = _name_table().get(
        family_key((1, 2, 3), *_substituted(arr, {i: 1, j: 2, k: 3})))
    if hit is None:
        return None
    name, images = hit
    up = {1: i, 2: j, 3: k}
    final = tuple((1 if images[r - 1] > 0 else -1) * up[abs(images[r - 1])]
                  for r in (1, 2, 3))
    return "%s(%s)" % (name, " ".join(str(x) for x in final))


# ---------------------------------------------------------------------------
# the chirotope object


class Chirotope:
    """Map from 3-subsets to their validated triple arrangements.

    ``triples`` maps each 3-subset to the arrangement on it; ``entries``
    holds the least rotations of its side cycles.  A chirotope is not
    changed after construction.  Its restrictions hold the same triple
    arrangements and share with it one store of :func:`extensions4`
    results per 4-subset, so the 4-subsets common to several 5-subsets
    are extended once.
    """

    def __init__(self, triples):
        self._extensions = {}
        self._triples = {}
        self.entries = {}
        indices = set()
        for J, arr in triples.items():
            J = frozenset(J)
            if len(J) != 3:
                raise FormatError("entry on %r is not a triple" % (sorted(J),))
            indices |= J
            self._triples[J] = arr
            _, disk, cross = arr.key()
            self.entries[J] = dict(zip(arr.indices, zip(disk, cross)))
        self.indices = tuple(sorted(indices))
        if len(self.indices) < 3:
            raise TooFewIndices("a chirotope needs at least 3 indices")
        for J in combinations(self.indices, 3):
            if frozenset(J) not in self.entries:
                raise FormatError("missing entry on %r" % (J,))

    def entry(self, J):
        return self.entries[frozenset(J)]

    def entry_arrangement(self, J):
        return self._triples[frozenset(J)]

    def entry_label(self, J):
        return entry_name(self.entry_arrangement(J))

    def restriction(self, J):
        J = frozenset(J)
        sub = Chirotope({T: arr for T, arr in self._triples.items() if T <= J})
        sub._extensions = self._extensions
        return sub

    def _extensions_on(self, J, genus_one):
        """:func:`extensions4` of the restriction to the 4-subset ``J``,
        computed once for this chirotope and its restrictions; an empty or
        ambiguous result is kept as well."""
        key = (frozenset(J), genus_one)
        if key not in self._extensions:
            self._extensions[key] = extensions4(self.restriction(J),
                                                genus_one=genus_one)
        return self._extensions[key]

    def is_simple(self):
        return all(arr.is_simple() for arr in self._triples.values())

    def key(self):
        return tuple(sorted((tuple(sorted(J)),
                             tuple(sorted(fam.items())))
                            for J, fam in self.entries.items()))

    def __eq__(self, other):
        return isinstance(other, Chirotope) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


def chirotope_of(arr):
    """The chirotope of a validated arrangement on at least 3 indices."""
    if arr.n < 3:
        raise TooFewIndices("chirotope needs at least 3 curves")
    return Chirotope({frozenset(J): arr.restriction(J)
                      for J in combinations(arr.indices, 3)})


def _has_chirotope(arr, chi):
    """``chirotope_of(arr) == chi`` for ``arr`` on the indices of ``chi``:
    the least rotations of each triple's restricted words against the
    entry, without validating the restrictions."""
    return all(
        tuple(W.min_rotation(tuple(x for x in w[i] if abs(x) in J))
              for w in (arr.disk, arr.crosscap)) == want
        for J, fam in chi.entries.items() for i, want in fam.items())


# ---------------------------------------------------------------------------
# extension search


def _merge_words(base, insert, want_pairs):
    """Cyclic words containing ``base`` (cyclic, anchored) and ``insert``
    (cyclic) as subsequences, with every base-pair subword as required.

    ``want_pairs`` maps a frozenset of bases to the required cyclic word.
    Returns the sorted least rotations of the words.

    The words are built letter by letter over the interleavings of
    ``base`` with each rotation of ``insert``.  For every pair the walk
    keeps the rotations of the wanted word that agree with the pair's
    subword so far, as a bit mask of the position each one expects next,
    and drops a branch as soon as a mask empties.  A pair's subword has
    the same length in every interleaving, so once that length is checked
    to be the wanted one, each complete word has every pair subword equal
    to a full rotation of the wanted word.
    """
    if not insert:
        return []
    steps = {x: () for x in set(base) | set(insert)}
    start = []
    for t, (bases, want) in enumerate(want_pairs.items()):
        if sum(abs(x) in bases for x in base + insert) != len(want):
            return []
        full = (1 << len(want)) - 1
        for x in steps:
            if abs(x) in bases:
                hits = sum(1 << j for j, y in enumerate(want) if y == x)
                steps[x] += ((t, hits, len(want) - 1, full),)
        start.append(full)
    start = tuple(start)
    nb, ni = len(base), len(insert)
    out = set()
    for ins in set(W.rotations(insert)):
        stack = [(0, 0, start, ())]
        while stack:
            bi, ii, masks, word = stack.pop()
            if bi == nb and ii == ni:
                out.add(W.min_rotation(word))
                continue
            if bi < nb:
                nxt = _advance(masks, steps[base[bi]])
                if nxt is not None:
                    stack.append((bi + 1, ii, nxt, word + (base[bi],)))
            if ii < ni:
                nxt = _advance(masks, steps[ins[ii]])
                if nxt is not None:
                    stack.append((bi, ii + 1, nxt, word + (ins[ii],)))
    return sorted(out)


def _advance(masks, step):
    """The pair masks after one more letter, or None when some pair has
    no rotation of its wanted word left.

    ``step`` lists, for each pair holding the letter, the pair's slot, the
    positions of the letter in the wanted word, the top position and the
    full mask; a rotation that matches moves on to expect the next
    position, cyclically.
    """
    masks = list(masks)
    for t, hits, top, full in step:
        m = masks[t] & hits
        if not m:
            return None
        masks[t] = ((m << 1) | (m >> top)) & full
    return tuple(masks)


def _carrier_candidates(chi, i, others, kind):
    """Candidate side cycles of carrier ``i`` over three co-indices."""
    a, b, c = others
    sel = 0 if kind == "D" else 1
    w_ab = chi.entry((i, a, b))[i][sel]
    w_ac = chi.entry((i, a, c))[i][sel]
    w_bc = chi.entry((i, b, c))[i][sel]
    c_only = tuple(x for x in w_ac if abs(x) == c)
    want = {frozenset((a, b)): w_ab,
            frozenset((a, c)): w_ac,
            frozenset((b, c)): w_bc}
    return _merge_words(w_ab, c_only, want)


def extensions4(chi, genus_one=True):
    """All arrangements on a 4-index chirotope's support matching it."""
    if len(chi.indices) != 4:
        raise TooFewIndices("extensions4 needs exactly 4 indices")
    simple = chi.is_simple()
    cands = {}
    for i in chi.indices:
        others = tuple(x for x in chi.indices if x != i)
        dc = _carrier_candidates(chi, i, others, "D")
        if simple:
            cands[i] = [(d, tuple(-x for x in d)) for d in dc]
        else:
            mc = _carrier_candidates(chi, i, others, "M")
            cands[i] = [(d, m) for d in dc for m in mc]
    out = {}
    for combo in product(*(cands[i] for i in chi.indices)):
        disk = {i: dm[0] for i, dm in zip(chi.indices, combo)}
        cross = {i: dm[1] for i, dm in zip(chi.indices, combo)}
        try:
            arr = validate(disk, cross)
        except DplError:
            continue
        if genus_one and arr.genus != 1:
            continue
        if not _has_chirotope(arr, chi):
            continue
        out.setdefault(arr.key(), arr)
    return [out[k] for k in sorted(out)]


# ---------------------------------------------------------------------------
# relations of the five-index axiom


def relations_from(chi, genus_one=True):
    """Per-carrier cyclic orders and block partners; verifies the axioms.

    The crossing pairs of carrier ``i`` on side ``flavor`` ("D" or "M") are
    related three at a time by the slotted cycle over their co-indices: the
    4-subset extension for three co-indices, the triple entry for two, the
    slots 1..4 for one.  The order starts at the least pair and sorts the
    rest by "x before y after the least pair"; every triple must then agree
    with it.  Returns ``{(carrier, flavor): order}``, each order a tuple of
    pairs, together with the block partners; raises NotTransitive or
    BlockInconsistent with a witness subset on failure.

    The agreement is checked once per co-index set ``B``: the pairs of
    ``B``'s cycle, taken in the order, must be a rotation of the cycle.
    That is enough, since a triple of pairs is read against the cycle of
    its own co-index set, and three elements of a cycle lie in the same
    cyclic order in any rotation of it and in any cyclic sequence that
    holds it as a subsequence.  Only when some set fails is every triple
    compared, in a fixed order, so that the first failing one names the
    witness.
    """
    ext4 = {}
    for J in combinations(chi.indices, 4):
        sols = chi._extensions_on(J, genus_one)
        if not sols:
            raise NoArrangement("no extension on %r" % (J,), subset=J)
        if len(sols) > 1:
            raise NoArrangement("ambiguous extension on %r" % (J,), subset=J)
        ext4[frozenset(J)] = sols[0]

    orders = {}
    blocks = {}
    for i in chi.indices:
        cos = [x for x in chi.indices if x != i]
        syms = sorted(W.pair_of(i, b, s) for b in cos for s in (1, 2, 3, 4))
        co = {p: abs(W.co_index(p, i)) for p in syms}
        for flavor in "DM":
            sel = 0 if flavor == "D" else 1
            anchor = _D_ANCHOR if flavor == "D" else _M_ANCHOR
            words = {}
            for bases in combinations(cos, 3):
                arr = ext4[frozenset((i,) + bases)]
                words[frozenset(bases)] = (arr.disk[i], arr.crosscap[i])[sel]
            for bases in combinations(cos, 2):
                words[frozenset(bases)] = chi.entry((i,) + bases)[i][sel]
            pos = {bases: {p: t for t, p in
                           enumerate(_slot_positions(word, i, anchor))}
                   for bases, word in words.items()}
            for b in cos:
                pos[frozenset((b,))] = {W.pair_of(i, b, s): s - 1
                                        for s in (1, 2, 3, 4)}

            def holds(a, b, c):
                return _cyclic_before(pos[frozenset((co[a], co[b], co[c]))],
                                      a, b, c)

            # total by construction: a cycle's pairs sit at distinct positions
            first = syms[0]
            order = (first,) + tuple(sorted(syms[1:], key=cmp_to_key(
                lambda x, y: -1 if holds(first, x, y) else 1)))
            at = {p: t for t, p in enumerate(order)}
            if not all(_rotates(cycle, at) for cycle in pos.values()):
                # some triple fails; the scan finds the first, the witness
                for a, b, c in combinations(syms, 3):
                    if holds(a, b, c) != _cyclic_before(at, a, b, c):
                        raise NotTransitive(
                            "relation of carrier %d not transitive" % i,
                            carrier=i, flavor=flavor,
                            witness=sorted({i, co[first], co[a], co[b],
                                            co[c]}))
            orders[(i, flavor)] = order
        partner = {}
        for bases in combinations(cos, 2):
            arr = chi.entry_arrangement((i,) + bases)
            for block in arr.blocks(i):
                for a, b in zip(block, block[1:]):
                    partner.setdefault(a, set()).add(b)
        blocks[i] = partner
    for i, partner in blocks.items():
        for a, succs in partner.items():
            for b in succs:
                for c in partner.get(b, ()):
                    if c not in partner.get(a, set()) and c != a:
                        raise BlockInconsistent(
                            "block relation of carrier %d not transitive" % i,
                            carrier=i)
    return orders, blocks


def _rotates(pos, at):
    """Do the pairs of one cycle, with position map ``pos``, lie in the
    order ``at`` as a rotation of the cycle?"""
    seq = sorted(pos, key=at.__getitem__)
    n, first = len(seq), pos[seq[0]]
    return all(pos[p] == (first + t) % n for t, p in enumerate(seq))


def _cyclic_before(pos, a, b, c):
    """Do ``a``, ``b``, ``c`` lie in this cyclic order under the position
    map ``pos`` of one cycle?"""
    x, y, z = pos[a], pos[b], pos[c]
    n = len(pos)
    return (y - x) % n < (z - x) % n


# ---------------------------------------------------------------------------
# reconstruction


def reconstruct(chi, genus_one=True, all_solutions=False):
    """Arrangements realizing the chirotope.

    With the genus filter the result is unique (double-pseudoline
    semantics); without it the search accepts any-genus extensions.
    Raises NoArrangement, or the relation errors for n >= 5.
    """
    n = len(chi.indices)
    if n == 3:
        sols = [chi.entry_arrangement(chi.indices)]
        if genus_one:
            sols = [a for a in sols if a.genus == 1]
    elif n == 4:
        sols = extensions4(chi, genus_one=genus_one)
    else:
        sols = _reconstruct_big(chi, genus_one=genus_one)
    if not sols:
        raise NoArrangement("chirotope has no realization",
                            genus_one=genus_one)
    if all_solutions:
        return sols
    if genus_one and len(sols) > 1:
        raise NoArrangement("genus-one realization is not unique",
                            count=len(sols))
    return sols[0]


def _reconstruct_big(chi, genus_one):
    orders, blocks = relations_from(chi, genus_one=genus_one)
    disk, cross = {}, {}
    for i in chi.indices:
        order = orders[(i, "D")]
        partner = blocks[i]
        word = [abs(W.co_index(p, i)) *
                (1 if W.carrier_part(p, i) > 0 else -1) for p in order]
        # group consecutive block partners, allowing wrap-around
        L = len(order)
        starts = [t for t in range(L)
                  if order[t] not in partner.get(order[t - 1], set())]
        if not starts:
            raise BlockInconsistent("cycle of %d is one big factor" % i,
                                    carrier=i)
        spans = []
        for s, nxt in zip(starts, starts[1:] + [starts[0] + L]):
            spans.append([t % L for t in range(s, nxt)])
        mword = [None] * L
        for span in spans:
            dspan = [word[t] for t in span]
            for t, x in zip(span, reversed(dspan)):
                mword[t] = -x
        disk[i] = tuple(word)
        cross[i] = tuple(mword)
    arr = validate(disk, cross)
    if genus_one and arr.genus != 1:
        return []
    if not _has_chirotope(arr, chi):
        raise NoArrangement("reconstructed family has a different chirotope")
    return [arr]


def is_k_chirotope(chi, k, diagnose=False):
    """True iff every k-subset admits a genus-one extension."""
    if not 3 <= k <= len(chi.indices):
        raise TooFewIndices("k must be between 3 and %d" % len(chi.indices))
    for J in combinations(chi.indices, k):
        try:
            reconstruct(chi.restriction(J), genus_one=True)
        except DplError as exc:
            return (False, {"subset": sorted(J), **exc.report()}) if diagnose \
                else False
    return (True, None) if diagnose else True


# ---------------------------------------------------------------------------
# file format


def _ints(text, raw):
    """The integers of a whitespace-separated field of line ``raw``."""
    try:
        return [int(t) for t in text.split()]
    except ValueError as exc:
        raise FormatError("unparseable line: %r" % raw) from exc


def parse_chirotope(text):
    indices = None
    triples = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("indices:"):
            if indices is not None:
                raise FormatError("repeated 'indices:' header: %r" % raw)
            indices = parse_header(line, raw)
            continue
        if not line.startswith("chi "):
            raise FormatError("unparseable line: %r" % raw)
        head, _, body = line[4:].partition(":")
        J = tuple(_ints(head, raw))
        if frozenset(J) in triples:
            raise FormatError("repeated entry on %r: %r" % (J, raw))
        body = body.strip()
        if "(" in body and body.endswith(")"):
            name, _, args = body[:-1].partition("(")
            images = tuple(_ints(args, raw))
            arr = class_version(name.strip(), images)
        else:
            fam = {}
            for part in body.split("|"):
                kind, eq, letters = part.strip().partition("=")
                kind = kind.strip()
                idx = _ints(kind[1:], raw)
                if not eq or kind[:1] not in ("D", "M") or len(idx) != 1:
                    raise FormatError("unparseable entry %r in line %r"
                                      % (part.strip(), raw))
                sides = fam.setdefault(idx[0], {})
                if kind[0] in sides:
                    raise FormatError("repeated %s in line %r" % (kind, raw))
                sides[kind[0]] = tuple(_ints(letters, raw))
            if any("D" not in v for v in fam.values()):
                raise FormatError("entry without a disk cycle: %r" % raw)
            disk = {i: W.min_rotation(v["D"]) for i, v in fam.items()}
            cross = {i: v["M"] for i, v in fam.items() if "M" in v}
            arr = validate(disk, cross) if cross else from_disk_only(disk)
        if set(arr.indices) != set(J):
            raise FormatError("entry indices %r do not match header of %r"
                              % (arr.indices, J))
        triples[frozenset(J)] = arr
    if indices is None:
        raise FormatError("missing 'indices:' header")
    chi = Chirotope(triples)
    if set(chi.indices) != set(indices):
        raise FormatError("entries do not cover the declared index set")
    return chi


def chirotope_text(chi):
    lines = ["indices: %s" % " ".join(str(i) for i in chi.indices)]
    for J in combinations(chi.indices, 3):
        label = chi.entry_label(J)
        if label:
            lines.append("chi %d %d %d: %s" % (*J, label))
        else:
            fam = chi.entry(J)
            parts = []
            for i in sorted(fam):
                parts.append("D%d= %s" % (i, " ".join(map(str, fam[i][0]))))
            for i in sorted(fam):
                parts.append("M%d= %s" % (i, " ".join(map(str, fam[i][1]))))
            lines.append("chi %d %d %d: %s" % (*J, " | ".join(parts)))
    return "\n".join(lines) + "\n"
