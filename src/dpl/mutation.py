"""Mutations, flip-graph enumeration and censuses.

A *merge* collapses a triangular 2-cell onto the vertex opposite the
moving curve; a *split* releases the moving curve off a multiple vertex
to one of its two sides; a *flip* is a merge immediately followed by the
non-inverse split and maps simple arrangements to simple arrangements
(it inverts the triangle, swapping one adjacent letter pair per support
in both side cycles).

Merges and flips, in every walk and in :func:`apply_move`, read one
triangle finder, :func:`flags.triangle`, and one swap rule,
:func:`_swapped`: a flip swaps both side cycles of each support, a merge
only the cycle on the triangle's side.

Every census is one breadth-first walk, :func:`_walk`, with canonical
dedup; a census supplies its seeds (the thin cyclic seed, or all its
signed versions) and the neighbours of a state.  The state cap counts
every state the walk stores, seeds included: a walk raises
:class:`ResourceLimit` when it stores state ``limit + 1``, so ``partial``
is the number of states stored.

In the crosscap (Moebius) setting states carry a marked 2-cell contained
in the disk side of every curve; a move is admissible when it keeps the
marked cell, which is tracked through the move by one of its corner flags
away from the move.  Simple and heavy states name a flag by one
descriptor, ``(curve, node, orientation, side)``, where ``node`` is the
sorted tuple of the vertex's crossing pairs (a 1-tuple at a simple
vertex); a corner flag ``d`` survives a move when ``d[1]`` is not among
the nodes the move removes.
"""

import sys
from collections import deque
from itertools import permutations, product

from . import words as W
from .arrangement import (
    _D_ANCHOR,
    _slot_positions,
    act_words,
    cyclic_thin,
    from_disk_only,
    validate,
)
from .errors import DplError, IllegalLocus, ResourceLimit
from .flags import (
    crossing_positions,
    disk_faces,
    face_orbits,
    flag_id,
    flag_of,
    flag_sigmas,
    side_labels,
    triangle,
    two_curve_step,
)

# ---------------------------------------------------------------------------
# lean engine for simple arrangements (states are disk-word families)


def _disk_pairs(indices, words):
    """Crossing pair at each position of each disk cycle, and the
    positions of each pair's vertex (see :func:`flags.crossing_positions`)."""
    pairs = {i: _slot_positions(words[k], i, _D_ANCHOR)
             for k, i in enumerate(indices)}
    return pairs, crossing_positions(indices, pairs)


class SimpleState:
    """Flag structures of a simple arrangement given by its disk cycles."""

    __slots__ = ("indices", "words", "pairs", "pos", "start",
                 "s0", "s1", "s2", "_faces", "_face_of")

    def __init__(self, indices, words):
        self.indices = indices
        self.words = words
        self.pairs, self.pos = _disk_pairs(indices, words)
        self.start, self.s0, self.s1, self.s2 = flag_sigmas(
            indices, self.pairs, self.pos)
        self._faces = None
        self._face_of = None

    @property
    def faces(self):
        if self._faces is None:
            self._faces, self._face_of = face_orbits(self.s0, self.s1)
        return self._faces

    @property
    def face_of(self):
        self.faces
        return self._face_of

    def descriptor(self, f):
        """``(curve, (pair,), orientation, side)``: the descriptor of
        :meth:`flags.FlagComplex.descriptor` at a simple vertex."""
        i, p, eps, side = flag_of(self.indices, self.start, f)
        return (i, (self.pairs[i][p],), eps, side)

    def flag_from_descriptor(self, desc):
        i, (pair,), eps, side = desc
        return flag_id(self.start, i, self.pos[pair][i], eps, side)

    def face_descriptors(self, t):
        return frozenset(self.descriptor(f) for f in self.faces[t])

    def triangles(self):
        """(face index, ((curve, swap position), ...), corner nodes) of
        every triangle, as :func:`flags.triangle` reads them."""
        out = []
        for t, face in enumerate(self.faces):
            tri = triangle(face, self.indices, self.start, self.pairs)
            if tri is not None:
                out.append((t,) + tri)
        return out

    def face_sides(self):
        """face -> {curve: side}; -1 is the disk side."""
        return side_labels(self.indices, self.start, self.faces, self.face_of)

    def admissible_cells(self):
        """Faces contained in the disk side of every curve."""
        return disk_faces(self.face_sides())


def _swapped(indices, family, swaps, sides=None):
    """The word family with the letters at positions ``a`` and ``a + 1``
    of curve ``i`` exchanged, for each ``(i, a)`` in ``swaps``.

    ``family`` lists the disk words in index order, then (for a heavy
    state) the crosscap words.  A flip swaps every word of the curve; a
    merge passes the side labels of its face and swaps only the word on
    the face's side of each curve (``sides[i]``: -1 disk, +1 crosscap).
    """
    n = len(indices)
    new = list(family)
    for i, a in swaps:
        for k in range(indices.index(i), len(new), n):
            if sides is None or (k >= n) == (sides[i] > 0):
                w = list(new[k])
                q = (a + 1) % len(w)
                w[a], w[q] = w[q], w[a]
                new[k] = tuple(w)
    return tuple(new)


def _words_key(words):
    return tuple(W.min_rotation(w) for w in words)


def transport_descriptor(inv, desc):
    """Flag descriptor of ``act(sigma, .)`` matching ``desc``, given the
    inverse ``inv`` of ``sigma``.

    Each crossing pair of the node relabels through ``inv`` and is
    negated when exactly one of its two curves is reoriented.
    """
    i, node, eps, side = desc
    ii = inv(i)
    node2 = tuple(sorted(_transport_pair(inv, pair) for pair in node))
    return (abs(ii), node2, eps if ii > 0 else -eps, side)


def _transport_pair(inv, pair):
    new_pair = W.act_pair(inv, pair)
    if sum(1 for x in pair if inv(abs(x)) < 0) == 1:
        new_pair = (-new_pair[1], -new_pair[0])
    return new_pair


# ---------------------------------------------------------------------------
# the walk


def _walk(seeds, neighbours, limit, progress):
    """Breadth-first walk; returns the map key -> state in the order found.

    ``seeds`` yields ``(key, state)`` pairs and ``neighbours(key, state)``
    those of a state's neighbours.  Every seed is stored before any state
    is expanded, and a key keeps the first state stored under it.  The
    walk raises :class:`ResourceLimit` when it stores state ``limit + 1``;
    with ``progress`` it writes a line to stderr every ``progress``
    expanded states.
    """
    visited = {}
    queue = deque()

    def store(pairs):
        for key, state in pairs:
            if key in visited:
                continue
            visited[key] = state
            queue.append(key)
            if limit is not None and len(visited) > limit:
                raise ResourceLimit("state cap %d exceeded" % limit,
                                    partial=len(visited))

    store(seeds)
    expanded = 0
    while queue:
        key = queue.popleft()
        store(neighbours(key, visited[key]))
        expanded += 1
        if progress and expanded % progress == 0:
            print("expanded %d, found %d, frontier %d"
                  % (expanded, len(visited), len(queue)),
                  file=sys.stderr, flush=True)
    return visited


def _thin_words(n):
    """Indices and disk words of :func:`arrangement.cyclic_thin`."""
    seed = cyclic_thin(n)
    return seed.indices, tuple(seed.disk[i] for i in seed.indices)


# ---------------------------------------------------------------------------
# projective flip enumeration


def projective_census(n, limit=None, seed_all_versions=False):
    """Flip-BFS over simple indexed-oriented states from the thin cyclic seed.

    Returns the discovered indexed classes (key -> word family), the flip
    adjacency between keys, and the grouping into plain isomorphism classes.
    """
    indices, base = _thin_words(n)
    seeds = [base]
    if seed_all_versions:
        seeds = (act_words(s, indices, base)
                 for s in W.signed_permutations(indices))
    edges = set()

    def neighbours(key, words):
        for t, swaps, corners in SimpleState(indices, words).triangles():
            nw = _swapped(indices, words, swaps)
            nk = _words_key(nw)
            edges.add((min(key, nk), max(key, nk)))
            yield nk, nw

    visited = _walk(((_words_key(w), w) for w in seeds), neighbours,
                    limit, None)
    # A signed relabeling is an isomorphism of the flag graph, so the plain
    # key is computed once per orbit and given to all its states.
    label = {}
    for key, w in visited.items():
        if key not in label:
            arr = from_disk_only(dict(zip(indices, w)))
            pk = arr.complex.canonical_key("plain")
            for s in W.signed_permutations(indices):
                label[_words_key(act_words(s, indices, w))] = pk
    plain = {}
    for key in visited:
        plain.setdefault(label[key], []).append(key)
    return {
        "indices": indices,
        "indexed_classes": visited,
        "edges": edges,
        "plain_classes": plain,
    }


def connectivity_check(census):
    """Is the flip graph restricted to the discovered classes connected?"""
    keys = set(census["indexed_classes"])
    if not keys:
        return True
    adj = {}
    for a, b in census["edges"]:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen = _walk([(next(iter(keys)), None)],
                 lambda k, _: ((u, None) for u in adj.get(k, ())), None, None)
    return set(seen) == keys


def pumping_check(arr, gamma):
    """Vertices in the crosscap side of ``gamma`` force a triangle there
    with a side supported by ``gamma``; vacuous for thin curves."""
    cx = arr.complex
    inside = [nd for nd, sides in cx.vertex_sides.items()
              if sides.get(gamma, -1) > 0]
    if not inside:
        return True
    for t, face in enumerate(cx.faces):
        tri = triangle(face, cx.indices, cx.start, cx.pairs)
        if (tri is not None and cx.face_sides[t][gamma] > 0
                and gamma in (i for i, _ in tri[0])):
            return True
    return False


# ---------------------------------------------------------------------------
# crosscap (Moebius) censuses
#
# A state is a marked arrangement: word family plus a 2-cell contained in
# the disk side of every curve (the cell of the line at infinity).  The
# counting equivalences are calibrated against the published n <= 3 rows
# and frozen:
#
#   a: even-weight reorientations, plus pure sign-changes of odd weight
#      that fix the underlying word family (those realize the reflection
#      of the strip on symmetric arrangements);
#   b: additionally all reindexings;
#   c: the full signed permutation group (isomorphism classes);
#   d: full-group classes of the underlying unmarked families.


def _marked_seeds(indices, base):
    """Every signed version of the disk words ``base``, marked at each of
    its admissible cells: ``(key, (words, descriptor))`` pairs."""
    for sigma in W.signed_permutations(indices):
        w = act_words(sigma, indices, base)
        st = SimpleState(indices, w)
        for t in st.admissible_cells():
            desc = min(st.face_descriptors(t))
            yield (_words_key(w), desc), (w, desc)


def _survivor(tags, corners):
    """A descriptor of the marked cell at a corner that a move removing
    the nodes ``corners`` keeps."""
    survivors = [d for d in tags if d[1] not in corners]
    assert survivors, "marked cell lost all corners"
    return survivors[0]


def _marked_flips(indices, words, desc):
    """(flipped words, their crossing pairs, surviving descriptor) for each
    flip of a marked simple state at a triangle other than its marked cell.

    A flip swaps two adjacent letters of different co-indices, which keeps
    the order of each co-index's four occurrences; so each crossing pair
    moves with its letter, and the pair rows go through the same swap."""
    st = SimpleState(indices, words)
    marked = st.face_of[st.flag_from_descriptor(desc)]
    marked_descs = st.face_descriptors(marked)
    rows = tuple(st.pairs[i] for i in indices)
    for t, swaps, corners in st.triangles():
        if t != marked:
            yield (_swapped(indices, words, swaps),
                   dict(zip(indices, _swapped(indices, rows, swaps))),
                   _survivor(marked_descs, corners))


def moebius_simple_census(n, limit=None, progress=None):
    """BFS over marked simple states; returns (indices, key -> state).

    States are pairs (word family, flag descriptor of the marked cell);
    the key is rotation-canonical.  Reference walk for the tests: it
    rebuilds the full flag structures of every neighbor, where
    :func:`moebius_states` walks only the neighbor's marked face.
    """
    indices, base = _thin_words(n)

    def neighbours(key, state):
        for nw, _, survivor in _marked_flips(indices, *state):
            st2 = SimpleState(indices, nw)
            t2 = st2.face_of[st2.flag_from_descriptor(survivor)]
            yield ((_words_key(nw), min(st2.face_descriptors(t2))),
                   (nw, survivor))

    return indices, _walk(_marked_seeds(indices, base), neighbours, limit,
                          progress)


# ---------------------------------------------------------------------------
# merge / split / flip on validated arrangements


class MutationMove:
    """A merge (triangle onto its opposite vertex), split (curve off a
    multiple vertex, to one of two sides) or flip (merge + other split)."""

    __slots__ = ("kind", "locus", "moving", "side")

    def __init__(self, kind, locus, moving=None, side=None):
        if kind not in ("merge", "split", "flip"):
            raise IllegalLocus("unknown move kind %r" % kind)
        self.kind = kind
        self.locus = locus
        self.moving = moving
        self.side = side

    def __repr__(self):
        return "MutationMove(%r, %r, moving=%r, side=%r)" % (
            self.kind, self.locus, self.moving, self.side)


def _triangles(arr):
    """(face index, ((curve, block position), ...), corner nodes) of every
    triangle of ``arr`` with simple corners, as :func:`flags.triangle`
    reads them; only such a triangle admits a single-incidence move."""
    cx = arr.complex
    for t, face in enumerate(cx.faces):
        tri = triangle(face, cx.indices, cx.start, cx.pairs)
        if tri is not None and tri[1] is not None:
            yield (t,) + tri


def triangles(arr):
    """(face index, movable curve) pairs for merge/flip moves."""
    return [(t, i) for t, positions, _ in _triangles(arr)
            for i, _ in positions]


def _triangle_move(arr, t, positions, flip=False):
    """The validated result of collapsing the triangle ``t`` with support
    ``positions`` onto its opposite vertex, or with ``flip`` of inverting
    it.  Collapsing from the crosscap side of a curve reorders that
    curve's crosscap word."""
    idx = arr.indices
    family = (tuple(arr.disk[i] for i in idx)
              + tuple(arr.crosscap[i] for i in idx))
    # every corner is simple, so a block is one word position
    swaps = [(i, arr.spans[i][a][0]) for i, a in positions]
    new = _swapped(idx, family, swaps,
                   None if flip else arr.complex.face_sides[t])
    return validate(dict(zip(idx, new)), dict(zip(idx, new[len(idx):])))


def _split_candidates(arr, node, m):
    """The two releases of ``m`` off the vertex, sorted by key.

    ``m``'s factor at the vertex keeps its order or is reversed; every
    other carrier ``c`` moves its ``m`` letter to the head of its factor
    when ``c`` enters ``m``'s factor negatively and to the tail otherwise,
    or the other way round for the reversed factor.  The crosscap spans
    follow by blockwise reversal.  Both releases are validated and must
    split the vertex on the same surface.
    """
    if node not in arr.nodes:
        raise IllegalLocus("unknown node %r" % (node,))
    bases = sorted({abs(x) for pair in node for x in pair})
    if len(bases) < 3:
        raise IllegalLocus("vertex %r is already simple" % (sorted(node),))
    if m not in bases:
        raise IllegalLocus("curve %r not through the vertex" % m)
    spans = {c: arr.spans[c][arr.nodes[node][c]] for c in bases}
    negative = {-x for x in (arr.disk[m][p] for p in spans[m]) if x < 0}
    outs = {}
    for keep in (True, False):
        disk = dict(arr.disk)
        cross = dict(arr.crosscap)
        for c in bases:
            dspan = [arr.disk[c][p] for p in spans[c]]
            if c == m:
                nd = dspan if keep else dspan[::-1]
                nm = [-x for x in nd]
            else:
                k = next(t for t, x in enumerate(dspan) if abs(x) == m)
                mlet = dspan[k]
                residual = dspan[:k] + dspan[k + 1:]
                rev = [-x for x in residual[::-1]]
                if (c in negative) == keep:
                    nd, nm = [mlet] + residual, [-mlet] + rev
                else:
                    nd, nm = residual + [mlet], rev + [-mlet]
            dw, mw = list(disk[c]), list(cross[c])
            for p, x, y in zip(spans[c], nd, nm):
                dw[p], mw[p] = x, y
            disk[c], cross[c] = tuple(dw), tuple(mw)
        try:
            out = validate(disk, cross)
        except DplError:
            continue
        if node in out.nodes:
            continue  # vertex not actually split
        if out.genus != arr.genus:
            continue  # a mutation never changes the surface
        outs.setdefault(out.key(), out)
    if len(outs) != 2:
        raise IllegalLocus(
            "vertex %r admits %d releases of %d, expected 2"
            % (sorted(node), len(outs), m))
    return [outs[k] for k in sorted(outs)]


def apply_move(arr, move):
    """Apply a mutation move and return the validated result."""
    cx = arr.complex
    if move.kind in ("merge", "flip"):
        t = move.locus
        if not isinstance(t, int) or not 0 <= t < len(cx.faces):
            raise IllegalLocus("unknown face %r" % (t,))
        tri = triangle(cx.faces[t], cx.indices, cx.start, cx.pairs)
        if tri is None:
            raise IllegalLocus("face %d is not a triangle" % t)
        positions, corners = tri
        if (move.moving is not None
                and move.moving not in (i for i, _ in positions)):
            raise IllegalLocus("curve %r does not support face %d"
                               % (move.moving, t))
        if corners is None:
            raise IllegalLocus("triangle has a corner on a multiple vertex")
        return _triangle_move(arr, t, positions, move.kind == "flip")

    if move.kind == "split":
        if move.side not in ("a", "b"):
            raise IllegalLocus("unknown split side %r" % (move.side,))
        first, second = _split_candidates(arr, move.locus, move.moving)
        return first if move.side == "a" else second

    raise IllegalLocus("unknown move kind %r" % move.kind)


def inverse_split(arr, merged, node, moving):
    """The split of ``merged`` at ``node`` undoing a merge back to ``arr``."""
    for side, out in zip("ab", _split_candidates(merged, node, moving)):
        if out.key() == arr.key():
            return MutationMove("split", node, moving, side)
    raise IllegalLocus("no split of %r restores the original" % (sorted(node),))


# ---------------------------------------------------------------------------
# full (non-simple) marked walk


def moebius_full_census(n, limit=None):
    """Merge/split BFS over marked states of any simplicity (n small).

    Returns (indices, key -> (arrangement, marked descriptor set)); states
    are heavy (validated arrangements), keys canonical.
    """
    seed = cyclic_thin(n)

    def seeds():
        for sigma in W.signed_permutations(seed.indices):
            arr = seed.act(sigma)
            cx = arr.complex
            for t in cx.admissible_cells():
                tags = cx.face_descriptors(t)
                yield (arr.key(), min(tags)), (arr, tags)

    def neighbours(key, state):
        arr, marked_tags = state
        cx = arr.complex
        marked = cx.face_of[cx.flag_from_descriptor(key[1])]
        steps = []      # (neighbour, corner nodes the move removes)
        for t, positions, corners in _triangles(arr):
            if t != marked:
                steps.append((_triangle_move(arr, t, positions), corners))
        for node in arr.nodes:
            bases = {abs(x) for pair in node for x in pair}
            if len(bases) < 3:
                continue
            for m in sorted(bases):
                steps += [(out, {tuple(sorted(node))})
                          for out in _split_candidates(arr, node, m)]
        for out, corners in steps:
            ocx = out.complex
            f = ocx.flag_from_descriptor(_survivor(marked_tags, corners))
            tags = ocx.face_descriptors(ocx.face_of[f])
            yield (out.key(), min(tags)), (out, tags)

    return seed.indices, _walk(seeds(), neighbours, limit, None)


# ---------------------------------------------------------------------------
# large-census fast path
#
# The reference BFS above rebuilds full flag structures per edge; here the
# neighbor's marked-face tag is computed by walking a single face.  This is
# the walk of the simple crosscap census at every size.


def _marked_face(indices, pairs, desc):
    """Descriptors of the face holding flag ``desc``, found by walking that
    face alone (no full state build); ``pairs`` are the crossing pairs of
    the disk cycles, as :func:`_disk_pairs` gives them."""
    pos = crossing_positions(indices, pairs)
    i0, (pair0,), eps0, side0 = desc
    start = (i0, pos[pair0][i0], eps0, side0)
    seen = {start}
    stack = [start]
    while stack:
        i, p, eps, side = stack.pop()
        L = len(pairs[i])
        nxt = (i, (p + eps) % L, -eps, side)
        pair = pairs[i][p]
        j, eps2, side2 = two_curve_step(pair, i, eps, side)
        swap = (j, pos[pair][j], eps2, side2)
        for g in (nxt, swap):
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return frozenset((i, (pairs[i][p],), eps, side)
                     for i, p, eps, side in seen)


def moebius_states(n, limit=None, progress=None):
    """Marked simple states by flip BFS; fast-path tag computation.

    Returns (indices, {key: (words, descriptor)}).
    """
    indices, base = _thin_words(n)

    def neighbours(key, state):
        for nw, pairs, survivor in _marked_flips(indices, *state):
            tag = min(_marked_face(indices, pairs, survivor))
            yield (_words_key(nw), tag), (nw, survivor)

    return indices, _walk(_marked_seeds(indices, base), neighbours, limit,
                          progress)


# ---------------------------------------------------------------------------
# the census quotient
#
# One canonical form serves simple and heavy states.  A state enters as its
# cycles (the disk words, followed by the crosscap words for a heavy state)
# and the descriptor set of its marked cell.  An odd sign change tau that
# fixes x's family identifies the state x with tau.x.  Conjugating tau by a
# member sigma of a row's group P gives such a sign change of sigma.x, and
# two of them differ by an even sign change, which lies in P; so the class
# of x is P.x together with P.tau.x for any one such tau.  As tau.x has x's
# family, the class key is the minimum over P of (acted cycles, least
# transported descriptor of x's tags and of their tau-images).


def _census_groups(indices):
    signs = list(product((1, -1), repeat=len(indices)))
    evens = [s for s in signs if s.count(-1) % 2 == 0]
    odds = [s for s in signs if s.count(-1) % 2 == 1]
    ident, perms = [tuple(indices)], list(permutations(indices))

    def grp(ps, sgs):
        return list(W.signed_permutations(indices, ps, sgs))

    return {
        "evens": grp(ident, evens),
        "perm_evens": grp(perms, evens),
        "full": grp(perms, signs),
        "odd_pure": grp(ident, odds),
    }


def _acted_cycles(indices, cycles, sigma, inv):
    """Min-rotated cycles of the family acted on by ``sigma`` (with
    inverse ``inv``), one at a time; each block of ``len(indices)``
    cycles is acted on alike."""
    n = len(indices)
    for b in range(0, len(cycles), n):
        for k in indices:
            m = sigma(k)
            w = cycles[b + indices.index(abs(m))]
            if m < 0:
                w = w[::-1]
            yield W.min_rotation(tuple(inv(x) for x in w))


def _canonical_marked(indices, cycles, tags, group):
    """Minimum of (acted cycles, least transported tag) over ``group``; a
    permutation is dropped at the first cycle that exceeds the best."""
    best = None
    for sigma in group:
        inv = sigma.inverse()
        tied = best is not None
        cand = []
        for k, w in enumerate(_acted_cycles(indices, cycles, sigma, inv)):
            if tied:
                if w > best[0][k]:
                    break
                tied = w == best[0][k]
            cand.append(w)
        else:
            tag = min(transport_descriptor(inv, d) for d in tags)
            key = (tuple(cand), tag)
            if best is None or key < best:
                best = key
    return best


def _class_key(indices, cycles, tags, group, odd_pure):
    """Key of a marked state's class under ``group`` and the word-fixing
    members of ``odd_pure``."""
    family = [W.min_rotation(w) for w in cycles]
    for tau in odd_pure:
        inv = tau.inverse()
        if all(a == b for a, b in
               zip(_acted_cycles(indices, cycles, tau, inv), family)):
            tags = tags | {transport_descriptor(inv, d) for d in tags}
            break
    return _canonical_marked(indices, cycles, tags, group)


def _phase_keys(indices, states, marked, progress=None):
    """Yield the a-, b- and c-keys of the census quotient, phase by phase.

    ``marked(state)`` gives a state's cycles and marked descriptor set.
    Phase a keys every state, b one state per a-class, c one per b-class;
    the d-key of a class is the cycles part of its c-key.  With
    ``progress`` it writes its phase lines to stderr.
    """
    g = _census_groups(indices)
    keys = states
    for phase, group in zip("abc", ("evens", "perm_evens", "full")):
        if progress:
            print("phase %s over %d states" % (phase, len(keys)),
                  file=sys.stderr, flush=True)
        out = {}
        for t, key in enumerate(keys):
            cycles, tags = marked(states[key])
            out[key] = _class_key(indices, cycles, tags, g[group],
                                  g["odd_pure"])
            if progress and t and t % progress == 0:
                print("  %s %d/%d" % (phase, t, len(keys)),
                      file=sys.stderr, flush=True)
        yield out
        reps = {}
        for key, ck in out.items():
            reps.setdefault(ck, key)
        keys = list(reps.values())


def _heavy_marked(state):
    arr, tags = state
    return (tuple(arr.disk[i] for i in arr.indices)
            + tuple(arr.crosscap[i] for i in arr.indices)), tags


def _moebius_classes(n, simple_only=True, limit=None, progress=None):
    """Census row and its sorted d-keys, one family of cycles per class of
    unmarked arrangements: the disk words, then for heavy states the
    crosscap words."""
    if simple_only:
        indices, states = moebius_states(n, limit=limit, progress=progress)

        def marked(state):
            words, desc = state
            return words, _marked_face(
                indices, _disk_pairs(indices, words)[0], desc)
    else:
        indices, states = moebius_full_census(n, limit=limit)
        marked = _heavy_marked
    a, b, c = _phase_keys(indices, states, marked, progress)
    d = sorted({ck[0] for ck in c.values()})
    row = {"n": n, "a": len(set(a.values())), "b": len(set(b.values())),
           "c": len(set(c.values())), "d": len(d)}
    return row, d


def moebius_census(n, simple_only=True, limit=None, progress=None):
    """Counting row of the crosscap census.

    Returns ``{"n", "a", "b", "c", "d"}``.  With ``simple_only`` false the
    walk also crosses non-simple states (merge/split moves) and the "a"
    count is the total number of marked classes.
    """
    return _moebius_classes(n, simple_only, limit, progress)[0]


def moebius_census_rows(n, limit=None, progress=None):
    """The simple census row: :func:`moebius_states` and the quotient."""
    return _moebius_classes(n, True, limit, progress)[0]


def moebius_chirotope_counts(n, limit=None):
    """Marked classes (all and simple) under the `a`-equivalence.

    On three indices these are the numbers of crosscap chirotopes.
    """
    indices, heavy = moebius_full_census(n, limit=limit)
    a = next(_phase_keys(indices, heavy, _heavy_marked))
    return {"n": n, "total": len(set(a.values())),
            "simple": len({ak for key, ak in a.items()
                           if heavy[key][0].is_simple()})}
