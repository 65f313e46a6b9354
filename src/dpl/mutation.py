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
dedup; a census supplies its seeds (the thin cyclic seed, or its signed
versions) and the neighbours of a state.  The state cap counts every
state the walk stores, seeds included: a walk raises
:class:`ResourceLimit` when it stores state ``limit + 1``, so ``partial``
is the number of states stored (the crosscap walks store one per orbit).

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
import weakref
from collections import deque
from itertools import islice

from . import words as W
from .arrangement import (
    _D_ANCHOR,
    _slot_positions,
    act_words,
    cyclic_thin,
    family_key,
    from_disk_only,
    validate,
)
from .errors import DplError, IllegalLocus, MarkedCellLost, ResourceLimit
from .flags import (
    _EPS_SIDE,
    _LOW,
    _SIG1_XOR,
    _crossing_bits,
    crossing_positions,
    disk_faces,
    face_orbits,
    flag_id,
    flag_of,
    flag_sigmas,
    node_sigma1,
    side_labels,
    triangle,
)

# ---------------------------------------------------------------------------
# lean engine for simple arrangements (states are disk-word families)


def _pair_rows(indices, words):
    """Crossing pair at each position of each disk cycle."""
    return {i: _slot_positions(words[k], i, _D_ANCHOR)
            for k, i in enumerate(indices)}


class SimpleState:
    """Flag structures of a simple arrangement given by its disk cycles."""

    __slots__ = ("indices", "pairs", "pos", "start",
                 "s0", "s1", "s2", "faces", "face_of")

    def __init__(self, indices, words):
        self.indices = indices
        self.pairs = _pair_rows(indices, words)
        self.pos = crossing_positions(indices, self.pairs)
        self.start, self.s0, self.s1, self.s2 = flag_sigmas(
            indices, self.pairs, self.pos)
        self.faces, self.face_of = face_orbits(self.s0, self.s1)

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


def _walk(seeds, neighbours, limit, progress, index=None):
    """Breadth-first walk; returns the map key -> state in the order found.

    ``seeds`` yields ``(key, state)`` pairs and ``neighbours(key, state)``
    those of a state's neighbours.  Every seed is stored before any state
    is expanded, and a key keeps the first state stored under it; with
    ``index``, the walk also maps each state it stores to its key there.
    The walk raises :class:`ResourceLimit` when it stores state
    ``limit + 1``; with ``progress`` it writes a line to stderr every
    ``progress`` expanded states.
    """
    visited = {}
    queue = deque()

    def store(pairs):
        for key, state in pairs:
            if key in visited:
                continue
            visited[key] = state
            if index is not None:
                index[state] = key
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


def projective_census(n, limit=None):
    """Flip-BFS over simple indexed-oriented states from the thin cyclic seed.

    Returns the discovered indexed classes (key -> word family), the flip
    adjacency between keys, and the grouping into plain isomorphism classes.
    """
    indices, base = _thin_words(n)
    edges = set()

    def neighbours(key, words):
        for t, swaps, corners in SimpleState(indices, words).triangles():
            nw = _swapped(indices, words, swaps)
            nk = _words_key(nw)
            edges.add((min(key, nk), max(key, nk)))
            yield nk, nw

    visited = _walk([(_words_key(base), base)], neighbours, limit, None)
    # A signed relabeling is an isomorphism of the flag graph, so the plain
    # key is computed once per orbit and given to all its states, by their
    # packed keys.
    group = _group_actions(indices, W.signed_permutations(indices))
    label = {}
    plain = {}
    for key, w in visited.items():
        packed = tuple(map(W.pack, key))
        if packed not in label:
            arr = from_disk_only(dict(zip(indices, w)))
            pk = arr.complex.canonical_key()
            cycles = _packed(w)
            for act in group:
                label[tuple(act.cycles(cycles))] = pk
        plain.setdefault(label[packed], []).append(key)
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


def _even_cosets(indices):
    """The even reorientations, and one signed permutation per coset of
    them (the kernel of sigma -> (permutation, parity)): 2 n!, not n! 2^n."""
    n = len(indices)
    evens = [s for s in W.signed_permutations(indices, [tuple(indices)])
             if sum(v < 0 for v in s.images.values()) % 2 == 0]
    return evens, W.signed_permutations(indices, None,
                                        [(1,) * n, (-1,) + (1,) * (n - 1)])


def _marked_seeds(indices, base, sigmas):
    """The versions of the disk words ``base`` under ``sigmas``, marked at
    each admissible cell: ``(words, marked descriptor set)`` pairs.  An
    orbit walk passes one ``sigma`` per coset (:func:`_even_cosets`)."""
    for sigma in sigmas:
        w = act_words(sigma, indices, base)
        st = SimpleState(indices, w)
        for t in st.admissible_cells():
            yield w, st.face_descriptors(t)


def _survivor(tags, corners):
    """A descriptor of the marked cell at a corner that a move removing
    the nodes ``corners`` keeps."""
    for d in tags:
        if d[1] not in corners:
            return d
    raise MarkedCellLost("the move removes every corner of the marked cell",
                         corners=sorted(corners))


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


def moebius_simple_census(n, limit=None):
    """BFS over marked simple states; returns (indices, key -> state).

    States are pairs (word family, flag descriptor of the marked cell);
    the key is rotation-canonical.  Plain reference walk for the tests:
    it stores every state and rebuilds every neighbor's flag structures,
    where :func:`moebius_states` stores orbits and walks one face.
    """
    indices, base = _thin_words(n)

    def neighbours(key, state):
        for nw, _, survivor in _marked_flips(indices, *state):
            st2 = SimpleState(indices, nw)
            t2 = st2.face_of[st2.flag_from_descriptor(survivor)]
            yield ((_words_key(nw), min(st2.face_descriptors(t2))),
                   (nw, survivor))

    seeds = (((_words_key(w), min(tags)), (w, min(tags))) for w, tags
             in _marked_seeds(indices, base, W.signed_permutations(indices)))
    return indices, _walk(seeds, neighbours, limit, None)


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


def _own_sides(cx, t):
    """The side of face ``t`` of each curve it has an edge on, read off
    the face's own flags: a flag names its face's side of its own curve."""
    return {i: side for i, _, _, side
            in (flag_of(cx.indices, cx.start, f) for f in cx.faces[t])}


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
                   None if flip else _own_sides(arr.complex, t))
    return _validated(dict(zip(idx, new)), dict(zip(idx, new[len(idx):])))


# Arrangements the move layer validated, by their exact words (so spans,
# flag numbering and faces are those of a fresh validation), for as long
# as some caller holds them.
_VALIDATED = weakref.WeakValueDictionary()


def _validated(disk, cross):
    """:func:`validate` of the side-cycle families, or the live arrangement
    already validated from the same words, with whatever it has built
    since.  A rejected input is not stored: it raises on every call."""
    idx = tuple(sorted(disk))
    key = (idx, tuple(disk[i] for i in idx), tuple(cross[i] for i in idx))
    arr = _VALIDATED.get(key)
    if arr is None:
        arr = _VALIDATED[key] = validate(disk, cross)
    return arr


def _split_candidates(arr, node, m):
    """The two releases of ``m`` off the vertex ``node``, sorted by key:
    ``(key, disk, crosscap, vertices)`` each, built from words and not
    validated.

    ``m``'s factor at the vertex keeps its order or is reversed; every
    other carrier ``c`` moves its ``m`` letter to the head of its factor
    when ``c`` enters ``m``'s factor negatively and to the tail otherwise,
    or the other way round for the reversed factor.  The crosscap spans
    follow by blockwise reversal.  Each letter keeps its crossing pair,
    because a factor holds one letter per co-index, so no letter passes
    another of its co-index.  ``vertices`` maps each curve through the
    vertex to the nodes its new factors make, in walk order
    (:func:`_keeps_surface`).

    The key is :func:`arrangement.family_key` of the words, which is the
    :meth:`Arrangement.key` of the validated release: validation only
    rotates the crosscap words, and the key reads least rotations.  Equal
    keys raise :class:`IllegalLocus`.

    This is the one split of the move layer: :func:`apply_move` validates
    the release it is asked for, :func:`inverse_split` none and the heavy
    walk both, each through :func:`_release`.
    """
    # nodes are frozensets; an unhashable locus is unknown too
    if not isinstance(node, frozenset) or node not in arr.nodes:
        raise IllegalLocus("unknown node %r" % (node,))
    bases = sorted({abs(x) for pair in node for x in pair})
    if len(bases) < 3:
        raise IllegalLocus("vertex %r is already simple" % (sorted(node),))
    if m not in bases:
        raise IllegalLocus("curve %r not through the vertex" % m)
    spans = {c: arr.spans[c][arr.nodes[node][c]] for c in bases}
    negative = {-x for x in (arr.disk[m][p] for p in spans[m]) if x < 0}
    rest = frozenset(pair for pair in node
                     if m not in (abs(pair[0]), abs(pair[1])))
    outs = []
    for keep in (True, False):
        disk, cross = dict(arr.disk), dict(arr.crosscap)
        vertices = {}
        for c in bases:
            span, word, row = spans[c], arr.disk[c], arr.S[c]
            if c == m:
                order = range(len(span))
                factors = [[t] for t in (order if keep else reversed(order))]
            else:
                k = next(t for t, p in enumerate(span) if abs(word[p]) == m)
                residual = [t for t in range(len(span)) if t != k]
                factors = ([[k], residual] if (c in negative) == keep
                           else [residual, [k]])
            dw, mw = list(word), list(cross[c])
            at = iter(span)
            for factor in factors:
                for t, u in zip(factor, reversed(factor)):
                    p = next(at)
                    dw[p], mw[p] = word[span[t]], -word[span[u]]
            disk[c], cross[c] = tuple(dw), tuple(mw)
            vertices[c] = tuple(frozenset((row[span[f[0]]],)) if len(f) == 1
                                else rest for f in factors)
        outs.append((family_key(arr.indices, disk, cross), disk, cross,
                     vertices))
    if outs[0][0] == outs[1][0]:
        raise IllegalLocus("vertex %r releases %d to one arrangement twice"
                           % (sorted(node), m))
    return sorted(outs, key=lambda out: out[0])


def _keeps_surface(node, vertices):
    """Whether a release of a curve off ``node`` is on the source's surface,
    read off the release's ``vertices`` (:func:`_split_candidates`).

    Releasing a curve off a vertex of k curves splits the factor at the
    vertex of each other curve in two and the released curve's into k - 1
    letters.  So a release that validates has k - 1 more vertices and
    2k - 3 more edges, and its surface has the source's Euler
    characteristic, and genus, exactly when it has k - 2 more faces.

    Outside a small disk around the vertex both arrangements have the same
    flags and the same sigma0 and sigma1, so a face that misses the disk
    is a face of both.  A face that enters the disk does so at the 4k flags
    of the 2k edges leaving it, its ports, here ``(curve, low bits of the
    flag number)``.  In the source, sigma1 at the vertex joins the ports in
    pairs (:func:`flags.node_sigma1`); in the release, a walk inside the
    disk does, alternating sigma1 at the new vertices and sigma0 along the
    new edges, as :func:`_marked_face` walks a face.  When the two joinings
    agree, the faces through the disk correspond one to one and the
    release adds exactly its inner faces, those whose walk meets no port;
    so it keeps the surface when there are k - 2 of them, the cells
    between the released curve and the vertex.  A release that joins the
    ports otherwise is no move inside the disk and is refused; on every
    such placement the tests try, the genus of the whole complex changes
    too.
    """
    at = {}
    for c, nodes in vertices.items():
        for q, u in enumerate(nodes):
            at.setdefault(u, {})[c] = q
    sigma1 = {u: node_sigma1(u) for u in at}
    last = {c: len(nodes) - 1 for c, nodes in vertices.items()}
    seen = set()

    def walk(i, q, b):
        """Alternate sigma1 and sigma0 from flag ``(curve, position,
        low bits)``: the port where the walk leaves the disk, or None when
        it closes an inner face."""
        first = i, q, b
        while True:
            seen.add((i, q, b))
            u = vertices[i][q]
            i, b = sigma1[u][i, b]
            q = at[u][i]
            seen.add((i, q, b))
            if q == (0 if b & 2 else last[i]):
                return i, b
            q += -1 if b & 2 else 1
            b ^= 2
            if (i, q, b) == first:
                return None

    # the port flags: backward flags at the first vertex, forward ones at
    # the last; a port reached from another is done
    source = node_sigma1(node)
    for c in vertices:
        for low in range(4):
            q = 0 if low & 2 else last[c]
            if (c, q, low) not in seen and walk(c, q, low) != source[c, low]:
                return False
    flags = [(c, q, low) for c, nodes in vertices.items()
             for q in range(len(nodes)) for low in range(4)]
    inner = sum(walk(*f) is None for f in flags if f not in seen)
    return inner == len(vertices) - 2


def _release(node, m, release):
    """The validated arrangement of one of :func:`_split_candidates`'s
    releases, or :class:`IllegalLocus` if it is no arrangement or leaves
    the source's surface (:func:`_keeps_surface`)."""
    _, disk, cross, vertices = release
    try:
        out = _validated(disk, cross)
    except DplError as exc:
        raise IllegalLocus("release of %d off vertex %r is no arrangement: %s"
                           % (m, sorted(node), exc)) from exc
    if not _keeps_surface(node, vertices):
        raise IllegalLocus("release of %d off vertex %r changes the surface"
                           % (m, sorted(node)))
    return out


def apply_move(arr, move):
    """Apply a mutation move and return the validated result."""
    if move.kind in ("merge", "flip"):
        cx = arr.complex
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
        releases = _split_candidates(arr, move.locus, move.moving)
        return _release(move.locus, move.moving,
                        releases["ab".index(move.side)])

    raise IllegalLocus("unknown move kind %r" % move.kind)


def inverse_split(arr, merged, node, moving):
    """The split of ``merged`` at ``node`` undoing a merge back to ``arr``.

    It compares the keys of both releases of :func:`_split_candidates`
    with ``arr``'s and validates neither: the :func:`apply_move` of its
    answer validates the release, or finds ``arr`` when ``arr`` is itself
    a live result of a move (:func:`_validated`)."""
    key = arr.key()
    for side, release in zip("ab", _split_candidates(merged, node, moving)):
        if release[0] == key:
            return MutationMove("split", node, moving, side)
    raise IllegalLocus("no split of %r restores the original" % (sorted(node),))


# ---------------------------------------------------------------------------
# full (non-simple) marked walk


def _heavy_steps(state):
    """The marked states one merge or split away from the marked heavy
    state ``(arrangement, marked descriptor set)``, in the same form; a
    merge of the marked cell is not admissible."""
    arr, marked_tags = state
    cx = arr.complex
    marked = cx.face_of[cx.flag_from_descriptor(min(marked_tags))]
    steps = []      # (neighbour, corner nodes the move removes)
    for t, positions, corners in _triangles(arr):
        if t != marked:
            steps.append((_triangle_move(arr, t, positions), corners))
    for node in arr.nodes:
        bases = {abs(x) for pair in node for x in pair}
        if len(bases) < 3:
            continue
        for m in sorted(bases):
            steps += [(_release(node, m, release), {tuple(sorted(node))})
                      for release in _split_candidates(arr, node, m)]
    for out, corners in steps:
        ocx = out.complex
        f = ocx.flag_from_descriptor(_survivor(marked_tags, corners))
        yield out, ocx.face_descriptors(ocx.face_of[f])


def moebius_full_census(n, limit=None):
    """Merge/split BFS over marked states of any simplicity (n small).

    Returns (indices, key -> (arrangement, marked descriptor set)), one
    state per orbit as in :func:`moebius_states`: 531 at n=3, not 2,124."""
    seed = cyclic_thin(n)
    evens, cosets = _even_cosets(seed.indices)
    evens = _group_actions(seed.indices, evens)

    def keyed(state):
        cycles, tags = _heavy_marked(state)
        return _canonical_marked(_packed(cycles), tags, evens), state

    def seeds():
        for sigma in cosets:
            arr = seed.act(sigma)
            cx = arr.complex
            for t in cx.admissible_cells():
                yield keyed((arr, cx.face_descriptors(t)))

    return seed.indices, _walk(seeds(), lambda _, st: map(
        keyed, _heavy_steps(st)), limit, None)


# ---------------------------------------------------------------------------
# large-census fast path
#
# The reference BFS above rebuilds full flag structures per edge; here the
# neighbor's marked-face tag is computed by walking a single face.  This is
# the walk of the simple crosscap census at every size.


def _marked_face(indices, pairs, desc):
    """Descriptors of the face holding flag ``desc``, found by walking that
    face alone (no full state build); ``pairs`` are the crossing pairs of
    the disk cycles, as :func:`_pair_rows` gives them.

    A flag is walked as (curve, position, low bits of its flag number),
    alternating sigma0 and sigma1 as :func:`flags.face_orbits` does; the
    position of a crossing on the next curve is read off that curve's row
    of ``pairs``."""
    i, (pair,), eps, side = desc
    p = p0 = pairs[i].index(pair)
    i0 = i
    low = low0 = _LOW[(eps, side)]
    out = []
    while True:
        row = pairs[i]
        out.append((i, (row[p],)) + _EPS_SIDE[low])
        # sigma0: the next position forward, or back at orientation -1
        p = (p - 1 if low & 2 else p + 1) % len(row)
        low ^= 2
        pair = row[p]
        out.append((i, (pair,)) + _EPS_SIDE[low])
        i, x = _crossing_bits(pair, i)
        p = pairs[i].index(pair)
        low = x ^ _SIG1_XOR[low]
        if p == p0 and i == i0 and low == low0:
            return frozenset(out)


def moebius_states(n, limit=None, progress=None):
    """Marked simple states by flip BFS, one per orbit of the even
    reorientations: (indices, {orbit key: (words, descriptor)}), with the
    first member found in its own frame; 118 at n=3, not 472, and the cap
    counts orbits.  A flip commutes with relabeling, so one seed per coset
    of the even reorientations (:func:`_even_cosets`) will do.

    A state is keyed once: a neighbour that is exactly a stored state,
    ``(words, descriptor)``, reads its key from the walk's index."""
    indices, base = _thin_words(n)
    evens, cosets = _even_cosets(indices)
    evens = _group_actions(indices, evens)
    index = {}

    def keyed(words, tags):
        state = (words, min(tags))
        key = index.get(state)
        if key is None:
            key = _canonical_marked(_packed(words), tags, evens)
        return key, state

    def neighbours(key, state):
        for nw, pairs, survivor in _marked_flips(indices, *state):
            yield keyed(nw, _marked_face(indices, pairs, survivor))

    seeds = (keyed(w, tags) for w, tags
             in _marked_seeds(indices, base, cosets))
    return indices, _walk(seeds, neighbours, limit, progress, index)


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
#
# Only phase a keys states one by one, under the even reorientations E,
# and the walk has already keyed each state so; phase a keys again only a
# state whose family an odd pure sign change fixes.  The groups of b
# (reindexings times E) and c (all signed permutations) are unions of
# cosets of E, and E is normal, so the minimum over the coset of g is the
# a-key of g.x.  The b-key of g.x is the least of these minima
# over the representatives of g's parity, and its c-key the least of all;
# so keying x once per coset labels every a-class of its orbit
# (orbit-wise generation, McKay 1998).


def _packed(cycles):
    """``(length, doubled packed word, its reverse)`` of each cycle: the
    form in which :class:`_Action` reads a family (:func:`words.pack`)."""
    out = []
    for w in cycles:
        doubled = W.pack(w) * 2
        out.append((len(w), doubled, doubled[::-1]))
    return tuple(out)


class _Action:
    """A signed permutation ``sigma`` compiled for acting on word families
    and flag descriptors, built once per walk or quotient.

    ``get`` reads the image of a signed letter under ``sigma``'s inverse,
    and ``table`` is the same map on packed letters, for
    :meth:`bytes.translate`; ``order`` gives, for each output cycle of a
    block, the position of its source cycle and whether that cycle is read
    backwards (``sigma(k) < 0``); ``transports`` stores the descriptors
    already transported.
    """

    __slots__ = ("get", "table", "order", "transports")

    def __init__(self, indices, sigma):
        inv = sigma.inverse()
        images = {x: inv(x) for i in indices for x in (i, -i)}
        self.get = images.__getitem__
        table = bytearray(range(256))
        for x, y in images.items():
            table[x + 128] = y + 128
        self.table = bytes(table)
        self.order = tuple((indices.index(abs(sigma(k))), sigma(k) < 0)
                           for k in indices)
        self.transports = {}

    def cycles(self, packed):
        """Least rotations of the packed cycles of the acted family, one
        at a time, from the :func:`_packed` form of a family; each block
        of ``len(indices)`` cycles is acted on alike."""
        table = self.table
        least = W.least_rotation
        for b in range(0, len(packed), len(self.order)):
            for src, backwards in self.order:
                n, forward, reverse = packed[b + src]
                word = reverse if backwards else forward
                yield least(word.translate(table), n)

    def transport(self, desc):
        """:func:`transport_descriptor` of ``desc``, computed once."""
        out = self.transports.get(desc)
        if out is None:
            out = self.transports[desc] = transport_descriptor(self.get, desc)
        return out


def _group_actions(indices, group):
    """The members of ``group``, one :class:`_Action` each."""
    return [_Action(indices, sigma) for sigma in group]


def _canonical_marked(packed, tags, actions):
    """Minimum of (acted cycles, least transported tag) over the compiled
    group ``actions``; a member is dropped at the first cycle that exceeds
    the least key so far.

    The cycles come in the :func:`_packed` form, packed once by the
    caller, and are compared packed, which orders them as the tuples do;
    only the winning key is unpacked.
    """
    best = None
    for act in actions:
        tied = best is not None
        cand = []
        for k, w in enumerate(act.cycles(packed)):
            if tied:
                if w > best[0][k]:
                    break
                tied = w == best[0][k]
            cand.append(w)
        else:
            key = (tuple(cand), min(map(act.transport, tags)))
            if best is None or key < best:
                best = key
    return tuple(map(W.unpack, best[0])), best[1]


def _odd_fixer(packed, odd_pure):
    """The first member of the compiled ``odd_pure`` that fixes the family
    of the :func:`_packed` cycles, or None."""
    family = [W.least_rotation(doubled, n) for n, doubled, _ in packed]
    for tau in odd_pure:
        if all(a == b for a, b in zip(tau.cycles(packed), family)):
            return tau
    return None


def _phase_keys(indices, states, marked, progress=None):
    """The a-, b- and c-keys of the census quotient: three dicts, made in
    one pass.

    ``states`` must be keyed as the crosscap walks key them: each state
    under its least (acted cycles, transported tag) over the even
    reorientations, :func:`_canonical_marked` of its marked cell.  That
    is its a-key unless an odd pure sign change fixes its family, and the
    evens are pure sign changes too, so they commute with such a fixer
    and the fixer test runs on the key's own cycles.  ``marked(state)``
    gives a state's cycles and marked descriptor set; it is read, and
    the state keyed, only when the state has a fixer, whose images then
    join its tags, or when it opens an a-class with no label yet.

    Phase a gives every state a key, b gives one to the state that opens
    each a-class, when it opens it, and c to the state that opens each
    b-class; so each dict lists its states in the order of the walk.  The
    b- and c-keys are read off labels: a state that opens an a-class with
    no label yet is keyed once per coset of the even reorientations,
    which labels every a-class of its orbit.  The d-key of a class is the
    cycles part of its c-key.  With ``progress`` it writes a line to
    stderr every ``progress`` states, and each phase line once the
    phase's number of states is known.
    """
    a, b, c = {}, {}, {}
    evens, reps = _even_cosets(indices)
    odd_pure = _group_actions(indices, [
        tau for tau in W.signed_permutations(indices, [tuple(indices)])
        if tau not in evens])
    # the cosets after the first, the evens themselves; representative k
    # of _even_cosets has the parity of k
    cosets = [_group_actions(indices, [e.compose(g) for e in evens])
              for g in islice(reps, 1, None)]
    evens = _group_actions(indices, evens)
    labels = {}     # a-key -> (b-key, c-key) of the a-classes not yet opened
    opened_a, opened_b = set(), set()

    def read(state, tau):
        """A state's packed cycles and its tags, joined with their images
        under the fixer ``tau``, if there is one."""
        cycles, tags = marked(state)
        if tau is not None:
            tags = tags | set(map(tau.transport, tags))
        return _packed(cycles), tags

    if progress:
        print("phase a over %d states" % len(states),
              file=sys.stderr, flush=True)
    for t, key in enumerate(states):
        tau = _odd_fixer(_packed(key[0]), odd_pure)
        if tau is None:
            ak = key
        else:
            packed, tags = read(states[key], tau)
            ak = _canonical_marked(packed, tags, evens)
        a[key] = ak
        if ak not in opened_a:
            opened_a.add(ak)
            label = labels.pop(ak, None)
            if label is None:
                if tau is None:
                    packed, tags = read(states[key], None)
                keys = [ak] + [_canonical_marked(packed, tags, coset)
                               for coset in cosets]
                halves = min(keys[0::2]), min(keys[1::2])
                labels.update((k, (halves[r % 2], min(halves)))
                              for r, k in enumerate(keys))
                label = labels.pop(ak)
            bk, ck = label
            b[key] = bk
            if bk not in opened_b:
                opened_b.add(bk)
                c[key] = ck
        if progress and t and t % progress == 0:
            print("  a %d/%d" % (t, len(states)),
                  file=sys.stderr, flush=True)
    if progress:
        for phase, out in (("b", b), ("c", c)):
            print("phase %s over %d states" % (phase, len(out)),
                  file=sys.stderr, flush=True)
    return a, b, c


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
            return words, _marked_face(indices, _pair_rows(indices, words),
                                       desc)
    else:
        indices, states = moebius_full_census(n, limit=limit)
        marked = _heavy_marked
    a, b, c = _phase_keys(indices, states, marked, progress=progress)
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
    a, _, _ = _phase_keys(indices, heavy, _heavy_marked)
    return {"n": n, "total": len(set(a.values())),
            "simple": len({ak for key, ak in a.items()
                           if heavy[key][0].is_simple()})}
