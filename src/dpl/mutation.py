"""Mutations, flip-graph enumeration and censuses.

A *merge* collapses a triangular 2-cell onto the vertex opposite the
moving curve; a *split* releases the moving curve off a multiple vertex
to one of its two sides; a *flip* is a merge immediately followed by the
non-inverse split and maps simple arrangements to simple arrangements
(it inverts the triangle, swapping one adjacent letter pair per support
in both side cycles).

Enumeration walks the flip graph from the thin cyclic seed with canonical
dedup.  In the crosscap (Moebius) setting states carry a marked 2-cell
contained in the disk side of every curve; a flip is admissible when the
inverted triangle is not the marked cell, and the marked cell is tracked
through the move by one of its corner flags away from the triangle.
"""

from collections import Counter, deque

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
    _EPS_SIDE,
    crossing_positions,
    face_orbits,
    flag_id,
    flag_sigmas,
    side_labels,
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

    def fid(self, i, p, eps, side):
        return flag_id(self.start, i, p, eps, side)

    def flag(self, f):
        k, low = divmod(f, 4)
        i = next(i for i in reversed(self.indices) if k >= self.start[i])
        return (i, k - self.start[i]) + _EPS_SIDE[low]

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
        i, p, eps, side = self.flag(f)
        return (i, self.pairs[i][p], eps, side)

    def flag_from_descriptor(self, desc):
        i, pair, eps, side = desc
        return self.fid(i, self.pos[pair][i], eps, side)

    def face_descriptors(self, t):
        return frozenset(self.descriptor(f) for f in self.faces[t])

    def triangles(self):
        """(face index, ((curve, swap position), ...), corner pairs)."""
        out = []
        for t, face in enumerate(self.faces):
            if len(face) != 6:
                continue
            per_curve = {}
            for f in face:
                i, p, eps, side = self.flag(f)
                per_curve.setdefault(i, []).append((p, eps))
            swaps = []
            corners = set()
            for i, fl in per_curve.items():
                L = len(self.pairs[i])
                (p1, e1), (p2, e2) = fl
                a = p1 if e1 > 0 else p2
                b = p2 if e1 > 0 else p1
                assert (a + 1) % L == b
                swaps.append((i, a))
                corners.add(self.pairs[i][a])
                corners.add(self.pairs[i][b])
            out.append((t, tuple(sorted(swaps)), frozenset(corners)))
        return out

    def face_sides(self):
        """face -> {curve: side}; -1 is the disk side."""
        return side_labels(self.indices, self.start, self.faces, self.face_of)


def _swap_words(indices, words, swaps):
    new = list(words)
    for i, a in swaps:
        k = indices.index(i)
        w = list(new[k])
        b = (a + 1) % len(w)
        w[a], w[b] = w[b], w[a]
        new[k] = tuple(w)
    return tuple(new)


def _words_key(words):
    return tuple(W.min_rotation(w) for w in words)


def transport_descriptor(sigma, desc):
    """Flag descriptor of ``act(sigma, .)`` matching ``desc``.

    The crossing pair relabels through the inverse permutation and is
    negated when exactly one of its two curves is reoriented.
    """
    inv = sigma.inverse()
    i, pair, eps, side = desc
    ii = inv(i)
    return (abs(ii), _transport_pair(inv, pair), eps if ii > 0 else -eps,
            side)


def _transport_pair(inv, pair):
    new_pair = W.act_pair(inv, pair)
    if sum(1 for x in pair if inv(abs(x)) < 0) == 1:
        new_pair = (-new_pair[1], -new_pair[0])
    return new_pair


# ---------------------------------------------------------------------------
# projective flip enumeration


def projective_census(n, simple_only=True, limit=None, seed_all_versions=False):
    """Flip-BFS over simple indexed-oriented states from the thin cyclic seed.

    Returns the discovered indexed classes (key -> word family), the flip
    adjacency between keys, and the grouping into plain isomorphism classes.
    """
    if not simple_only:
        raise IllegalLocus("non-simple projective walks are not wired to a "
                           "census; use merge/split moves via apply()")
    seed = cyclic_thin(n)
    indices = seed.indices
    base = tuple(seed.disk[i] for i in indices)
    seeds = [base]
    if seed_all_versions:
        seeds = [act_words(s, indices, base)
                 for s in W.SignedPermutation.all(indices)]
    visited = {}
    queue = deque()
    edges = set()
    for w in seeds:
        k = _words_key(w)
        if k not in visited:
            visited[k] = w
            queue.append(k)
    while queue:
        key = queue.popleft()
        if limit is not None and len(visited) > limit:
            raise ResourceLimit("state cap %d exceeded" % limit,
                                partial=len(visited))
        st = SimpleState(indices, visited[key])
        for t, swaps, corners in st.triangles():
            nw = _swap_words(indices, visited[key], swaps)
            nk = _words_key(nw)
            edges.add((min(key, nk), max(key, nk)))
            if nk not in visited:
                visited[nk] = nw
                queue.append(nk)
    plain = {}
    for key, w in visited.items():
        arr = from_disk_only(dict(zip(indices, w)))
        plain.setdefault(arr.complex.canonical_key("plain"), []).append(key)
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
    seen = {next(iter(keys))}
    todo = deque(seen)
    while todo:
        k = todo.popleft()
        for u in adj.get(k, ()):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return seen == keys


def pumping_check(arr, gamma):
    """Vertices in the crosscap side of ``gamma`` force a triangle there
    with a side supported by ``gamma``; vacuous for thin curves."""
    cx = arr.complex
    inside = [nd for nd, sides in cx.vertex_sides.items()
              if sides.get(gamma, -1) > 0]
    if not inside:
        return True
    for t, face in enumerate(cx.faces):
        if len(face) != 6:
            continue
        if cx.face_sides[t][gamma] <= 0:
            continue
        if any(cx.flags[f][2] == gamma for f in face):
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


def _admissible_faces(st):
    return [t for t, sides in enumerate(st.face_sides())
            if all(v < 0 for v in sides.values())]


def moebius_simple_census(n, limit=None, progress=None):
    """BFS over marked simple states; returns (indices, key -> state).

    States are pairs (word family, flag descriptor of the marked cell);
    the key is rotation-canonical.  Reference walk for the tests: it
    rebuilds the full flag structures of every neighbor, where
    :func:`moebius_states` walks only the neighbor's marked face.
    """
    seed = cyclic_thin(n)
    indices = seed.indices
    base = tuple(seed.disk[i] for i in indices)
    visited = {}
    queue = deque()
    for sigma in W.SignedPermutation.all(indices):
        w = act_words(sigma, indices, base)
        st = SimpleState(indices, w)
        for t in _admissible_faces(st):
            descs = st.face_descriptors(t)
            key = (_words_key(w), min(descs))
            if key not in visited:
                visited[key] = (w, min(descs))
                queue.append(key)
    while queue:
        key = queue.popleft()
        if limit is not None and len(visited) > limit:
            raise ResourceLimit("state cap %d exceeded" % limit,
                                partial=len(visited))
        words, desc = visited[key]
        st = SimpleState(indices, words)
        marked = st.face_of[st.flag_from_descriptor(desc)]
        marked_descs = st.face_descriptors(marked)
        for t, swaps, corners in st.triangles():
            if t == marked:
                continue
            survivors = [d for d in marked_descs if d[1] not in corners]
            assert survivors, "marked cell lost all corners"
            nw = _swap_words(indices, words, swaps)
            st2 = SimpleState(indices, nw)
            t2 = st2.face_of[st2.flag_from_descriptor(survivors[0])]
            nk = (_words_key(nw), min(st2.face_descriptors(t2)))
            if nk not in visited:
                visited[nk] = (nw, survivors[0])
                queue.append(nk)
            if progress and len(visited) % progress == 0:
                print("  ... frontier %d states %d" % (len(queue), len(visited)))
    return indices, visited


def _census_groups(indices):
    from itertools import permutations, product
    n = len(indices)
    perms = list(permutations(indices))
    signs = list(product((1, -1), repeat=n))
    evens = [s for s in signs if s.count(-1) % 2 == 0]
    odds = [s for s in signs if s.count(-1) % 2 == 1]

    def grp(ps, sgs):
        return [W.SignedPermutation(dict(zip(indices, (s * v for v, s in zip(p, sg)))))
                for p in ps for sg in sgs]

    return {
        "evens": grp([tuple(indices)], evens),
        "perm_evens": grp(perms, evens),
        "full": grp(perms, signs),
        "odd_pure": grp([tuple(indices)], odds),
    }


class _UnionFind:
    def __init__(self, keys):
        self.parent = {k: k for k in keys}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def count(self):
        return len({self.find(k) for k in self.parent})


def _marked_classes(indices, tagsets, group, odd_pure):
    """Number of classes of marked states under the calibrated equivalence.

    Union-find over the whole group for every state; the tests compare it
    with the canonical-form quotient of :func:`moebius_census_rows`.
    """
    uf = _UnionFind(tagsets)
    for key, (words, tags) in tagsets.items():
        wk = _words_key(words)
        for sigma in group:
            nw = act_words(sigma, indices, words)
            nk = (_words_key(nw),
                  min(transport_descriptor(sigma, d) for d in tags))
            if nk in tagsets:
                uf.union(key, nk)
        for sigma in odd_pure:
            if _words_key(act_words(sigma, indices, words)) != wk:
                continue
            nk = (wk, min(transport_descriptor(sigma, d) for d in tags))
            if nk in tagsets:
                uf.union(key, nk)
    return uf.count()


def moebius_census(n, simple_only=True, limit=None, progress=None):
    """Counting row of the crosscap census.

    Returns ``{"n", "a", "b", "c", "d"}``.  Simple states are counted by
    :func:`moebius_census_rows`.  With ``simple_only`` false the walk also
    crosses non-simple states (merge/split moves) and the "a" count is the
    total number of marked classes.
    """
    if simple_only:
        return moebius_census_rows(n, limit=limit, progress=progress)
    indices, heavy = moebius_full_census(n, limit=limit)
    g = _census_groups(indices)
    states = set(heavy)
    underlying = {arr.key(): arr for arr, _ in heavy.values()}
    d = {min(arr.acted_key(s) for s in g["full"])
         for arr in underlying.values()}
    return {"n": n,
            "a": _heavy_classes(heavy, states, g["evens"], g["odd_pure"]),
            "b": _heavy_classes(heavy, states, g["perm_evens"],
                                g["odd_pure"]),
            "c": _heavy_classes(heavy, states, g["full"], []),
            "d": len(d)}


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


def triangles(arr):
    """(face index, movable curve) pairs for merge/flip moves."""
    cx = arr.complex
    out = []
    for t, face in enumerate(cx.faces):
        if len(face) != 6:
            continue
        nodes = {cx.flags[f][0] for f in face}
        if any(len(cx.node_list[nd]) != 1 for nd in nodes):
            continue  # only all-simple corners admit a single-incidence move
        for curve in sorted({cx.flags[f][2] for f in face}):
            out.append((t, curve))
    return out


def _corner_positions(arr, cx, face):
    """Per support curve, the adjacent position pair of the two corners."""
    per_curve = {}
    for f in face:
        nd, eps, i, side = cx.flags[f]
        node = cx.node_list[nd]
        span = arr.spans[i][cx.block_index[(nd, i)]]
        assert len(span) == 1
        per_curve.setdefault(i, set()).add(span[0])
    swaps = {}
    for i, ps in per_curve.items():
        L = len(arr.disk[i])
        p, q = sorted(ps)
        if (p + 1) % L == q:
            swaps[i] = p
        elif (q + 1) % L == p:
            swaps[i] = q
        else:
            raise IllegalLocus("face corners not adjacent on curve %d" % i)
    return swaps


def _swap_adjacent(word, p):
    w = list(word)
    q = (p + 1) % len(w)
    w[p], w[q] = w[q], w[p]
    return tuple(w)


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
        face = cx.faces[t]
        if len(face) != 6:
            raise IllegalLocus("face %d is not a triangle" % t)
        supports = {cx.flags[f][2] for f in face}
        if move.moving is not None and move.moving not in supports:
            raise IllegalLocus("curve %r does not support face %d"
                               % (move.moving, t))
        nodes = {cx.flags[f][0] for f in face}
        if any(len(cx.node_list[nd]) != 1 for nd in nodes):
            raise IllegalLocus("triangle has a corner on a multiple vertex")
        swaps = _corner_positions(arr, cx, face)
        sides = cx.face_sides[t]
        disk = dict(arr.disk)
        cross = dict(arr.crosscap)
        for i, p in swaps.items():
            if move.kind == "flip":
                disk[i] = _swap_adjacent(disk[i], p)
                cross[i] = _swap_adjacent(cross[i], p)
            elif sides[i] > 0:
                # collapsing from the crosscap side reorders that wheel
                cross[i] = _swap_adjacent(cross[i], p)
            else:
                disk[i] = _swap_adjacent(disk[i], p)
        return validate(disk, cross)

    if move.kind == "split":
        first, second = _split_candidates(arr, move.locus, move.moving)
        return first if move.side != "b" else second

    raise IllegalLocus("unknown move kind %r" % move.kind)


def inverse_split(arr, merged, node, moving):
    """The split of ``merged`` at ``node`` undoing a merge back to ``arr``."""
    for side, out in zip("ab", _split_candidates(merged, node, moving)):
        if out.key() == arr.key():
            return MutationMove("split", node, moving, side)
    raise IllegalLocus("no split of %r restores the original" % (sorted(node),))


# ---------------------------------------------------------------------------
# full (non-simple) marked walk


def _heavy_descs(cx, t):
    out = set()
    for f in cx.faces[t]:
        nd, eps, i, side = cx.flags[f]
        out.add((i, tuple(sorted(cx.node_list[nd])), eps, side))
    return frozenset(out)


def _heavy_lookup(cx, desc):
    i, node_tuple, eps, side = desc
    nd = cx.node_id[frozenset(node_tuple)]
    return cx.fid[(nd, eps, i, side)]


def transport_heavy_descriptor(sigma, desc):
    """:func:`transport_descriptor` for a descriptor naming a whole node."""
    inv = sigma.inverse()
    i, node_tuple, eps, side = desc
    ii = inv(i)
    node2 = tuple(sorted(_transport_pair(inv, pair) for pair in node_tuple))
    return (abs(ii), node2, eps if ii > 0 else -eps, side)


def moebius_full_census(n, limit=None):
    """Merge/split BFS over marked states of any simplicity (n small).

    Returns (indices, key -> (word family or None, marked descriptor set));
    states are heavy (validated arrangements), keys canonical.
    """
    seed = cyclic_thin(n)
    indices = seed.indices
    visited = {}
    reps = {}
    queue = deque()

    def push(arr, desc):
        cx = arr.complex
        tags = _heavy_descs(cx, cx.face_of[_heavy_lookup(cx, desc)])
        key = (arr.key(), min(tags))
        if key not in visited:
            visited[key] = (arr, min(tags))
            reps[key] = tags
            queue.append(key)

    for sigma in W.SignedPermutation.all(indices):
        arr = seed.act(sigma)
        cx = arr.complex
        for t in cx.admissible_cells():
            push(arr, min(_heavy_descs(cx, t)))

    while queue:
        key = queue.popleft()
        if limit is not None and len(visited) > limit:
            raise ResourceLimit("state cap %d exceeded" % limit,
                                partial=len(visited))
        arr, desc = visited[key]
        cx = arr.complex
        marked = cx.face_of[_heavy_lookup(cx, desc)]
        marked_tags = _heavy_descs(cx, marked)

        steps = []      # (neighbour, nodes the move removes)
        seen_faces = set()
        for t, curve in triangles(arr):
            if t == marked or t in seen_faces:
                continue
            seen_faces.add(t)
            steps.append((apply_move(arr, MutationMove("merge", t, curve)),
                          {frozenset(cx.node_list[cx.flags[f2][0]])
                           for f2 in cx.faces[t]}))
        for node in arr.nodes:
            bases = {abs(x) for pair in node for x in pair}
            if len(bases) < 3:
                continue
            for m in sorted(bases):
                steps += [(out, {node})
                          for out in _split_candidates(arr, node, m)]
        for out, dead_nodes in steps:
            survivors = [d for d in marked_tags
                         if frozenset(d[1]) not in dead_nodes]
            assert survivors, "marked cell lost all corners"
            push(out, survivors[0])

    tagsets = {}
    for key, (arr, desc) in visited.items():
        tagsets[key] = (arr, reps[key])
    return indices, tagsets


def _heavy_classes(heavy, subset, group, odd_pure):
    """Classes of the heavy marked states in ``subset`` under ``group``
    plus the members of ``odd_pure`` that fix the unmarked arrangement."""
    uf = _UnionFind(subset)
    for key in subset:
        arr, tags = heavy[key]
        wk = arr.key()
        for sigma in group + odd_pure:
            ak = arr.acted_key(sigma)
            if sigma in odd_pure and ak != wk:
                continue
            nk = (ak, min(transport_heavy_descriptor(sigma, d) for d in tags))
            if nk in subset:
                uf.union(key, nk)
    return uf.count()


def moebius_chirotope_counts(n, limit=None):
    """Marked classes (all and simple) under the `a`-equivalence.

    On three indices these are the numbers of crosscap chirotopes.
    """
    indices, heavy = moebius_full_census(n, limit=limit)
    g = _census_groups(indices)
    simple = {k for k, (arr, _) in heavy.items() if arr.is_simple()}
    return {"n": n,
            "total": _heavy_classes(heavy, set(heavy), g["evens"],
                                    g["odd_pure"]),
            "simple": _heavy_classes(heavy, simple, g["evens"],
                                     g["odd_pure"])}


# ---------------------------------------------------------------------------
# large-census fast path
#
# The reference BFS above rebuilds full flag structures per edge; here the
# neighbor's marked-face tag is computed by walking a single face, and the
# quotients minimize over the group with per-cycle pruning.  This is the
# engine of the simple crosscap census at every size.


def _marked_face(indices, words, desc):
    """Descriptors of the face holding flag ``desc``, found by walking that
    face alone (no full state build)."""
    pairs, pos = _disk_pairs(indices, words)
    i0, pair0, eps0, side0 = desc
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
    return frozenset((i, pairs[i][p], eps, side) for i, p, eps, side in seen)


def moebius_states(n, limit=None, progress=None):
    """Marked simple states by flip BFS; fast-path tag computation.

    Returns (indices, {key: (words, descriptor)}).
    """
    seed = cyclic_thin(n)
    indices = seed.indices
    base = tuple(seed.disk[i] for i in indices)
    visited = {}
    queue = deque()
    for sigma in W.SignedPermutation.all(indices):
        w = act_words(sigma, indices, base)
        st = SimpleState(indices, w)
        for t in _admissible_faces(st):
            desc = min(st.face_descriptors(t))
            key = (_words_key(w), desc)
            if key not in visited:
                visited[key] = (w, desc)
                queue.append(key)
    done = 0
    while queue:
        key = queue.popleft()
        if limit is not None and len(visited) > limit:
            raise ResourceLimit("state cap %d exceeded" % limit,
                                partial=len(visited))
        words, desc = visited[key]
        st = SimpleState(indices, words)
        marked = st.face_of[st.flag_from_descriptor(desc)]
        marked_descs = st.face_descriptors(marked)
        for t, swaps, corners in st.triangles():
            if t == marked:
                continue
            survivor = next(d for d in marked_descs if d[1] not in corners)
            nw = _swap_words(indices, words, swaps)
            nk = (_words_key(nw), min(_marked_face(indices, nw, survivor)))
            if nk not in visited:
                visited[nk] = (nw, survivor)
                queue.append(nk)
        done += 1
        if progress and done % progress == 0:
            print("  expanded %d, found %d, frontier %d"
                  % (done, len(visited), len(queue)), flush=True)
    return indices, visited


def _canonical_marked(indices, words, tags, group):
    """Pruned minimum of (words key, tag) over a list of permutations."""
    best_words = None
    best = None
    for sigma in group:
        inv = sigma.inverse()
        cand = []
        worse = False
        for k in indices:
            m = sigma(k)
            w = words[indices.index(abs(m))]
            if m < 0:
                w = w[::-1]
            w = W.min_rotation(tuple(inv(x) for x in w))
            cand.append(w)
            if best_words is not None:
                prefix = tuple(cand)
                if prefix > best_words[:len(cand)]:
                    worse = True
                    break
        if worse:
            continue
        wk = tuple(cand)
        tk = min(transport_descriptor(sigma, d) for d in tags)
        if best is None or (wk, tk) < best:
            best = (wk, tk)
            best_words = wk
    return best


def moebius_census_rows(n, limit=None, progress=None):
    """The census row via the fast path (the engine of :func:`moebius_census`).

    Phases: BFS; canonical form under even reorientations plus the
    word-fixing odd identifications (a); reindexings on one representative
    per a-class (b); full group on the b-representatives (c, d).  Each
    phase recomputes a state's marked-face descriptors by a face walk
    rather than storing them per state.
    """
    indices, visited = moebius_states(n, limit=limit, progress=progress)
    g = _census_groups(indices)

    if progress:
        print("phase a over %d states" % len(visited), flush=True)
    a_key = {}
    for t, (key, (words, desc)) in enumerate(visited.items()):
        a_key[key] = _canonical_marked(indices, words,
                                       _marked_face(indices, words, desc),
                                       g["evens"])
        if progress and t and t % progress == 0:
            print("  a %d/%d" % (t, len(visited)), flush=True)
    _link_odd_wordfixing(indices, visited, a_key, g["odd_pure"])
    a_reps = {}
    for key, ak in a_key.items():
        a_reps.setdefault(ak, key)
    a_count = len(a_reps)

    if progress:
        print("phase b over %d representatives" % a_count, flush=True)
    b_key = {}
    rep_states = {key: visited[key] for key in a_reps.values()}
    for t, (key, (words, desc)) in enumerate(rep_states.items()):
        b_key[key] = _canonical_marked(indices, words,
                                       _marked_face(indices, words, desc),
                                       g["perm_evens"])
        if progress and t and t % progress == 0:
            print("  b %d/%d" % (t, a_count), flush=True)
    _link_odd_wordfixing(indices, rep_states, b_key, g["odd_pure"])
    b_reps = {}
    for key, bk in b_key.items():
        b_reps.setdefault(bk, key)
    b_count = len(b_reps)

    if progress:
        print("phase c/d over %d representatives" % b_count, flush=True)
    c_keys = set()
    d_keys = set()
    for bk, key in b_reps.items():
        words, desc = visited[key]
        c_keys.add(_canonical_marked(indices, words,
                                     _marked_face(indices, words, desc),
                                     g["full"]))
        best = None
        for sigma in g["full"]:
            wk = _words_key(act_words(sigma, indices, words))
            if best is None or wk < best:
                best = wk
        d_keys.add(best)
    return {"n": n, "a": a_count, "b": b_count, "c": len(c_keys),
            "d": len(d_keys)}


def _link_odd_wordfixing(indices, visited, b_keys, odd_pure):
    """Merge b-classes related by word-fixing odd sign changes."""
    uf = _UnionFind(set(b_keys.values()))
    for key, (words, desc) in visited.items():
        wk = key[0]
        for sigma in odd_pure:
            if _words_key(act_words(sigma, indices, words)) != wk:
                continue
            tags = _marked_face(indices, words, desc)
            nk = (wk, min(transport_descriptor(sigma, d) for d in tags))
            if nk in visited:
                uf.union(b_keys[key], b_keys[nk])
    rep = {bk: uf.find(bk) for bk in set(b_keys.values())}
    for key in b_keys:
        b_keys[key] = rep[b_keys[key]]
