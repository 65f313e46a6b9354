"""Flag complex of an arrangement: three involutions, faces, genus, keys.

A flag is a quadruple ``(node, orientation, support, side)``; there are
four flags per incidence of a vertex with a curve.  ``sigma2`` flips the
side, ``sigma0`` walks to the neighbouring vertex along the support, and
``sigma1`` switches the support inside the node by the bit rule of
:func:`_crossing_bits` below; at a multiple vertex the rule gives one
candidate per other curve, and the least under dominance is the image.
"""

import math
from collections import Counter, deque
from functools import cached_property

from . import words as W
from .errors import BrokenInvariant, GenusNotOne, MalformedWord, UnknownIndex

# (orientation, side) of the flags at one position, in flag-number order
_EPS_SIDE = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_LOW = {es: low for low, es in enumerate(_EPS_SIDE)}

# sigma1 at a simple vertex, on the low two bits of a flag number: the
# flag ``low`` of the carrier goes to the flag ``x ^ _SIG1_XOR[low]`` of
# the co-curve at the same vertex, ``x`` as in :func:`_crossing_bits`.
_SIG1_XOR = (3, 1, 2, 0)


def _crossing_bits(pair, i):
    """``(j, x)`` of the crossing ``pair`` seen from the carrier ``i``: the
    co-curve ``j`` and ``x = 2 * (carrier entry < 0) + (co entry < 0)``,
    which is 4 minus the slot of :data:`dpl.words.SLOT_SIGNS`.

    >>> _crossing_bits((-2, 1), 1)          # slot 3 along curve 1
    (2, 1)
    """
    a, b = pair
    if a == i or a == -i:
        return abs(b), 2 * (a < 0) + (b < 0)
    if b == i or b == -i:
        return abs(a), 2 * (b < 0) + (a < 0)
    raise MalformedWord("pair %r does not involve carrier %d" % (pair, i))


# ---------------------------------------------------------------------------
# the flag structure shared by FlagComplex and mutation.SimpleState
#
# Flags are numbered by (curve, position, orientation, side): the flag at
# position p of curve i is 4 * (start[i] + p) + _LOW[(eps, side)], where
# start[i] counts the positions of the curves before i.


def flag_id(start, i, p, eps, side):
    return 4 * (start[i] + p) + _LOW[(eps, side)]


def flag_of(indices, start, f):
    """``(i, p, eps, side)`` of flag ``f``; the inverse of :func:`flag_id`."""
    k, low = divmod(f, 4)
    for i in reversed(indices):
        if k >= start[i]:
            return (i, k - start[i]) + _EPS_SIDE[low]


def crossing_positions(indices, pairs):
    """pair -> {curve: position of the pair's vertex along that curve}.

    ``pairs[i][p]`` is the crossing pair at position ``p`` of curve ``i``,
    or None at a multiple vertex (which has no such entry).
    """
    pos = {}
    for i in indices:
        for p, pair in enumerate(pairs[i]):
            if pair is not None:
                pos.setdefault(pair, {})[i] = p
    return pos


def flag_sigmas(indices, pairs, pos):
    """``(start, sigma0, sigma1, sigma2)`` of the flag numbering above.

    ``pairs`` and ``pos`` are as in :func:`crossing_positions`.  sigma0
    moves to the neighbouring position and reverses the orientation,
    sigma2 flips the side, and sigma1 is the bit rule of
    :data:`_SIG1_XOR` at a simple vertex; at a multiple vertex sigma1 is
    left None for :func:`multiple_sigma1`.
    """
    start = {}
    total = 0
    for i in indices:
        start[i] = total
        total += len(pairs[i])
    s0 = [0] * (4 * total)
    s1 = [None] * (4 * total)
    for i in indices:
        first = 4 * start[i]
        last = first + 4 * (len(pairs[i]) - 1)
        for f in range(first, last + 4, 4):
            g = f + 4 if f < last else first
            s0[f], s0[f + 1], s0[g + 2], s0[g + 3] = g + 2, g + 3, f, f + 1
    # sigma1 on both curves of each simple vertex: the flags of ``a``'s
    # curve go to those of ``b``'s at the bits ``x`` of _crossing_bits,
    # each flag ``low`` to ``x ^ _SIG1_XOR[low]``, and the other way round
    for (a, b), at in pos.items():
        fa = 4 * (start[abs(a)] + at[abs(a)])
        fb = 4 * (start[abs(b)] + at[abs(b)])
        ga = fb + 2 * (a < 0) + (b < 0)
        gb = fa + 2 * (b < 0) + (a < 0)
        s1[fa], s1[fa + 1], s1[fa + 2], s1[fa + 3] = ga ^ 3, ga ^ 1, ga ^ 2, ga
        s1[fb], s1[fb + 1], s1[fb + 2], s1[fb + 3] = gb ^ 3, gb ^ 1, gb ^ 2, gb
    s2 = [f ^ 1 for f in range(4 * total)]
    return start, s0, s1, s2


def node_sigma1(node):
    """sigma1 at the vertex of ``node`` (its set of crossing pairs) on the
    low bits of the flag numbers: ``(i, low) -> (j, c)`` takes flag
    ``low`` of curve ``i`` to flag ``c`` of curve ``j`` at the vertex.

    Flag ``low`` of ``i`` has a candidate on each other curve ``j``: flag
    ``c_j = bits[i][j] ^ _SIG1_XOR[low]``, ``bits[i][j]`` the ``x`` of
    :func:`_crossing_bits`.  The image is the least under dominance, the
    ``j`` whose flipped side steps to every other candidate:
    ``bits[j][k] ^ _SIG1_XOR[c_j ^ 1] == c_k``.  At a simple vertex the
    one candidate is the image, the bit rule of :func:`flag_sigmas`.
    """
    bits = {}
    for pair in node:
        for i in map(abs, pair):
            j, x = _crossing_bits(pair, i)
            bits.setdefault(i, {})[j] = x
    out = {}
    for i, row in bits.items():
        row = row.items()
        for low, sig in enumerate(_SIG1_XOR):
            cands = [(j, x ^ sig) for j, x in row]
            for j, c in cands:
                step, flip = bits[j], _SIG1_XOR[c ^ 1]
                for k, ck in cands:
                    if k != j and step[k] ^ flip != ck:
                        break
                else:
                    out[i, low] = j, c
                    break
            else:
                raise BrokenInvariant(
                    "dominance relation is not total at node %r"
                    % (sorted(node),))
    return out


def multiple_sigma1(nodes, start, s1):
    """Write sigma1 at the multiple vertices of ``nodes`` (node ->
    {curve: position}) into ``s1``, by :func:`node_sigma1`."""
    for node, at in nodes.items():
        if len(node) == 1:
            continue
        for (i, low), (j, c) in node_sigma1(node).items():
            s1[4 * (start[i] + at[i]) + low] = 4 * (start[j] + at[j]) + c


def triangle(face, indices, start, pairs):
    """``(positions, corners)`` of a hexagonal face, None for any other.

    A hexagon has one edge on each of three curves, as every corner
    changes the curve.  ``positions`` lists ``(i, a)`` per curve ``i`` in
    index order, ``a`` the position of the face's forward-oriented flag
    on ``i``: the face's corners on ``i`` sit at ``a`` and ``a + 1``.
    ``corners`` holds the corner nodes in descriptor form, ``(pair,)``, or
    is None when ``pairs`` has None at a corner (a multiple vertex).
    """
    if len(face) != 6:
        return None
    positions = []
    corners = set()
    for f in face:
        if f & 2:
            continue    # the backward flag of an edge sits at its far end
        i, a, _, _ = flag_of(indices, start, f)
        row = pairs[i]
        positions.append((i, a))
        corners.add(row[a])
        corners.add(row[(a + 1) % len(row)])
    if None in corners:
        return tuple(positions), None
    return tuple(positions), frozenset((pair,) for pair in corners)


def face_orbits(sigma0, sigma1):
    """Orbits of <sigma0, sigma1>: sorted flag tuples numbered by their
    least flag, and the face index of every flag.

    Both are involutions without fixed points, so an orbit is the cycle
    ``f, sigma0 f, sigma1 sigma0 f, ...`` that alternates them back to
    ``f``.  The two-curve arrangement has three tetragons and two digons:

    >>> from dpl import catalog
    >>> cx = catalog.arrangement("TwoCurve").complex
    >>> faces, face_of = face_orbits(cx.sigma0, cx.sigma1)
    >>> [len(face) // 2 for face in faces]
    [4, 4, 4, 2, 2]
    >>> faces[3], face_of[3], face_of[13]
    ((3, 13, 19, 29), 3, 3)
    """
    face_of = [-1] * len(sigma0)
    faces = []
    for f in range(len(sigma0)):
        if face_of[f] >= 0:
            continue
        t = len(faces)
        orbit = []
        g = f
        while True:
            h = sigma0[g]
            orbit.append(g)
            orbit.append(h)
            g = sigma1[h]
            if g == f:
                break
        for g in orbit:
            face_of[g] = t
        faces.append(tuple(sorted(orbit)))
    return tuple(faces), face_of


def side_labels(indices, start, faces, face_of):
    """face -> {curve: -1 disk side / +1 crosscap side}.

    The flags of a face name its side of their own curve; crossing an edge
    of curve ``i`` flips the side of ``i`` and keeps every other side.
    """
    sides = [{} for _ in faces]
    adj = [[] for _ in faces]
    ends = [start[i] for i in indices[1:]] + [len(face_of) // 4]
    for i, end in zip(indices, ends):
        for k in range(start[i], end):
            # the edge after position k: crosscap face, disk face
            t, u = face_of[4 * k], face_of[4 * k + 1]
            if sides[t].get(i, 1) != 1 or sides[u].get(i, -1) != -1:
                raise BrokenInvariant("face %d or %d lies on both sides of "
                                      "curve %d" % (t, u, i))
            sides[t][i] = 1
            sides[u][i] = -1
            adj[t].append((u, i))
            adj[u].append((t, i))
    for curve in indices:
        todo = deque(t for t in range(len(faces)) if curve in sides[t])
        while todo:
            t = todo.popleft()
            for u, i in adj[t]:
                val = sides[t][curve] * (-1 if i == curve else 1)
                if curve in sides[u]:
                    if sides[u][curve] != val:
                        raise BrokenInvariant(
                            "face %d lies on both sides of curve %d"
                            % (u, curve))
                else:
                    sides[u][curve] = val
                    todo.append(u)
    if any(len(s) != len(indices) for s in sides):
        raise BrokenInvariant("a face has no side of some curve")
    return sides


def disk_faces(face_sides):
    """Faces on the disk side of every curve, from their side labels."""
    return tuple(t for t, sides in enumerate(face_sides)
                 if all(v < 0 for v in sides.values()))


class FlagComplex:
    """Cell-complex view of a validated arrangement.

    A build makes the pair rows, ``start`` and the three involutions on
    the flag numbers of :func:`flag_id`; the flag tuples ``flags``, their
    index ``fid`` and the sorted nodes ``node_list``/``node_id`` are made
    on first read.
    """

    def __init__(self, arr):
        # what the complex reads of ``arr`` later; holding ``arr`` itself
        # would make a reference cycle through ``arr.complex``
        self.indices = arr.indices
        self.node_cycles = arr.node_cycles
        self.nodes = arr.nodes      # node -> {curve: position on it}
        self.vertex_count = len(arr.nodes)

        # crossing pair per block, None if multiple
        self.pairs = pairs = {
            i: [next(iter(node)) if len(node) == 1 else None
                for node in arr.node_cycles[i]]
            for i in arr.indices}
        self.start, s0, s1, s2 = flag_sigmas(
            arr.indices, pairs, crossing_positions(arr.indices, pairs))
        multiple_sigma1(arr.nodes, self.start, s1)
        self.sigma0, self.sigma1, self.sigma2 = s0, s1, s2

        if list(map(s0.__getitem__, s2)) != list(map(s2.__getitem__, s0)):
            raise BrokenInvariant("sigma0 does not commute with sigma2")
        if list(map(s1.__getitem__, s1)) != list(range(len(s1))):
            raise BrokenInvariant("sigma1 is not an involution")

        self._faces = None
        self._face_of = None
        self._face_sides = None
        self._vertex_sides = None
        self._plain_key = None
        self._aut_starts = None

    # -- flag table, made on first read -------------------------------

    @cached_property
    def node_list(self):
        """The nodes, sorted by their sorted crossing pairs."""
        return sorted(self.nodes, key=lambda nd: sorted(nd))

    @cached_property
    def node_id(self):
        return {nd: k for k, nd in enumerate(self.node_list)}

    @cached_property
    def flags(self):
        """``(node id, orientation, curve, side)`` of every flag."""
        node_id = self.node_id
        return [(node_id[node], eps, i, side) for i in self.indices
                for node in self.node_cycles[i] for eps, side in _EPS_SIDE]

    @cached_property
    def fid(self):
        return {fl: f for f, fl in enumerate(self.flags)}

    # -- faces ------------------------------------------------------------

    @property
    def faces(self):
        """Orbits of <sigma0, sigma1>, each a tuple of flag ids."""
        if self._faces is None:
            self._faces, self._face_of = face_orbits(self.sigma0, self.sigma1)
        return self._faces

    @property
    def face_of(self):
        """Face index of every flag."""
        self.faces
        return self._face_of

    @property
    def f_vector(self):
        counts = Counter()
        for t, face in enumerate(self.faces):
            if len(face) % 2:
                raise BrokenInvariant("face %d has an odd number of flags"
                                      % t)
            counts[len(face) // 2] += 1
        return dict(counts)

    @property
    def edge_count(self):
        return len(self.sigma0) // 4

    @property
    def euler_characteristic(self):
        return self.vertex_count - self.edge_count + len(self.faces)

    @property
    def genus(self):
        return 2 - self.euler_characteristic

    # -- sides ------------------------------------------------------------

    @property
    def face_sides(self):
        """face index -> {curve: -1 disk side / +1 crosscap side}."""
        if self._face_sides is None:
            self._face_sides = tuple(side_labels(
                self.indices, self.start, self.faces, self.face_of))
        return self._face_sides

    @property
    def vertex_sides(self):
        """node -> {curve not through the node: side sign}."""
        if self._vertex_sides is None:
            out = {}
            for node, at in self.nodes.items():
                low = min(at)
                f = flag_id(self.start, low, at[low], 1, 1)
                sides = self.face_sides[self.face_of[f]]
                out[node] = {i: sides[i] for i in self.indices
                             if i not in at}
            self._vertex_sides = out
        return self._vertex_sides

    def face_at(self, curve, arc, side):
        """Index of the face incident to the given arc on the given side."""
        cycle = self.node_cycles.get(curve)
        if cycle is None:
            raise UnknownIndex("no curve %r" % (curve,))
        if not 0 <= arc < len(cycle):
            raise UnknownIndex("curve %d has arcs 0..%d, not %r"
                               % (curve, len(cycle) - 1, arc))
        p = (arc + 1) % len(cycle)
        return self.face_of[flag_id(self.start, curve, p, -1, side)]

    def admissible_cells(self):
        """Faces contained in the disk side of every curve (genus 1 only)."""
        if self.genus != 1:
            raise GenusNotOne("admissible cells need a genus-1 arrangement",
                              genus=self.genus)
        return disk_faces(self.face_sides)

    # -- marked-cell descriptors -------------------------------------------

    def descriptor(self, f):
        """``(curve, node, orientation, side)`` of flag ``f``; the node is
        the sorted tuple of the vertex's crossing pairs."""
        i, p, eps, side = flag_of(self.indices, self.start, f)
        return (i, tuple(sorted(self.node_cycles[i][p])), eps, side)

    def flag_from_descriptor(self, desc):
        i, node, eps, side = desc
        return flag_id(self.start, i, self.nodes[frozenset(node)][i],
                       eps, side)

    def face_descriptors(self, t):
        return frozenset(self.descriptor(f) for f in self.faces[t])

    # -- canonical form, automorphisms -------------------------------------

    def _encode_from(self, start, best=None):
        """BFS encoding from a start flag; None if provably > best."""
        n = len(self.sigma0)
        num = [-1] * n
        order = [start]
        num[start] = 0
        enc = []
        qi = 0
        sigmas = (self.sigma0, self.sigma1, self.sigma2)
        while qi < len(order):
            f = order[qi]
            qi += 1
            for sig in sigmas:
                g = sig[f]
                if num[g] < 0:
                    num[g] = len(order)
                    order.append(g)
                enc.append(num[g])
                if best is not None:
                    k = len(enc) - 1
                    if enc[k] > best[k]:
                        return None
                    if enc[k] < best[k]:
                        best = None
        return tuple(enc)

    def canonical_key(self):
        """The plain key: a canonical byte string, equal for two complexes
        iff their flag graphs are isomorphic.

        It is the least BFS encoding over the start flags, one start per
        automorphism orbit.

        Two starts with equal encodings differ by the automorphism that
        :meth:`_flag_map` extends from them, and automorphic starts have
        equal encodings.  So once a start is encoded, its class in a
        union-find over the flags is done; a start that ties the least
        encoding unites every flag with its image under that map.  The
        starts of the least encoding are then the class of the first.

        The starts are visited by the size of their face, smallest first
        (flag order within a size): the encoding closes a small face early,
        so a start on one tends to set a low bound at once.  The key and
        the starts of the least encoding do not depend on the order.
        """
        if self._plain_key is None:
            parent = list(range(len(self.sigma0)))
            done = [False] * len(self.sigma0)

            def find(f):
                while parent[f] != f:
                    parent[f] = f = parent[parent[f]]
                return f

            size = list(map(len, self.faces))
            face_of = self.face_of
            best = first = None
            for start in sorted(range(len(self.sigma0)),
                                key=lambda f: size[face_of[f]]):
                r = find(start)
                if done[r]:
                    continue
                done[r] = True
                enc = self._encode_from(start, best)
                if enc is None:
                    continue
                if best is None or enc < best:
                    best, first = enc, start
                elif enc == best:
                    for f, g in enumerate(self._flag_map(first, start)):
                        a, b = find(f), find(g)
                        if a != b:
                            parent[b] = a
                            done[a] = done[a] or done[b]
            root = find(first)
            self._aut_starts = [f for f in range(len(self.sigma0))
                                if find(f) == root]
            self._plain_key = repr(best).encode()
        return self._plain_key

    def _flag_map(self, first, start):
        """The flag map that commutes with the three sigmas and takes
        ``first`` to ``start``, as a list of flag images.

        The graph is connected and each color is an involution, so the
        image of one flag fixes the map; it is an automorphism iff the
        BFS encodings from ``first`` and ``start`` are equal.
        """
        sigmas = (self.sigma0, self.sigma1, self.sigma2)
        phi = [-1] * len(self.sigma0)
        phi[first] = start
        todo = [first]
        while todo:
            f = todo.pop()
            for sig in sigmas:
                g = sig[f]
                if phi[g] < 0:
                    phi[g] = sig[phi[f]]
                    todo.append(g)
        return phi

    def flag_graph_automorphism_order(self):
        """Order of the automorphism group of the edge-colored flag graph."""
        self.canonical_key()
        return len(self._aut_starts)

    def flag_graph_automorphisms(self):
        """Every automorphism of the edge-colored flag graph, as a list
        of flag images.

        The start flags that attain the plain canonical key are the images
        of the first of them under the automorphisms (B. D. McKay,
        "Practical graph isomorphism", 1981).
        """
        self.canonical_key()
        first = self._aut_starts[0]
        return [self._flag_map(first, start) for start in self._aut_starts]

    def curve_map(self, phi):
        """The signed permutation that the flag map ``phi`` induces on the
        curves, read off one flag per curve: if the disk-side flag leaving
        position 0 of curve ``i`` goes to curve ``j`` with orientation
        ``eps``, then ``i`` maps to ``eps * j``.  None if that flag goes to
        the crosscap side."""
        images = {}
        for i in self.indices:
            j, _, eps, side = flag_of(
                self.indices, self.start, phi[flag_id(self.start, i, 0, 1, -1)])
            if side != -1:
                return None
            images[i] = eps * j
        return W.SignedPermutation(images)

    # -- exports ------------------------------------------------------------

    def to_dot(self, graph="flag"):
        if graph == "flag":
            lines = ["graph flags {"]
            for f in range(len(self.sigma0)):
                lines.append('  f%d [label="%d"];' % (f, f))
            for f in range(len(self.sigma0)):
                for c, sig in enumerate((self.sigma0, self.sigma1, self.sigma2)):
                    g = sig[f]
                    if f < g:
                        lines.append('  f%d -- f%d [label="%d"];' % (f, g, c))
                    elif f == g:
                        lines.append('  f%d -- f%d [label="%d"];' % (f, f, c))
            lines.append("}")
            return "\n".join(lines) + "\n"
        if graph == "dual":
            face_of = self.face_of
            edges = set()
            for f in range(len(self.sigma0)):
                t = face_of[f]
                u = face_of[self.sigma2[f]]
                edges.add((min(t, u), max(t, u)))
            lines = ["graph dual {"]
            for t, face in enumerate(self.faces):
                lines.append('  c%d [label="%d-gon"];' % (t, len(face) // 2))
            for t, u in sorted(edges):
                lines.append("  c%d -- c%d;" % (t, u))
            lines.append("}")
            return "\n".join(lines) + "\n"
        raise ValueError("unknown graph %r" % graph)


# ---------------------------------------------------------------------------
# group-action level invariants


def stabilizer(arr):
    """Signed permutations fixing the indexed-oriented class of ``arr``,
    in the order of :meth:`dpl.words.SignedPermutation.all`.

    Each one moves the flags as an automorphism of the flag graph that
    keeps every flag on its side, so the candidates are the curve maps of
    those automorphisms; every candidate must then fix the key of ``arr``.
    """
    cx = arr.complex
    key = arr.key()
    cands = {cx.curve_map(phi) for phi in cx.flag_graph_automorphisms()}
    cands.discard(None)
    return sorted((s for s in cands if arr.acted_key(s) == key),
                  key=lambda s: ([abs(m) for m in s.one_line()],
                                 [m < 0 for m in s.one_line()]))


def automorphism_order(arr):
    """Order of the automorphism group (stabilizer in the signed group)."""
    return len(stabilizer(arr))


def signed_group_order(n):
    """Order n! 2^n of the signed permutation group on n indices."""
    return math.factorial(n) << n


def orbit_count(arr):
    """Number of distinct reindexed/reoriented versions."""
    total = signed_group_order(arr.n)
    aut = automorphism_order(arr)
    if total % aut:
        raise BrokenInvariant("automorphism order %d does not divide %d"
                              % (aut, total))
    return total // aut
