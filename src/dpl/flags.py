"""Flag complex of an arrangement: three involutions, faces, genus, keys.

A flag is a quadruple ``(node, orientation, support, side)``; there are
four flags per incidence of a vertex with a curve.  ``sigma2`` flips the
side, ``sigma0`` walks to the neighbouring vertex along the support, and
``sigma1`` switches the support inside the node.  On a simple vertex
``sigma1`` is the two-curve table below; on a multiple vertex the
candidates from every 2-subarrangement are ordered by the dominance
relation and the minimum is taken.
"""

import math
from collections import Counter, defaultdict, deque

from . import words as W
from .errors import GenusNotOne, UnknownIndex

# sigma1 sign action per slot of the crossing along the out-support:
# (orientation, side) -> (orientation', side'), new slot is 1,3,2,4.
_NEG = {1: -1, -1: 1}


def _sig1_signs(slot, eps, side):
    if slot == 1:
        return side, eps
    if slot == 2:
        return side, _NEG[eps]
    if slot == 3:
        return _NEG[side], eps
    return _NEG[side], _NEG[eps]


class FlagComplex:
    """Cell-complex view of a validated arrangement."""

    def __init__(self, arr):
        self.arr = arr
        self.node_list = sorted(arr.nodes, key=lambda nd: sorted(nd))
        self.node_id = {nd: k for k, nd in enumerate(self.node_list)}

        flags = []
        fid = {}
        for i in arr.indices:
            for b, node in enumerate(arr.node_cycles[i]):
                for eps in (1, -1):
                    for side in (1, -1):
                        fid[(self.node_id[node], eps, i, side)] = len(flags)
                        flags.append((self.node_id[node], eps, i, side))
        self.flags = flags
        self.fid = fid

        # position of each node along each of its carriers
        self.block_index = {}
        for i in arr.indices:
            for b, node in enumerate(arr.node_cycles[i]):
                self.block_index[(self.node_id[node], i)] = b

        self.sigma0 = self._build_sigma0()
        self.sigma2 = [fid[(nd, eps, i, -side)] for nd, eps, i, side in flags]
        self.sigma1 = self._build_sigma1()

        for f in range(len(flags)):
            assert self.sigma0[self.sigma2[f]] == self.sigma2[self.sigma0[f]]
            assert self.sigma1[self.sigma1[f]] == f

        self._faces = None
        self._face_sides = None
        self._vertex_sides = None
        self._plain_key = None
        self._aut = None

    # -- involutions ----------------------------------------------------

    def _build_sigma0(self):
        arr = self.arr
        out = [0] * len(self.flags)
        for f, (nd, eps, i, side) in enumerate(self.flags):
            cyc = arr.node_cycles[i]
            b = self.block_index[(nd, i)]
            b2 = (b + 1) % len(cyc) if eps > 0 else (b - 1) % len(cyc)
            out[f] = self.fid[(self.node_id[cyc[b2]], -eps, i, side)]
        return out

    def _two_curve_step(self, node_id, eps, supp, side, pair):
        """Image of a flag under sigma1 of the 2-subarrangement of ``pair``."""
        slot = W.slot_of(pair, supp)
        eps2, side2 = _sig1_signs(slot, eps, side)
        j = abs(W.co_index(pair, supp))
        return (node_id, eps2, j, side2)

    def _build_sigma1(self):
        arr = self.arr
        out = [0] * len(self.flags)
        for f, (nd, eps, i, side) in enumerate(self.flags):
            node = self.node_list[nd]
            pairs = {abs(W.co_index(p, i)): p
                     for p in node if i in {abs(x) for x in p}}
            cands = {}
            for j, pair in pairs.items():
                cands[j] = self._two_curve_step(nd, eps, i, side, pair)
            if len(cands) == 1:
                (g,) = cands.values()
            else:
                g = self._dominance_min(nd, node, cands)
            out[f] = self.fid[g]
        return out

    def _dominance_min(self, nd, node, cands):
        """Minimum of the candidate flags under the dominance order."""
        items = list(cands.items())
        for j, gj in items:
            wins = 0
            for k, gk in items:
                if k == j:
                    continue
                if self._dominates(nd, node, gj, gk):
                    wins += 1
            if wins == len(items) - 1:
                return gj
        raise AssertionError("dominance relation is not total at node %r"
                             % (sorted(node),))

    def _dominates(self, nd, node, gj, gk):
        """gj < gk iff applying side-flip then the {j,k} step to gj gives gk."""
        _, eps, j, side = gj
        k = gk[2]
        pair = next(p for p in node
                    if {abs(x) for x in p} == {j, k})
        return self._two_curve_step(nd, eps, j, -side, pair) == gk

    # -- faces ------------------------------------------------------------

    @property
    def faces(self):
        """Orbits of <sigma0, sigma1>, each a tuple of flag ids."""
        if self._faces is None:
            seen = [False] * len(self.flags)
            faces = []
            for f in range(len(self.flags)):
                if seen[f]:
                    continue
                orbit = []
                stack = [f]
                seen[f] = True
                while stack:
                    g = stack.pop()
                    orbit.append(g)
                    for h in (self.sigma0[g], self.sigma1[g]):
                        if not seen[h]:
                            seen[h] = True
                            stack.append(h)
                faces.append(tuple(sorted(orbit)))
            self._faces = tuple(faces)
        return self._faces

    @property
    def f_vector(self):
        counts = Counter()
        for face in self.faces:
            assert len(face) % 2 == 0
            counts[len(face) // 2] += 1
        return dict(counts)

    @property
    def vertex_count(self):
        return len(self.node_list)

    @property
    def edge_count(self):
        return len(self.flags) // 4

    @property
    def euler_characteristic(self):
        return self.vertex_count - self.edge_count + len(self.faces)

    @property
    def genus(self):
        return 2 - self.euler_characteristic

    # -- sides ------------------------------------------------------------

    def _edge_key(self, f):
        nd, eps, i, side = self.flags[f]
        cyc_len = len(self.arr.node_cycles[i])
        b = self.block_index[(nd, i)]
        arc = b if eps > 0 else (b - 1) % cyc_len
        return (i, arc)

    @property
    def face_sides(self):
        """face index -> {curve: -1 disk side / +1 crosscap side}."""
        if self._face_sides is None:
            faces = self.faces
            face_of = {}
            for t, face in enumerate(faces):
                for f in face:
                    face_of[f] = t
            # adjacency across edges with the supporting curve
            edge_faces = defaultdict(set)
            for f in range(len(self.flags)):
                edge_faces[self._edge_key(f)].add(face_of[f])
            sides = [dict() for _ in faces]
            for t, face in enumerate(faces):
                for f in face:
                    nd, eps, i, side = self.flags[f]
                    prev = sides[t].get(i)
                    assert prev is None or prev == side
                    sides[t][i] = side
            adj = defaultdict(list)
            for (i, arc), ts in edge_faces.items():
                ts = tuple(ts)
                if len(ts) == 2:
                    adj[ts[0]].append((ts[1], i))
                    adj[ts[1]].append((ts[0], i))
                else:  # one face on both sides of the edge
                    adj[ts[0]].append((ts[0], i))
            for curve in self.arr.indices:
                todo = deque(t for t in range(len(faces)) if curve in sides[t])
                while todo:
                    t = todo.popleft()
                    for t2, i in adj[t]:
                        val = sides[t][curve] * (-1 if i == curve else 1)
                        if curve in sides[t2]:
                            assert sides[t2][curve] == val
                        else:
                            sides[t2][curve] = val
                            todo.append(t2)
            assert all(len(s) == len(self.arr.indices) for s in sides)
            self._face_sides = tuple(sides)
        return self._face_sides

    @property
    def vertex_sides(self):
        """node -> {curve not through the node: side sign}."""
        if self._vertex_sides is None:
            face_of = {}
            for t, face in enumerate(self.faces):
                for f in face:
                    face_of[f] = t
            out = {}
            for nd, node in enumerate(self.node_list):
                bases = {abs(x) for pair in node for x in pair}
                f = next(f for f, fl in enumerate(self.flags) if fl[0] == nd)
                sides = self.face_sides[face_of[f]]
                out[node] = {i: sides[i] for i in self.arr.indices
                             if i not in bases}
            self._vertex_sides = out
        return self._vertex_sides

    def face_at(self, curve, arc, side):
        """Index of the face incident to the given arc on the given side."""
        cycle = self.arr.node_cycles.get(curve)
        if cycle is None:
            raise UnknownIndex("no curve %r" % (curve,))
        if not 0 <= arc < len(cycle):
            raise UnknownIndex("curve %d has arcs 0..%d, not %r"
                               % (curve, len(cycle) - 1, arc))
        nd = self.node_id[cycle[(arc + 1) % len(cycle)]]
        f = self.fid[(nd, -1, curve, side)]
        for t, face in enumerate(self.faces):
            if f in face:
                return t
        raise AssertionError

    def admissible_cells(self):
        """Faces contained in the disk side of every curve (genus 1 only)."""
        if self.genus != 1:
            raise GenusNotOne("admissible cells need a genus-1 arrangement",
                              genus=self.genus)
        return self.admissible_cells_any_genus()

    def admissible_cells_any_genus(self):
        return tuple(t for t, sides in enumerate(self.face_sides)
                     if all(v < 0 for v in sides.values()))

    # -- canonical form, automorphisms -------------------------------------

    def _encode_from(self, start, best=None):
        """BFS encoding from a start flag; None if provably > best."""
        n = len(self.flags)
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

    def canonical_key(self, mode="plain", marked_face=None):
        """Canonical byte string; equal keys iff isomorphic in the mode."""
        if mode == "plain":
            return self._plain()
        if mode == "indexed_oriented":
            return repr(self.arr.key()).encode()
        if mode == "marked":
            if marked_face is None:
                raise ValueError("marked mode needs a face index")
            tag = min(self._flag_descriptor(f) for f in self.faces[marked_face])
            return repr((self.arr.key(), tag)).encode()
        raise ValueError("unknown mode %r" % mode)

    def _flag_descriptor(self, f):
        nd, eps, i, side = self.flags[f]
        return (tuple(sorted(self.node_list[nd])), eps, i, side)

    def _plain(self):
        if self._plain_key is None:
            best = None
            count = 0
            for start in range(len(self.flags)):
                enc = self._encode_from(start, best)
                if enc is None:
                    continue
                if best is None or enc < best:
                    best = enc
                    count = 1
                elif enc == best:
                    count += 1
            self._plain_key = repr(best).encode()
            self._aut = count
        return self._plain_key

    def flag_graph_automorphism_order(self):
        """Order of the automorphism group of the edge-colored flag graph."""
        self._plain()
        return self._aut

    # -- exports ------------------------------------------------------------

    def to_dot(self, graph="flag"):
        if graph == "flag":
            lines = ["graph flags {"]
            for f in range(len(self.flags)):
                lines.append('  f%d [label="%d"];' % (f, f))
            for f in range(len(self.flags)):
                for c, sig in enumerate((self.sigma0, self.sigma1, self.sigma2)):
                    g = sig[f]
                    if f < g:
                        lines.append('  f%d -- f%d [label="%d"];' % (f, g, c))
                    elif f == g:
                        lines.append('  f%d -- f%d [label="%d"];' % (f, f, c))
            lines.append("}")
            return "\n".join(lines) + "\n"
        if graph == "dual":
            face_of = {}
            for t, face in enumerate(self.faces):
                for f in face:
                    face_of[f] = t
            edges = set()
            for f in range(len(self.flags)):
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
    """Signed permutations fixing the indexed-oriented class of ``arr``."""
    indices = arr.indices
    dwords = tuple(arr.disk[i] for i in indices)
    mwords = tuple(arr.crosscap[i] for i in indices)

    def key(ws):
        return tuple(W.min_rotation(w) for w in ws)

    dkey, mkey = key(dwords), key(mwords)
    out = []
    for s in W.SignedPermutation.all(indices):
        inv = s.inverse()
        ok = True
        for k, i in enumerate(indices):
            m = s(i)
            d = dwords[indices.index(abs(m))]
            c = mwords[indices.index(abs(m))]
            if m < 0:
                d, c = d[::-1], c[::-1]
            if (W.min_rotation(tuple(inv(x) for x in d)) != dkey[k]
                    or W.min_rotation(tuple(inv(x) for x in c)) != mkey[k]):
                ok = False
                break
        if ok:
            out.append(s)
    return out


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
    assert total % aut == 0
    return total // aut
