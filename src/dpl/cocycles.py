"""Bitangent cocycle labels: words over signed indices and a touch symbol.

A label is a set of parts; a part is either a lone signed index (a body
away from the line) or a circular word over signed indices and the touch
symbol (the boundary walk of the cut disk).  A label equals the reversal
of its overlined version; normalization picks the smaller of the two,
with canonical rotations, so equality is plain ``==`` on normalized
labels.
"""

from importlib import resources

from .errors import MalformedWord
from .words import min_rotation

TOUCH = 0  # the touch symbol inside words


class CocycleLabel:
    """Normalized cocycle label."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        canon = []
        for kind, payload in parts:
            if kind == "lone":
                canon.append(("lone", payload))
            elif kind == "word":
                word = tuple(payload)
                if not word:
                    raise MalformedWord("empty cocycle word")
                if any(x != TOUCH and not isinstance(x, int) for x in word):
                    raise MalformedWord("bad letter in %r" % (word,))
                canon.append(("word", min_rotation(word)))
            else:
                raise MalformedWord("bad part kind %r" % kind)
        mine = tuple(sorted(canon))
        flipped = tuple(sorted(_overline_reverse_parts(canon)))
        self.parts = min(mine, flipped)

    def overline_reverse(self):
        """The reversal of the overlined version; equals self."""
        return CocycleLabel(_overline_reverse_parts(self.parts))

    def act(self, sigma):
        out = []
        for kind, payload in self.parts:
            if kind == "lone":
                out.append(("lone", sigma(payload)))
            else:
                out.append(("word", tuple(TOUCH if x == TOUCH else sigma(x)
                                          for x in payload)))
        return CocycleLabel(out)

    def __eq__(self, other):
        return isinstance(other, CocycleLabel) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "CocycleLabel(%s)" % format_label(self)


def _overline_reverse_parts(parts):
    out = []
    for kind, payload in parts:
        if kind == "lone":
            out.append(("lone", -payload))
        else:
            rev = tuple(TOUCH if x == TOUCH else -x
                        for x in reversed(payload))
            out.append(("word", min_rotation(rev)))
    return out


def orbit(labels, group):
    """Closure of a set of labels under a group of signed permutations."""
    out = set()
    todo = list(labels)
    while todo:
        lab = todo.pop()
        if lab in out:
            continue
        out.add(lab)
        for sigma in group:
            img = lab.act(sigma)
            if img not in out:
                todo.append(img)
    return out


# ---------------------------------------------------------------------------
# text format: one label per line, parts comma-separated, `.` the touch
# symbol; a single-token part is a lone index.  Lines starting with `?`
# are quarantined (kept out of counts, reported by the loader).


def parse_label(line):
    """The normalized label of one line of the text format.

    >>> lab = parse_label("1 . -2 . -3 ., 2")
    >>> format_label(lab)
    '-2, -1 . 3 . 2 .'
    >>> parse_label(format_label(lab)) == lab == lab.overline_reverse()
    True
    """
    parts = []
    for chunk in line.split(","):
        tokens = chunk.split()
        if not tokens:
            raise MalformedWord("empty part in %r" % line)
        try:
            letters = tuple(TOUCH if t == "." else int(t) for t in tokens)
        except ValueError as exc:
            raise MalformedWord("bad letter in %r" % line) from exc
        if len(tokens) == 1 and tokens[0] != ".":
            parts.append(("lone", letters[0]))
        else:
            parts.append(("word", letters))
    return CocycleLabel(parts)


def format_label(label):
    chunks = []
    for kind, payload in label.parts:
        if kind == "lone":
            chunks.append(str(payload))
        else:
            chunks.append(" ".join("." if x == TOUCH else str(x)
                                   for x in payload))
    return ", ".join(chunks)


def load_fixture(name="bitangent3"):
    """Representatives from the bundled transcription.

    Returns (labels, quarantined-lines).
    """
    path = resources.files(__package__).joinpath(
        "catalog_data", name + ".cocycles")
    labels, quarantined = [], []
    with path.open() as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("?"):
                quarantined.append(line[1:].strip())
                continue
            labels.append(parse_label(line))
    return labels, quarantined
