"""Text format for presenting an algebra by quiver and relations.

Grammar (sections in any order, one entry per line, ``#`` comments):

    vertices: 1 2 3
    arrows:
      a: 1 -> 2
      b: 2 -> 3
    relations:
      a*b - 2/3*c*d
    zero:
      a*b

A word like ``a*b`` is the path that follows a first and then b.
"""

from __future__ import annotations

from .errors import ParseError
from .linalg import rational
from .quiver import Path, Quiver, Relation

_SECTIONS = ("vertices", "arrows", "relations", "zero")


def _strip_comment(line):
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _vertex_token(tok):
    """An int for an optionally signed run of decimal digits, as
    coefficients are read; any other token is a string label."""
    if tok.removeprefix("-").isdecimal():
        return int(tok)
    return tok


class AlgebraFile:
    def __init__(self, vertices, arrows, relation_specs, zero_specs):
        self.vertices = vertices
        self.arrows = arrows
        self.relation_specs = relation_specs  # list of (line, [(coeff, [labels], col)])
        self.zero_specs = zero_specs  # list of (line, [labels], col)

    def quiver(self):
        return Quiver(self.vertices, self.arrows)

    def relations(self, quiver=None):
        q = quiver or self.quiver()
        rels = []
        for line, terms in self.relation_specs:
            parts = []
            for coeff, labels, col in terms:
                parts.append((coeff, self._path(q, labels, line, col)))
            try:
                rels.append(Relation(parts))
            except Exception as exc:
                raise ParseError(str(exc), line, terms[0][2])
        for line, labels, col in self.zero_specs:
            rels.append(Relation([(1, self._path(q, labels, line, col))]))
        return rels

    @staticmethod
    def _path(q, labels, line, col):
        for lab in labels:
            if lab not in q.arrow_by_label:
                raise ParseError(f"unknown arrow label {lab!r}", line, col)
        start = q.arrow_by_label[labels[0]].source
        try:
            return Path(q, start, labels)
        except ValueError as exc:
            raise ParseError(str(exc), line, col)

    def build(self, name=None):
        from .algebra import build_algebra

        q = self.quiver()
        return build_algebra(q, self.relations(q), name=name)


def _parse_term(text, line, col0):
    """One signed term: optional rational coefficient, then a label word."""
    text = text.strip()
    coeff = 1
    pieces = [p.strip() for p in text.split("*")]
    if not pieces or not pieces[0]:
        raise ParseError("empty term", line, col0)
    head = pieces[0]
    if not head.lstrip("-").strip("0123456789/"):
        # digits and slashes only: a coefficient, which must read
        # -?digits(/digits)? with a nonzero denominator
        num, slash, den = head.partition("/")
        if not (num.removeprefix("-").isdecimal()
                and (not slash or den.isdecimal() and int(den) != 0)):
            raise ParseError(f"bad coefficient {head!r}", line, col0)
        coeff = rational(int(num), int(den or 1))
        pieces = pieces[1:]
        if not pieces:
            raise ParseError("coefficient without a path", line, col0)
    for p in pieces:
        if not p or not p.replace("_", "").replace("[", "").replace("]", "") \
                .replace(",", "").replace(" ", "").replace("-", "").isalnum():
            raise ParseError(f"bad label {p!r}", line, col0)
    return coeff, pieces


def _parse_combination(text, line, col0):
    """Signed sum of terms: t1 - t2 + t3 ...  text starts at column col0
    of the file line; each term is returned with the column of its first
    character, where its errors point.  Signs inside brackets belong to a
    label, and an unmatched bracket is an error at its own column."""
    terms = []
    sign = 1
    buf = ""
    start = None
    opens = []  # positions of the '[' not yet closed
    for k, ch in enumerate(text + "\n"):
        if ch == "[":
            opens.append(k)
        elif ch == "]":
            if not opens:
                raise ParseError("unmatched ']'", line, col0 + k)
            opens.pop()
        elif ch == "\n" and opens:
            raise ParseError("unmatched '['", line, col0 + opens[-1])
        if ch in "+-\n" and not opens and buf.strip():
            coeff, labels = _parse_term(buf, line, col0 + start)
            if sign < 0:
                coeff = -coeff
            terms.append((coeff, labels, col0 + start))
            sign = 1 if ch != "-" else -1
            buf = ""
            start = None
        elif ch in "+-\n" and not opens:
            if ch == "-":
                sign = -sign
        else:
            if start is None and not ch.isspace():
                start = k
            buf += ch
    if not terms:
        raise ParseError("empty relation", line, col0)
    return terms


def parse_algebra_file(text):
    vertices = []
    arrows = []
    relation_specs = []
    zero_specs = []
    section = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = len(line) - len(line.lstrip()) + 1  # of stripped in the file line
        head = stripped.split(":", 1)[0].strip().lower()
        if head in _SECTIONS and (stripped.startswith(head) or not line[0].isspace()):
            section = head
            seen.add(head)
            rest = stripped.split(":", 1)[1].strip() if ":" in stripped else ""
            if not rest:
                continue
            stripped = rest
            col = len(line) - len(rest) + 1
        if section is None:
            raise ParseError(f"content before any section header: {stripped!r}", lineno, col)
        if section == "vertices":
            vertices.extend(_vertex_token(t) for t in stripped.split())
        elif section == "arrows":
            if ":" not in stripped or "->" not in stripped:
                raise ParseError("arrow lines look like 'a: 1 -> 2'", lineno, col)
            lab, _, tail = stripped.partition(":")
            src, _, tgt = tail.partition("->")
            if not src.strip() or not tgt.strip():
                raise ParseError("arrow lines look like 'a: 1 -> 2'", lineno, col)
            arrows.append((lab.strip(), _vertex_token(src.strip()),
                           _vertex_token(tgt.strip())))
        elif section == "relations":
            relation_specs.append((lineno, _parse_combination(stripped, lineno, col)))
        elif section == "zero":
            _, labels = _parse_term(stripped, lineno, col)
            zero_specs.append((lineno, labels, col))
    if "vertices" not in seen:
        raise ParseError("missing vertices section", 1, 1)
    if not vertices:
        raise ParseError("no vertices declared", 1, 1)
    af = AlgebraFile(vertices, arrows, relation_specs, zero_specs)
    try:
        af.quiver()
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1)
    return af


def load_algebra_file(path):
    with open(path) as fh:
        return parse_algebra_file(fh.read())
