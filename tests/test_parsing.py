import pytest

from quivercy.errors import ParseError
from quivercy.parsing import parse_algebra_file

A2_TEXT = """\
# a comment
vertices: 1 2
arrows:
  a: 1 -> 2
"""

SQUARE_TEXT = """\
vertices: 11 12 21 22
arrows:
  a1: 11 -> 21
  a2: 12 -> 22
  b1: 11 -> 12
  b2: 21 -> 22
relations:
  a1*b2 - b1*a2
"""

ZERO_TEXT = """\
vertices: 1 2 3
arrows:
  a: 1 -> 2
  b: 2 -> 3
zero:
  a*b
"""


def test_parse_a2():
    af = parse_algebra_file(A2_TEXT)
    assert af.vertices == [1, 2]
    assert af.arrows == [("a", 1, 2)]
    alg = af.build(name="a2")
    assert alg.dim == 3


def test_parse_relations():
    af = parse_algebra_file(SQUARE_TEXT)
    alg = af.build()
    assert alg.dim == 9


def test_parse_zero_section():
    af = parse_algebra_file(ZERO_TEXT)
    alg = af.build()
    assert alg.dim == 5


def test_parse_rational_coefficients():
    text = """\
vertices: 1 2
arrows:
  a: 1 -> 2
  b: 1 -> 2
relations:
  2/3*a - b
"""
    alg = parse_algebra_file(text).build()
    assert alg.dim == 3


@pytest.mark.parametrize("coeff", ["1/0", "1/2/3", "/2", "2/"])
def test_parse_malformed_coefficient(coeff):
    # a coefficient is -?digits(/digits)? with a nonzero denominator
    text = f"vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 1 -> 2\nrelations:\n  {coeff}*a - b\n"
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text)
    assert (err.value.line, err.value.col) == (6, 3)
    assert "coefficient" in err.value.message


@pytest.mark.parametrize("relation,col", [("  1/0*a - b", 3), ("  3*a - 1/0*a", 9),
                                          ("  3*a +1/0*a", 8), ("\t-  1/0*a", 5)])
def test_parse_error_points_at_the_term(relation, col):
    # 1-based columns of the file line, at the first character of the term
    text = f"vertices: 1 2\narrows:\n  a: 1 -> 2\n  b: 1 -> 2\nrelations:\n{relation}\n"
    with pytest.raises(ParseError) as err:
        parse_algebra_file(text)
    assert (err.value.line, err.value.col) == (6, col)


PATH_TEXT = "vertices: 1 2 3\narrows:\n  a: 1 -> 2\n  b: 2 -> 3\nrelations:\n"


@pytest.mark.parametrize("relation,col,bracket", [("  a*b - 2*[b", 11, "["),
                                                  ("  a*b - b]", 10, "]"),
                                                  ("  a*b - 2*b]*a", 12, "]"),
                                                  ("  [a]*b - [[b]", 11, "[")])
def test_unmatched_bracket_is_a_parse_error(relation, col, bracket):
    # a term with an unmatched bracket is an error, not silently dropped
    with pytest.raises(ParseError) as err:
        parse_algebra_file(PATH_TEXT + relation + "\n")
    assert (err.value.line, err.value.col) == (6, col)
    assert f"unmatched {bracket!r}" in err.value.message


def test_matched_brackets_keep_their_signs():
    text = ("vertices: 1 2\narrows:\n  a[0,-1]: 1 -> 2\n  b[1,-2]: 1 -> 2\n"
            "relations:\n  a[0,-1] - b[1,-2]\n")
    (line, terms), = parse_algebra_file(text).relation_specs
    assert [(c, labels) for c, labels, _ in terms] == [(1, ["a[0,-1]"]), (-1, ["b[1,-2]"])]


@pytest.mark.parametrize("text,line,col", [
    ("relations:\n  a - 2*c\n", 5, 7),
    ("relations: a - 2*c\n", 4, 16),
    ("zero:\n    a*c\n", 5, 5),
    ("zero: a*c\n", 4, 7),
])
def test_path_errors_point_at_the_term(text, line, col):
    af = parse_algebra_file("vertices: 1 2\narrows:\n  a: 1 -> 2\n" + text)
    with pytest.raises(ParseError) as err:
        af.relations()
    assert (err.value.line, err.value.col) == (line, col)


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as err:
        parse_algebra_file("vertices: 1 2\narrows:\n  a: 1 --> 2\n")
    assert err.value.line is not None
    with pytest.raises(ParseError):
        parse_algebra_file("arrows:\n  a: 1 -> 2\n")
    with pytest.raises(ParseError):
        parse_algebra_file("vertices: 1 1\n")


@pytest.mark.parametrize("tok,vertex", [
    ("7", 7), ("-3", -3), ("007", 7), ("--1", "--1"), ("²", "²"), ("-²", "-²"),
    ("+1", "+1"), ("1a", "1a"), ("x", "x"),
])
def test_vertex_tokens(tok, vertex):
    # an int exactly for an optionally signed run of decimal digits, as
    # coefficients are read; any other token is a label
    af = parse_algebra_file(f"vertices: {tok} y\narrows:\n  a: {tok} -> y\n")
    assert af.vertices == [vertex, "y"]
    assert af.arrows == [("a", vertex, "y")]
    assert af.build().dim == 3


def test_parse_undeclared_vertex():
    with pytest.raises(ParseError):
        parse_algebra_file("vertices: 1 2\narrows:\n  a: 1 -> 3\n")


def test_parse_unknown_label_in_relation():
    af = parse_algebra_file("vertices: 1 2\narrows:\n  a: 1 -> 2\nrelations:\n  c*d\n")
    with pytest.raises(ParseError):
        af.relations()
