import pytest

from oracles import catalog_presentation
from picolim.catalog import catalog_group, catalog_names
from picolim.colimit import NormalTuple
from picolim import presentations
from picolim.errors import BudgetError, ParseError
from picolim.presentations import (
    Presentation,
    parse_presentation,
    parse_word,
    parse_words,
    render_word,
    tietze,
)
from picolim.tensor import build_T
from picolim.words import Word, commutator

AB = ["a", "b"]
XY = ["x", "y"]


def test_parse_simple_products():
    assert parse_word("a*b^2*a^-1", AB).syllables == ((0, 1), (1, 2), (0, -1))
    assert parse_word("x1*x2^-3", ["x1", "x2"]).syllables == ((0, 1), (1, -3))


def test_parse_identity_form():
    assert parse_word("g^0", ["g"]).is_identity()


def test_parse_brackets():
    x, y = Word.gen(0), Word.gen(1)
    assert parse_word("[x,y]", XY) == commutator(x, y)
    assert parse_word("[x,[y,x]]", XY) == commutator(x, commutator(y, x))
    assert parse_word("[x*y^2,y]", XY) == commutator(x * y * y, y)


def test_brackets_take_no_exponent():
    with pytest.raises(ParseError):
        parse_word("[x,y]^2", XY)


def test_bracket_is_a_whole_word():
    # grammar: a bracket is a word alternative, not a product factor
    with pytest.raises(ParseError):
        parse_word("[x,y]*x^2", XY)


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_word("a**b", AB)
    assert info.value.line == 1
    assert info.value.column >= 2


def test_unknown_generator_rejected_with_alphabet():
    with pytest.raises(ParseError) as info:
        parse_word("a*q", AB)
    assert (info.value.line, info.value.column) == (1, 3)
    assert parse_word("a*b", AB).syllables == ((0, 1), (1, 1))


def test_parse_words_list():
    words = parse_words("a^2, [a,b], b^0", AB)
    assert len(words) == 3
    assert words[2].is_identity()


def test_parse_presentation():
    p = parse_presentation("gens: a,b | rels: a^2, b^3, [a,b]")
    assert p.generators == ("a", "b")
    assert len(p.relators) == 3
    assert p.relators[0] == (0, 0)
    assert p.relators[2] == p.encode(commutator(Word.gen(0), Word.gen(1)))
    assert p.word(p.relators[2]) == commutator(Word.gen(0), Word.gen(1))


def test_parse_presentation_no_relators():
    p = parse_presentation("gens: a | rels: a^0")
    assert p.relators == ((),)


def test_presentation_rejects_foreign_relator():
    with pytest.raises(ValueError):
        Presentation(("a",), ((2,),))


def test_presentation_duplicate_generator():
    with pytest.raises(ValueError):
        Presentation(("a", "a"))


def test_encode_refuses_a_letter_outside_the_generators():
    with pytest.raises(ValueError, match="letter 2 is outside the 2 generators"):
        Presentation(AB).encode(Word.gen(2))


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("gens:\n b,\n  b | rels:", 3, 3),
        ("gens: a,a | rels: a", 1, 9),
        ("gens: a, b, a | rels: a", 1, 13),
    ],
)
def test_duplicate_generator_points_at_second_occurrence(text, line, column):
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    assert str(info.value).startswith("duplicate generator ")
    assert (info.value.line, info.value.column) == (line, column)


def test_render_round_trip():
    presentations = [parse_presentation("gens: r,s | rels: r^5, s^2, s*r*s^-1*r")]
    presentations += [catalog_presentation(name) for name in catalog_names()]
    c2 = catalog_group("C2")
    presentations.append(build_T(NormalTuple(c2, (c2.full_subgroup(),) * 3)).base)
    for p in presentations:
        assert parse_presentation(p.render()) == p


def test_word_render_round_trip():
    for text in ("a*b^-2*a^3", "x^0", "[a,b]"):
        w = parse_word(text, ["a", "b", "x"])
        back = parse_word(render_word(w, ["a", "b", "x"]), ["a", "b", "x"])
        assert back == w


def test_multiline_positions():
    with pytest.raises(ParseError) as info:
        parse_presentation("gens: a,b |\nrels: a^2, %")
    assert info.value.line == 2


def test_unknown_relator_generator_position():
    with pytest.raises(ParseError) as info:
        parse_presentation("gens: a,b |\nrels: a^2, q")
    assert (info.value.line, info.value.column) == (2, 12)


@pytest.mark.parametrize(
    "text,column",
    [
        ("gens: a | rels: a^²", 19),  # superscript two: isdigit, not int()
        ("gens: é | rels: é^2", 7),  # e acute: isalpha, not a Word name
        ("gens: a | rels: a^٣", 19),  # Arabic-Indic three: int() reads 3
    ],
)
def test_non_ascii_rejected_with_position(text, column):
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    assert (info.value.line, info.value.column) == (1, column)


def _tietze(text):
    return tietze(parse_presentation(text))


def test_tietze_kills_a_generator_of_a_length_one_relator():
    reduced, image = _tietze("gens: a,b | rels: a, b^3, a*b*a^-1*b")
    assert reduced == parse_presentation("gens: b | rels: b^3, b^2")
    assert image == [None, None, 0, 1]


def test_tietze_identifies_x_y_and_x_y_inverse():
    # a*b makes b = a^-1; b*c^-1 makes c = b = a^-1
    reduced, image = _tietze("gens: a,b,c | rels: a*b, b*c^-1, c^3")
    assert reduced == parse_presentation("gens: a | rels: a^-3")
    assert image == [0, 1, 1, 0, 1, 0]


def test_tietze_keeps_x_equal_to_its_inverse_as_a_relator():
    # a = b^-1 and a = b give a = a^-1, which is the relator a^2
    reduced, image = _tietze("gens: a,b | rels: a*b, a*b^-1")
    assert reduced == parse_presentation("gens: a | rels: a^2")
    assert image == [0, 1, 1, 0]


@pytest.mark.parametrize(
    "text", ["gens: a,b | rels: a, a*b^-1", "gens: a,b | rels: a*b^-1, b", "gens: a,b | rels: b, a"]
)
def test_tietze_keeps_generator_zero_when_every_generator_dies(text):
    reduced, image = _tietze(text)
    assert reduced == parse_presentation("gens: a | rels: a")
    assert image == [None] * 4


def test_tietze_is_deterministic_and_keeps_the_lowest_column():
    text = "gens: a,b,c,d | rels: d*b, c*d^-1, a^5, [a,c], [d,a]"
    reduced, image = _tietze(text)
    assert reduced.generators == ("a", "b")
    assert image == [0, 1, 2, 3, 3, 2, 3, 2]
    assert reduced == parse_presentation("gens: a,b | rels: a^5, [a,b^-1]")
    assert _tietze(text) == (reduced, image)


def test_tietze_deduplicates_up_to_rotation_and_inversion():
    text = ("gens: a,b | rels: [a,b], b*a^-1*b^-1*a, [b,a], b*a^3*b^-1, a^-3, "
            "a^-1*b^-1*a*b")
    reduced, _ = _tietze(text)
    assert reduced == parse_presentation("gens: a,b | rels: [a,b], a^3")


def test_tietze_leaves_a_presentation_without_short_relators_alone():
    p = parse_presentation("gens: a,b | rels: a^3, b^2, a*b*a*b")
    assert tietze(p) == (p, [0, 1, 2, 3])


def test_tietze_passes_rewrite_each_distinct_relator_once(monkeypatch):
    calls = []
    substitute = presentations._substitute

    def counted(rel, image):
        calls.append(rel)
        return substitute(rel, image)

    monkeypatch.setattr(presentations, "_substitute", counted)
    s3 = catalog_group("S3")
    tietze(build_T(NormalTuple(s3, (s3.full_subgroup(),) * 3)).base)
    assert len(calls) == 50_749


def test_encode_refuses_words_over_the_letter_budget():
    p = Presentation(["a", "b"])
    assert p.encode(parse_word("a^1000000", AB)) == (0,) * 1_000_000
    with pytest.raises(BudgetError, match="word of 1000001 letters exceeds the budget"):
        p.encode(parse_word("a^1000000*b", AB))
    with pytest.raises(BudgetError, match="word of 1000000000 letters"):
        parse_presentation("gens: a | rels: a^1000000000")
