"""Parsing, validation, rendering and constant derivation."""

import json
import math
import pickle
import sys
import time
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldrate import (
    ExactScalar,
    LogScalar,
    Op,
    RecurrenceSpec,
    SpecSyntaxError,
    SpecValidationError,
    Term,
    derive_constants,
    parse_spec,
    parse_spec_json,
)
from foldrate import holonomic
from foldrate.scalars import _Record


def test_parse_single_term():
    spec = parse_spec("sum 2 1")
    assert spec.terms == (Term(Op.SUM, 2, Fraction(1)),)


def test_parse_skips_comments_and_blanks():
    spec = parse_spec(
        """
        # leading comment
        sum 2 1   # trailing comment

        max 3 5
        """
    )
    assert spec.terms == (Term(Op.SUM, 2, Fraction(1)), Term(Op.MAX, 3, Fraction(5)))


def test_parse_fraction_and_decimal_weights():
    spec = parse_spec("sum 2 3/4\nmax 3 1.5")
    assert spec.terms[0].weight == Fraction(3, 4)
    assert spec.terms[1].weight == Fraction(3, 2)


def test_parse_is_case_tolerant_on_ops():
    assert parse_spec("SUM 2 1").terms[0].op is Op.SUM
    assert parse_spec("Max 2 1").terms[0].op is Op.MAX


def test_syntax_error_carries_position():
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec("sum 2 1\nmul 2 1")
    assert exc.value.line == 2
    assert exc.value.column == 1
    assert "mul" in str(exc.value)


def test_syntax_error_wrong_field_count():
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec("sum 2")
    assert exc.value.line == 1


def test_syntax_error_bad_arity_and_weight():
    with pytest.raises(SpecSyntaxError):
        parse_spec("sum x 1")
    with pytest.raises(SpecSyntaxError):
        parse_spec("sum 2 1..5")
    with pytest.raises(SpecSyntaxError) as exc:
        parse_spec("sum 2 1/0")
    assert exc.value.line == 1


def test_validation_rejects_nonpositive_parts():
    with pytest.raises(SpecValidationError):
        parse_spec("sum 0 1\nsum 2 1")
    with pytest.raises(SpecValidationError):
        parse_spec("sum 2 0")
    with pytest.raises(SpecValidationError):
        parse_spec("sum 2 -3")


def test_validation_rejects_linear_only():
    with pytest.raises(SpecValidationError) as exc:
        parse_spec("sum 1 1\nmax 1 3")
    assert "arity >= 2" in str(exc.value)


def test_validation_rejects_empty():
    with pytest.raises(SpecValidationError):
        parse_spec("")
    with pytest.raises(SpecValidationError):
        parse_spec("# nothing here\n\n")


def test_term_constructor_validates():
    with pytest.raises(SpecValidationError):
        Term(Op.SUM, 0, Fraction(1))
    with pytest.raises(SpecValidationError):
        Term(Op.SUM, 2, Fraction(0))
    with pytest.raises(SpecValidationError):
        Term("sum", 2, Fraction(1))


def test_records_keep_their_fields_repr_hash_and_immutability():
    term = Term(op=Op.SUM, arity=2, weight=1)
    assert (term.op, term.arity, term.weight) == (Op.SUM, 2, Fraction(1))
    assert type(term.weight) is Fraction
    assert repr(term) == "Term(op=<Op.SUM: 'sum'>, arity=2, weight=Fraction(1, 1))"
    spec = RecurrenceSpec([term])
    assert spec.terms == (term,)
    assert repr(spec) == f"RecurrenceSpec(terms=({term!r},))"
    assert hash(term) == hash((Op.SUM, 2, Fraction(1)))
    assert hash(spec) == hash(RecurrenceSpec((Term(Op.SUM, 2, Fraction(2, 2)),)))
    for record, name in ((term, "weight"), (spec, "terms"), (term, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert term._replace(arity=3) == Term(Op.SUM, 3, 1)
    with pytest.raises(SpecValidationError):
        term._replace(arity=0)


def test_records_equal_plain_tuples_but_no_record_of_another_class():
    term = Term(Op.MAX, 3, 2)
    assert term == (Op.MAX, 3, 2) and (Op.MAX, 3, 2) == term
    assert not term != (Op.MAX, 3, 2)
    consts = derive_constants(parse_spec("sum 2 1"))
    assert consts == tuple(consts)
    assert ExactScalar(Fraction(1)) == (1,)
    # equal fields in records of two classes
    assert ExactScalar(Fraction(1)) != LogScalar(1.0)
    assert not ExactScalar(Fraction(1)) == LogScalar(1.0)
    assert RecurrenceSpec((term,)) != ExactScalar((term,))

    class Pair(_Record, namedtuple("Pair", "coeffs window")):
        __slots__ = ()

    rec = holonomic.Recurrence(((1, 2), (3, 4)), 48)
    assert rec == (((1, 2), (3, 4)), 48) and rec != Pair(*rec)


def test_json_matches_text_form():
    text = "sum 2 1/3\nmax 4 5"
    doc = {
        "terms": [
            {"op": "sum", "arity": 2, "weight": "1/3"},
            {"op": "max", "arity": 4, "weight": 5},
        ]
    }
    assert parse_spec_json(json.dumps(doc)) == parse_spec(text)


def test_json_decimal_weights_stay_exact():
    spec = parse_spec_json('{"terms": [{"op": "sum", "arity": 2, "weight": 0.1}]}')
    assert spec.terms[0].weight == Fraction(1, 10)  # not the float 0.1


def test_json_errors():
    with pytest.raises(SpecSyntaxError):
        parse_spec_json("{not json")
    with pytest.raises(SpecValidationError):
        parse_spec_json("[]")
    with pytest.raises(SpecValidationError):
        parse_spec_json('{"terms": [{"op": "sum", "arity": 2}]}')
    with pytest.raises(SpecValidationError):
        parse_spec_json('{"terms": [{"op": "avg", "arity": 2, "weight": 1}]}')
    with pytest.raises(SpecValidationError):
        parse_spec_json('{"terms": [{"op": "sum", "arity": 2, "weight": 0}]}')
    with pytest.raises(SpecValidationError):
        parse_spec_json('{"terms": []}')


def test_weights_have_at_most_the_int_digit_limit():
    # a numerator or denominator may have as many digits as str(int)
    # prints, sys.get_int_max_str_digits(), and no more
    limit = sys.get_int_max_str_digits()
    assert limit == 4300
    for weight in ("1e4299", "1/" + "9" * 4300, "3e-4299", "1.5e4298"):
        parse_spec(f"sum 2 {weight}")
    for weight in ("1e4300", "1/" + "1" * 4301, "1e-4300", "15e4299", "1e10000000"):
        with pytest.raises(SpecSyntaxError, match=r"limit \(4300 digits\)"):
            parse_spec(f"sum 2 {weight}")
    for number in ("1e4300", "1" * 4301, "1e-99999999"):
        with pytest.raises(SpecSyntaxError):
            parse_spec_json(f'{{"terms": [{{"op": "sum", "arity": 2, "weight": {number}}}]}}')
    with pytest.raises(SpecSyntaxError):
        parse_spec_json(f'{{"terms": [{{"op": "sum", "arity": {"2" * 4301}, "weight": 1}}]}}')
    sys.set_int_max_str_digits(0)  # no limit
    try:
        assert parse_spec("sum 2 1e5000").terms[0].weight == 10 ** 5000
    finally:
        sys.set_int_max_str_digits(limit)


def test_a_huge_decimal_exponent_is_refused_from_its_text():
    # building 10^(10^7) would take seconds; the exponent's text refuses it
    start = time.perf_counter()
    for text in ("sum 2 1e10000000", "sum 2 7.5e-10000000"):
        with pytest.raises(SpecSyntaxError):
            parse_spec(text)
    with pytest.raises(SpecSyntaxError):
        parse_spec_json('{"terms": [{"op": "sum", "arity": 2, "weight": 1e5000000}]}')
    assert time.perf_counter() - start < 1.0


def test_render_round_trip():
    text = "sum 2 1/3\nmax 4 5"
    spec = parse_spec(text)
    assert spec.render() == "sum 2 1/3\nmax 4 5\n"
    assert parse_spec(spec.render()) == spec


def test_canonical_text_ignores_term_order():
    a = parse_spec("sum 2 1\nmax 3 2")
    b = parse_spec("max 3 2\nsum 2 1")
    assert a.canonical_text() == b.canonical_text()
    assert a.digest().hex() == b.digest().hex()
    assert a != b  # ordering still matters for the spec itself


def test_digest_separates_different_specs():
    assert parse_spec("sum 2 1").digest().hex() != parse_spec("sum 2 2").digest().hex()


def test_spec_properties():
    spec = parse_spec("sum 1 9\nsum 2 1\nmax 3 4")
    assert spec.max_arity == 3
    assert spec.kstar == Fraction(4)  # arity-1 weights never qualify
    assert spec.weight_sum == Fraction(14)


def test_constants_catalan():
    c = derive_constants(parse_spec("sum 2 1"))
    assert c.s1 == 1 and c.kstar == 1 and c.max_arity == 2
    assert c.log_base == pytest.approx(1.5)
    assert c.alpha == pytest.approx(1.0 / math.log(1.5), rel=1e-15)
    # beta' = alpha * ln(s1 * L^2 / kstar) = log base 3/2 of 4
    assert c.beta_prime == pytest.approx(math.log(4) / math.log(1.5), rel=1e-14)


def test_constants_mixed_example():
    c = derive_constants(parse_spec("sum 2 2\nsum 3 3\nsum 4 4\nmax 5 5\nmax 6 6"))
    # max 5 5 and max 6 6 count as arity 1: L and k* come from sum 4 4
    assert c.s1 == 20 and c.kstar == 4 and c.max_arity == 4
    assert c.log_base == pytest.approx(5 / 4)
    assert c.beta_prime == pytest.approx(
        math.log(20 * 16 / 4) / math.log(5 / 4), rel=1e-12
    )


@pytest.mark.parametrize("text", ["max 2 2", "sum 1 1\nmax 2 3"])
def test_constants_of_a_geometric_reduced_spec_are_the_spec_as_written(text):
    # no sum term of arity >= 2 is left to reduce to, so nothing changes
    spec = parse_spec(text)
    c = derive_constants(spec)
    assert (c.max_arity, c.kstar) == (spec.max_arity, spec.kstar)
    assert c.alpha == 1.0 / math.log1p(1.0 / spec.max_arity)
    assert c.beta_prime == pytest.approx(
        c.alpha * math.log(spec.weight_sum * spec.max_arity ** 2 / spec.kstar), rel=1e-15
    )


terms_strategy = st.builds(
    Term,
    st.sampled_from([Op.SUM, Op.MAX]),
    st.integers(min_value=1, max_value=6),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(50), max_denominator=100),
)
spec_strategy = st.builds(
    lambda anchor, rest: RecurrenceSpec((anchor,) + tuple(rest)),
    st.builds(
        Term,
        st.sampled_from([Op.SUM, Op.MAX]),
        st.integers(min_value=2, max_value=6),
        st.fractions(min_value=Fraction(1, 100), max_value=Fraction(50), max_denominator=100),
    ),
    st.lists(terms_strategy, max_size=3),
)


@given(spec_strategy)
@settings(max_examples=80, deadline=None)
def test_parse_render_round_trip(spec):
    assert parse_spec(spec.render()) == spec


@given(spec_strategy)
@settings(max_examples=40, deadline=None)
def test_constants_are_well_formed(spec):
    c = derive_constants(spec)
    assert c.alpha > 0
    assert c.log_base > 1
    # s1 >= kstar and L >= 2 force the beta' argument >= 4
    assert c.s1 * c.max_arity**2 / c.kstar >= 4
    assert c.beta_prime >= c.alpha * math.log(4) - 1e-12
