"""Strict JSON document parsing and exact round-trips."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerinv import (
    Atom,
    DiskZero,
    InnerFunctionSpec,
    RangeError,
    SchemaError,
    StolzTail,
    TangentialTail,
    TruncationPolicy,
)
from innerinv.document import (
    SpecDocument,
    document_from_mapping,
    document_to_mapping,
    parse_document,
    parse_spec,
    render_document,
)


def doc_of(spec, policy=None) -> SpecDocument:
    return SpecDocument(spec, policy or TruncationPolicy())


class TestParsing:
    def test_minimal_document(self):
        doc = parse_document('{"atoms": [{"theta": 1.0, "mass": 2.0}]}')
        assert doc.spec.atoms == (Atom(1.0, 2.0),)
        assert doc.spec.constant_arg == 0.0
        assert doc.policy == TruncationPolicy()

    def test_full_document(self):
        text = json.dumps(
            {
                "constant_arg": 0.25,
                "zero_order": 2,
                "zeros": [{"modulus": 0.5, "argument": 1.0, "multiplicity": 3}],
                "tails": [
                    {"kind": "StolzGeometric", "anchor_theta": 0.0, "c": 0.5, "q": 0.5},
                    {
                        "kind": "TangentialSummable",
                        "anchor_theta": 3.0,
                        "side": "lower",
                        "rho": 5.0,
                    },
                ],
                "atoms": [{"theta": 1.5, "mass": 0.25}],
                "truncation": {"tail_terms": 128, "phase_tol": 1e-10},
            }
        )
        doc = parse_document(text)
        assert doc.spec.zero_order == 2
        assert doc.spec.zeros[0].multiplicity == 3
        assert isinstance(doc.spec.tails[0], StolzTail)
        assert isinstance(doc.spec.tails[1], TangentialTail)
        assert doc.spec.tails[1].side == "lower"
        assert doc.policy.tail_terms == 128
        assert doc.policy.phase_tol == 1e-10

    def test_stolz_default_slope(self):
        doc = parse_document(
            '{"tails": [{"kind": "StolzGeometric", "anchor_theta": 0, "c": 0.5, "q": 0.5}]}'
        )
        assert doc.spec.tails[0].t == 0.0

    def test_tangential_default_rho(self):
        doc = parse_document(
            '{"tails": [{"kind": "TangentialSummable", "anchor_theta": 0, "side": "upper"}]}'
        )
        assert doc.spec.tails[0].rho == 4.0

    def test_parse_spec_accepts_mapping_or_text(self):
        m = {"atoms": [{"theta": 0.5, "mass": 1.0}]}
        assert parse_spec(m) == parse_spec(json.dumps(m))


class TestSchemaErrors:
    def test_unknown_top_key(self):
        with pytest.raises(SchemaError, match="unknown field"):
            parse_document('{"atom": []}')

    def test_unknown_tail_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            parse_document('{"tails": [{"kind": "Sneaky", "anchor_theta": 0}]}')

    def test_path_in_message(self):
        with pytest.raises(SchemaError, match=r"zeros\[0\].modulus"):
            parse_document('{"zeros": [{"modulus": 1.5, "argument": 0}]}')

    def test_path_attribute_names_the_field(self):
        with pytest.raises(RangeError) as info:
            parse_document('{"zeros": [{"modulus": 1.5, "argument": 0}]}')
        assert info.value.path == "zeros[0].modulus"
        assert str(info.value).startswith("zeros[0].modulus: must lie in [0, 1)")

    def test_path_attribute_of_schema_errors(self):
        cases = {
            '{"atom": []}': "atom",
            '{"atoms": [{"theta": 0}]}': "atoms[0].mass",
            '{"constant_arg": "x"}': "constant_arg",
            '{"tails": [{"kind": "TangentialSummable", "anchor_theta": 0}]}': "tails[0].side",
            '{"truncation": {"tail_terms": 0}}': "truncation.tail_terms",
        }
        for text, path in cases.items():
            with pytest.raises(SchemaError) as info:
                parse_document(text)
            assert info.value.path == path, text

    @pytest.mark.parametrize(
        "text, path",
        [
            ('{"atoms": [{"theta": NaN, "mass": 1}]}', "atoms[0].theta"),
            ('{"zeros": [{"modulus": 0.5, "argument": Infinity}]}', "zeros[0].argument"),
            ('{"atoms": [{"theta": 1, "mass": Infinity}]}', "atoms[0].mass"),
            ('{"zeros": [{"modulus": NaN, "argument": 0}]}', "zeros[0].modulus"),
            ('{"constant_arg": -Infinity}', "constant_arg"),
            ('{"truncation": {"phase_tol": Infinity}}', "truncation.phase_tol"),
            ('{"atoms": [{"theta": 1, "mass": 1' + "0" * 400 + '}]}', "atoms[0].mass"),
        ],
        ids=["angle", "argument", "mass", "modulus", "constant_arg", "phase_tol", "huge_int"],
    )
    def test_non_finite_numbers_rejected(self, text, path):
        with pytest.raises(RangeError, match="finite") as info:
            parse_document(text)
        assert info.value.path == path

    def test_modulus_range_is_range_error(self):
        with pytest.raises(RangeError):
            parse_document('{"zeros": [{"modulus": 1.0, "argument": 0}]}')

    def test_mass_must_be_positive(self):
        with pytest.raises((SchemaError, RangeError)):
            parse_document('{"atoms": [{"theta": 0, "mass": 0}]}')

    def test_rho_floor(self):
        with pytest.raises((SchemaError, RangeError)):
            parse_document(
                '{"tails": [{"kind": "TangentialSummable", "anchor_theta": 0,'
                ' "side": "upper", "rho": 2.0}]}'
            )

    def test_q_open_interval(self):
        with pytest.raises((SchemaError, RangeError)):
            parse_document(
                '{"tails": [{"kind": "StolzGeometric", "anchor_theta": 0,'
                ' "c": 0.5, "q": 1.0}]}'
            )

    def test_side_required(self):
        with pytest.raises(SchemaError, match="side"):
            parse_document(
                '{"tails": [{"kind": "TangentialSummable", "anchor_theta": 0}]}'
            )

    def test_bool_not_a_number(self):
        with pytest.raises(SchemaError):
            parse_document('{"constant_arg": true}')

    def test_non_integer_multiplicity(self):
        with pytest.raises(SchemaError):
            parse_document(
                '{"zeros": [{"modulus": 0.5, "argument": 0, "multiplicity": 1.5}]}'
            )

    def test_malformed_json_reports_position(self):
        with pytest.raises(SchemaError, match="line"):
            parse_document('{"atoms": [}')

    def test_wrong_container_types(self):
        with pytest.raises(SchemaError):
            parse_document('{"atoms": {"theta": 0}}')
        with pytest.raises(SchemaError):
            parse_document('[1, 2]')


class TestRoundTrip:
    def test_render_parse_identity(self):
        spec = InnerFunctionSpec(
            constant_arg=0.1234567890123456,
            zero_order=1,
            zeros=(DiskZero(0.7071067811865476, 2.5, 2),),
            tails=(
                StolzTail(0.5, c=0.3, q=0.25, t=-1.5),
                TangentialTail(4.0, "upper", 6.5),
            ),
            atoms=(Atom(1.0, 0.333333333333333),),
        )
        doc = doc_of(spec, TruncationPolicy(tail_terms=96, phase_tol=3e-10))
        text = render_document(doc)
        back = parse_document(text)
        assert back.spec == spec
        assert back.policy == doc.policy

    def test_render_ends_with_newline(self):
        text = render_document(doc_of(InnerFunctionSpec(atoms=(Atom(0.0, 1.0),))))
        assert text.endswith("\n")
        json.loads(text)

    def test_mapping_round_trip(self):
        spec = InnerFunctionSpec(atoms=(Atom(0.5, 2.0),))
        doc = doc_of(spec)
        again = document_from_mapping(document_to_mapping(doc))
        assert again.spec == spec

    floats = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)

    @given(
        floats,
        st.integers(min_value=0, max_value=4),
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=0.99),
                floats,
                st.integers(min_value=1, max_value=4),
            ),
            max_size=3,
        ),
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=6.0),
                      st.floats(min_value=0.1, max_value=3.0)),
            max_size=3,
            unique_by=lambda a: round(a[0], 6),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_exact_floats(self, const, order, zeros, atoms):
        try:
            spec = InnerFunctionSpec(
                constant_arg=const,
                zero_order=order,
                zeros=tuple(DiskZero(m, a, mult) for m, a, mult in zeros),
                atoms=tuple(Atom(t, m) for t, m in atoms),
            )
        except Exception:
            return  # duplicate angles after canonicalization: not this test
        doc = doc_of(spec)
        back = parse_document(render_document(doc))
        assert back.spec == spec
        assert back.policy == doc.policy
