"""Declarative JSON documents describing an inner function.

A document carries the function data (constant argument, monomial order,
zero list, tail families, atoms) plus the truncation settings.  Parsing is
strict: unknown keys, wrong types, non-finite numbers (JSON NaN and
Infinity) and out-of-range values fail with the offending field path in the
exception's ``path`` and message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import RangeError, SchemaError
from .inner_model import (
    Atom,
    DiskZero,
    InnerFunctionSpec,
    StolzTail,
    TangentialTail,
    TruncationPolicy,
)

_TOP_KEYS = {"constant_arg", "zero_order", "zeros", "tails", "atoms", "truncation"}
_ZERO_KEYS = {"modulus", "argument", "multiplicity"}
_STOLZ_KEYS = {"kind", "anchor_theta", "c", "q", "t"}
_TANGENTIAL_KEYS = {"kind", "anchor_theta", "side", "rho"}
_ATOM_KEYS = {"theta", "mass"}
_TRUNC_KEYS = {"tail_terms", "phase_tol"}


@dataclass(frozen=True)
class SpecDocument:
    spec: InnerFunctionSpec
    policy: TruncationPolicy


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(path, f"expected an object, got {type(obj).__name__}")
    return obj


def _expect_list(obj, path: str) -> list:
    if not isinstance(obj, list):
        raise SchemaError(path, f"expected a list, got {type(obj).__name__}")
    return obj


def _field(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _reject_unknown(m: dict, allowed: set, path: str):
    for key in m:
        if key not in allowed:
            raise SchemaError(_field(path, key), "unknown field")


def _number(m: dict, key: str, path: str, default=None) -> float:
    if key not in m:
        if default is None:
            raise SchemaError(_field(path, key), "required field missing")
        return default
    v = m[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(_field(path, key), f"expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise RangeError(_field(path, key), f"must be finite, got {x}")
    return x


def _integer(m: dict, key: str, path: str, default=None) -> int:
    if key not in m:
        if default is None:
            raise SchemaError(_field(path, key), "required field missing")
        return default
    v = m[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(_field(path, key), f"expected an integer, got {type(v).__name__}")
    return v


def _parse_zero(m, path: str) -> DiskZero:
    m = _expect_mapping(m, path)
    _reject_unknown(m, _ZERO_KEYS, path)
    modulus = _number(m, "modulus", path)
    argument = _number(m, "argument", path)
    mult = _integer(m, "multiplicity", path, default=1)
    if not 0.0 <= modulus < 1.0:
        raise RangeError(f"{path}.modulus", f"must lie in [0, 1), got {modulus}")
    if mult < 1:
        raise RangeError(f"{path}.multiplicity", f"must be >= 1, got {mult}")
    return DiskZero(modulus, argument, mult)


def _parse_tail(m, path: str):
    m = _expect_mapping(m, path)
    kind = m.get("kind")
    if kind == "StolzGeometric":
        _reject_unknown(m, _STOLZ_KEYS, path)
        anchor = _number(m, "anchor_theta", path)
        c = _number(m, "c", path)
        q = _number(m, "q", path)
        t = _number(m, "t", path, default=0.0)
        if not c > 0.0:
            raise RangeError(f"{path}.c", f"must be positive, got {c}")
        if not 0.0 < q < 1.0:
            raise RangeError(f"{path}.q", f"must lie in (0, 1), got {q}")
        return StolzTail(anchor, c, q, t)
    if kind == "TangentialSummable":
        _reject_unknown(m, _TANGENTIAL_KEYS, path)
        anchor = _number(m, "anchor_theta", path)
        side = m.get("side")
        if side not in ("upper", "lower"):
            raise SchemaError(f"{path}.side", f"must be 'upper' or 'lower', got {side!r}")
        rho = _number(m, "rho", path, default=4.0)
        if rho < 4.0:
            raise RangeError(f"{path}.rho", f"must be >= 4, got {rho}")
        return TangentialTail(anchor, side, rho)
    raise SchemaError(f"{path}.kind", f"unknown kind {kind!r}")


def _parse_atom(m, path: str) -> Atom:
    m = _expect_mapping(m, path)
    _reject_unknown(m, _ATOM_KEYS, path)
    theta = _number(m, "theta", path)
    mass = _number(m, "mass", path)
    if not mass > 0.0:
        raise RangeError(f"{path}.mass", f"must be positive, got {mass}")
    return Atom(theta, mass)


def document_from_mapping(obj) -> SpecDocument:
    m = _expect_mapping(obj, "")
    _reject_unknown(m, _TOP_KEYS, "")
    constant_arg = _number(m, "constant_arg", "", default=0.0)
    zero_order = _integer(m, "zero_order", "", default=0)
    if zero_order < 0:
        raise RangeError("zero_order", f"must be >= 0, got {zero_order}")
    zeros = tuple(
        _parse_zero(z, f"zeros[{i}]")
        for i, z in enumerate(_expect_list(m.get("zeros", []), "zeros"))
    )
    tails = tuple(
        _parse_tail(t, f"tails[{i}]")
        for i, t in enumerate(_expect_list(m.get("tails", []), "tails"))
    )
    atoms = tuple(
        _parse_atom(a, f"atoms[{i}]")
        for i, a in enumerate(_expect_list(m.get("atoms", []), "atoms"))
    )
    trunc = _expect_mapping(m.get("truncation", {}), "truncation")
    _reject_unknown(trunc, _TRUNC_KEYS, "truncation")
    tail_terms = _integer(trunc, "tail_terms", "truncation", default=64)
    phase_tol = _number(trunc, "phase_tol", "truncation", default=1e-9)
    if tail_terms < 1:
        raise RangeError("truncation.tail_terms", f"must be >= 1, got {tail_terms}")
    if not phase_tol > 0.0:
        raise RangeError("truncation.phase_tol", f"must be positive, got {phase_tol}")
    spec = InnerFunctionSpec(
        constant_arg=constant_arg,
        zero_order=zero_order,
        zeros=zeros,
        tails=tails,
        atoms=atoms,
    )
    return SpecDocument(spec, TruncationPolicy(tail_terms, phase_tol))


def parse_document(text: str) -> SpecDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"line {exc.lineno}, column {exc.colno}", exc.msg
        ) from None
    return document_from_mapping(obj)


def parse_spec(text_or_mapping) -> InnerFunctionSpec:
    if isinstance(text_or_mapping, str):
        return parse_document(text_or_mapping).spec
    return document_from_mapping(text_or_mapping).spec


def document_to_mapping(doc: SpecDocument) -> dict:
    spec, policy = doc.spec, doc.policy
    return {
        "constant_arg": spec.constant_arg,
        "zero_order": spec.zero_order,
        "zeros": [
            {"modulus": z.modulus, "argument": z.argument, "multiplicity": z.multiplicity}
            for z in spec.zeros
        ],
        "tails": [
            (
                {
                    "kind": "StolzGeometric",
                    "anchor_theta": t.anchor_theta,
                    "c": t.c,
                    "q": t.q,
                    "t": t.t,
                }
                if isinstance(t, StolzTail)
                else {
                    "kind": "TangentialSummable",
                    "anchor_theta": t.anchor_theta,
                    "side": t.side,
                    "rho": t.rho,
                }
            )
            for t in spec.tails
        ],
        "atoms": [{"theta": a.theta, "mass": a.mass} for a in spec.atoms],
        "truncation": {"tail_terms": policy.tail_terms, "phase_tol": policy.phase_tol},
    }


def render_document(doc: SpecDocument) -> str:
    return json.dumps(document_to_mapping(doc), indent=2) + "\n"
