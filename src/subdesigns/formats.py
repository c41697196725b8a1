"""JSON / CSV / DOT serialization for towers, subspaces, designs and codes.

Field elements travel as nested little-endian digit arrays: an element
of F_{q^m} is m lists of h base-p digits (one list per coefficient in
the expansion basis 1, y, ..., y^(m-1)); an F_q scalar is one such
list.  Aliases like "i" or "w" are accepted on input paths only, never
emitted.  Dumps are canonical (sorted keys, fixed separators) so a
round trip is byte-stable, and subspace rows are re-canonicalized on
load and compared against the file.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from subdesigns.errors import FormatError
from subdesigns.fieldcore import DTYPE
from subdesigns.gf import FieldTower, make_tower
from subdesigns.design import SubspaceDesign
from subdesigns.strongbridge import StrongSubspaceDesign
from subdesigns.subspace import AmbientSpace, FqmSubspace, FqSubspace
from subdesigns.sumrank import SumRankCode


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# --- scalars -------------------------------------------------------------------


def _integer(value) -> int:
    """The int of a JSON integer or of a float with an integral value; a fraction, a bool,
    a string or any other value is a FormatError."""
    if type(value) is int:  # the common case, once per digit of every file
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise FormatError(f"{value!r} is not an integer")


def _fq_from_digits(p: int, h: int, digs) -> int:
    if len(digs) != h:
        raise FormatError(f"expected {h} base-p digits")
    c = 0
    for d in reversed(list(digs)):
        d = _integer(d)
        if not 0 <= d < p:
            raise FormatError("digit out of range")
        c = c * p + d
    return c


def element_to_json(tower: FieldTower, code: int) -> list[list[int]]:
    return [list(digs) for digs in tower.coeffs_from_code(int(code))]


def element_from_json(tower: FieldTower, obj) -> int:
    try:
        return tower.code_from_coeffs([[_integer(d) for d in digs] for digs in obj])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad element {obj!r}: {exc}") from exc


# --- tower ----------------------------------------------------------------------


def tower_to_json(tower: FieldTower) -> dict:
    return {
        "p": tower.p,
        "h": tower.h,
        "m": tower.m,
        "fq_modulus": list(tower.fq_modulus),
        "fqm_modulus": tower.fq.to_digits(list(tower.fqm_modulus)).tolist(),
        "expansion_basis": "powers-of-y",
    }


def tower_from_json(obj) -> FieldTower:
    try:
        p, h, m = _integer(obj["p"]), _integer(obj["h"]), _integer(obj["m"])
        fq_mod = tuple(_integer(c) for c in obj["fq_modulus"])
        fqm_mod = tuple(_fq_from_digits(p, h, digs) for digs in obj["fqm_modulus"])
        return make_tower(p, h, m, fq_modulus=fq_mod, fqm_modulus=fqm_mod)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad tower record: {exc}") from exc


# --- subspaces --------------------------------------------------------------------


def ambient_to_json(amb: AmbientSpace) -> dict:
    return {"tower": tower_to_json(amb.tower), "k": amb.k}


def ambient_from_json(obj) -> AmbientSpace:
    try:
        return AmbientSpace(tower_from_json(obj["tower"]), _integer(obj["k"]))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad ambient record: {exc}") from exc


def fq_subspace_rows(U: FqSubspace) -> list:
    return U.ambient.tower.fq.to_digits(U.basis).tolist()


def _element_rows(rows, width: int, read) -> np.ndarray:
    """The (len(rows), width) code array of a list of rows of JSON field elements, one read per entry."""
    if any(len(row) != width for row in rows):
        raise FormatError(f"rows must have {width} entries")
    return np.array([[read(e) for e in row] for row in rows], dtype=DTYPE).reshape(len(rows), width)


def _rows_to_fq_subspace(amb: AmbientSpace, rows) -> FqSubspace:
    t = amb.tower
    arr = _element_rows(rows, amb.n_fq, lambda digs: _fq_from_digits(t.p, t.h, digs))
    U = FqSubspace.from_expanded_rows(amb, arr)
    if not np.array_equal(U.basis, arr):
        raise FormatError("subspace rows are not in canonical reduced echelon form")
    return U


# --- designs ----------------------------------------------------------------------


def design_to_json(D: SubspaceDesign) -> dict:
    return {
        "ambient": ambient_to_json(D.ambient),
        "members": [fq_subspace_rows(U) for U in D.members],
    }


def design_from_json(obj) -> SubspaceDesign:
    try:
        amb = ambient_from_json(obj["ambient"])
        members = [_rows_to_fq_subspace(amb, rows) for rows in obj["members"]]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad design record: {exc}") from exc
    return SubspaceDesign(amb, members)


def strong_design_to_json(S: StrongSubspaceDesign) -> dict:
    t = S.ambient.tower
    return {
        "ambient": ambient_to_json(S.ambient),
        "members": [
            [[element_to_json(t, int(c)) for c in row] for row in V.basis] for V in S.members
        ],
    }


def strong_design_from_json(obj) -> StrongSubspaceDesign:
    try:
        amb = ambient_from_json(obj["ambient"])
        members = []
        for rows in obj["members"]:
            mat = _element_rows(rows, amb.k, lambda e: element_from_json(amb.tower, e))
            V = FqmSubspace.from_rows(amb, mat)
            if not np.array_equal(V.basis, mat):
                raise FormatError("strong-design rows are not canonical RREF")
            members.append(V)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad strong-design record: {exc}") from exc
    return StrongSubspaceDesign(amb, members)


def places_from_json(obj) -> tuple:
    """(q, m, members, p, zeta, k) of a places spec, members as lists of coefficient lists."""
    try:
        members = [[[_integer(cf) for cf in g] for g in gens] for gens in obj["members"]]
        q, m, zeta, k = (_integer(obj[key]) for key in ("q", "m", "zeta", "k"))
        return q, m, members, [_integer(cf) for cf in obj["p"]], zeta, k
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad places spec: {exc}") from exc


# --- codes -----------------------------------------------------------------------


def code_to_json(C: SumRankCode) -> dict:
    t = C.tower
    return {
        "tower": tower_to_json(t),
        "lengths": list(C.lengths),
        "generator": [[element_to_json(t, int(c)) for c in row] for row in C.generator],
    }


def code_from_json(obj) -> SumRankCode:
    try:
        tower = tower_from_json(obj["tower"])
        lengths = [_integer(n) for n in obj["lengths"]]
        G = _element_rows(obj["generator"], sum(lengths), lambda e: element_from_json(tower, e))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad code record: {exc}") from exc
    if not len(G):
        raise FormatError("generator shape does not match the length profile")
    return SumRankCode(tower, lengths, np.split(G, np.cumsum(lengths)[:-1], axis=1))


# --- CSV / DOT ---------------------------------------------------------------------


def histogram_csv(hist: dict[int, int], header: tuple[str, str] = ("weight", "count")) -> str:
    lines = [",".join(header)]
    for key in sorted(hist):
        lines.append(f"{key},{hist[key]}")
    return "\n".join(lines) + "\n"
