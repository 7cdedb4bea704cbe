"""JSON serialization for nerves, covered complexes, cochains, chart
assignments, and checker bundles.

Conventions:
* rationals are serialized as "p/q" strings (or bare integer strings);
* floating reals as JSON numbers; in a cochain, a JSON integer is read as
  an int, so that it stays exact beside "p/q" strings;
* nerves as their indices and sorted maximal faces;
* faces and simplices as comma-joined strings of their vertex/index labels
  ("0,2,3") used as object keys;
* complex matrices as nested lists of [re, im] pairs;
* unit complex results as "re,im" with 17 significant digits.
"""

from __future__ import annotations

import json
from fractions import Fraction
from re import fullmatch
from sys import float_info
from typing import TYPE_CHECKING

from .deligne import DeligneCochain
from .holonomy import ChartAssignment
from .nerve import ComplexError, CoverNerve, CoveredComplex, make_nerve, vertex_star_cover

if TYPE_CHECKING:  # numpy (also behind checkers) is imported only on use
    import numpy as np

    from .checkers import GerbeModuleData


class SerializationError(ValueError):
    pass


def number_to_json(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return float(x)


def number_from_json(v):
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool):  # json reads true and false as a bool, an int subclass
        raise SerializationError(f"JSON value {json.dumps(v)} is not a number")
    if not abs(v) <= float_info.max:  # json reads 1e400 as inf
        raise SerializationError(f"number {v!r} in JSON input overflows a float")
    return float(v)


def _key_to_tuple(key):
    return tuple(int(part) for part in key.split(","))


def field_from_json(doc: dict) -> dict:
    """A per-simplex field: simplex key -> number."""
    return {_key_to_tuple(k): number_from_json(v) for k, v in doc.items()}


def _tuple_to_key(t):
    return ",".join(str(x) for x in t)


def format_unit_complex(z: complex) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


# -- nerves -----------------------------------------------------------------


def nerve_to_json(nerve: CoverNerve) -> dict:
    """The indices and the sorted maximal faces; every subset of a listed
    face is a face, so a nerve of 2^43 - 1 faces writes one list."""
    return {
        "indices": list(nerve.indices),
        "faces": [list(f) for f in nerve.maximal_faces],
    }


def nerve_from_json(doc: dict) -> CoverNerve:
    try:
        return make_nerve(doc["indices"], [tuple(f) for f in doc["faces"]])
    except (KeyError, TypeError, ComplexError) as exc:
        raise SerializationError(f"bad nerve document: {exc}") from exc


# -- covered complexes ------------------------------------------------------


def complex_to_json(cc: CoveredComplex) -> dict:
    return {
        "dim": cc.dim,
        "triangles": [list(t) for t in cc.triangles],
        "tetrahedra": [list(t) for t in cc.tetrahedra],
        "coords": {str(v): list(p) for v, p in cc.coords.items()},
        "charts": {
            _tuple_to_key(s): sorted(ch) for s, ch in sorted(cc.charts.items())
        },
    }


def complex_from_json(doc: dict) -> CoveredComplex:
    try:
        cc = CoveredComplex(
            dim=doc["dim"],
            triangles=[tuple(t) for t in doc["triangles"]],
            tetrahedra=[tuple(t) for t in doc.get("tetrahedra", [])],
            charts={
                _key_to_tuple(k): frozenset(v)
                for k, v in doc.get("charts", {}).items()
            },
            coords={
                int(v): tuple(map(number_from_json, p))
                for v, p in doc.get("coords", {}).items()
            },
        )
    except (KeyError, TypeError, ComplexError) as exc:
        raise SerializationError(f"bad complex document: {exc}") from exc
    if not cc.charts:
        cc = vertex_star_cover(cc)
    return cc


# -- Deligne cochains -------------------------------------------------------


def _value_to_json(val):
    if isinstance(val, dict):
        return {"per-simplex": {_tuple_to_key(s): number_to_json(x)
                                for s, x in sorted(val.items())}}
    return number_to_json(val)


def _cochain_number(v):
    """``number_from_json``, but a JSON integer stays an int: ``Layout.pack``
    promotes it to a ``Fraction`` beside ``Fraction``s, else to a float."""
    x = number_from_json(v)
    return v if type(v) is int else x


def _value_from_json(v):
    if isinstance(v, dict):
        return {
            _key_to_tuple(k): _cochain_number(x)
            for k, x in v["per-simplex"].items()
        }
    return _cochain_number(v)


def cochain_to_json(c: DeligneCochain, include_spaces=True) -> dict:
    doc = {
        "degree": c.degree,
        "level": c.level,
        "components": [
            {_tuple_to_key(f): _value_to_json(v) for f, v in sorted(comp.items())}
            for comp in c.components
        ],
    }
    if include_spaces:
        doc["nerve"] = nerve_to_json(c.nerve)
        if c.complex is not None:
            doc["complex"] = complex_to_json(c.complex)
    return doc


def cochain_from_json(doc: dict, nerve=None, complex=None) -> DeligneCochain:
    try:
        for key in ("degree", "level"):
            if type(doc[key]) is not int:
                raise SerializationError(f"bad cochain document: {key} must be an integer")
        if nerve is None:
            nerve = nerve_from_json(doc["nerve"])
        if complex is None and "complex" in doc:
            complex = complex_from_json(doc["complex"])
        comps = tuple(
            {_key_to_tuple(k): _value_from_json(v) for k, v in comp.items()}
            for comp in doc["components"]
        )
        return DeligneCochain(
            nerve=nerve, degree=doc["degree"], level=doc["level"],
            components=comps, complex=complex,
        )
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad cochain document: {exc}") from exc


# -- chart assignments ------------------------------------------------------


def assignment_to_json(asg: ChartAssignment) -> dict:
    return {
        "triangles": {_tuple_to_key(t): i for t, i in sorted(asg.triangle_chart.items())},
        "vertices": {str(v): i for v, i in sorted(asg.vertex_chart.items())},
    }


# keys as assignment_to_json writes them: str(v), and comma-joined vertices
_KEYS = {
    "triangles": ("triangle", r"-?[0-9]+(,-?[0-9]+)*", "comma-joined decimal integers"),
    "vertices": ("vertex", r"-?[0-9]+", "a decimal integer"),
}


def _chart_table(doc, name):
    """One map of an assignment document, with its keys and charts checked."""
    table = doc[name]
    if not isinstance(table, dict):
        raise SerializationError(f"bad assignment document: {name} must be an object")
    what, pattern, written = _KEYS[name]
    for key, chart in table.items():
        if not fullmatch(pattern, key):
            raise SerializationError(
                f"bad assignment document: {what} key {json.dumps(key)} is not {written}"
            )
        if type(chart) is not int:  # json reads true as a bool, 1.0 as a float
            raise SerializationError(
                f"bad assignment document: chart {json.dumps(chart)} of {what} {key} "
                "is not an integer"
            )
    return table


def assignment_from_json(doc: dict) -> ChartAssignment:
    try:
        triangles, vertices = _chart_table(doc, "triangles"), _chart_table(doc, "vertices")
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad assignment document: {exc}") from exc
    return ChartAssignment(
        triangle_chart={_key_to_tuple(k): i for k, i in triangles.items()},
        vertex_chart={int(v): i for v, i in vertices.items()},
    )


# -- matrices and checker bundles ------------------------------------------


def matrix_to_json(m) -> list:
    import numpy as np

    m = np.asarray(m, dtype=complex)
    return [[[x.real, x.imag] for x in row] for row in m]


def matrix_from_json(rows) -> np.ndarray:
    import numpy as np

    return np.array(
        [[complex(number_from_json(re), number_from_json(im)) for re, im in row]
         for row in rows]
    )


def module_bundle_to_json(c: DeligneCochain, data: GerbeModuleData) -> dict:
    return {
        "cochain": cochain_to_json(c),
        "rank": data.rank,
        "transitions": {
            _tuple_to_key(pair): {
                str(v): matrix_to_json(m) for v, m in sorted(per_v.items())
            }
            for pair, per_v in sorted(data.transitions.items())
        },
        "connections": {
            str(i): {
                _tuple_to_key(e): matrix_to_json(m) for e, m in sorted(per_e.items())
            }
            for i, per_e in sorted(data.connections.items())
        },
        "omega": {_tuple_to_key(t): float(x) for t, x in sorted(data.omega.items())},
    }


def module_bundle_from_json(doc: dict):
    from .checkers import GerbeModuleData

    try:
        c = cochain_from_json(doc["cochain"])
        data = GerbeModuleData(
            rank=doc["rank"],
            transitions={
                _key_to_tuple(pair): {
                    int(v): matrix_from_json(m) for v, m in per_v.items()
                }
                for pair, per_v in doc["transitions"].items()
            },
            connections={
                int(i): {
                    _key_to_tuple(e): matrix_from_json(m) for e, m in per_e.items()
                }
                for i, per_e in doc["connections"].items()
            },
            omega={
                _key_to_tuple(t): number_from_json(x) for t, x in doc["omega"].items()
            },
        )
        return c, data
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad module bundle document: {exc}") from exc


def equivariant_bundle_from_json(doc: dict):
    from .checkers import GroupActionOnCover

    try:
        nerve = nerve_from_json(doc["nerve"])
        action_doc = doc["action"]
        elements = tuple(action_doc["elements"])
        act = GroupActionOnCover(
            nerve=nerve,
            elements=elements,
            identity=action_doc["identity"],
            mult={
                (pair["of"][0], pair["of"][1]): pair["is"]
                for pair in action_doc["mult"]
            },
            index_maps={
                g: {int(k): v for k, v in action_doc["index_maps"][str(g)].items()}
                for g in elements
            },
        )
        xi = cochain_from_json(doc["xi"], nerve=nerve)
        a = {g: cochain_from_json(doc["a"][str(g)], nerve=nerve) for g in elements}
        b = {
            (g, h): cochain_from_json(doc["b"][f"{g}|{h}"], nerve=nerve)
            for g in elements
            for h in elements
        }
        return act, xi, a, b
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad equivariant bundle document: {exc}") from exc


def jandl_bundle_from_json(doc: dict):
    from .checkers import InvolutionOnCover

    try:
        nerve = nerve_from_json(doc["nerve"])
        invol = InvolutionOnCover(
            nerve=nerve,
            index_map={int(k): v for k, v in doc["involution"].items()},
        )
        xi = cochain_from_json(doc["xi"], nerve=nerve)
        a = cochain_from_json(doc["a"], nerve=nerve)
        phi = cochain_from_json(doc["phi"], nerve=nerve)
        return invol, xi, a, phi
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"bad involution bundle document: {exc}") from exc


def _reject_constant(name):
    raise SerializationError(f"non-finite number {name} in JSON input")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def dump_json(doc, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
