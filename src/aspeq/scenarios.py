"""Declarative scenario files: a domain, named curves, and command
parameters, loaded from JSON and validated field by field.

Schema:

    {
      "domain": {"lo": 0.0, "hi": 1.0, "unit": "$M"},
      "lotteries": [{"name": "f1", "kind": "scaled_beta",
                     "alpha": 2, "beta": 8}, ...],
      "utilities": [{"name": "u1", "kind": "exponential_normalized",
                     "gamma": 3}, ...],
      ... command-specific keys ...
    }

Each curve kind's parameter names are the keys of its class's `params`
map in curves; piecewise_linear takes its knots as [[x, value], ...].
Any other key on a curve entry (besides name and kind) is rejected, as
is any malformed or non-finite value; errors carry the JSON path of the
offending field. An optional "published" list of {"key", "value",
"tolerance"} entries rides along for the comparison block in CLI output:
key is a string naming a computed quantity (e.g. "eu:f1:u1"), tolerance
is optional. The entries are checked here, before anything is computed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Any

from .curves import CURVE_KINDS, Curve, CurveParameterError


class ScenarioError(ValueError):
    """Scenario file or object does not match the schema."""


@dataclass(frozen=True)
class NamedCurve:
    name: str
    curve: Curve


@dataclass(frozen=True)
class Scenario:
    lo: float
    hi: float
    unit: str
    lotteries: tuple[NamedCurve, ...]
    utilities: tuple[NamedCurve, ...]
    params: dict[str, Any] = field(default_factory=dict)
    published: tuple[tuple[str, float, float | None], ...] = ()  # (key, value, tolerance)

    def lottery(self, name: str) -> Curve:
        return _by_name(self.lotteries, name, "lotteries")

    def utility(self, name: str) -> Curve:
        return _by_name(self.utilities, name, "utilities")

    def lottery_names(self) -> list[str]:
        return [nc.name for nc in self.lotteries]

    def utility_names(self) -> list[str]:
        return [nc.name for nc in self.utilities]


def _by_name(entries: tuple[NamedCurve, ...], name: str, which: str) -> Curve:
    for nc in entries:
        if nc.name == name:
            return nc.curve
    known = ", ".join(nc.name for nc in entries)
    raise ScenarioError(f"{which}: no curve named {name!r} (have: {known})")


def finite_number(obj: Any, path: str) -> float:
    # json reads NaN and Infinity as floats, and integers of any size; no
    # parameter accepts them
    try:
        finite = not isinstance(obj, bool) and isinstance(obj, (int, float)) and math.isfinite(obj)
    except OverflowError:
        raise ScenarioError(
            f"{path}: expected a finite number, got an integer beyond float range"
        ) from None
    if not finite:
        raise ScenarioError(f"{path}: expected a finite number, got {obj!r}")
    return float(obj)


def _parse_curve(obj: Any, lo: float, hi: float, path: str) -> NamedCurve:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise ScenarioError(f"{path}.name: expected a nonempty string")
    kind = obj.get("kind")
    if kind not in CURVE_KINDS:
        known = ", ".join(sorted(CURVE_KINDS))
        raise ScenarioError(f"{path}.kind: unknown kind {kind!r} (have: {known})")
    cls = CURVE_KINDS[kind]
    extra = set(obj) - {"name", "kind"} - set(cls.params)
    if extra:
        raise ScenarioError(
            f"{path}: unexpected keys for kind {kind!r}: {sorted(extra)}"
        )
    optional = {f.name for f in fields(cls) if f.default is None}
    for json_name, ctor_name in cls.params.items():
        if json_name not in obj and ctor_name not in optional:
            raise ScenarioError(f"{path}.{json_name}: required for kind {kind!r}")
    kwargs: dict[str, Any] = {}
    for json_name, ctor_name in cls.params.items():
        if json_name not in obj:
            continue
        raw = obj[json_name]
        if json_name == "knots":
            if not isinstance(raw, list):
                raise ScenarioError(f"{path}.{json_name}: expected a list of [x, value]")
            pts = []
            for k, pair in enumerate(raw):
                if not isinstance(pair, list) or len(pair) != 2:
                    raise ScenarioError(
                        f"{path}.{json_name}[{k}]: expected a two-element [x, value]"
                    )
                pts.append(
                    (
                        finite_number(pair[0], f"{path}.{json_name}[{k}][0]"),
                        finite_number(pair[1], f"{path}.{json_name}[{k}][1]"),
                    )
                )
            kwargs[ctor_name] = tuple(pts)
        else:
            kwargs[ctor_name] = finite_number(raw, f"{path}.{json_name}")
    try:
        curve = cls(lo, hi, **kwargs)
    except CurveParameterError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return NamedCurve(name=name, curve=curve)


def _parse_curve_list(obj: Any, lo: float, hi: float, key: str) -> tuple[NamedCurve, ...]:
    if obj is None:
        return ()
    if not isinstance(obj, list):
        raise ScenarioError(f"{key}: expected a list")
    entries = tuple(_parse_curve(item, lo, hi, f"{key}[{i}]") for i, item in enumerate(obj))
    names = [nc.name for nc in entries]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ScenarioError(f"{key}: duplicate names {dupes}")
    return entries


def _parse_published(obj: Any) -> tuple[tuple[str, float, float | None], ...]:
    if not obj:
        return ()
    if not isinstance(obj, list):
        raise ScenarioError("published: expected a list")
    entries = []
    for i, entry in enumerate(obj):
        if not isinstance(entry, dict) or "key" not in entry or "value" not in entry:
            raise ScenarioError(f"published[{i}]: expected an object with key and value")
        if not isinstance(entry["key"], str):
            raise ScenarioError(f"published[{i}].key: expected a string")
        value = finite_number(entry["value"], f"published[{i}].value")
        tolerance = entry.get("tolerance")
        if tolerance is not None:
            tolerance = finite_number(tolerance, f"published[{i}].tolerance")
        entries.append((entry["key"], value, tolerance))
    return tuple(entries)


def parse_scenario(obj: Any) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario root: expected an object")
    domain = obj.get("domain")
    if not isinstance(domain, dict):
        raise ScenarioError("domain: expected an object with lo and hi")
    lo = finite_number(domain.get("lo"), "domain.lo")
    hi = finite_number(domain.get("hi"), "domain.hi")
    if lo >= hi:
        raise ScenarioError(f"domain: need lo < hi, got [{lo!r}, {hi!r}]")
    unit = domain.get("unit", "")
    if not isinstance(unit, str):
        raise ScenarioError("domain.unit: expected a string")
    lotteries = _parse_curve_list(obj.get("lotteries"), lo, hi, "lotteries")
    utilities = _parse_curve_list(obj.get("utilities"), lo, hi, "utilities")
    params = {
        k: v
        for k, v in obj.items()
        if k not in ("domain", "lotteries", "utilities")
    }
    return Scenario(
        lo=lo, hi=hi, unit=unit, lotteries=lotteries, utilities=utilities, params=params,
        published=_parse_published(obj.get("published")),
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal too long to convert
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    return parse_scenario(obj)
