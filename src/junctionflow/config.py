"""Line-oriented configuration format for network experiments.

A config is a sequence of sections. Each ``[road]`` header opens one road
(declared incoming roads first, then outgoing); ``[run]`` and ``[viscous]``
each appear at most once. Inside a section every line is ``key = value``
with ``#`` comments. Example::

    [road]
    direction = in
    flux.family = quadratic-lwr
    flux.params = 1 1
    length = 1
    cells = 50
    initial = 0.3

    [road]
    direction = out
    flux.family = quadratic-lwr
    length = 1
    cells = 50
    initial.breakpoints = 0.5
    initial.values = 0.7 0.1

    [run]
    cfl = 0.9
    t_final = 0.25
    snapshots = 0.1 0.25
    outer_bc = absorbing

``initial`` accepts a bare number (constant data), ``constant <number>``,
or the breakpoints/values pair describing a piecewise-constant profile.
``outer_bc`` is ``absorbing`` or ``dirichlet v_1 ... v_k`` with one value
per road. Every number must be finite. All range and topology rules are
enforced at parse time with line-numbered diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, as_bounded, as_count, as_positive
from .fluxes import (Flux, custom_polynomial, quadratic_lwr,
                     symmetric_quadratic, tabulated)
from .junction import JunctionSpec
from .scheme import NetworkMesh, RunConfig, _cell_count

_ROAD_KEYS = {"direction", "flux.family", "flux.params", "flux.rho_min",
              "flux.rho_max", "flux.rho_crit", "flux.xs", "flux.ys",
              "length", "cells", "initial", "initial.breakpoints",
              "initial.values"}
_RUN_KEYS = {"cfl", "t_final", "snapshots", "outer_bc"}
_VISCOUS_KEYS = {"epsilon", "window"}


@dataclass(eq=False)
class RoadConfig:
    """One road of the network as declared in the config."""

    direction: str
    flux: Flux
    length: float
    cells: int
    initial: object  # float constant or (breakpoints, values) pair
    line: int


@dataclass(eq=False)
class ConfigDocument:
    """Validated configuration: roads in declaration order (incoming first),
    run settings with defaults filled, and the optional viscous block.
    ``dirichlet_values`` is None for absorbing outer ends."""

    roads: list[RoadConfig]
    cfl: float = 0.9
    t_final: float = 0.0
    snapshots: tuple[float, ...] = ()
    dirichlet_values: np.ndarray | None = None
    epsilon: float | None = None
    window: float | None = None
    run_line: int | None = None  # the [run] header, which run errors name

    @property
    def m(self) -> int:
        return sum(1 for r in self.roads if r.direction == "in")

    @property
    def n(self) -> int:
        return sum(1 for r in self.roads if r.direction == "out")


def _floats(text: str, line: int, key: str) -> list[float]:
    out = []
    for tok in text.split():
        try:
            out.append(float(tok))
        except ValueError:
            raise ConfigError(f"{key}: {tok!r} is not a number",
                              kind="syntax", line=line) from None
        if not math.isfinite(out[-1]):
            raise ConfigError(f"{key}: {tok!r} is not finite", kind="range",
                              line=line)
    return out


def _one_float(text: str, line: int, key: str) -> float:
    vals = _floats(text, line, key)
    if len(vals) != 1:
        raise ConfigError(f"{key} takes exactly one number",
                          kind="syntax", line=line)
    return vals[0]


def _checked(key: str, line: int, check, values: list[float], *bounds):
    """The values of ``key`` through ``check``, a range error on its line."""
    try:
        return [check(key, v, *bounds) for v in values]
    except ValueError as exc:
        raise ConfigError(str(exc), kind="range", line=line) from None


def _number(body: dict[str, tuple[str, int]], key: str, check, *bounds):
    """The one number of ``key`` through ``check``."""
    text, line = body[key]
    return _checked(key, line, check, [_one_float(text, line, key)],
                    *bounds)[0]


def _road_flux(raw: dict[str, tuple[str, int]], line: int) -> Flux:
    family_text, family_line = raw.get("flux.family",
                                       ("quadratic-lwr", line))
    family = family_text.strip()
    # an error names the line of the key whose value it refuses, or the
    # [road] header's where that key is not given
    params_line = _line_of(raw, "flux.params", line)

    def floats_of(key, default=None):
        if key not in raw:
            return default
        text, ln = raw[key]
        return _floats(text, ln, key)

    def float_of(key):
        if key not in raw:
            return None
        text, ln = raw[key]
        return _one_float(text, ln, key)

    try:
        if family == "quadratic-lwr":
            params = floats_of("flux.params", [])
            if len(params) > 2:
                raise ConfigError("flux.params for quadratic-lwr is "
                                  "'v [rho_max]'", kind="range",
                                  line=params_line)
            v = params[0] if params else 1.0
            rmax = params[1] if len(params) > 1 else 1.0
            return quadratic_lwr(v=v, rho_max=rmax)
        if family == "symmetric-quadratic":
            params = floats_of("flux.params", [])
            if len(params) > 1:
                raise ConfigError("flux.params for symmetric-quadratic "
                                  "is 'h'", kind="range", line=params_line)
            return symmetric_quadratic(params[0] if params else 1.0)
        if family == "custom-polynomial":
            coeffs = floats_of("flux.params")
            lo, hi, crit = (float_of("flux.rho_min"),
                            float_of("flux.rho_max"),
                            float_of("flux.rho_crit"))
            if coeffs is None or lo is None or hi is None or crit is None:
                raise ConfigError(
                    "custom-polynomial needs flux.params, flux.rho_min, "
                    "flux.rho_max and flux.rho_crit", kind="range", line=line)
            return custom_polynomial(coeffs, lo, hi, crit)
        if family == "tabulated":
            xs = floats_of("flux.xs")
            ys = floats_of("flux.ys")
            if xs is None or ys is None:
                raise ConfigError("tabulated needs flux.xs and flux.ys",
                                  kind="range", line=line)
            return tabulated(xs, ys)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), kind="range", line=_line_of(
            raw, _refused_flux_key(family, str(exc), raw), line)) from exc
    raise ConfigError(f"unknown flux family {family!r}",
                      kind="range", line=family_line)


def _line_of(raw: dict[str, tuple[str, int]], key: str, header: int) -> int:
    """The line of ``key``, or the section header's where it is not given."""
    return raw[key][1] if key in raw else header


def _refused_flux_key(family: str, message: str, raw) -> str:
    """The key whose value a flux constructor's error refuses: the
    flux.rho_* key a custom polynomial's error names, flux.xs where a
    table's nodes are too few or out of order and flux.ys for any other
    table error, else flux.params."""
    if family == "custom-polynomial":
        return next((f"flux.{name}" for name in ("rho_min", "rho_max",
                                                 "rho_crit")
                     if message.startswith(f"{name} ")), "flux.params")
    if family == "tabulated":
        few = len(raw["flux.xs"][0].split()) < 3
        return ("flux.xs" if few or message.endswith("increasing in x")
                else "flux.ys")
    return "flux.params"


def _road_initial(raw: dict[str, tuple[str, int]], flux: Flux, line: int):
    has_plain = "initial" in raw
    has_table = "initial.breakpoints" in raw or "initial.values" in raw
    if has_plain and has_table:
        raise ConfigError("give either initial or the breakpoints/values "
                          "pair, not both", kind="syntax", line=line)
    if has_plain:
        text, ln = raw["initial"]
        toks = text.split()
        if len(toks) == 2 and toks[0] == "constant":
            text = toks[1]
        return _checked("initial", ln, as_bounded,
                        [_one_float(text, ln, "initial")], flux.rho_min,
                        flux.rho_max)[0]
    if has_table:
        if "initial.breakpoints" not in raw or "initial.values" not in raw:
            raise ConfigError("initial.breakpoints and initial.values must "
                              "appear together", kind="syntax", line=line)
        bp_text, bp_line = raw["initial.breakpoints"]
        v_text, v_line = raw["initial.values"]
        bp = _floats(bp_text, bp_line, "initial.breakpoints")
        vals = _floats(v_text, v_line, "initial.values")
        if len(vals) != len(bp) + 1:
            raise ConfigError("initial.values needs one more entry than "
                              "initial.breakpoints", kind="range",
                              line=v_line)
        if len(bp) > 1 and np.any(np.diff(bp) <= 0):
            raise ConfigError("initial.breakpoints must be strictly "
                              "increasing", kind="range", line=bp_line)
        _checked("initial.values", v_line, as_bounded, vals, flux.rho_min,
                 flux.rho_max)
        return (np.asarray(bp), np.asarray(vals))
    raise ConfigError("road is missing initial data", kind="range", line=line)


def parse_config(text: str) -> ConfigDocument:
    """Parse and validate a config; raises ConfigError with a line number
    and a kind of syntax, unknown-key, range, or topology."""
    sections: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current: dict[str, tuple[str, int]] | None = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        stripped = rawline.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("unterminated section header",
                                  kind="syntax", line=lineno)
            name = stripped[1:-1].strip()
            if name not in ("road", "run", "viscous"):
                raise ConfigError(f"unknown section [{name}]",
                                  kind="unknown-key", line=lineno)
            current = {}
            sections.append((name, lineno, current))
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'",
                              kind="syntax", line=lineno)
        if current is None:
            raise ConfigError("assignment before any section header",
                              kind="syntax", line=lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        section_name = sections[-1][0]
        allowed = {"road": _ROAD_KEYS, "run": _RUN_KEYS,
                   "viscous": _VISCOUS_KEYS}[section_name]
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in [{section_name}]",
                              kind="unknown-key", line=lineno)
        if key in current:
            raise ConfigError(f"duplicate key {key!r}",
                              kind="syntax", line=lineno)
        current[key] = (value, lineno)

    roads: list[RoadConfig] = []
    doc = ConfigDocument(roads)
    seen = {"run": False, "viscous": False}
    bc_line = None
    for name, header_line, body in sections:
        if name == "road":
            roads.append(_parse_road(body, header_line))
        elif name == "run":
            if seen["run"]:
                raise ConfigError("duplicate [run] section",
                                  kind="syntax", line=header_line)
            seen["run"] = True
            bc_line = _parse_run(doc, body, header_line)
        else:
            if seen["viscous"]:
                raise ConfigError("duplicate [viscous] section",
                                  kind="syntax", line=header_line)
            seen["viscous"] = True
            _parse_viscous(doc, body, header_line)

    _validate_topology(doc, bc_line)
    return doc


def _parse_road(body: dict[str, tuple[str, int]], line: int) -> RoadConfig:
    if "direction" not in body:
        raise ConfigError("road needs a direction", kind="range", line=line)
    direction, dir_line = body["direction"]
    direction = direction.strip()
    if direction not in ("in", "out"):
        raise ConfigError("direction must be 'in' or 'out'",
                          kind="range", line=dir_line)
    flux = _road_flux(body, line)
    if "length" not in body or "cells" not in body:
        raise ConfigError("road needs length and cells",
                          kind="range", line=line)
    length = _number(body, "length", as_positive)
    cells = _number(body, "cells", lambda key, x: as_count(
        key, int(x) if x.is_integer() else x))  # 50.0 counts 50 cells
    initial = _road_initial(body, flux, line)
    return RoadConfig(direction, flux, length, cells, initial, line)


def _parse_run(doc: ConfigDocument, body: dict[str, tuple[str, int]],
               line: int) -> int | None:
    """Fill the run settings in doc; returns the line of ``outer_bc``, whose
    Dirichlet values only the topology check can count, or None."""
    doc.run_line = line
    if "cfl" in body:
        doc.cfl = _number(body, "cfl", as_positive, 1.0)
    if "t_final" in body:
        doc.t_final = _number(body, "t_final", as_bounded, 0.0)
    if "snapshots" in body:
        text, ln = body["snapshots"]
        doc.snapshots = tuple(_checked("snapshots", ln, as_bounded,
                                       _floats(text, ln, "snapshots"), 0.0,
                                       doc.t_final))
    if "outer_bc" in body:
        text, ln = body["outer_bc"]
        toks = text.split()
        if len(toks) > 1 and toks[0] == "dirichlet":
            doc.dirichlet_values = np.array(
                _floats(" ".join(toks[1:]), ln, "outer_bc"))
        elif toks != ["absorbing"]:
            raise ConfigError("outer_bc is 'absorbing' or "
                              "'dirichlet v_1 ... v_k'", kind="range",
                              line=ln)
        return ln
    return None


def _parse_viscous(doc: ConfigDocument, body: dict[str, tuple[str, int]],
                   line: int) -> None:
    if "epsilon" in body:
        doc.epsilon = _number(body, "epsilon", as_positive)
    if "window" in body:
        doc.window = _number(body, "window", as_positive)


def _validate_topology(doc: ConfigDocument, bc_line: int | None) -> None:
    roads = doc.roads
    if len(roads) < 2:
        raise ConfigError("need at least two roads", kind="topology",
                          line=roads[0].line if roads else None)
    m, n = doc.m, doc.n
    if m < 1 or n < 1:  # the last road would have to go out, the first in
        raise ConfigError("need at least one incoming and one outgoing road",
                          kind="topology", line=roads[-1 if n < 1 else 0].line)
    directions = [r.direction for r in roads]
    if directions != ["in"] * m + ["out"] * n:
        raise ConfigError("declare all incoming roads before outgoing ones",
                          kind="topology", line=roads[0].line)
    lo = roads[0].flux.rho_min
    hi = roads[0].flux.rho_max
    for r in roads[1:]:
        if r.flux.rho_min != lo or r.flux.rho_max != hi:
            raise ConfigError("all fluxes must share one density interval",
                              kind="topology", line=r.line)
    dx0 = roads[0].length / roads[0].cells
    for r in roads[1:]:
        dx = r.length / r.cells
        if abs(dx - dx0) > 1e-9 * dx0:
            raise ConfigError(
                f"cell width {dx:g} differs from the first road's {dx0:g}",
                kind="topology", line=r.line)
    if doc.dirichlet_values is not None:
        if doc.dirichlet_values.shape != (len(roads),):
            raise ConfigError("dirichlet needs one value per road",
                              kind="topology", line=bc_line)
        _checked("dirichlet value", bc_line, as_bounded,
                 doc.dirichlet_values.tolist(), lo, hi)


def build_spec(doc: ConfigDocument) -> JunctionSpec:
    """The junction of a document, for subcommands that need no mesh."""
    return JunctionSpec(doc.m, doc.n, tuple(r.flux for r in doc.roads))


def build_network(doc: ConfigDocument, dx: float | None = None):
    """Materialize (spec, mesh, initial data, run config) from a document:
    its own cells, or each road tiled by cells of width ``dx`` (``--dx``),
    the document's own mesh never built. A mesh or run too large to count
    (2**53 cells or steps) or to allocate is a range error."""
    spec = build_spec(doc)
    cells = [r.cells for r in doc.roads]
    mesh = None  # a run error names the [run] line, a mesh error none
    try:
        if dx is None:
            dx = doc.roads[0].length / cells[0]
        else:
            cells = [_cell_count("--dx", r.length, dx) for r in doc.roads]
        mesh = NetworkMesh(spec, dx, np.array(cells))
        run_config = RunConfig(mesh, doc.cfl, doc.t_final,
                               doc.dirichlet_values, doc.snapshots)
    except ValueError as exc:
        line = None if mesh is None else doc.run_line
        raise ConfigError(str(exc), kind="range", line=line) from None
    except MemoryError:
        raise ConfigError(f"a mesh of {sum(cells)} cells does not fit in "
                          f"memory", kind="range") from None
    return spec, mesh, [r.initial for r in doc.roads], run_config
