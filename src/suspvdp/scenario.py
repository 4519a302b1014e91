"""Scenario files: one self-contained text description of a surface, the
base-field pairs with their kernels and ideals, sampling, and per-command
options.

The format is line oriented.  `key = value` pairs live either at the top
(n, f) or inside a `[section]`; `[pair]` may repeat, every other section
appears at most once.  `#` starts a comment.

Parsing builds the objects the library runs on, once: the suspension
context, one `PairSpec` per pair, the `SamplingSpec`, the `[approx]`
target as a checked tangent field and the `[flow]` field (by default the
first pair's alpha on side u at time 1).  Polynomial values are
canonicalized, so printing a parsed scenario yields a canonical text and
parsing that text gives back an equal Scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .certify import PairSpec
from .fields import VectorField
from .lifts import twist_field
from .poly import ParseError, PolyRing
from .surface import (NotTangentError, SamplingError, SamplingSpec,
                      SuspensionContext, SuspensionError,
                      divergence_on_suspension, make_suspension)


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None):
        self.message = message
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}"
            if column is not None:
                where += f", column {column}"
            where += ": "
        super().__init__(where + message)


@dataclass(frozen=True)
class ApproxScenario:
    target: str                  # canonical text: twist, twist(h) or [..]
    field: VectorField           # ambient, tangent to the surface
    curve_degrees: tuple[int, ...] = (0, 1, 2)


@dataclass(frozen=True)
class FlowScenario:
    field: VectorField           # on the base ring
    side: str = "u"
    time: Fraction = Fraction(1)


@dataclass(frozen=True)
class Scenario:
    ctx: SuspensionContext
    pairs: tuple[PairSpec, ...]
    sampling: SamplingSpec
    degree_bound: int
    assume_cohomology: bool | None
    approx: ApproxScenario
    flow: FlowScenario


def _bool_text(v: bool | None) -> str:
    return "unknown" if v is None else ("true" if v else "false")


def _coeff_text(field: VectorField) -> str:
    return "[" + ", ".join(map(str, field.coeffs)) + "]"


def scenario_to_text(s: Scenario) -> str:
    lines = [f"n = {s.ctx.n}", f"f = {s.ctx.f_base}", ""]
    for p in s.pairs:
        lines += ["[pair]",
                  f"alpha = {_coeff_text(p.alpha)}",
                  f"beta = {_coeff_text(p.beta)}",
                  f"kernel_alpha = {'; '.join(map(str, p.kernel_alpha))}",
                  f"kernel_beta = {'; '.join(map(str, p.kernel_beta))}",
                  f"ideal = {'; '.join(map(str, p.ideal))}", ""]
    lines += ["[sampling]",
              f"count = {s.sampling.count}",
              f"seed = {s.sampling.seed}",
              f"region = {s.sampling.region[0]} .. {s.sampling.region[1]}",
              f"exactness = {s.sampling.exactness}", ""]
    lines += ["[options]",
              f"degree_bound = {s.degree_bound}",
              f"assume_cohomology = {_bool_text(s.assume_cohomology)}", ""]
    lines += ["[approx]",
              f"target = {s.approx.target}",
              "curve_degrees = " +
              ", ".join(str(d) for d in s.approx.curve_degrees), ""]
    lines += ["[flow]",
              f"field = {_coeff_text(s.flow.field)}",
              f"side = {s.flow.side}",
              f"time = {s.flow.time}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing


_SECTIONS = ("pair", "sampling", "options", "approx", "flow")
_KEYS = {
    None: {"n", "f"},
    "pair": {"alpha", "beta", "kernel_alpha", "kernel_beta", "ideal"},
    "sampling": {"count", "seed", "region", "exactness"},
    "options": {"degree_bound", "assume_cohomology"},
    "approx": {"target", "curve_degrees"},
    "flow": {"field", "side", "time"},
}


def _items(text: str, sep: str, column: int = 1) -> list[tuple[str, int]]:
    """Each `sep`-separated item of `text`, stripped, with the column of
    its first character when `text` starts at `column`."""
    out = []
    for part in text.split(sep):
        out.append((part.strip(), column + len(part) - len(part.lstrip())))
        column += len(part) + len(sep)
    return out


def _int_value(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{key} needs an integer, got {raw!r}", line)


def _parse_poly(text: str, ring, line: int | None, offset: int):
    """`text` parsed with its terms in canonical order, the order its
    printed text parses back to, so that a scenario and its printed text
    evaluate with the same float sums."""
    try:
        return ring.parse(str(ring.parse(text)))
    except ParseError as exc:
        raise ScenarioError(exc.message, line, offset + exc.column - 1)


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse and validate; every reported error carries the source line."""
    top: dict[str, tuple[str, int, int]] = {}
    sections: list[tuple[str, int, dict]] = []
    current: dict | None = None
    current_name: str | None = None

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        body = raw_line.split("#", 1)[0].rstrip()
        if not body.strip():
            continue
        stripped = body.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioError("unterminated section header", lineno)
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            if name != "pair" and any(n == name for n, _, _ in sections):
                raise ScenarioError(f"duplicate section [{name}]", lineno)
            current = {}
            current_name = name
            sections.append((name, lineno, current))
            continue
        if "=" not in body:
            raise ScenarioError("expected 'key = value'", lineno)
        key, _, value = body.partition("=")
        key = key.strip()
        offset = body.index("=") + 1 + (len(value) - len(value.lstrip())) + 1
        value = value.strip()
        allowed = _KEYS[current_name]
        if key not in allowed:
            where = f"section [{current_name}]" if current_name else "top level"
            raise ScenarioError(f"unknown key {key!r} at {where}", lineno)
        slot = top if current is None else current
        if key in slot:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        slot[key] = (value, lineno, offset)
    return _build(top, sections, source)


def _require(mapping, key, where, line=None):
    if key not in mapping:
        raise ScenarioError(f"missing {key!r} in {where}", line)
    return mapping[key]


def _build(top, sections, source) -> Scenario:
    raw_n, n_line, _ = _require(top, "n", "the top level")
    n = _int_value(raw_n, n_line, "n")
    if n < 1:
        raise ScenarioError("n must be at least 1", n_line)
    raw_f, f_line, f_off = _require(top, "f", "the top level")
    base_ring = PolyRing(tuple(f"z{j}" for j in range(1, n + 1)))
    try:
        ctx = make_suspension(n, _parse_poly(raw_f, base_ring, f_line, f_off))
    except SuspensionError as exc:
        raise ScenarioError(str(exc), f_line)

    pairs: list[PairSpec] = []
    sampling = SamplingSpec()
    degree_bound, assume = 3, None
    approx = flow = None

    for name, header_line, body in sections:
        if name == "pair":
            pairs.append(_build_pair(body, ctx, header_line))
        elif name == "sampling":
            sampling = _build_sampling(body)
        elif name == "options":
            if "degree_bound" in body:
                degree_bound = _int_value(body["degree_bound"][0],
                                          body["degree_bound"][1],
                                          "degree_bound")
                if degree_bound < 0:
                    raise ScenarioError("degree_bound must be nonnegative",
                                        body["degree_bound"][1])
            if "assume_cohomology" in body:
                raw, line = body["assume_cohomology"][:2]
                table = {"true": True, "false": False, "unknown": None}
                if raw not in table:
                    raise ScenarioError(
                        "assume_cohomology must be true, false or unknown",
                        line)
                assume = table[raw]
        elif name == "approx":
            approx = _build_approx(body, ctx)
        elif name == "flow":
            flow = _build_flow(body, ctx, header_line)

    if not pairs:
        raise ScenarioError(f"no [pair] section in {source}")
    return Scenario(ctx=ctx, pairs=tuple(pairs), sampling=sampling,
                    degree_bound=degree_bound, assume_cohomology=assume,
                    approx=approx or _build_approx({}, ctx),
                    flow=flow or FlowScenario(pairs[0].alpha))


def _build_sampling(body) -> SamplingSpec:
    """One `SamplingSpec` from the [sampling] keys, set one key at a time
    in file order, so a rule of `SamplingSpec` that fails is reported on
    the line of the key that broke it."""
    spec = SamplingSpec()
    for key, (raw, line, _) in body.items():
        value = (_region_bounds(raw, line) if key == "region" else
                 raw if key == "exactness" else _int_value(raw, line, key))
        try:
            spec = replace(spec, **{key: value})
        except SamplingError as exc:
            raise ScenarioError(str(exc), line)
    return spec


def _region_bounds(raw: str, line: int) -> tuple[Fraction, Fraction]:
    parts = raw.split("..")
    if len(parts) != 2:
        raise ScenarioError("region must look like 'lo .. hi'", line)
    try:
        return Fraction(parts[0].strip()), Fraction(parts[1].strip())
    except (ValueError, ZeroDivisionError):
        raise ScenarioError("region bounds must be rational numbers", line)


def _coeff_list(raw: str, line: int | None, offset: int, expected: int,
                ring, key: str) -> tuple:
    if not (raw.startswith("[") and raw.endswith("]")):
        raise ScenarioError(f"{key} must be a bracketed coefficient list",
                            line)
    inner = raw[1:-1]
    parts = _items(inner, ",", offset + 1) if inner.strip() else []
    if len(parts) != expected:
        raise ScenarioError(
            f"{key} needs {expected} coefficients, got {len(parts)}", line)
    return tuple(_parse_poly(p, ring, line, col) for p, col in parts)


def _build_pair(body, ctx, header_line) -> PairSpec:
    def field(key):
        raw, line, off = _require(body, key, "[pair]", header_line)
        return VectorField(ctx.base_ring, _coeff_list(raw, line, off, ctx.n,
                                                      ctx.base_ring, key))

    def polys(key):
        if key not in body:
            return ()
        raw, line, off = body[key]
        return tuple(_parse_poly(t, ctx.base_ring, line, col)
                     for t, col in _items(raw, ";", off) if t)

    return PairSpec(alpha=field("alpha"), beta=field("beta"),
                    kernel_alpha=polys("kernel_alpha"),
                    kernel_beta=polys("kernel_beta"),
                    ideal=polys("ideal"))


def _build_approx(body, ctx) -> ApproxScenario:
    """The [approx] section; without a target key the target is `twist`."""
    raw, line, off = body.get("target", ("twist", None, 0))
    target, field = _parse_target(raw, ctx, line, off)
    if "curve_degrees" not in body:
        return ApproxScenario(target, field)
    raw, line, _ = body["curve_degrees"]
    try:
        degrees = tuple(int(p) for p, _ in _items(raw, ",") if p)
    except ValueError:
        raise ScenarioError("curve_degrees must be integers", line)
    if not degrees or any(d < 0 for d in degrees):
        raise ScenarioError("curve_degrees must be nonnegative and "
                            "nonempty", line)
    return ApproxScenario(target, field, degrees)


def _build_flow(body, ctx, header_line) -> FlowScenario:
    raw, line, off = _require(body, "field", "[flow]", header_line)
    field = VectorField(ctx.base_ring, _coeff_list(raw, line, off, ctx.n,
                                                   ctx.base_ring, "field"))
    side = "u"
    time = Fraction(1)
    if "side" in body:
        side, sline = body["side"][0], body["side"][1]
        if side not in ("u", "v"):
            raise ScenarioError("side must be 'u' or 'v'", sline)
    if "time" in body:
        raw_t, tline = body["time"][0], body["time"][1]
        try:
            time = Fraction(raw_t)
        except (ValueError, ZeroDivisionError):
            raise ScenarioError("time must be a rational number", tline)
    return FlowScenario(field=field, side=side, time=time)


def _parse_target(raw: str, ctx, line: int | None, offset: int):
    """The canonical text of an [approx] target and its tangent field:
    `twist`, `twist(h)` with h on the base, or a bracketed list of ambient
    coefficients, which must be tangent and volume preserving.  The
    canonical text parses back to the same field."""
    if raw == "twist":
        return raw, twist_field(ctx, ctx.base_ring.one())
    if raw.startswith("twist(") and raw.endswith(")"):
        h = _parse_poly(raw[len("twist("):-1], ctx.base_ring, line,
                        offset + len("twist("))
        return f"twist({h})", twist_field(ctx, h)
    coeffs = _coeff_list(raw, line, offset, ctx.ring.nvars, ctx.ring, "target")
    theta = VectorField(ctx.ring, coeffs)
    try:
        div = divergence_on_suspension(theta, ctx)
    except NotTangentError:
        raise ScenarioError("approx target is not tangent to the surface",
                            line)
    if not div.is_zero:
        raise ScenarioError("approx target is not volume preserving", line)
    return _coeff_text(theta), theta


# ---------------------------------------------------------------------------
# bundled scenarios


def bundled_names() -> list[str]:
    root = resources.files("suspvdp") / "scenarios"
    return sorted(p.name[:-len(".scn")] for p in root.iterdir()
                  if p.name.endswith(".scn"))


def load_scenario(name_or_path: str) -> Scenario:
    """A filesystem path, or the name of a bundled scenario."""
    path = Path(name_or_path)
    if path.exists():
        return parse_scenario(path.read_text(), source=str(path))
    candidate = resources.files("suspvdp") / "scenarios" / f"{name_or_path}.scn"
    if candidate.is_file():
        return parse_scenario(candidate.read_text(),
                              source=f"bundled:{name_or_path}")
    raise ScenarioError(
        f"no scenario file or bundled scenario named {name_or_path!r} "
        f"(bundled: {', '.join(bundled_names())})")
