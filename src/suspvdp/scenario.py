"""Scenario files: one self-contained text description of a surface, the
base-field pairs with their kernels and ideals, sampling, and per-command
options.

The format is line oriented.  `key = value` pairs live either at the top
(n, f) or inside a `[section]`; `[pair]` may repeat, every other section
appears at most once.  `#` starts a comment.  Polynomial values are
canonicalized during parsing, so printing a parsed scenario yields a
canonical text and parsing that text gives back an equal Scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .certify import PairSpec
from .fields import VectorField
from .lifts import twist_field
from .poly import ParseError
from .surface import (NotTangentError, SamplingError, SamplingSpec,
                      SuspensionContext, SuspensionError,
                      divergence_on_suspension, make_suspension,
                      tangent_field)


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
class PairScenario:
    alpha: tuple[str, ...]
    beta: tuple[str, ...]
    kernel_alpha: tuple[str, ...] = ()
    kernel_beta: tuple[str, ...] = ()
    ideal: tuple[str, ...] = ()


@dataclass(frozen=True)
class ApproxScenario:
    target: str = "twist"
    curve_degrees: tuple[int, ...] = (0, 1, 2)


@dataclass(frozen=True)
class FlowScenario:
    field: tuple[str, ...]
    side: str = "u"
    time: str = "1"


@dataclass(frozen=True)
class Scenario:
    n: int
    f: str
    pairs: tuple[PairScenario, ...]
    count: int = 20
    seed: int = 0
    region: tuple[str, str] = ("-2", "2")
    exactness: str = "exact"
    degree_bound: int = 3
    assume_cohomology: bool | None = None
    approx: ApproxScenario = ApproxScenario()
    flow: FlowScenario | None = None

    # -- adapters into the library ----------------------------------------

    def context(self) -> SuspensionContext:
        return make_suspension(self.n, self.f)

    def pair_specs(self, ctx: SuspensionContext) -> list[PairSpec]:
        out = []
        for p in self.pairs:
            out.append(PairSpec(
                alpha=VectorField.from_texts(ctx.base_ring, p.alpha),
                beta=VectorField.from_texts(ctx.base_ring, p.beta),
                kernel_alpha=tuple(ctx.parse_base(t) for t in p.kernel_alpha),
                kernel_beta=tuple(ctx.parse_base(t) for t in p.kernel_beta),
                ideal=tuple(ctx.parse_base(t) for t in p.ideal)))
        return out

    def sampling_spec(self, count=None, seed=None, exactness=None) -> SamplingSpec:
        return SamplingSpec(
            count=self.count if count is None else count,
            seed=self.seed if seed is None else seed,
            region=(Fraction(self.region[0]), Fraction(self.region[1])),
            exactness=self.exactness if exactness is None else exactness)

    def approx_target_field(self, ctx: SuspensionContext):
        return _parse_target(self.approx.target, ctx)[1]

    def flow_scenario(self) -> FlowScenario:
        if self.flow is not None:
            return self.flow
        return FlowScenario(field=self.pairs[0].alpha, side="u", time="1")


def _bool_text(v: bool | None) -> str:
    return "unknown" if v is None else ("true" if v else "false")


def scenario_to_text(s: Scenario) -> str:
    lines = [f"n = {s.n}", f"f = {s.f}", ""]
    for p in s.pairs:
        lines += ["[pair]",
                  f"alpha = [{', '.join(p.alpha)}]",
                  f"beta = [{', '.join(p.beta)}]",
                  f"kernel_alpha = {'; '.join(p.kernel_alpha)}",
                  f"kernel_beta = {'; '.join(p.kernel_beta)}",
                  f"ideal = {'; '.join(p.ideal)}", ""]
    lines += ["[sampling]",
              f"count = {s.count}",
              f"seed = {s.seed}",
              f"region = {s.region[0]} .. {s.region[1]}",
              f"exactness = {s.exactness}", ""]
    lines += ["[options]",
              f"degree_bound = {s.degree_bound}",
              f"assume_cohomology = {_bool_text(s.assume_cohomology)}", ""]
    lines += ["[approx]",
              f"target = {s.approx.target}",
              "curve_degrees = " +
              ", ".join(str(d) for d in s.approx.curve_degrees)]
    if s.flow is not None:
        lines += ["", "[flow]",
                  f"field = [{', '.join(s.flow.field)}]",
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


def _split_list(text: str, sep: str) -> list[str]:
    parts = [p.strip() for p in text.split(sep)]
    return [p for p in parts if p]


def _int_value(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{key} needs an integer, got {raw!r}", line)


def _parse_poly(text: str, ring, line: int | None, offset: int):
    try:
        return ring.parse(text)
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
    try:
        ctx = make_suspension(n, raw_f)
    except ParseError as exc:
        raise ScenarioError(exc.message, f_line, f_off + exc.column - 1)
    except SuspensionError as exc:
        raise ScenarioError(str(exc), f_line)
    f_text = str(ctx.f_base)

    pairs: list[PairScenario] = []
    sampling = SamplingSpec()
    degree_bound, assume = 3, None
    approx = ApproxScenario()
    flow = None

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
            approx = _build_approx(body, ctx, approx)
        elif name == "flow":
            flow = _build_flow(body, ctx, header_line)

    if not pairs:
        raise ScenarioError(f"no [pair] section in {source}")
    return Scenario(n=n, f=f_text, pairs=tuple(pairs), count=sampling.count,
                    seed=sampling.seed, region=tuple(map(str, sampling.region)),
                    exactness=sampling.exactness, degree_bound=degree_bound,
                    assume_cohomology=assume, approx=approx, flow=flow)


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
    parts = [p.strip() for p in inner.split(",")] if inner.strip() else []
    if len(parts) != expected:
        raise ScenarioError(
            f"{key} needs {expected} coefficients, got {len(parts)}", line)
    return tuple(_parse_poly(p, ring, line, offset) for p in parts)


def _build_pair(body, ctx, header_line) -> PairScenario:
    raw_a, line_a, off_a = _require(body, "alpha", "[pair]", header_line)
    raw_b, line_b, off_b = _require(body, "beta", "[pair]", header_line)
    alpha = _coeff_list(raw_a, line_a, off_a, ctx.n, ctx.base_ring, "alpha")
    beta = _coeff_list(raw_b, line_b, off_b, ctx.n, ctx.base_ring, "beta")

    def polys(key):
        if key not in body:
            return ()
        raw, line, off = body[key]
        return tuple(str(_parse_poly(t, ctx.base_ring, line, off))
                     for t in _split_list(raw, ";"))

    return PairScenario(alpha=tuple(map(str, alpha)),
                        beta=tuple(map(str, beta)),
                        kernel_alpha=polys("kernel_alpha"),
                        kernel_beta=polys("kernel_beta"),
                        ideal=polys("ideal"))


def _build_approx(body, ctx, default: ApproxScenario) -> ApproxScenario:
    target = default.target
    degrees = default.curve_degrees
    if "target" in body:
        raw, line, off = body["target"]
        target = _parse_target(raw, ctx, line, off)[0]
    if "curve_degrees" in body:
        raw, line, _ = body["curve_degrees"]
        try:
            degrees = tuple(int(p) for p in _split_list(raw, ","))
        except ValueError:
            raise ScenarioError("curve_degrees must be integers", line)
        if not degrees or any(d < 0 for d in degrees):
            raise ScenarioError("curve_degrees must be nonnegative and "
                                "nonempty", line)
    return ApproxScenario(target=target, curve_degrees=degrees)


def _build_flow(body, ctx, header_line) -> FlowScenario:
    raw, line, off = _require(body, "field", "[flow]", header_line)
    field = tuple(map(str, _coeff_list(raw, line, off, ctx.n, ctx.base_ring,
                                       "field")))
    side = "u"
    time = "1"
    if "side" in body:
        side, sline = body["side"][0], body["side"][1]
        if side not in ("u", "v"):
            raise ScenarioError("side must be 'u' or 'v'", sline)
    if "time" in body:
        raw_t, tline = body["time"][0], body["time"][1]
        try:
            time = str(Fraction(raw_t))
        except (ValueError, ZeroDivisionError):
            raise ScenarioError("time must be a rational number", tline)
    return FlowScenario(field=field, side=side, time=time)


def _parse_target(raw: str, ctx, line: int | None = None, offset: int = 0):
    """The canonical text of an [approx] target and its tangent field:
    `twist`, `twist(h)` with h on the base, or a bracketed list of ambient
    coefficients, which must be tangent and volume preserving.  The
    canonical text parses back to the same field."""
    if raw == "twist":
        return raw, tangent_field(twist_field(ctx, ctx.base_ring.one()), ctx)
    if raw.startswith("twist(") and raw.endswith(")"):
        h = _parse_poly(raw[len("twist("):-1], ctx.base_ring, line,
                        offset + len("twist("))
        return f"twist({h})", tangent_field(twist_field(ctx, h), ctx)
    coeffs = _coeff_list(raw, line, offset, ctx.ring.nvars, ctx.ring, "target")
    try:
        sf = tangent_field(VectorField(ctx.ring, coeffs), ctx)
    except NotTangentError:
        raise ScenarioError("approx target is not tangent to the surface",
                            line)
    if not divergence_on_suspension(sf, ctx).is_zero:
        raise ScenarioError("approx target is not volume preserving", line)
    return "[" + ", ".join(map(str, coeffs)) + "]", sf


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
