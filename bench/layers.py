"""Per-layer tracing of suspvdp from outside the package.

`Tracer.install()` replaces the public functions and methods named in
`SPANS` with wrappers that count calls and accumulate self time: a span's
duration minus the time covered by the wrapped spans it called.  Hot leaf
calls (scalar arithmetic, polynomial evaluation) run millions of times, so
every span is aggregated per name in memory; nothing is written until
`Tracer.metrics()` is read at the end of the traced run.

A function bound elsewhere with `from .x import f` is replaced in every
loaded `suspvdp` module that holds it, and a method in every class slot
that aliases it (`__radd__ = __add__`), so no call path escapes the trace.

Counters that depend on arguments or results (matrix cells, RK steps,
certificate sizes) are computed by hooks that run outside the wrapped span.
Their time is charged to no layer, so the layers' self times plus
`cli.self_s` plus the hook time add up to the traced handler time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

# Counters that must agree exactly between two traced runs of the same code.
DETERMINISTIC = (
    "scalars.ops",
    "poly.mul.calls",
    "linalg.solve_columns.cells",
    "linalg.solve_columns.nonzeros",
    "linalg.exact_rank.cells",
    "linalg.exact_rank.nonzeros",
    "linalg.exact_rank.rank_sum",
    "lifts.lift.calls",
    "lifts.rk4_flow.steps",
    "fields.VectorField.evaluate_complex.calls",
    "certify.semicompat_certificate.products",
    "certify.semicompat_certificate.targets",
)


def _nonzeros(rows) -> int:
    return sum(1 for row in rows for x in row if not x.is_zero)


def _solve_columns_hook(args, kwargs, result, count):
    a, targets = args
    count("linalg.solve_columns.cells", a.nrows * (a.ncols + len(targets)))
    count("linalg.solve_columns.nonzeros",
          _nonzeros(a.entries) + _nonzeros(targets))
    count("linalg.solve_columns.targets", len(targets))
    count("linalg.solve_columns.solved",
          sum(1 for x in result if x is not None))


def _exact_rank_hook(args, kwargs, result, count):
    (m,) = args
    count("linalg.exact_rank.cells", m.nrows * m.ncols)
    count("linalg.exact_rank.nonzeros", _nonzeros(m.entries))
    count("linalg.exact_rank.rank_sum", result)


def _poly_mul_hook(args, kwargs, result, count):
    left, right = args
    if result is NotImplemented:
        return
    right_terms = len(right.terms) if hasattr(right, "terms") else 1
    count("poly.mul.term_pairs", len(left.terms) * right_terms)


def _rk4_hook(args, kwargs, result, count):
    from suspvdp.lifts import rk4_flow
    bound = inspect.signature(rk4_flow).bind(*args, **kwargs)
    bound.apply_defaults()
    count("lifts.rk4_flow.steps", bound.arguments["steps"])


def _certificate_hook(args, kwargs, result, count):
    count("certify.semicompat_certificate.products", len(result.products))
    count("certify.semicompat_certificate.targets", len(result.targets))
    count("certify.semicompat_certificate.successes", int(result.success))


def _basepoint_hook(args, kwargs, result, count):
    found, report = result
    count("surface.basepoint_search.accepted", len(found))
    count("surface.basepoint_search.attempts", report.attempts)


def _dictionary_hook(args, kwargs, result, count):
    count("approx.build_dictionary.entries", len(result))


def _bytes_hook(name):
    def hook(args, kwargs, result, count):
        count(name, result.stat().st_size)
    return hook


# (span name, module, attribute path(s), counter hook).  The four scalar
# operators share one span: `scalars.ops` counts them together.
SPANS = (
    ("scalars", "suspvdp.scalars",
     ("GaussianRational.__mul__", "GaussianRational.__add__",
      "GaussianRational.__sub__", "GaussianRational.__truediv__"), None),
    ("poly.mul", "suspvdp.poly", ("Poly.__mul__",), _poly_mul_hook),
    ("poly.evaluate_exact", "suspvdp.poly", ("Poly.evaluate_exact",), None),
    ("poly.evaluate_complex", "suspvdp.poly", ("Poly.evaluate_complex",),
     None),
    ("linalg.solve_columns", "suspvdp.linalg", ("solve_columns",),
     _solve_columns_hook),
    ("linalg.exact_rank", "suspvdp.linalg", ("exact_rank",),
     _exact_rank_hook),
    ("fields.VectorField.evaluate_complex", "suspvdp.fields",
     ("VectorField.evaluate_complex",), None),
    ("fields.VectorField.apply", "suspvdp.fields", ("VectorField.apply",),
     None),
    ("fields.lie_bracket", "suspvdp.fields", ("lie_bracket",), None),
    ("surface.normal_form", "suspvdp.surface",
     ("SuspensionContext.normal_form",), None),
    ("surface.basepoint_search", "suspvdp.surface", ("basepoint_search",),
     _basepoint_hook),
    ("surface.tangent_basis", "suspvdp.surface", ("tangent_basis",), None),
    ("surface.sample_zero_fiber", "suspvdp.surface", ("sample_zero_fiber",),
     None),
    ("surface.smoothness_witness", "suspvdp.surface",
     ("smoothness_witness",), None),
    ("lifts.lift", "suspvdp.lifts", ("lift",), None),
    ("lifts.spanning_family", "suspvdp.lifts", ("spanning_family",), None),
    ("lifts.shear_pullback", "suspvdp.lifts", ("shear_pullback",), None),
    ("lifts.rk4_flow", "suspvdp.lifts", ("rk4_flow",), _rk4_hook),
    ("lifts.LiftedFlowMap.apply", "suspvdp.lifts", ("LiftedFlowMap.apply",),
     None),
    ("lifts.chart_jacobian_determinant", "suspvdp.lifts",
     ("chart_jacobian_determinant",), None),
    ("certify.semicompat_certificate", "suspvdp.certify",
     ("semicompat_certificate",), _certificate_hook),
    ("certify.monomial_closure", "suspvdp.certify", ("monomial_closure",),
     None),
    ("certify.lift_pair", "suspvdp.certify", ("lift_pair",), None),
    ("certify.spanning_rank", "suspvdp.certify", ("spanning_rank",), None),
    ("approx.build_dictionary", "suspvdp.approx", ("build_dictionary",),
     _dictionary_hook),
    ("approx.fit_field", "suspvdp.approx", ("fit_field",), None),
    ("approx.residual_curve", "suspvdp.approx", ("residual_curve",), None),
    ("approx.flow_deviation_audit", "suspvdp.approx",
     ("flow_deviation_audit",), None),
    ("approx.volume_audit", "suspvdp.approx", ("volume_audit",), None),
    ("scenario.load_scenario", "suspvdp.scenario", ("load_scenario",), None),
    ("report.write_json", "suspvdp.report", ("write_json",),
     _bytes_hook("report.write_json.bytes")),
    ("report.write_delimited", "suspvdp.report", ("write_delimited",),
     _bytes_hook("report.write_delimited.bytes")),
)


# Hook counters reported as they are; the others only feed the ratios.
COUNTERS = (
    "poly.mul.term_pairs",
    "linalg.solve_columns.cells",
    "linalg.solve_columns.nonzeros",
    "linalg.exact_rank.cells",
    "linalg.exact_rank.nonzeros",
    "linalg.exact_rank.rank_sum",
    "lifts.rk4_flow.steps",
    "certify.semicompat_certificate.products",
    "certify.semicompat_certificate.targets",
    "approx.build_dictionary.entries",
    "report.write_json.bytes",
    "report.write_delimited.bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Call counts, self times and counters of the wrapped layers."""

    def __init__(self):
        self.stats: dict[str, list] = {}       # name -> [calls, self_s]
        self.counters: dict[str, int] = {}
        self.hook_s = 0.0
        self._stack = [0.0]                    # child time of open spans

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name, fn, hook):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt
            if hook is not None:
                h0 = clock()
                hook(args, kwargs, result, tracer.count)
                hd = clock() - h0
                stack[-1] += hd
                tracer.hook_s += hd
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every span in every loaded suspvdp module that binds it."""
        for name, module_name, attrs, hook in SPANS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                owner_path, _, leaf = attr.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                fn = vars(owner)[leaf]
                wrapper = self._wrap(name, fn, hook)
                holders = [owner]
                if owner is module:
                    holders = [m for key, m in list(sys.modules.items())
                               if key.partition(".")[0] == "suspvdp"]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)

    def run(self, fn, *args):
        """Call `fn` as the traced root; returns (result, seconds)."""
        self._stack[:] = [0.0]
        t0 = time.perf_counter()
        result = fn(*args)
        self.handler_s = time.perf_counter() - t0
        self.root_self_s = self.handler_s - self._stack[0]
        return result, self.handler_s

    def metrics(self) -> dict[str, float]:
        """Flat per-layer metrics of the finished traced run."""
        out: dict[str, float] = {}
        for name, _, _, _ in SPANS:
            calls, self_s = self.stats.get(name, (0, 0.0))
            out["scalars.ops" if name == "scalars" else f"{name}.calls"] = \
                calls
            out[name + ".self_s"] = self_s
        c = self.counters.get
        out.update({name: c(name, 0) for name in COUNTERS})
        out.update({
            "linalg.solve_columns.solved_ratio": _ratio(
                c("linalg.solve_columns.solved", 0),
                c("linalg.solve_columns.targets", 0)),
            "certify.semicompat_certificate.success_ratio": _ratio(
                c("certify.semicompat_certificate.successes", 0),
                self.stats["certify.semicompat_certificate"][0]),
            "surface.basepoint_search.accept_ratio": _ratio(
                c("surface.basepoint_search.accepted", 0),
                c("surface.basepoint_search.attempts", 0)),
            "cli.handler_s": self.handler_s,
            "cli.self_s": self.root_self_s,
            "cli.attributed_ratio": _ratio(
                sum(s for _, s in self.stats.values()),
                self.handler_s - self.hook_s),
        })
        return out
