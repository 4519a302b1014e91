"""Report writers: deterministic JSON documents, delimiter-separated
tables, and SVG figures.

JSON, the tables and the figures must be byte-identical for identical
scenario and seed, so nothing time- or environment-dependent goes into
them (timings travel in a separate sidecar file that makes no
determinism promise).  Figures are SVG text that any viewer draws, and
are rendered only from the command-line report path.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path
from typing import Sequence


def jsonable(value):
    """Recursively coerce exact scalars, complex numbers and other
    library objects into JSON-safe values, keeping ints and finite floats
    as numbers."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, complex):
        return format_complex(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return str(value)


def format_complex(c: complex) -> str:
    return repr(c.real) if c.imag == 0 else f"{c.real!r}{c.imag:+}j"


def write_json(path, payload) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(jsonable(payload), sort_keys=True, indent=2)
    path.write_text(text + "\n")
    return path


def write_delimited(path, header: Sequence[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return path


def _cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, complex):
        return format_complex(v)
    return v


# ---------------------------------------------------------------------------
# figures: SVG text

_SIZE = (640, 440)
_FRAME = (110, 40, 620, 370)        # plot area: left, top, right, bottom
_LOG_FLOOR = 1e-17                  # zeros are clamped here on log axes
_GRID, _BLUE, _ORANGE = "#dddddd", "#1f77b4", "#ff7f0e"
_BAR, _RED = "#4477aa", "#cc3311"
_FONT_SIZE, _ADVANCE = 20, 12       # monospace glyphs advance 0.6 em


def _axis(lo, hi, p0, p1, log=False):
    """Map data onto pixels p0..p1; [lo, hi] holds exponents when `log`."""
    def to_pixel(v):
        u = math.log10(v) if log else v
        return p0 + round((u - lo) / (hi - lo) * (p1 - p0))
    return to_pixel


def _int_ticks(lo, hi) -> list[int]:
    """About six integers in [lo, hi], spaced 1, 2, 5, 10, 20, ..."""
    steps = (m * 10 ** e for e in itertools.count() for m in (1, 2, 5))
    step = next(s for s in steps if (hi - lo) / s <= 6)
    return list(range(math.ceil(lo / step) * step,
                      math.floor(hi / step) * step + 1, step))


def _element(tag, text=None, **attrs) -> str:
    """One SVG element, its text escaped; `stroke_width` -> stroke-width."""
    pairs = "".join(f' {k.replace("_", "-")}="{v}"' for k, v in attrs.items())
    if text is None:
        return f"<{tag}{pairs}/>"
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<{tag}{pairs}>{text}</{tag}>"


def _line(x0, y0, x1, y1, color, width=2, dash=False) -> str:
    extra = {"stroke_dasharray": 8} if dash else {}
    return _element("line", x1=x0, y1=y0, x2=x1, y2=y1, stroke=color,
                    stroke_width=width, **extra)


def _marker(x, y, shape, color) -> str:
    """A filled disc ("o") or square ("s") of radius 4 around (x, y)."""
    if shape == "s":
        return _element("rect", x=x - 4, y=y - 4, width=8, height=8,
                        fill=color)
    return _element("circle", cx=x, cy=y, r=4, fill=color)


def _plot(path, xs, xlabel, ylabel, *, log, series=(), bars=(), hline=None,
          xticks=None) -> None:
    """Draw one figure and write it to `path` as SVG.

    `series` holds (ys, colour, marker, legend label or None) lines; `bars`
    holds one height per x; `hline` is (value, legend label).  Log y axes
    clamp zeros to 1e-17; non-finite values are left out of the figure.
    Text is monospace, so a label is `_ADVANCE` pixels per character wide.
    """
    left, top, right, bottom = _FRAME

    xlo, xhi = min(xs), max(xs)
    pad = max((xhi - xlo) * 0.05, 0.6)
    xlo, xhi = xlo - pad, xhi + pad
    xmap = _axis(xlo, xhi, left, right)

    values = [v for ys, *_ in series for v in ys] + list(bars)
    if hline is not None:
        values.append(hline[0])
    values = [v for v in values if math.isfinite(v)]
    if log:
        exps = [math.log10(max(v, _LOG_FLOOR)) for v in values] or [0.0]
        ylo, yhi = math.floor(min(exps) - 0.1), math.ceil(max(exps) + 0.1)
        every = math.ceil((yhi - ylo) / 6)
        yticks = [(10.0 ** k, f"1e{k}") for k in range(ylo, yhi + 1)
                  if k % every == 0]
    else:
        ylo, yhi = 0, max(values + [1]) * 1.1
        yticks = [(k, str(k)) for k in _int_ticks(ylo, yhi)]
    ymap = _axis(ylo, yhi, bottom, top, log=log)
    xticks = [(t, str(t)) for t in (xticks or _int_ticks(xlo, xhi))]

    out = [_element("rect", width="100%", height="100%", fill="white")]
    if log:
        out += [_line(xmap(t), top, xmap(t), bottom, _GRID, width=1)
                for t, _ in xticks]
        out += [_line(left, ymap(t), right, ymap(t), _GRID, width=1)
                for t, _ in yticks]
    for x, h in zip(xs, bars):
        x0, y0, y1 = xmap(x - 0.4), ymap(h), ymap(0)
        out.append(_element("rect", x=x0, y=min(y0, y1),
                            width=xmap(x + 0.4) - x0, height=abs(y1 - y0),
                            fill=_BAR))
    legend = []
    if hline is not None:
        y = ymap(hline[0])
        out.append(_line(left, y, right, y, _RED, dash=True))
        legend.append((hline[1], _RED, None))
    for ys, color, shape, label in series:
        points = [(xmap(x), ymap(max(y, _LOG_FLOOR) if log else y))
                  for x, y in zip(xs, ys) if math.isfinite(y)]
        out.append(_element("polyline", points=" ".join(
            f"{x},{y}" for x, y in points), fill="none", stroke=color,
            stroke_width=2))
        out += [_marker(x, y, shape, color) for x, y in points]
        if label is not None:
            legend.append((label, color, shape))

    out.append(_element("rect", x=left, y=top, width=right - left,
                        height=bottom - top, fill="none", stroke="black"))
    edge = -math.inf
    for t, label in xticks:
        x = xmap(t)
        out.append(_line(x, bottom, x, bottom + 5, "black", width=1))
        half = _ADVANCE * len(label) // 2
        if x - half > edge + 8:             # drop labels that would overlap
            out.append(_element("text", label, x=x, y=bottom + 24,
                                text_anchor="middle"))
            edge = x + half
    for t, label in yticks:
        y = ymap(t)
        out.append(_line(left - 5, y, left, y, "black", width=1))
        out.append(_element("text", label, x=left - 10, y=y + 7,
                            text_anchor="end"))
    out.append(_element("text", xlabel, x=(left + right) // 2, y=bottom + 54,
                        text_anchor="middle"))
    mid = (top + bottom) // 2
    out.append(_element("text", ylabel, x=26, y=mid, text_anchor="middle",
                        transform=f"rotate(-90 26 {mid})"))

    x, y = right, top // 2
    for label, color, shape in reversed(legend):
        x -= 38 + _ADVANCE * len(label)
        out.append(_line(x, y, x + 28, y, color, dash=not shape))
        if shape:
            out.append(_marker(x + 14, y, shape, color))
        out.append(_element("text", label, x=x + 38, y=y + 7))
        x -= 24

    head = ('<svg xmlns="http://www.w3.org/2000/svg" width="{0}" height="{1}" '
            'viewBox="0 0 {0} {1}" font-family="monospace" font-size="{2}">'
            ).format(*_SIZE, _FONT_SIZE)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([head, *out, "</svg>"]) + "\n")


def render_curve_figure(path, rows) -> bool:
    """Residual curve: dictionary degree against sup residual."""
    if not rows:
        return False
    degrees = [r["degree"] for r in rows]
    _plot(path, degrees, "dictionary degree", "sup residual", log=True,
          series=[([r["sup_residual"] for r in rows], _BLUE, "o", None)],
          xticks=degrees)
    return True


def render_rank_figure(path, rows, full_rank: int) -> bool:
    """Spanning rank at each sampled point, with the full rank drawn as a
    reference line."""
    if not rows:
        return False
    _plot(path, range(len(rows)), "sample point index", "rank", log=False,
          bars=[r["rank"] for r in rows],
          hline=(full_rank, f"full rank {full_rank}"))
    return True


def render_flow_figure(path, rows) -> bool:
    """Flow audit: per-point deviation and chart determinant error."""
    if not rows:
        return False
    _plot(path, range(len(rows)), "sample point index", "error", log=True,
          series=[([r["deviation"] for r in rows], _BLUE, "o",
                   "flow deviation"),
                  ([r["det_error"] for r in rows], _ORANGE, "s", "|det - 1|")])
    return True
