"""Report writers: deterministic JSON documents, delimiter-separated
tables, and PNG figures.

JSON, the tables and the figures must be byte-identical for identical
scenario and seed, so nothing time- or environment-dependent goes into
them (timings travel in a separate sidecar file that makes no
determinism promise).  Figures are drawn by a small rasteriser built on
`zlib` and `struct` alone, and are rendered only from the command-line
report path.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import struct
import zlib
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
# figures: a small PNG rasteriser on the standard library alone

_SIZE = (640, 440)
_FRAME = (110, 40, 620, 370)        # plot area: left, top, right, bottom
_LOG_FLOOR = 1e-17                  # zeros are clamped here on log axes
_INK, _PAPER, _GRID = (0, 0, 0), (255, 255, 255), (221, 221, 221)
_BLUE, _ORANGE = (0x1f, 0x77, 0xb4), (0xff, 0x7f, 0x0e)
_BAR, _RED = (0x44, 0x77, 0xaa), (0xcc, 0x33, 0x11)

# 5x7 glyphs for the characters the figures print: seven rows, top to
# bottom, each one base-32 digit whose five bits are the pixels left to
# right.  A character outside the table is drawn as a hollow box.
_FONT = {
    "0": "ehjlphe", "1": "4c4444e", "2": "eh1248v", "3": "v2421he",
    "4": "26aiv22", "5": "vgu11he", "6": "68guhhe", "7": "v124888",
    "8": "ehhehhe", "9": "ehhf12c", " ": "0000000", "-": "000v000",
    "|": "4444444", "a": "00e1fhf", "c": "00egghe", "d": "11djhhf",
    "e": "00ehvge", "f": "698s888", "g": "0fhhf1e", "i": "40c444e",
    "k": "ggikoki", "l": "c44444e", "m": "00qllhh", "n": "00mphhh",
    "o": "00ehhhe", "p": "00uhugg", "r": "00mpggg", "s": "00ege1u",
    "t": "88s8896", "u": "00hhhjd", "v": "00hhha4", "w": "00hhlla",
    "x": "00ha4ah", "y": "00hhf1e",
}
_BOX = "vhhhhhv"
_SCALE = 2                          # screen pixels per glyph pixel


class _Canvas:
    """An RGB raster with clipped box, line, marker and text drawing."""

    def __init__(self, width: int, height: int):
        self.width, self.height = width, height
        self.pixels = bytearray(bytes(_PAPER) * (width * height))

    def box(self, x0, y0, x1, y1, color):
        """Fill the box between two corners, both inclusive."""
        x0, x1 = max(min(x0, x1), 0), min(max(x0, x1), self.width - 1)
        y0, y1 = max(min(y0, y1), 0), min(max(y0, y1), self.height - 1)
        if x0 > x1:
            return
        run = bytes(color) * (x1 - x0 + 1)
        for y in range(y0, y1 + 1):
            i = 3 * (y * self.width + x0)
            self.pixels[i:i + len(run)] = run

    def line(self, x0, y0, x1, y1, color, width=2, dash=0):
        """Stroke a segment with square pens; `dash` is the on/off length."""
        n = max(abs(x1 - x0), abs(y1 - y0), 1)
        for k in range(n + 1):
            if dash and (k // dash) % 2:
                continue
            x = x0 + round((x1 - x0) * k / n)
            y = y0 + round((y1 - y0) * k / n)
            self.box(x, y, x + width - 1, y + width - 1, color)

    def marker(self, x, y, shape, color):
        """A filled disc ("o") or square ("s") of radius 4 around (x, y)."""
        r = 4
        for dy in range(-r, r + 1):
            half = r if shape == "s" else math.isqrt(r * r - dy * dy)
            self.box(x - half, y + dy, x + half, y + dy, color)

    def text(self, x, y, s, upward=False):
        """Draw `s` from its top-left corner at (x, y); upward text starts
        at its bottom-left corner and reads from bottom to top."""
        for c, ch in enumerate(s):
            for gy, row in enumerate(_FONT.get(ch, _BOX)):
                bits = int(row, 32)
                for gx in range(5):
                    if bits >> (4 - gx) & 1:
                        dx, dy = 6 * c + gx, gy
                        if upward:
                            dx, dy = gy, -dx - 1
                        px, py = x + _SCALE * dx, y + _SCALE * dy
                        self.box(px, py, px + _SCALE - 1, py + _SCALE - 1,
                                 _INK)

    def png(self) -> bytes:
        """The raster as 8-bit RGB PNG: unfiltered rows, fixed zlib level."""
        stride = 3 * self.width
        raw = b"".join(b"\0" + self.pixels[y * stride:(y + 1) * stride]
                       for y in range(self.height))
        header = struct.pack(">IIBBBBB", self.width, self.height,
                             8, 2, 0, 0, 0)      # 8-bit RGB, no interlace
        return (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", header)
                + _chunk(b"IDAT", zlib.compress(raw, 9))
                + _chunk(b"IEND", b""))


def _chunk(kind: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + kind + data
            + struct.pack(">I", zlib.crc32(kind + data)))


def _text_width(s: str) -> int:
    return _SCALE * (6 * len(s) - 1)


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


def _plot(path, xs, xlabel, ylabel, *, log, series=(), bars=(), hline=None,
          xticks=None) -> None:
    """Draw one figure and write it to `path` as PNG.

    `series` holds (ys, colour, marker, legend label or None) lines; `bars`
    holds one height per x; `hline` is (value, legend label).  Log y axes
    clamp zeros to 1e-17; non-finite values are left out of the figure.
    """
    canvas = _Canvas(*_SIZE)
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

    if log:
        for t, _ in xticks:
            canvas.line(xmap(t), top, xmap(t), bottom, _GRID, width=1)
        for t, _ in yticks:
            canvas.line(left, ymap(t), right, ymap(t), _GRID, width=1)
    for x, h in zip(xs, bars):
        canvas.box(xmap(x - 0.4), ymap(h), xmap(x + 0.4) - 1, ymap(0), _BAR)
    legend = []
    if hline is not None:
        y = ymap(hline[0])
        canvas.line(left, y, right, y, _RED, dash=8)
        legend.append((hline[1], _RED, None))
    for ys, color, shape, label in series:
        points = [(xmap(x), ymap(max(y, _LOG_FLOOR) if log else y))
                  for x, y in zip(xs, ys) if math.isfinite(y)]
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            canvas.line(x0, y0, x1, y1, color)
        for x, y in points:
            canvas.marker(x, y, shape, color)
        if label is not None:
            legend.append((label, color, shape))

    for x0, y0, x1, y1 in ((left, top, right, top),
                           (left, bottom, right, bottom),
                           (left, top, left, bottom),
                           (right, top, right, bottom)):
        canvas.line(x0, y0, x1, y1, _INK, width=1)
    edge = -math.inf
    for t, label in xticks:
        x = xmap(t)
        canvas.box(x, bottom, x, bottom + 5, _INK)
        lx = x - _text_width(label) // 2
        if lx > edge + 8:                   # drop labels that would overlap
            canvas.text(lx, bottom + 10, label)
            edge = lx + _text_width(label)
    for t, label in yticks:
        y = ymap(t)
        canvas.box(left - 5, y, left, y, _INK)
        canvas.text(left - 10 - _text_width(label), y - 7, label)
    canvas.text((left + right - _text_width(xlabel)) // 2, bottom + 40, xlabel)
    canvas.text(12, (top + bottom + _text_width(ylabel)) // 2, ylabel,
                upward=True)

    x, y = right, top // 2
    for label, color, shape in reversed(legend):
        x -= 38 + _text_width(label)
        canvas.line(x, y, x + 28, y, color, dash=0 if shape else 8)
        if shape:
            canvas.marker(x + 14, y, shape, color)
        canvas.text(x + 38, y - 7, label)
        x -= 24

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(canvas.png())


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
