"""Report writers: JSON determinism, coercions, tables, figures."""

import struct
import zlib
from fractions import Fraction

from suspvdp.report import (format_complex, jsonable, render_curve_figure,
                            render_flow_figure, render_rank_figure,
                            write_delimited, write_json)
from suspvdp.scalars import gr


def test_jsonable_coercions():
    payload = {
        "int": 3, "float": 0.5, "bool": True, "none": None,
        "complex": 1.5 - 0.25j, "fraction": Fraction(1, 3),
        "scalar": gr(1, Fraction(1, 2)),
        "nested": [(1, 2), {"inf": float("inf")}],
    }
    out = jsonable(payload)
    assert out["int"] == 3 and out["float"] == 0.5
    assert out["complex"] == "1.5-0.25j"
    assert out["fraction"] == "1/3"
    assert out["scalar"] == str(gr(1, Fraction(1, 2)))
    assert out["nested"][0] == [1, 2]
    assert out["nested"][1]["inf"] == "inf"


def test_format_complex():
    assert format_complex(complex(2.0, 0.0)) == "2.0"
    assert format_complex(complex(0.0, 1.0)) == "0.0+1.0j"
    assert format_complex(complex(-1.5, -2.0)) == "-1.5-2.0j"
    assert format_complex(complex(0.0, 0.0)) == "0.0"


def test_write_json_deterministic(tmp_path):
    payload = {"b": [1.0, 2.5], "a": {"z": 1 + 1j, "y": None}}
    p1 = write_json(tmp_path / "one.json", payload)
    p2 = write_json(tmp_path / "two.json", payload)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().startswith("{")
    # keys come out sorted
    text = p1.read_text()
    assert text.index('"a"') < text.index('"b"')


def test_write_delimited(tmp_path):
    path = write_delimited(tmp_path / "t.csv", ["a", "b", "ok"],
                           [(1, 0.5, True), ("x", 2 - 1j, False)])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,ok"
    assert lines[1] == "1,0.5,true"
    assert lines[2] == "x,2.0-1.0j,false"


def test_figures_render(tmp_path):
    curve = [{"degree": 0, "sup_residual": 0.5},
             {"degree": 1, "sup_residual": 1e-12}]
    assert render_curve_figure(tmp_path / "curve.png", curve)
    assert (tmp_path / "curve.png").stat().st_size > 0

    ranks = [{"rank": 3}, {"rank": 2}]
    assert render_rank_figure(tmp_path / "ranks.png", ranks, full_rank=3)

    rows = [{"deviation": 1e-10, "det_error": 1e-9},
            {"deviation": 0.0, "det_error": 2e-9}]
    assert render_flow_figure(tmp_path / "flow.png", rows)

    # empty inputs degrade to "nothing rendered"
    assert not render_curve_figure(tmp_path / "no.png", [])
    assert not (tmp_path / "no.png").exists()


def _png_pixels(path):
    """Parse a PNG with the standard library alone: check the signature,
    every chunk CRC and the IHDR against the inflated IDAT; return the
    set of distinct pixels."""
    data = path.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos, chunks = 8, []
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos:pos + 4])
        kind, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
        assert crc == zlib.crc32(kind + body), kind
        chunks.append((kind, body))
        pos += 12 + length
    assert pos == len(data)
    assert chunks[0][0] == b"IHDR" and chunks[-1] == (b"IEND", b"")
    width, height, depth, colour, _, _, interlace = struct.unpack(
        ">IIBBBBB", chunks[0][1])
    assert (depth, interlace) == (8, 0) and colour in (2, 6)
    bpp = 3 if colour == 2 else 4
    raw = zlib.decompress(b"".join(b for k, b in chunks if k == b"IDAT"))
    stride = width * bpp
    assert len(raw) == height * (1 + stride)
    pixels, prev = set(), bytes(stride)
    for y in range(height):
        kind, line = raw[y * (1 + stride)], bytearray(
            raw[y * (1 + stride) + 1:(y + 1) * (1 + stride)])
        assert kind <= 4
        for i in range(stride if kind else 0):      # undo the row filter
            a = line[i - bpp] if i >= bpp else 0
            b, c = prev[i], prev[i - bpp] if i >= bpp else 0
            pred = (0, a, b, (a + b) // 2,
                    min((a, b, c), key=lambda v: abs(a + b - c - v)))[kind]
            line[i] = (line[i] + pred) & 0xFF
        pixels.update(bytes(line[i:i + bpp]) for i in range(0, stride, bpp))
        prev = bytes(line)
    return pixels


def test_figures_are_valid_deterministic_png(tmp_path):
    cases = {
        "curve": (render_curve_figure,
                  [{"degree": 0, "sup_residual": 0.5},
                   {"degree": 1, "sup_residual": 0.0}]),
        "curve_one_point": (render_curve_figure,
                            [{"degree": 0, "sup_residual": 1e-3}]),
        "curve_constant": (render_curve_figure,
                           [{"degree": d, "sup_residual": 1e-9}
                            for d in range(3)]),
        "ranks_constant": (lambda p, rows: render_rank_figure(
            p, rows, full_rank=3), [{"rank": 3}] * 5),
        "ranks_one_point": (lambda p, rows: render_rank_figure(
            p, rows, full_rank=3), [{"rank": 2}]),
        "flow": (render_flow_figure,
                 [{"deviation": 1e-10, "det_error": 1e-9},
                  {"deviation": 0.0, "det_error": 2e-9}]),
        "flow_one_point": (render_flow_figure,
                           [{"deviation": 0.0, "det_error": 0.0}]),
    }
    for name, (render, rows) in cases.items():
        first, second = tmp_path / f"{name}.png", tmp_path / f"{name}2.png"
        assert render(first, rows) is True
        assert render(second, rows) is True
        assert first.read_bytes() == second.read_bytes(), name
        assert len(_png_pixels(first)) > 1, name
