"""Report writers: JSON determinism, coercions, tables, figures."""

import math
import xml.etree.ElementTree as ET
from fractions import Fraction

from suspvdp import report
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
    assert render_curve_figure(tmp_path / "curve.svg", curve)
    assert (tmp_path / "curve.svg").stat().st_size > 0

    ranks = [{"rank": 3}, {"rank": 2}]
    assert render_rank_figure(tmp_path / "ranks.svg", ranks, full_rank=3)

    rows = [{"deviation": 1e-10, "det_error": 1e-9},
            {"deviation": float("nan"), "det_error": 2e-9}]
    assert render_flow_figure(tmp_path / "flow.svg", rows)
    # a non-finite value is left out of its series, not drawn
    lines = _svg(tmp_path / "flow.svg").iter(SVG + "polyline")
    assert [len(line.get("points").split()) for line in lines] == [1, 2]

    # empty inputs degrade to "nothing rendered"
    assert not render_curve_figure(tmp_path / "no.svg", [])
    assert not (tmp_path / "no.svg").exists()


SVG = "{http://www.w3.org/2000/svg}"


def _svg(path):
    """The parsed root of a figure, checked to be a 640x440 <svg>."""
    root = ET.parse(path).getroot()
    assert root.tag == SVG + "svg"
    assert (root.get("width"), root.get("height")) == ("640", "440")
    return root


def _ranks(path, rows):
    return render_rank_figure(path, rows, full_rank=3)


def test_figures_are_valid_deterministic_svg(tmp_path):
    # name: (renderer, rows, series keys, legend labels)
    cases = {
        "curve": (render_curve_figure,
                  [{"degree": 0, "sup_residual": 0.5},
                   {"degree": 1, "sup_residual": 0.0}],
                  ["sup_residual"], []),
        "curve_one_point": (render_curve_figure,
                            [{"degree": 0, "sup_residual": 1e-3}],
                            ["sup_residual"], []),
        "curve_constant": (render_curve_figure,
                           [{"degree": d, "sup_residual": 1e-9}
                            for d in range(3)], ["sup_residual"], []),
        "ranks_constant": (_ranks, [{"rank": 3}] * 5, [], ["full rank 3"]),
        "ranks_one_point": (_ranks, [{"rank": 2}], [], ["full rank 3"]),
        "flow": (render_flow_figure,
                 [{"deviation": 1e-10, "det_error": 1e-9},
                  {"deviation": 0.0, "det_error": 2e-9}],
                 ["deviation", "det_error"], ["flow deviation", "|det - 1|"]),
        "flow_one_point": (render_flow_figure,
                           [{"deviation": 0.0, "det_error": 0.0}],
                           ["deviation", "det_error"],
                           ["flow deviation", "|det - 1|"]),
    }
    for name, (render, rows, keys, legend) in cases.items():
        first, second = tmp_path / f"{name}.svg", tmp_path / f"{name}2.svg"
        assert render(first, rows) is True
        assert render(second, rows) is True
        assert first.read_bytes() == second.read_bytes(), name
        root = _svg(first)
        bars = [r for r in root.iter(SVG + "rect")
                if r.get("fill") == report._BAR]
        assert len(bars) == (0 if keys else len(rows)), name
        lines = list(root.iter(SVG + "polyline"))
        assert len(lines) == len(keys), name
        for line, key in zip(lines, keys):
            finite = [r[key] for r in rows if math.isfinite(r[key])]
            assert len(line.get("points").split()) == len(finite), name
        texts = {t.text for t in root.iter(SVG + "text")}
        assert set(legend) <= texts, name
