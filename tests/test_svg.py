from pathlib import Path

from bsp.svg import Overlay, emit_scatter, min_product_svg, size_scatter_svg


def test_deterministic_bytes():
    pts = [(3, 4), (4, 3), (4, 8)]
    a = size_scatter_svg(pts, 3)
    b = size_scatter_svg(list(reversed(pts)), 3)
    assert a == b
    assert a.startswith("<svg ")
    assert a.endswith("</svg>\n")


def test_empty_point_set_axes_only():
    doc = emit_scatter([], [], x_label="|A|", y_label="|B|")
    assert "<circle" not in doc
    assert doc.count("<line") >= 2  # the two axes


def test_overlays_present():
    doc = size_scatter_svg([(4, 8), (8, 4)], 3)
    assert "polyline" in doc  # hyperbola
    doc2 = min_product_svg([(3, 9), (4, 32)], 3)
    assert doc2.count("stroke-dasharray") >= 2  # two horizontal levels


def test_golden_plots_are_byte_stable():
    from bsp.enumeration import enumerate_catalog, stats

    s = stats(enumerate_catalog(3))
    golden = Path(__file__).parent / "golden"
    assert size_scatter_svg(s.fig_size_points(), 3) == (golden / "fig_sizes_d3.svg").read_text("ascii")
    assert min_product_svg(s.fig_min_product_points(), 3) == (
        golden / "fig_min_product_d3.svg").read_text("ascii")
