import math

from nlss.svgplot import MARGIN_R, WIDTH, render

SERIES = [
    # None and nan split the first series into (1, 2), the lone 3 and (4, 5)
    ("gapped", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [1.0, 2.0, None, 3.0, math.nan, 4.0, 5.0]),
    ("whole", [1.0, 2.0, 4.0], [2.0, 1.0, 0.5]),
]
VERTICALS = [("zero", 0.0), ("negative", -1.0), ("inf", math.inf), ("mid", 3.0), ("far", 100.0)]


def test_render_draws_gaps_lone_points_and_verticals():
    svg = render("levels", "beta", "energy", True, SERIES, VERTICALS)
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert svg.count("<polyline") == 3
    assert svg.count("<circle") == 1
    # x <= 0 and inf have no place on a log axis; 100 lies beyond every
    # series and widens the axis to reach it
    assert svg.count('stroke-dasharray="4 3"') == 2
    assert ">zero<" not in svg and ">negative<" not in svg and ">inf<" not in svg
    assert f'<line x1="{WIDTH - MARGIN_R:.3f}"' in svg and ">far</text>" in svg
    assert 'text-anchor="middle" font-family="sans-serif" font-size="10">100</text>' in svg
    assert render("levels", "beta", "energy", True, SERIES, VERTICALS) == svg
