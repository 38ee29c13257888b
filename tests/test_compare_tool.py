"""The decision rule of tools/compare.py: `summarise` over synthetic pairs.

A pair holds one run of each side. The change wins a pair when it reads
better than the parent, ties count for neither side, a gain needs at least
nine tenths of the pairs won and medians further apart than the parent's
interquartile range and no larger share of failed runs than the parent's, and
a metric is within its bound when the change's
median is no worse than the parent's by more than bound × the parent's
median."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare.py"
_spec = importlib.util.spec_from_file_location("compare_tool", TOOL)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
MAP = {"name": "map_full", "unit": "ratio", "better": "higher", "bound": 0.25}


def pairs(metric: dict, parent: list[float], change: list[float], failed=(0, 0)) -> list[dict]:
    """One pair per value; each run attempted 10 runs, of which the first
    pair's failed failed[0] (parent) and failed[1] (change)."""

    def run(value, failed):
        return {"metrics": {metric["name"]: {"value": value}}, "attempted": 10, "failed": failed}

    return [
        {"parent": run(p, failed[0] if k == 0 else 0), "change": run(c, failed[1] if k == 0 else 0)}
        for k, (p, c) in enumerate(zip(parent, change))
    ]


def summary(metric: dict, parent: list[float], change: list[float], failed=(0, 0)) -> dict:
    return compare.summarise(pairs(metric, parent, change, failed), metric)


def test_ties_count_for_neither_side():
    s = summary(WALL, [1.0, 2.0, 3.0, 4.0], [1.0, 2.5, 3.0, 3.5])
    assert (s["wins"], s["losses"], s["ties"]) == (1, 1, 2)
    s = summary(WALL, [1.0] * 10, [1.0] * 10)
    assert (s["wins"], s["losses"], s["ties"]) == (0, 0, 10)
    assert not s["gain_holds"] and s["within_bound"]


# parent values 1.00..1.09: median 1.045, inclusive quartiles 1.0225 and
# 1.0675, so an IQR of 0.045
PARENT = [1.0 + k / 100 for k in range(10)]


def test_a_gain_needs_nine_wins_in_ten():
    nine = [p - 0.5 for p in PARENT[:9]] + [PARENT[9] + 0.01]
    s = summary(WALL, PARENT, nine)
    assert (s["wins"], s["losses"]) == (9, 1) and s["gain_holds"]
    eight = [p - 0.5 for p in PARENT[:8]] + [PARENT[8] + 0.01, PARENT[9] + 0.01]
    s = summary(WALL, PARENT, eight)
    assert (s["wins"], s["losses"]) == (8, 2) and not s["gain_holds"]
    # a tie is not a win either
    s = summary(WALL, PARENT, [p - 0.5 for p in PARENT[:8]] + PARENT[8:])
    assert (s["wins"], s["ties"]) == (8, 2) and not s["gain_holds"]


def test_a_gain_needs_medians_further_apart_than_the_parent_iqr():
    s = summary(WALL, PARENT, [p - 0.04 for p in PARENT])
    assert s["wins"] == 10 and s["parent_iqr"] > 0.04
    assert not s["gain_holds"]
    s = summary(WALL, PARENT, [p - 0.05 for p in PARENT])
    assert s["wins"] == 10 and s["parent_iqr"] < 0.05
    assert s["gain_holds"]


def test_a_gain_needs_no_larger_share_of_failed_runs():
    better = [p - 0.5 for p in PARENT]
    assert summary(WALL, PARENT, better)["gain_holds"]
    assert summary(WALL, PARENT, better, failed=(1, 1))["gain_holds"]
    assert summary(WALL, PARENT, better, failed=(2, 1))["gain_holds"]
    assert not summary(WALL, PARENT, better, failed=(0, 1))["gain_holds"]
    assert not summary(WALL, PARENT, better, failed=(1, 2))["gain_holds"]


def test_higher_is_better_for_map_full():
    s = summary(MAP, PARENT, [p + 0.5 for p in PARENT])
    assert (s["wins"], s["losses"]) == (10, 0) and s["gain_holds"] and s["within_bound"]
    s = summary(MAP, PARENT, [p - 0.5 for p in PARENT])
    assert (s["wins"], s["losses"]) == (0, 10) and not s["gain_holds"]
    # a lower map_full is a worse one, so it can leave the bound
    assert not s["within_bound"]
    assert s["change_vs_parent"] < 0


def test_within_bound_holds_exactly_at_the_bound():
    # medians 4.0 and 5.0: the change is 0.25 × 4.0 worse, exactly the bound
    assert summary(WALL, [4.0] * 3, [5.0] * 3)["within_bound"]
    assert not summary(WALL, [4.0] * 3, [5.0 + 2**-40] * 3)["within_bound"]
    assert summary(MAP, [4.0] * 3, [3.0] * 3)["within_bound"]
    assert not summary(MAP, [4.0] * 3, [3.0 - 2**-40] * 3)["within_bound"]
