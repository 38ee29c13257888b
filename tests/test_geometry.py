import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoimix.geometry import iou, pair_iou
from hoimix.synth_world import DetectionArrays, TripletArrays

from box_reference import Box, box_array
from pair_reference import pair_iou_matrix


def grid_iou(a: Box, b: Box, cells_per_unit: int = 1) -> float:
    """Cell-counting oracle: rasterize the union bounding region and count
    cells whose centers fall inside each box. Exact for integer boxes at
    unit resolution."""
    x0 = min(a.x_min, b.x_min)
    y0 = min(a.y_min, b.y_min)
    x1 = max(a.x_max, b.x_max)
    y1 = max(a.y_max, b.y_max)
    nx = int(round((x1 - x0) * cells_per_unit))
    ny = int(round((y1 - y0) * cells_per_unit))
    inter = union = 0
    for i in range(nx):
        cx = x0 + (i + 0.5) / cells_per_unit
        for j in range(ny):
            cy = y0 + (j + 0.5) / cells_per_unit
            in_a = a.x_min < cx < a.x_max and a.y_min < cy < a.y_max
            in_b = b.x_min < cx < b.x_max and b.y_min < cy < b.y_max
            if in_a and in_b:
                inter += 1
            if in_a or in_b:
                union += 1
    return inter / union


def test_identical_boxes():
    a = Box(0, 0, 10, 10)
    assert iou(a, a) == 1.0


def test_disjoint_boxes():
    assert iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0


def test_one_third_overlap_matches_grid_oracle():
    a = Box(0, 0, 10, 10)
    b = Box(5, 0, 15, 10)
    expected = grid_iou(a, b)  # 50 / 150 cells
    assert expected == pytest.approx(1 / 3, abs=1e-12)
    assert iou(a, b) == pytest.approx(1 / 3, abs=1e-12)


def test_random_boxes_match_fine_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        ax, ay, bx, by = rng.uniform(0, 4, size=4)
        a = Box(ax, ay, ax + rng.uniform(1, 4), ay + rng.uniform(1, 4))
        b = Box(bx, by, bx + rng.uniform(1, 4), by + rng.uniform(1, 4))
        approx = grid_iou(a, b, cells_per_unit=40)
        assert iou(a, b) == pytest.approx(approx, abs=0.02)


def test_symmetry_self_and_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ax, ay, bx, by = rng.uniform(0, 5, size=4)
        a = Box(ax, ay, ax + rng.uniform(0.1, 3), ay + rng.uniform(0.1, 3))
        b = Box(bx, by, bx + rng.uniform(0.1, 3), by + rng.uniform(0.1, 3))
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0
        assert iou(a, a) == 1.0


@pytest.mark.parametrize(
    "coords",
    [(0, 0, 0, 10), (0, 0, 10, 0), (5, 5, 5, 5), (3, 1, 2, 4), (0, 8, 4, 2)],
)
def test_degenerate_box_rejected(coords):
    # wherever a box is built: the reference Box, a ground-truth human or
    # object box, and a detection box
    with pytest.raises(ValueError, match="degenerate box"):
        Box(*coords)
    good, bad = np.array([[0.0, 0.0, 1.0, 1.0]]), np.array([coords], dtype=np.float64)
    with pytest.raises(ValueError, match=r"degenerate human box in row 0: \["):
        TripletArrays(bad, good, np.array([0]))
    with pytest.raises(ValueError, match=r"degenerate object box in row 1: \["):
        TripletArrays(np.vstack([good, good]), np.vstack([good, bad]), np.array([0, 1]))
    with pytest.raises(ValueError, match=r"degenerate box in row 0: \["):
        DetectionArrays(bad, np.array([0]), np.array([0.5]), np.zeros((1, 2)))


def test_pair_iou_identical_pair():
    h = Box(0, 0, 4, 8)
    o = Box(3, 3, 6, 6)
    assert pair_iou((h, o), (h, o)) == 1.0


def test_pair_iou_disjoint_object_is_zero():
    h = Box(0, 0, 4, 8)
    assert pair_iou((h, Box(0, 0, 1, 1)), (h, Box(10, 10, 11, 11))) == 0.0


def test_pair_iou_is_min_of_components():
    h_pred = Box(0, 0, 10, 10)
    h_gt = Box(5, 0, 15, 10)  # IoU 1/3 with h_pred
    o = Box(2, 2, 3, 3)
    assert pair_iou((h_pred, o), (h_gt, o)) == pytest.approx(1 / 3, abs=1e-12)


def test_pair_iou_threshold_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(200):
        boxes = []
        for _ in range(4):
            x, y = rng.uniform(0, 3, size=2)
            boxes.append(Box(x, y, x + rng.uniform(0.2, 2), y + rng.uniform(0.2, 2)))
        hp, op, hg, og = boxes
        joint = pair_iou((hp, op), (hg, og))
        for t in rng.uniform(0, 1, size=5):
            assert (joint >= t) == (iou(hp, hg) >= t and iou(op, og) >= t)


coordinate = st.floats(0, 8, allow_nan=False, allow_infinity=False)
extent = st.floats(0.01, 4, allow_nan=False, allow_infinity=False)
box_strategy = st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h), coordinate, coordinate, extent, extent)
grid_box = st.builds(
    lambda x, y, w, h: Box(x / 2, y / 2, (x + w) / 2, (y + h) / 2),
    st.integers(0, 6), st.integers(0, 6), st.integers(1, 4), st.integers(1, 4),
)
pair_lists = st.lists(st.tuples(box_strategy | grid_box, box_strategy | grid_box), max_size=6)


@settings(max_examples=200, deadline=None)
@given(a=pair_lists, b=pair_lists)
def test_pair_iou_matrix_equals_scalar_pair_iou_bitwise(a, b):
    matrix = pair_iou_matrix(
        box_array([h for h, _ in a]), box_array([o for _, o in a]),
        box_array([h for h, _ in b]), box_array([o for _, o in b]),
    )
    assert matrix.shape == (len(a), len(b))
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            assert matrix[i, j].tobytes() == np.float64(pair_iou(pa, pb)).tobytes()
