import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refvos.autodiff import DimensionError
from refvos.data import (COLORS, MOTIONS, SHAPES, SyntheticSpec, generate_clip,
                         list_clips, read_clip, write_clip, write_dataset)
from refvos.io import ParseError, read_pgm, read_ppm, write_pgm, write_ppm
from refvos.metrics import (Metrics, aggregate, boundary_pixels,
                            contour_accuracy_F, default_tolerance,
                            evaluate_sequence, region_similarity_J,
                            within_tolerance)


# ---- synthetic clips ------------------------------------------------------

@pytest.mark.parametrize("call, error, message", [
    (lambda path: region_similarity_J(np.zeros((2, 2)), np.zeros((2, 3))),
     DimensionError, "region_similarity_J: shape mismatch"),
    (lambda path: contour_accuracy_F(np.zeros((2, 2)), np.zeros((3, 2))),
     DimensionError, "contour_accuracy_F: shape mismatch"),
    (lambda path: evaluate_sequence([np.zeros((2, 2))], []),
     DimensionError, "evaluate_sequence: length mismatch"),
    (lambda path: evaluate_sequence([], []), DimensionError, "evaluate_sequence: no frames"),
    (lambda path: aggregate([]), DimensionError, "aggregate: no sequences"),
    (lambda path: write_pgm(path / "m.pgm", np.full((2, 2), 2, np.uint8)),
     ValueError, "binary H x W mask"),
    (lambda path: write_ppm(path / "f.ppm", np.zeros((2, 2))),
     ValueError, r"\(3, H, W\) frame"),
    (lambda path: SyntheticSpec(frames=0), ValueError, "frames must be >= 1"),
    (lambda path: SyntheticSpec(min_objects=0), ValueError, "min_objects must be >= 1"),
], ids=["j-shapes", "f-shapes", "sequence-lengths", "sequence-empty", "aggregate-empty",
        "pgm-non-binary", "ppm-rank",
        "spec-frames", "spec-min-objects"])
def test_data_metrics_and_io_refuse_bad_input(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


def test_generate_deterministic():
    spec = SyntheticSpec(seed=5)
    a_clip, a_expr, a_masks = generate_clip(spec)
    b_clip, b_expr, b_masks = generate_clip(spec)
    assert a_expr.words == b_expr.words
    assert all(np.array_equal(x, y) for x, y in zip(a_clip.frames, b_clip.frames))
    assert all(np.array_equal(x, y) for x, y in zip(a_masks, b_masks))


def test_static_object_masks_identical():
    for seed in range(40):
        _, expr, masks = generate_clip(SyntheticSpec(seed=seed, max_objects=1))
        if "static" in expr.words:
            assert all(np.array_equal(masks[0], m) for m in masks)
            return
    pytest.fail("no static clip found in 40 seeds")


def test_square_area_is_side_squared():
    for seed in range(60):
        _, expr, masks = generate_clip(SyntheticSpec(seed=seed, max_objects=1))
        if "square" in expr.words:
            areas = {int(m.sum()) for m in masks}
            assert len(areas) == 1
            side = int(np.sqrt(areas.pop()))
            assert side * side == int(masks[0].sum())
            return
    pytest.fail("no square clip found in 60 seeds")


def test_objects_stay_inside_canvas():
    for seed in range(25):
        _, _, masks = generate_clip(SyntheticSpec(seed=seed, max_objects=4))
        for m in masks:
            assert m[0].sum() == 0 and m[-1].sum() == 0
            assert m[:, 0].sum() == 0 and m[:, -1].sum() == 0


def test_expression_grammar():
    for seed in range(25):
        _, expr, _ = generate_clip(SyntheticSpec(seed=seed, max_objects=3))
        w = expr.words
        if "static" in w:
            assert w[0] == "the" and w[1] == "static"
            assert w[2] in COLORS and w[3] in SHAPES
        else:
            assert w[0] == "the" and w[1] in COLORS and w[2] in SHAPES
            assert w[3] == "moving" and w[4] in MOTIONS


def test_exactly_one_object_matches_expression():
    # ground truth is a single connected object: its mask must be nonempty
    # and consistent with per-frame motion of one referent
    for seed in range(20):
        _, expr, masks = generate_clip(SyntheticSpec(seed=seed, max_objects=4))
        assert all(m.sum() > 0 for m in masks)
        areas = {int(m.sum()) for m in masks}
        assert len(areas) == 1


# ---- J --------------------------------------------------------------------

def test_j_perfect_and_disjoint():
    a = np.zeros((4, 4), dtype=np.uint8)
    a[:2] = 1
    assert region_similarity_J(a, a) == 1.0
    b = np.zeros((4, 4), dtype=np.uint8)
    b[3, 3] = 1
    assert region_similarity_J(a, b) == 0.0


def test_j_empty_empty_is_one():
    z = np.zeros((3, 3))
    assert region_similarity_J(z, z) == 1.0


def test_j_rectangles_overlap_one_pixel():
    a = np.zeros((4, 4), dtype=np.uint8)
    a[0, 0:2] = 1
    b = np.zeros((4, 4), dtype=np.uint8)
    b[0, 1:3] = 1
    assert abs(region_similarity_J(a, b) - 1 / 3) < 1e-12


def test_j_symmetric_and_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        h, w = int(rng.integers(1, 17)), int(rng.integers(1, 17))
        a = (rng.random((h, w)) > 0.6).astype(np.uint8)
        b = (rng.random((h, w)) > 0.6).astype(np.uint8)
        inter = int(np.sum(a.astype(bool) & b.astype(bool)))
        union = int(np.sum(a.astype(bool) | b.astype(bool)))
        expect = 1.0 if union == 0 else inter / union
        assert region_similarity_J(a, b) == expect
        assert region_similarity_J(b, a) == region_similarity_J(a, b)


# ---- F --------------------------------------------------------------------

def brute_force_F(pred, gt, tol):
    pb = np.argwhere(boundary_pixels(pred))
    gb = np.argwhere(boundary_pixels(gt))
    if len(pb) == 0 and len(gb) == 0:
        return 1.0
    if len(pb) == 0 or len(gb) == 0:
        return 0.0
    d = np.sqrt(((pb[:, None, :] - gb[None, :, :]) ** 2).sum(-1))
    precision = (d.min(axis=1) <= tol).mean()
    recall = (d.min(axis=0) <= tol).mean()
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def test_f_perfect_and_empty():
    a = np.zeros((6, 6), dtype=np.uint8)
    a[2:4, 2:4] = 1
    assert contour_accuracy_F(a, a) == 1.0
    assert contour_accuracy_F(np.zeros_like(a), a) == 0.0
    z = np.zeros_like(a)
    assert contour_accuracy_F(z, z) == 1.0


def test_f_shifted_square_tolerances():
    a = np.zeros((16, 16), dtype=np.uint8)
    a[4:12, 4:12] = 1
    b = np.zeros((16, 16), dtype=np.uint8)
    b[4:12, 5:13] = 1
    assert contour_accuracy_F(a, b, tolerance_px=2) == 1.0
    assert contour_accuracy_F(a, b, tolerance_px=0) == brute_force_F(a, b, 0)


def random_shape(rng):
    """Sizes from 1 to 16 on each side, one row and one column included."""
    kind = int(rng.integers(0, 4))
    h = 1 if kind == 1 else int(rng.integers(1, 17))
    w = 1 if kind == 2 else int(rng.integers(1, 17))
    return h, w


def test_f_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        h, w = random_shape(rng)
        a = (rng.random((h, w)) > 0.55).astype(np.uint8)
        b = (rng.random((h, w)) > 0.55).astype(np.uint8)
        beyond_diagonal = float(np.hypot(h, w)) + 1
        for tol in (0.0, 0.5, 1.0, 1.5, 2.0, 2.9, 3.0, beyond_diagonal):
            assert contour_accuracy_F(a, b, tol) == brute_force_F(a, b, tol)


def test_within_tolerance_matches_pairwise_distances():
    rng = np.random.default_rng(5)
    for _ in range(300):
        h, w = random_shape(rng)
        mask = rng.random((h, w)) > rng.random()
        on = np.argwhere(mask)
        every = np.argwhere(np.ones((h, w), dtype=bool))
        d = np.sqrt(((every[:, None, :] - on[None, :, :]) ** 2).sum(-1).astype(np.float64))
        diagonal = np.sqrt(float((h - 1) ** 2 + (w - 1) ** 2))
        for tol in (0, 0.5, 1, np.sqrt(2), 1.5, 2, 2.9, 3, 5, 7.3, 50, 1e12, np.inf, -1.0, np.nan,
                    diagonal, np.nextafter(diagonal, 0)):
            expect = (d <= tol).any(axis=1).reshape(h, w)
            assert np.array_equal(within_tolerance(mask, tol), expect)


def test_within_tolerance_reaches_the_far_corner_at_the_diagonal():
    corner = np.zeros((5, 8), dtype=bool)
    corner[0, 0] = True
    diagonal = np.sqrt(float(4 ** 2 + 7 ** 2))
    assert within_tolerance(corner, diagonal).all()
    assert within_tolerance(corner, np.nextafter(diagonal, 0)).sum() == corner.size - 1


def test_f_at_unbounded_tolerances():
    a = np.zeros((64, 64), dtype=np.uint8)
    a[10:30, 12:40] = 1
    b = np.zeros_like(a)
    b[40:60, 5:9] = 1
    start = time.perf_counter()
    assert contour_accuracy_F(a, b, 1e12) == 1.0
    assert time.perf_counter() - start < 1.0
    assert contour_accuracy_F(a, b, np.inf) == 1.0
    assert contour_accuracy_F(a, b, np.nan) == 0.0
    assert contour_accuracy_F(a, a, np.nan) == 0.0


def test_f_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = (rng.random((10, 10)) > 0.5).astype(np.uint8)
        b = (rng.random((10, 10)) > 0.5).astype(np.uint8)
        assert contour_accuracy_F(a, b, 1) == pytest.approx(contour_accuracy_F(b, a, 1))


def test_j_f_translation_invariance():
    base = np.zeros((20, 20), dtype=np.uint8)
    base[5:9, 6:10] = 1
    other = np.zeros((20, 20), dtype=np.uint8)
    other[6:10, 6:10] = 1
    j0, f0 = region_similarity_J(base, other), contour_accuracy_F(base, other, 1)
    shifted_a = np.roll(base, (3, 2), axis=(0, 1))
    shifted_b = np.roll(other, (3, 2), axis=(0, 1))
    assert region_similarity_J(shifted_a, shifted_b) == j0
    assert contour_accuracy_F(shifted_a, shifted_b, 1) == pytest.approx(f0)


def test_default_tolerance_davis_convention():
    assert default_tolerance((64, 64)) == np.ceil(0.008 * np.sqrt(2 * 64 ** 2))
    assert default_tolerance((480, 854)) == np.ceil(0.008 * np.sqrt(480 ** 2 + 854 ** 2))


# ---- sequences ------------------------------------------------------------

def test_evaluate_sequence_perfect():
    _, _, masks = generate_clip(SyntheticSpec(seed=4))
    m = evaluate_sequence(masks, masks)
    assert m.J == m.F == m.JF == 1.0


def test_evaluate_sequence_arithmetic():
    a = np.zeros((8, 8), dtype=np.uint8)
    a[2:4, 2:4] = 1
    z = np.zeros_like(a)
    m = evaluate_sequence([a, z], [a, a])
    assert m.J == 0.5 and m.F == 0.5 and m.JF == 0.5


def test_evaluate_sequence_matches_frame_loop():
    rng = np.random.default_rng(3)
    preds = [(rng.random((9, 9)) > 0.5).astype(np.uint8) for _ in range(3)]
    gts = [(rng.random((9, 9)) > 0.5).astype(np.uint8) for _ in range(3)]
    m = evaluate_sequence(preds, gts, tolerance_px=1)
    j = np.mean([region_similarity_J(p, g) for p, g in zip(preds, gts)])
    f = np.mean([contour_accuracy_F(p, g, 1) for p, g in zip(preds, gts)])
    assert m.J == pytest.approx(j) and m.F == pytest.approx(f)
    assert m.JF == (m.J + m.F) / 2


def test_aggregate_means():
    ms = [Metrics(J=1.0, F=0.5), Metrics(J=0.0, F=0.5)]
    agg = aggregate(ms)
    assert agg.J == 0.5 and agg.F == 0.5 and agg.JF == 0.5


# ---- mask I/O -------------------------------------------------------------

def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    mask = (rng.random((12, 7)) > 0.5).astype(np.uint8)
    path = tmp_path / "m.pgm"
    write_pgm(path, mask)
    assert np.array_equal(read_pgm(path), mask)


def test_pgm_payload_bytes(tmp_path):
    path = tmp_path / "m.pgm"
    write_pgm(path, np.array([[1, 0], [0, 1]], dtype=np.uint8))
    raw = path.read_bytes()
    assert raw == b"P5\n2 2\n255\n\xff\x00\x00\xff"


@pytest.mark.parametrize("raw, offset", [
    (b"P5\n2 2\n255\n\xff\x00\x00", 14),  # the payload ends early
    (b"P5\n2 2\n255", 11),  # the header ends the file
], ids=["short-payload", "no-payload"])
def test_pgm_truncated_payload_offset(tmp_path, raw, offset):
    path = tmp_path / "m.pgm"
    path.write_bytes(raw)
    with pytest.raises(ParseError, match=f"truncated payload \\(byte offset {offset}\\)"):
        read_pgm(path)


def test_pgm_of_no_pixels_reads_with_the_header_ending_the_file(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n0 0 255")
    assert read_pgm(path).shape == (0, 0)


def test_pgm_bad_header_offset_zero(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"JUNKDATA")
    with pytest.raises(ParseError, match="offset 0"):
        read_pgm(path)


@pytest.fixture(scope="module")
def pnm_files(tmp_path_factory):
    """A PGM and a PPM: each file's path, reader, written bytes and header
    length."""
    folder = tmp_path_factory.mktemp("pnm")
    rng = np.random.default_rng(6)
    pgm, ppm = folder / "m.pgm", folder / "f.ppm"
    write_pgm(pgm, (rng.random((5, 7)) > 0.5).astype(np.uint8))
    write_ppm(ppm, rng.random((3, 4, 6)))
    return [(pgm, read_pgm, pgm.read_bytes(), len(b"P5\n7 5\n255\n")),
            (ppm, read_ppm, ppm.read_bytes(), len(b"P6\n6 4\n255\n"))]


def _spliced(raw, offset, chars):
    return raw[:offset] + chars + raw[offset:]


def _overwritten(raw, edits):
    out = bytearray(raw)
    for offset, value in edits:
        out[offset] = value
    return bytes(out)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_pnm_bytes_read_or_raise_parse_error(pnm_files, data):
    path, read, raw, header = data.draw(st.sampled_from(pnm_files))
    byte = st.one_of(st.sampled_from(b"0123456789 \t\n\r-#P56"), st.integers(0, 255))
    # digit runs, whitespace or a sign; int() refuses more than 4,300 digits
    run = st.one_of(st.text("0123456789", min_size=1, max_size=24),
                    st.text(" \t\n\r\x0b\x0c", min_size=1), st.just("-"),
                    st.sampled_from([19, 4301]).map(lambda n: "7" * n))
    blob = data.draw(st.one_of(
        st.integers(0, len(raw) - 1).map(lambda n: raw[:n]),
        st.lists(st.tuples(st.integers(0, header - 1), byte), min_size=1, max_size=3)
        .map(lambda edits: _overwritten(raw, edits)),
        st.tuples(st.integers(0, header), run.map(str.encode))
        .map(lambda edit: _spliced(raw, *edit))))
    path.write_bytes(blob)
    try:
        image = read(path)
    except ParseError:
        return
    assert isinstance(image, np.ndarray)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    frame = np.round(rng.random((3, 5, 6)) * 255) / 255.0
    path = tmp_path / "f.ppm"
    write_ppm(path, frame)
    assert np.allclose(read_ppm(path), frame)


def test_dataset_layout_round_trip(tmp_path):
    spec = SyntheticSpec(seed=7, frames=3)
    write_dataset(tmp_path, spec, 2)
    dirs = list_clips(tmp_path)
    assert len(dirs) == 2
    clip, expr, masks = read_clip(dirs[0])
    assert len(clip.frames) == 3 and len(masks) == 3
    assert expr.words[0] == "the"
    ref_clip, ref_expr, ref_masks = generate_clip(SyntheticSpec(
        seed=spec.seed, frames=3))
    assert expr.words == ref_expr.words
    assert all(np.array_equal(a, b) for a, b in zip(masks, ref_masks))


def test_gt_mask_equals_rasterized_object():
    clip, _, masks = generate_clip(SyntheticSpec(seed=9, max_objects=1))
    # single object: foreground pixels of the frame are exactly the mask
    for frame, m in zip(clip.frames, masks):
        fg = np.any(np.abs(frame - frame[:, 0, 0][:, None, None]) > 1e-9, axis=0)
        assert region_similarity_J(fg, m) == 1.0
