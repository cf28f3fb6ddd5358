"""Suspension surfaces: cone, heights, induction, vertical flow, observables."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.random import default_rng

from ietlab.errors import ConePointError, DomainError, RejectionOverflow
from ietlab.cocycle import induction_path
from ietlab.rauzy import _CHUNK, IetData, Permutation, iet_apply, rauzy_step
from ietlab.zippered import (
    AdmissibleRectangle,
    LipschitzFunction,
    RectangleIndicator,
    SurfacePoint,
    ZipperedRectangle,
    _cone_margin,
    heights,
    is_admissible,
    random_surface,
    sample_delta,
    sample_point,
    sample_points,
    vertical_flow,
)

TORUS = ZipperedRectangle(IetData((0.7, 0.3), Permutation((2, 1))), (-1.0, 1.0))


def random_irreducible(rng, m):
    while True:
        images = tuple(int(v) for v in rng.permutation(m) + 1)
        try:
            return Permutation(images)
        except ValueError:
            continue


def heights_brute(perm, delta):
    # independent double-loop summation, no prefix bookkeeping
    m = perm.m
    out = []
    for j in range(1, m + 1):
        s = 0.0
        for l in range(1, m + 1):
            if perm(l) < perm(j):
                s += delta[l - 1]
        for i in range(1, j):
            s -= delta[i - 1]
        out.append(s)
    return tuple(out)


def test_heights_frozen_examples():
    assert heights(Permutation((4, 3, 2, 1)), (-1, 0, 0, 1)) == (1, 2, 2, 1)
    assert heights(Permutation((2, 1)), (-1.0, 1.0)) == (1.0, 1.0)
    assert heights(Permutation((2, 1)), (0.0, 0.0)) == (0.0, 0.0)


@given(st.integers(0, 10**6), st.integers(2, 7))
def test_heights_match_brute_force(seed, m):
    rng = default_rng(seed)
    perm = random_irreducible(rng, m)
    delta = tuple(float(v) for v in rng.standard_normal(m))
    a = heights(perm, delta)
    b = heights_brute(perm, delta)
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12


def test_cone_check_examples():
    # the worst cone inequality: at most 0 inside the closed cone
    assert _cone_margin(Permutation((4, 3, 2, 1)), (-1, 0, 0, 1)) <= 0
    assert _cone_margin(Permutation((2, 1)), (0.0, 0.0)) <= 0  # boundary
    assert _cone_margin(Permutation((2, 1)), (1.0, -1.0)) > 0
    assert _cone_margin(Permutation((2, 1)), (0.5, 0.5)) > 0


@given(st.integers(0, 10**6), st.integers(2, 6))
def test_cone_samples_give_positive_heights(seed, m):
    rng = default_rng(seed)
    perm = random_irreducible(rng, m)
    delta = sample_delta(perm, rng)
    assert _cone_margin(perm, delta) < 0  # the open interior
    assert min(heights(perm, delta)) > 0


def test_sample_delta_overflow():
    with pytest.raises(RejectionOverflow):
        sample_delta(Permutation((2, 1)), default_rng(0), max_attempts=0)


def test_constructor_rejects_noncone_delta():
    with pytest.raises(DomainError):
        ZipperedRectangle(IetData((0.5, 0.5), Permutation((2, 1))), (1.0, -1.0))
    with pytest.raises(DomainError):
        ZipperedRectangle(TORUS.iet, (-1.0, 1.0, 0.0))


def test_torus_surface_basics():
    assert TORUS.heights == (1.0, 1.0)
    assert TORUS.area == 1.0


def test_normalize_area():
    zr = ZipperedRectangle(IetData((0.7, 0.3), Permutation((2, 1))), (-2.0, 2.0))
    assert zr.area == 2.0
    unit = zr.normalize_area()
    assert abs(float(unit.area) - 1.0) < 1e-14
    assert unit.delta == (-1.0, 1.0)


# One induction step moves lengths by the inverse of the step matrix and
# heights by its transpose; the renormalization clock advances by tau.

@given(st.integers(0, 10**6), st.integers(2, 6))
def test_induction_transfers_heights_cone_area(seed, m):
    rng = default_rng(seed)
    perm = random_irreducible(rng, m)
    lengths = rng.random(m) + 0.05
    lengths = lengths / lengths.sum()
    delta = sample_delta(perm, rng)
    assert _cone_margin(perm, delta) < 0
    zr = ZipperedRectangle(IetData(tuple(float(v) for v in lengths), perm),
                           delta)
    move, tau, nxt, _ = rauzy_step(zr.iet.lengths, zr.iet.perm)
    hts = np.array([float(h) for h in zr.heights])
    mat = perm.step_matrices[move]
    nxt_heights = mat.T @ hts
    nxt_lengths = np.array(nxt) * math.exp(-tau)
    assert np.allclose(mat @ nxt_lengths, lengths, rtol=1e-12)
    assert abs(nxt_lengths @ nxt_heights - float(zr.area)) < \
        1e-9 * max(1.0, float(zr.area))
    assert min(nxt_heights) > 0


def test_stretch_flow_torus_one_step():
    # the stretch flow for the clock time of one step is that induction
    # step, renormalized: lengths by e^s, heights by e^-s
    s0 = -math.log(0.7)
    path = induction_path(TORUS.iet, 1)
    assert [move.value for move in path.moves] == ["a"]
    assert abs(path.total_tau() - s0) < 1e-12
    np.testing.assert_allclose(path.lengths[1], (4 / 7, 3 / 7), rtol=1e-12)
    hts = path.carry(np.array([float(h) for h in TORUS.heights]), 0, 1)
    np.testing.assert_allclose(hts * math.exp(-s0), (0.7, 1.4), rtol=1e-12)
    area = float(np.dot(path.lengths[1], hts * math.exp(-s0)))
    assert abs(area - 1.0) < 1e-12


def test_vertical_flow_torus_unit_time():
    pt, index, base_x = vertical_flow(TORUS, SurfacePoint(0.0, 0.0), 1.0)
    assert pt == SurfacePoint(0.3, 0.0)
    assert index.tolist() == [1] and base_x.tolist() == [0.0]


def test_vertical_flow_three_crossings():
    pt, index, base_x = vertical_flow(TORUS, SurfacePoint(0.11, 0.25), 3.0)
    assert len(index) == len(base_x) == 3
    assert index.tolist() == [1, 1, 2]
    assert abs(pt.x - 0.01) < 1e-12 and abs(pt.y - 0.25) < 1e-12


def test_vertical_flow_cone_point():
    # the base orbit of 0.1 hits the breakpoint 0.7 exactly after two steps
    with pytest.raises(ConePointError) as exc:
        vertical_flow(TORUS, SurfacePoint(0.1, 0.25), 3.0)
    assert exc.value.time == 1.75


def test_vertical_flow_rejects_outside_point():
    with pytest.raises(DomainError):
        vertical_flow(TORUS, SurfacePoint(0.0, 1.5), 0.1)
    # the flow runs forward only
    for t in (-1.0, math.nan):
        with pytest.raises(DomainError):
            vertical_flow(TORUS, SurfacePoint(0.0, 0.0), t)


@given(st.integers(0, 10**6))
def test_special_flow_matches_exchange(seed):
    rng = default_rng(seed)
    m = int(rng.integers(2, 6))
    perm = random_irreducible(rng, m)
    lengths = rng.random(m) + 0.05
    lengths = tuple(float(v) for v in lengths / lengths.sum())
    zr = random_surface(IetData(lengths, perm), rng)
    p = sample_point(zr, rng)
    x0 = p.x
    idx = zr.iet.interval_index(x0)
    pt, index, base_x = vertical_flow(zr, SurfacePoint(x0, 0.0),
                                      float(zr.heights[idx]))
    assert index.tolist() == [idx + 1] and base_x.tolist() == [x0]
    assert pt.y == 0.0
    assert abs(pt.x - float(iet_apply(zr.iet, x0))) < 1e-12


def scalar_flow_up(zr, p, t):
    """The crossing-by-crossing upward loop that `vertical_flow` replaced,
    with its (endpoint, index, base_x) result."""
    iet = zr.iet
    hts = [float(h) for h in zr.heights]
    disc = set(float(b) for b in iet.breakpoints[:-1])
    idx = iet.interval_index(p.x)
    x, y = float(p.x), float(p.y)
    remaining, elapsed = float(t), 0.0
    index, base_x = [], []
    while remaining > 0 and remaining >= hts[idx] - y:
        hop = hts[idx] - y
        index.append(idx + 1)
        base_x.append(x)
        x_new = float(iet_apply(iet, x))
        elapsed += hop
        remaining -= hop
        if x_new in disc:
            raise ConePointError("orbit hit a discontinuity", elapsed)
        x, y = x_new, 0.0
        idx = iet.interval_index(x)
    return SurfacePoint(x, y + remaining), np.array(index, dtype=np.intp), \
        np.array(base_x, dtype=float)


def random_flow_surface(rng, m=None):
    m = int(rng.integers(2, 6)) if m is None else m
    perm = random_irreducible(rng, m)
    lengths = rng.random(m) + 0.05
    lengths = tuple(float(v) for v in lengths / lengths.sum())
    return random_surface(IetData(lengths, perm), rng)


def assert_same_flow(zr, p, t):
    end, index, base_x = vertical_flow(zr, p, t)
    want_end, want_index, want_base_x = scalar_flow_up(zr, p, t)
    assert index.tolist() == want_index.tolist()
    assert base_x.tobytes() == want_base_x.tobytes()
    assert np.array([end.x, end.y]).tobytes() == \
        np.array([want_end.x, want_end.y]).tobytes()
    return index


def assert_same_raise(zr, p, t, error):
    with pytest.raises(error) as got:
        vertical_flow(zr, p, t)
    with pytest.raises(error) as want:
        scalar_flow_up(zr, p, t)
    assert str(got.value) == str(want.value)
    return got.value, want.value


@given(st.integers(0, 10**6))
def test_upward_flow_matches_scalar_loop(seed):
    rng = default_rng(seed)
    zr = random_flow_surface(rng)
    hts = [float(h) for h in zr.heights]
    xs, ys = sample_points(zr, rng, 2)
    for x, y in ((float(xs[0]), 0.0), (float(xs[1]), float(ys[1]))):
        roof = hts[zr.iet.interval_index(x)] - y
        for t in (0.0, roof / 3.0, roof, 2.5, 20.0 * float(rng.random())):
            assert_same_flow(zr, SurfacePoint(x, y), t)


def test_upward_flow_across_chunks():
    rng = default_rng(17)
    zr = random_flow_surface(rng, 5)
    t = 1.2 * _CHUNK * max(float(h) for h in zr.heights)
    assert len(assert_same_flow(zr, SurfacePoint(0.3, 0.01), t)) > _CHUNK


def test_upward_flow_cone_point_elapsed_time():
    rng = default_rng(5)
    hits = 0
    while hits < 10:
        zr = random_flow_surface(rng)
        iet = zr.iet
        for b in iet.breakpoints[:-1]:
            for i, shift in enumerate(iet.translations):
                x = b - shift
                if not (0 <= x < iet.breakpoints[-1]) or \
                        iet.interval_index(x) != i or x + shift != b:
                    continue
                y = 0.5 * float(zr.heights[i]) if hits % 2 else 0.0
                got, want = assert_same_raise(zr, SurfacePoint(x, y), 50.0,
                                              ConePointError)
                assert got.time == want.time
                hits += 1


def test_upward_flow_leaving_the_base_raises_at_the_same_step():
    rng = default_rng(8)
    while True:
        zr = random_flow_surface(rng, 3)
        iet = zr.iet
        exits = [float(np.nextafter(right, 0.0))
                 for right in iet.breakpoints]
        exits = [x for j, x in enumerate(exits)
                 if iet.interval_index(x) == j and
                 not x + iet.translations[j] < iet.breakpoints[-1]]
        if exits:
            break
    x = exits[0]
    roof = float(zr.heights[iet.interval_index(x)])
    assert_same_flow(zr, SurfacePoint(x, 0.0), 0.5 * roof)
    for t in (roof, 3.0 * roof):
        assert_same_raise(zr, SurfacePoint(x, 0.0), t, DomainError)


def test_upward_flow_needs_float_lengths():
    zr = ZipperedRectangle(IetData((Fraction(7, 10), Fraction(3, 10)),
                                   Permutation((2, 1))), (-1.0, 1.0))
    with pytest.raises(DomainError):
        vertical_flow(zr, SurfacePoint(0.1, 0.0), 1.0)


def test_sample_point_deterministic_and_inside():
    rng = default_rng(42)
    pts = [sample_point(TORUS, rng) for _ in range(50)]
    rng2 = default_rng(42)
    pts2 = [sample_point(TORUS, rng2) for _ in range(50)]
    assert pts == pts2
    for p in pts:
        idx = TORUS.iet.interval_index(p.x)
        assert 0 <= p.y < TORUS.heights[idx]


def _choice_draw(zr, rng):
    """One area-uniform point by numpy's weighted choice of a rectangle and
    two further uniforms (reference)."""
    lengths = np.array([float(l) for l in zr.iet.lengths])
    hts = np.array([float(h) for h in zr.heights])
    w = lengths * hts
    i = int(rng.choice(len(lengths), p=w / w.sum()))
    left = float(zr.iet.breakpoints[i - 1]) if i > 0 else 0.0
    return left + float(rng.random()) * lengths[i], float(rng.random()) * hts[i]


@given(st.integers(0, 10**6), st.integers(1, 40))
def test_sample_points_batch_equals_single_draws(seed, n):
    # the resampling loops redraw rejected starts as a batch, which must
    # continue the stream exactly as one draw per start would
    rng = default_rng(seed)
    m = int(rng.integers(2, 6))
    lengths = rng.random(m) + 0.05
    lengths = tuple(float(v) for v in lengths / lengths.sum())
    zr = random_surface(IetData(lengths, random_irreducible(rng, m)), rng)
    ref, single, batch = (default_rng(seed + 1) for _ in range(3))
    want = [_choice_draw(zr, ref) for _ in range(n)]
    pts = [sample_point(zr, single) for _ in range(n)]
    xs, ys = sample_points(zr, batch, n)
    assert [(p.x, p.y) for p in pts] == want == list(zip(xs, ys))
    assert ref.random() == single.random() == batch.random()


def test_rectangle_indicator_full():
    f = RectangleIndicator.full(TORUS, 0)
    assert f.nu_integral(TORUS) == pytest.approx(0.7)
    assert f.level0_values(TORUS) == (1.0, 0.0)
    assert f.value(TORUS, 0.2, 0.5) == 1.0
    assert f.value(TORUS, 0.8, 0.5) == 0.0
    centered = f.value(TORUS, 0.2, 0.5) - f.nu_integral(TORUS) / TORUS.area
    assert centered == pytest.approx(0.3)


def test_rectangle_indicator_partial_box():
    f = RectangleIndicator(x_left=0.1, width=0.2, y_bottom=0.25, height=0.5)
    assert f.nu_integral(TORUS) == pytest.approx(0.1)
    assert f.level0_values(TORUS) is None
    assert f.value(TORUS, 0.15, 0.3) == 1.0
    assert f.value(TORUS, 0.15, 0.8) == 0.0
    assert f.crossing_integral(TORUS, 0, 0.15) == pytest.approx(0.5)
    assert f.crossing_integral(TORUS, 1, 0.8) == 0.0


def test_rectangle_indicator_partial_height_is_level0():
    f = RectangleIndicator(x_left=0.0, width=0.7, y_bottom=0.0, height=0.5)
    assert f.level0_values(TORUS) == (0.5, 0.0)


def test_rectangle_indicator_straddle_rejected():
    f = RectangleIndicator(x_left=0.5, width=0.4)
    with pytest.raises(DomainError):
        f.nu_integral(TORUS)


def test_lipschitz_function_integrals():
    f = LipschitzFunction(lambda x, y: 1.0)
    assert f.nu_integral(TORUS) == pytest.approx(1.0, abs=1e-12)
    g = LipschitzFunction(lambda x, y: x)
    assert g.nu_integral(TORUS) == pytest.approx(0.5, abs=1e-12)
    assert g.crossing_integral(TORUS, 0, 0.2) == pytest.approx(0.2, abs=1e-13)
    assert g.level0_values(TORUS) is None
    val = g.value(TORUS, 0.25, 0.5) - g.nu_integral(TORUS) / TORUS.area
    assert val == pytest.approx(-0.25, abs=1e-12)


def test_admissible_rectangles():
    assert is_admissible(TORUS, AdmissibleRectangle(SurfacePoint(0.0, 0.0), 0.9, 0.05))
    assert is_admissible(TORUS, AdmissibleRectangle(SurfacePoint(0.0, 0.0), 1.5, 0.05))
    assert not is_admissible(TORUS, AdmissibleRectangle(SurfacePoint(0.0, 0.0), 0.9, 0.75))
    assert not is_admissible(TORUS, AdmissibleRectangle(SurfacePoint(0.65, 0.0), 0.5, 0.1))
    # fails only after the first crossing: [0.35,0.45) -> [0.65,0.75) straddles
    assert not is_admissible(TORUS, AdmissibleRectangle(SurfacePoint(0.35, 0.0), 1.05, 0.1))
    assert is_admissible(TORUS, AdmissibleRectangle(SurfacePoint(0.55, 0.0), 1.2, 0.1))
