"""The batched jet engine: a jet of coefficient shape (size, *batch) must act
on each point of its batch exactly as on that point alone, and classify over
a batch must give the record of its points one by one."""

import argparse
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo import AmbientChart, biharmonic, classify, cli, immersion, verify, warped
from warpgeo import jet as J
from warpgeo.ambient import WarpEval
from warpgeo.errors import DegenerateImmersionError, EvalDomainError, UsageError, WarpgeoError
from warpgeo.errors import as_value
from warpgeo.immersion import PointGeometry

# (name, arity, function, value shift): the shift moves each operand's value
# coefficient into the function's domain, away from poles and branch points.
UNARY = [
    ("neg", lambda a: -a, 0.0),
    ("exp", J.exp, 0.0),
    ("log", J.log, 4.0),
    ("sin", J.sin, 0.0),
    ("cos", J.cos, 0.0),
    ("sqrt", J.sqrt, 4.0),
    ("jpow 3", lambda a: J.jpow(a, 3), 0.0),
    ("jpow -2", lambda a: J.jpow(a, -2), 4.0),
    ("jpow 1/3", lambda a: J.jpow(a, 1.0 / 3.0), 4.0),
    ("reciprocal", J.reciprocal, 4.0),
    ("trunc", lambda a: a.trunc(max(a.order - 1, 0)), 0.0),
    ("d", lambda a: a.d(a.n_vars - 1), 0.0),
    ("scale", lambda a: 2.5 * a, 0.0),
]
BINARY = [
    ("*", lambda a, b: a * b),
    ("+", lambda a, b: a + b),
    ("-", lambda a, b: a - b),
    ("/", lambda a, b: a / b),
]


def _coeffs(rng, n_vars, order, batch, shift):
    size = J._space(n_vars, order).size
    c = rng.uniform(-1.0, 1.0, (size, batch))
    c[0] = np.abs(c[0]) + shift if shift else c[0]
    return c


def _columns(jet_):
    return [J.Jet(jet_.n_vars, jet_.order, jet_.coeffs[:, k]) for k in range(jet_.coeffs.shape[1])]


def _assert_columns(batched, singles):
    assert batched.coeffs.shape[1:] == (len(singles),)
    for k, single in enumerate(singles):
        assert single.coeffs.shape == batched.coeffs.shape[:1]
        assert np.array_equal(batched.coeffs[:, k], single.coeffs)


shapes = st.tuples(
    st.integers(1, 4), st.integers(0, 4), st.integers(1, 8), st.integers(0, 2**32 - 1)
)


@settings(max_examples=40, deadline=None)
@given(shapes)
def test_unary_ops_act_column_by_column(shape):
    n_vars, order, batch, seed = shape
    rng = np.random.default_rng(seed)
    for name, fn, shift in UNARY:
        if name == "d" and order == 0:
            continue
        a = J.Jet(n_vars, order, _coeffs(rng, n_vars, order, batch, shift))
        _assert_columns(fn(a), [fn(col) for col in _columns(a)])


@settings(max_examples=40, deadline=None)
@given(shapes)
def test_binary_ops_act_column_by_column(shape):
    n_vars, order, batch, seed = shape
    rng = np.random.default_rng(seed)
    for name, fn in BINARY:
        a = J.Jet(n_vars, order, _coeffs(rng, n_vars, order, batch, 0.0))
        b = J.Jet(n_vars, order, _coeffs(rng, n_vars, order, batch, 4.0))
        const = J.Jet(n_vars, order, _coeffs(rng, n_vars, order, 1, 4.0)[:, 0])
        _assert_columns(fn(a, b), [fn(x, y) for x, y in zip(_columns(a), _columns(b))])
        # a jet of batch shape () broadcasts against a batched one
        _assert_columns(fn(a, const), [fn(x, const) for x in _columns(a)])
        _assert_columns(fn(const, b), [fn(const, y) for y in _columns(b)])


@settings(max_examples=30, deadline=None)
@given(shapes, st.integers(1, 4))
def test_linear_algebra_acts_column_by_column(shape, dim):
    n_vars, order, batch, seed = shape
    size = J._space(n_vars, order).size
    c = np.random.default_rng(seed).uniform(-1.0, 1.0, (size, dim, dim, batch))
    c[0] += 3.0 * dim * np.eye(dim)[..., None]  # diagonally dominant
    inv0 = np.moveaxis(np.linalg.inv(np.moveaxis(c[0], -1, 0)), 0, -1)
    inverse = J.jet_mat_inverse(c, n_vars, inv0)
    for k in range(batch):
        single = J.jet_mat_inverse(c[..., k], n_vars, inv0[..., k])
        assert np.array_equal(inverse[..., k], single)


@pytest.mark.parametrize(
    "x", [2.5, np.float64(2.5), np.array(2.5)], ids=["float", "numpy scalar", "0-d array"]
)
def test_one_point_value_is_a_float(x):
    assert type(as_value(x)) is float
    assert as_value(x) == 2.5


def test_batch_value_is_its_array():
    x = np.array([1.0, 2.0])
    assert as_value(x) is x


def test_batched_domain_error_names_the_first_failing_point():
    a = J.Jet(1, 2, np.array([[1.0, -2.0, -3.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(EvalDomainError, match="log of non-positive value -2") as exc:
        J.log(a)
    assert exc.value.value == -2.0


def test_batched_overflow_is_a_domain_error():
    a = J.Jet(1, 2, np.array([[1.0, 800.0], [1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(EvalDomainError, match="exp series at 800 leaves the float range"):
        J.exp(a)


# -- classify over a batch ----------------------------------------------------

SCENES = {
    "cone": (
        immersion(("u", "v"), ("r*u*cos(v)", "r*u*sin(v)", "u"), {"r": 1.3},
                  AmbientChart("euclidean", 3)),
        ((0.5, 2.0), (-3.0, 3.0)),
    ),
    "S3 slice": (
        immersion(("u", "v"), ("u", "v", "r"), {"r": 1.0}, AmbientChart("sphere", 3)),
        ((-0.6, 0.6), (-0.6, 0.6)),
    ),
    "H3 graph": (
        immersion(("u", "v"), ("u", "v", "0.3+u*v/4"), {}, AmbientChart("hyperbolic", 3)),
        ((-0.4, 0.4), (-0.4, 0.4)),
    ),
    "S4 slice": (
        immersion(("u", "v", "w"), ("u", "v", "w", "r"), {"r": 0.7}, AmbientChart("sphere", 4)),
        ((-0.5, 0.5), (-0.5, 0.5), (-0.5, 0.5)),
    ),
}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(SCENES)), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_classify_batch_equals_points_one_by_one(name, batch, seed):
    spec, box = SCENES[name]
    rng = np.random.default_rng(seed)
    points = [tuple(float(rng.uniform(lo, hi)) for lo, hi in box) for _ in range(batch)]
    record = classify(spec, points, 1e-7)
    one_by_one = classify(
        spec, points, 1e-7, geometries=[PointGeometry(spec, p) for p in points]
    )
    assert record == one_by_one
    singles = [classify(spec, [p], 1e-7) for p in points]
    assert record.scale == max(s.scale for s in singles)
    assert record.max_normal == max(s.max_normal for s in singles)
    assert record.max_tangential == max(s.max_tangential for s in singles)
    assert record.max_mean_curvature == max(s.max_mean_curvature for s in singles)


# A cone in the Poincare ball: degenerate on the axis u = 0 and outside the
# ball once 0.26 u^2 >= 1.
BALL_CONE = immersion(("u", "v"), ("r*u*cos(v)", "r*u*sin(v)", "u/10"), {"r": 0.5},
                      AmbientChart("hyperbolic", 3))
GOOD = [(0.5, 0.1), (1.0, 0.7), (1.2, -0.4), (0.3, 2.0)]
AXIS, OUTSIDE, LONG = (0.0, 0.5), (2.5, 0.3), (1.0, 0.7, 0.3)


@pytest.mark.parametrize(
    "points, error, message",
    [
        (
            GOOD[:2] + [AXIS] + GOOD[2:3] + [OUTSIDE] + GOOD[3:],
            DegenerateImmersionError,
            "degenerate induced metric, det g = 0",
        ),
        (
            GOOD[:2] + [OUTSIDE] + GOOD[2:3] + [AXIS] + GOOD[3:],
            EvalDomainError,
            "point outside Poincare ball, |x|^2 = 1.625",
        ),
    ],
    ids=["degenerate 3rd, outside 5th", "outside 3rd, degenerate 5th"],
)
def test_classify_raises_the_first_failing_points_error(points, error, message):
    with pytest.raises(error) as exc:
        classify(BALL_CONE, points, 1e-7)
    assert type(exc.value) is error
    assert str(exc.value) == message


# -- every per-point refusal: a batch refuses as its first failing point -----


def _jet(values):
    """An order-2 jet in one variable with the value coefficients `values`."""
    values = np.asarray(values, dtype=float)
    c = np.zeros((3,) + values.shape)
    c[0], c[1] = values, 1.0
    return J.Jet(1, 2, c)


def _warp(*columns):
    return WarpEval(*(np.array(c, dtype=float) for c in columns))


def _slice_warp(source, interval):
    return warped.warped_scene(verify.sphere_slice(0.5), source, {}, interval)


def _slice_base():
    return warped.base_point(verify.sphere_slice(0.5), (0.3, -0.2))


def _emit_rows(rows, columns):
    labels = [f"row {i}" for i in rows]
    cli._emit(argparse.Namespace(csv=None, json=None), labels.__getitem__, columns, [])


STEEP_GRAPH = immersion(("u", "v"), ("u", "v", "1e110*u*u+v*v"), {}, AmbientChart("euclidean", 3))
# the first positivity sample of 1-t on [0, 2] that fails
NEGATIVE_SAMPLE = float(np.linspace(0.0, 2.0, warped._POSITIVITY_SAMPLES + 2)[33])
inf, nan = math.inf, math.nan

# site: (a call on a batch whose first failing point is not its first, the
# same call at that point alone)
REFUSALS = {
    "exp series": (lambda: J.exp(_jet([0.0, 800.0, 900.0])), lambda: J.exp(_jet(800.0))),
    "log of non-positive": (lambda: J.log(_jet([1.0, -2.0, -3.0])), lambda: J.log(_jet(-2.0))),
    # a NaN passes the sign check, to the series check
    "log series": (lambda: J.log(_jet([1.0, nan, inf])), lambda: J.log(_jet(nan))),
    "sqrt of non-positive": (lambda: J.sqrt(_jet([4.0, -1.0, -2.0])), lambda: J.sqrt(_jet(-1.0))),
    "reciprocal singular": (
        lambda: J.reciprocal(_jet([2.0, 0.0, 1e-20])), lambda: J.reciprocal(_jet(0.0))
    ),
    "reciprocal series": (
        lambda: J.reciprocal(_jet([2.0, inf, nan])), lambda: J.reciprocal(_jet(inf))
    ),
    # an underflowed term at a varying jet, before a point that is not finite
    "series term underflows": (
        lambda: J.reciprocal(_jet([2.0, 1e200, inf])), lambda: J.reciprocal(_jet(1e200))
    ),
    "jpow of non-finite": (
        lambda: J.jpow(_jet([1.0, inf, nan]), 3), lambda: J.jpow(_jet(inf), 3)
    ),
    "jpow of non-positive": (
        lambda: J.jpow(_jet([1.0, -1.0, -2.0]), 0.5), lambda: J.jpow(_jet(-1.0), 0.5)
    ),
    "jpow series": (
        lambda: J.jpow(_jet([1.0, 1e300, 1e301]), 2.5), lambda: J.jpow(_jet(1e300), 2.5)
    ),
    "Poincare ball": (
        lambda: PointGeometry(BALL_CONE, np.array([GOOD[0], OUTSIDE, (3.0, 0.3)]).T),
        lambda: PointGeometry(BALL_CONE, OUTSIDE),
    ),
    "degenerate metric": (
        lambda: PointGeometry(BALL_CONE, np.array([GOOD[0], AXIS, GOOD[1]]).T),
        lambda: PointGeometry(BALL_CONE, AXIS),
    ),
    "warp not positive": (
        lambda: _warp([0, 1, 2], [1, -1, 0], [0, 0, 0], [0, 0, 0]),
        lambda: WarpEval(1.0, -1.0, 0.0, 0.0),
    ),
    "warp not finite": (
        lambda: _warp([0, 1, 2], [1, 1, 1], [0, inf, nan], [0, 0, 0]),
        lambda: WarpEval(1.0, 1.0, inf, 0.0),
    ),
    # f^4 leaves the float range, and so does the pairing, about 1/f^4
    # over the r = 0.5 slice, which is not biharmonic
    "warp f^4": (
        lambda: warped.pairing(
            _slice_base(), _warp([0, 1, 2], [1, 1e-100, 1e-90], [0, 0, 0], [0, 0, 0])
        ),
        lambda: warped.pairing(_slice_base(), WarpEval(1.0, 1e-100, 0.0, 0.0)),
    ),
    # f'^2 leaves the float range, and so does P
    "warp f'^2": (
        lambda: _warp([0, 1, 2], [1, 1, 1], [0, 1e200, 1e300], [0, 0, 0]).power_residual(2),
        lambda: WarpEval(1.0, 1.0, 1e200, 0.0).power_residual(2),
    ),
    "power residual": (
        lambda: _warp([0, 1, 2], [1, 2, 2], [0, 1e150, 1e150], [0, 1e308, 1e308]).power_residual(2),
        lambda: WarpEval(1.0, 2.0, 1e150, 1e308).power_residual(2),
    ),
    "warp interval": (
        lambda: _slice_warp("exp(t)", (0.0, 1.0)).warp_at(np.array([0.5, 5.0, 6.0])),
        lambda: _slice_warp("exp(t)", (0.0, 1.0)).warp_at(5.0),
    ),
    # alone: the first sample of an interval that starts there
    "warp positivity samples": (
        lambda: _slice_warp("1-t", (0.0, 2.0)),
        lambda: _slice_warp("1-t", (NEGATIVE_SAMPLE, NEGATIVE_SAMPLE + 1.0)),
    ),
    # a pairing of about 8e312 at t = 1e-84, where f = 1e-72
    "pairing": (
        lambda: warped.warped_report(
            _slice_warp("1e12*t", (1e-84, 1.0)), np.array([1.0, 1e-84, 1e-83]), (0.3, -0.2)
        ),
        lambda: warped.warped_report(_slice_warp("1e12*t", (1e-84, 1.0)), 1e-84, (0.3, -0.2)),
    ),
    "residual": (
        lambda: biharmonic.normal_residual(
            PointGeometry(STEEP_GRAPH, np.array([(1e-30, 0.3), (0.0, 0.3), (0.0, 0.2)]).T)
        ),
        lambda: biharmonic.normal_residual(PointGeometry(STEEP_GRAPH, (0.0, 0.3))),
    ),
    # the first failing row over all fields: b's row 1, before a's row 2
    "CLI emitter": (
        lambda: _emit_rows(
            [0, 1, 2], {"a": [1.0, 2.0, nan], "b": [[1.0, 1.0], [1.0, inf], [0.0, 0.0]]}
        ),
        lambda: _emit_rows([1], {"a": [2.0], "b": [[1.0, inf]]}),
    ),
}


@pytest.mark.parametrize("batch, alone", REFUSALS.values(), ids=list(REFUSALS))
def test_a_batch_refuses_as_its_first_failing_point_alone(batch, alone):
    with pytest.raises(WarpgeoError) as single:
        alone()
    with pytest.raises(WarpgeoError) as batched:
        batch()
    assert type(batched.value) is type(single.value)
    assert str(batched.value) == str(single.value)
    # the value a refusal reports, NaN included
    assert repr(getattr(batched.value, "value", None)) == repr(getattr(single.value, "value", None))


# -- classify over several chunks -------------------------------------------


def test_classify_in_chunks_equals_one_batch():
    spec, box = SCENES["cone"]
    rng = np.random.default_rng(11)
    points = [tuple(float(rng.uniform(lo, hi)) for lo, hi in box) for _ in range(1100)]
    assert len(points) > 2 * biharmonic._CHUNK
    one_batch = PointGeometry(spec, np.array(points).T)
    assert classify(spec, points, 1e-7) == classify(
        spec, points, 1e-7, geometries=[one_batch]
    )


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ([AXIS, GOOD[0], OUTSIDE], DegenerateImmersionError, "det g = 0"),
        ([OUTSIDE, GOOD[0], AXIS], EvalDomainError, "|x|^2 = 1.625"),
        ([AXIS, GOOD[0], LONG], DegenerateImmersionError, "det g = 0"),
        ([LONG, GOOD[0], AXIS], UsageError, "point has 3 coords, expected 2"),
    ],
    ids=["degenerate first", "outside first", "degenerate, then a wrong length",
         "wrong length first"],
)
def test_classify_names_the_first_failing_point_of_a_later_chunk(bad, error, message):
    points = GOOD * 40 + bad + GOOD * 10  # the failures sit in the second chunk
    first = len(GOOD) * 40
    assert biharmonic._CHUNK < first and first + len(bad) <= 2 * biharmonic._CHUNK
    with pytest.raises(error) as exc:
        classify(BALL_CONE, points, 1e-7)
    assert type(exc.value) is error
    assert str(exc.value).endswith(message)


def test_classify_names_a_degenerate_point_before_a_wrong_length_in_a_later_chunk():
    points = GOOD + [AXIS] + GOOD * 150 + [LONG]
    assert len(points) - 1 >= biharmonic._CHUNK
    with pytest.raises(DegenerateImmersionError, match="det g = 0$"):
        classify(BALL_CONE, points, 1e-7)


# -- a parameter as a batch -------------------------------------------------


def test_batched_param_equals_values_one_by_one():
    exponent = immersion(
        ("u", "v"), ("u", "v", "u^p+v"), {"p": 2.0}, AmbientChart("euclidean", 3)
    )
    for spec, param, values, point in [
        # verify's scan: the r = 1 cone's 31 samples at (1, 1)
        (SCENES["cone"][0], "r", np.linspace(0.5, 2.0, 31), (1.0, 1.0)),
        # a param in an exponent: each point takes its own power rule
        (exponent, "p", np.linspace(1.5, 3.0, 16), (0.5, 0.3)),
    ]:
        batched = tuple(np.full(len(values), c) for c in point)
        batch = biharmonic.normal_residual(
            PointGeometry(spec.with_params(**{param: values}), batched)
        )
        singles = [
            biharmonic.normal_residual(
                PointGeometry(spec.with_params(**{param: float(x)}), point)
            )
            for x in values
        ]
        assert np.array_equal(batch, singles)


# -- the rows of a batched build ----------------------------------------------


def _same_bits(a, b):
    """a and b hold the same floats bit for bit: values, shapes and the
    signs of zeros."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _assert_same_geometry(row, one):
    assert vars(row).keys() == vars(one).keys()
    for name, expected in vars(one).items():
        got = getattr(row, name)
        if isinstance(expected, J.Jet):
            assert (got.n_vars, got.order) == (expected.n_vars, expected.order), name
            assert _same_bits(got.coeffs, expected.coeffs), name
        elif expected is None or name in ("spec", "point"):
            assert got == expected, name
        else:
            assert _same_bits(got, expected), name


H3_BALL_SLICE = lambda r: immersion(  # noqa: E731
    ("u", "v"), ("u", "v", "r"), {"r": r}, AmbientChart("hyperbolic", 3)
)
ROW_FAMILIES = {
    "S3 slice": (verify.sphere_slice, verify.SLICE_POINTS, (1.0, 2.0)),
    # Euclidean: e2 is one unbatched constant jet
    "cone": (verify.cone, verify.CONE_POINTS, (1.0, 2.0)),
    "H3 ball slice": (H3_BALL_SLICE, ((0.0, 0.0), (0.3, -0.2), (-0.4, 0.1)), (0.5, -0.25)),
    "S4 slice": (
        lambda r: verify.sphere_slice(r, m=3),
        ((0.3, -0.2, 0.1), (0.0, 0.0, 0.0), (-0.5, 0.1, 0.2)),
        (1.0, 0.7),
    ),
    # codimension 2: no hypersurface fields
    "S4 codim-2": (
        lambda r: immersion(("u", "v"), ("u", "v", "r*u*v", "r/2"), {"r": r},
                            AmbientChart("sphere", 4)),
        ((0.3, -0.2), (0.0, 0.0), (-0.4, 0.1)),
        (1.0, 0.6),
    ),
    "S2 curve": (
        lambda r: immersion(("u",), ("r*cos(u)/2", "sin(u)/2"), {"r": r},
                            AmbientChart("sphere", 2)),
        ((0.3,), (0.0,), (-1.1,)),
        (1.0, 1.5),
    ),
}


@pytest.mark.parametrize("name", sorted(ROW_FAMILIES))
def test_row_equals_a_one_point_build(name):
    make, points, radii = ROW_FAMILIES[name]
    family = verify._family(make, points, radii)
    for j, r in enumerate(radii):
        for i, p in enumerate(points):
            _assert_same_geometry(family.row(j * len(points) + i), PointGeometry(make(r), p))


@pytest.mark.parametrize(
    "name, param",
    [("S3 slice", "r"), ("cone", "r"), ("S3 slice", "s")],
    ids=["S3 slice", "cone", "S3 slice, unread param"],
)
def test_row_of_a_param_batch_equals_a_one_point_build(name, param):
    # the point is floats and only `param` is batched, as in a scan; the
    # cone's e2 is still one unbatched jet, and no component reads s, so
    # that build is one unbatched geometry whose rows differ in spec alone
    make, _, _ = ROW_FAMILIES[name]
    radii = np.array([0.5, 1.0, 1.7])
    point = (0.3, -0.2) if name == "S3 slice" else (1.0, 0.7)
    family = PointGeometry(make(1.0).with_params(**{param: radii}), point)
    for i, r in enumerate(radii):
        one = PointGeometry(make(1.0).with_params(**{param: float(r)}), point)
        _assert_same_geometry(family.row(i), one)
