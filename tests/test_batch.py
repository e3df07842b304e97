"""The batched jet engine: a jet of coefficient shape (size, *batch) must act
on each point of its batch exactly as on that point alone, and classify over
a batch must give the record of its points one by one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpgeo import AmbientChart, biharmonic, classify, immersion
from warpgeo import jet as J
from warpgeo.errors import DegenerateImmersionError, EvalDomainError, UsageError
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
