import numpy as np
import pytest

from warpgeo import ambient, oracle, verify, warped
from warpgeo.ambient import AmbientChart
from warpgeo.biharmonic import normal_residual, tangential_residual
from warpgeo.errors import DegenerateImmersionError, UsageError
from warpgeo.immersion import PointGeometry, immersion


# hypersurfaces that are not biharmonic: the three surfaces of
# test_equals_residual_split and a graph over a 3-dimensional domain
NON_BIHARMONIC = [
    ("euclidean", ("1.3*u*cos(v)", "1.3*u*sin(v)", "u"), (1.0, 0.7)),
    ("hyperbolic", ("u", "v", "0.3+0.2*u*u-0.1*u*v"), (0.1, -0.2)),
    ("sphere", ("u", "v", "0.5+u*v+0.3*u*u"), (0.2, 0.3)),
    ("sphere", ("u", "v", "w", "0.3+0.1*u*v+0.2*w*w"), (0.1, -0.2, 0.15)),
]
NON_BIHARMONIC_IDS = ["cone r=1.3", "graph in H3", "graph in S3", "graph in S4"]


def unit_vector(g_val, i=0):
    x = np.zeros(len(g_val))
    x[i] = 1.0
    return x / np.sqrt(x @ g_val @ x)


class TestTension:
    @pytest.mark.parametrize("point", [(0.3, -0.2), (0.2, 0.4)])
    def test_inclusion_tension_is_mH(self, sphere_slice, cone, point):
        for spec in (sphere_slice(1.0), cone(1.0)):
            tau = oracle.tension_first_principles(oracle.inclusion_map(spec), point)
            pg = PointGeometry(spec, point)
            ref = spec.m * pg.H_val
            assert np.allclose(tau, ref, atol=1e-9 * (1 + np.abs(ref).max()))

    def test_plane_is_harmonic(self, plane):
        tau = oracle.tension_first_principles(oracle.inclusion_map(plane), (0.4, -1.2))
        assert np.allclose(tau, 0.0, atol=1e-10)

    def test_degenerate_domain_metric(self, cone):
        # on the cone's axis u = 0 the domain metric has rank 1
        with pytest.raises(DegenerateImmersionError, match="det g = 0"):
            oracle.tension_first_principles(oracle.inclusion_map(cone(1.0)), (0.0, 1.0))


class TestBitension:
    @pytest.mark.parametrize("point", [(0.3, -0.2), (-0.5, 0.1)])
    def test_self_consistency_slice(self, sphere_slice, point):
        spec = sphere_slice(1.0)
        fp = oracle.bitension_first_principles(oracle.inclusion_map(spec), point)
        closed = oracle.submanifold_bitension(PointGeometry(spec, point))
        assert np.allclose(fp, closed, atol=1e-7 * (1 + np.abs(closed).max()))

    def test_self_consistency_cone(self, cone):
        spec = cone(1.3)
        point = (1.0, 0.7)
        fp = oracle.bitension_first_principles(oracle.inclusion_map(spec), point)
        closed = oracle.submanifold_bitension(PointGeometry(spec, point))
        assert np.allclose(fp, closed, atol=1e-7 * (1 + np.abs(closed).max()))

    @pytest.mark.parametrize(
        "model, components, point", NON_BIHARMONIC[:3], ids=NON_BIHARMONIC_IDS[:3]
    )
    def test_equals_residual_split(self, model, components, point):
        # tau_2 = (normal residual) eta + (tangential residual) on
        # hypersurfaces that are not biharmonic
        spec = immersion(("u", "v"), components, {}, AmbientChart(model, 3))
        pg = PointGeometry(spec, point)
        tau2 = oracle.submanifold_bitension(pg)
        tangential, _ = tangential_residual(pg)
        ref = normal_residual(pg) * pg.eta_val + tangential
        assert np.abs(ref).max() > 1e-2
        assert np.allclose(tau2, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("warp", [None, "1", "exp(t)", "2+cos(t)"])
    @pytest.mark.parametrize(
        "model, components, point", NON_BIHARMONIC, ids=NON_BIHARMONIC_IDS
    )
    def test_matches_closed_forms_off_biharmonic(self, model, components, point, warp):
        # the oracle against the submanifold closed form (warp None) and
        # the warped closed form at t = 0.3, on bases that are not biharmonic
        variables = ("u", "v", "w")[: len(point)]
        spec = immersion(variables, components, {}, AmbientChart(model, len(components)))
        if warp is None:
            ref = oracle.submanifold_bitension(PointGeometry(spec, point))
            got = oracle.bitension_first_principles(oracle.inclusion_map(spec), point)
        else:
            scene = warped.warped_scene(spec, warp, {}, (-1.0, 1.0))
            base = warped.base_point(spec, point)
            w = scene.warp_at(0.3)
            ref = warped.to_chart(base, w, warped.inclusion_bitension(base, w).vec)
            got = oracle.bitension_first_principles(
                oracle.warped_inclusion_map(scene), (0.3,) + point
            )
        assert np.abs(ref).max() > 1e-3
        assert np.allclose(got, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())

    def test_oracle_borrows_no_curvature(self, monkeypatch, sphere_slice):
        def closed_form(*args):
            raise AssertionError("the oracle called a closed-form curvature")

        monkeypatch.setattr(oracle, "spaceform_curvature", closed_form)
        monkeypatch.setattr(ambient, "spaceform_curvature", closed_form)
        for model, components, point in NON_BIHARMONIC[:3]:
            spec = immersion(("u", "v"), components, {}, AmbientChart(model, 3))
            oracle.bitension_first_principles(oracle.inclusion_map(spec), point)
        scene = warped.warped_scene(sphere_slice(1.0), "exp(t)", {}, (-0.5, 1.0))
        got = oracle.bitension_first_principles(
            oracle.warped_inclusion_map(scene), (0.3, 0.3, -0.2)
        )
        assert np.isfinite(got).all()

    def test_slice_r1_bitension_vanishes(self, sphere_slice):
        spec = sphere_slice(1.0)
        tau2 = oracle.submanifold_bitension(PointGeometry(spec, (0.3, -0.2)))
        assert np.allclose(tau2, 0.0, atol=1e-7)

    def test_frame_independence(self, cone):
        # same surface with the chart variables listed in the other order:
        # the assembled bitension (ambient components) must not move
        chart = AmbientChart("euclidean", 3)
        a = cone(1.3)
        b = immersion(("v", "u"), ("r*u*cos(v)", "r*u*sin(v)", "u"), {"r": 1.3}, chart)
        fa = oracle.bitension_first_principles(oracle.inclusion_map(a), (1.0, 0.7))
        fb = oracle.bitension_first_principles(oracle.inclusion_map(b), (0.7, 1.0))
        assert np.allclose(fa, fb, atol=1e-9 * (1 + np.abs(fa).max()))

    def test_point_arity(self, cone):
        with pytest.raises(UsageError):
            oracle.tension_first_principles(oracle.inclusion_map(cone(1.0)), (1.0,))

    def test_warped_map_refuses_t_outside_the_interval(self, sphere_slice):
        # the warp is checked positive on its interval only
        scene = warped.warped_scene(sphere_slice(1.0), "exp(t)", {}, (-0.5, 1.0))
        with pytest.raises(UsageError, match="outside the warp interval"):
            oracle.tension_first_principles(
                oracle.warped_inclusion_map(scene), (5.0, 0.3, -0.2)
            )


class TestRicci:
    def test_euclidean_flat(self, chart_identity_map):
        ms = chart_identity_map(AmbientChart("euclidean", 3))
        riem, _ = oracle.curvature_components(ms, (0.3, 1.0, -2.0))
        assert oracle.ricci(riem, np.array([1.0, 2.0, -1.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_slice_gauss_curvature(self, sphere_slice):
        # induced metric of the r=1 slice has Ric(X, X) = 2 for unit X
        spec = sphere_slice(1.0)
        point = (0.3, -0.2)
        riem, _ = oracle.curvature_components(oracle.inclusion_map(spec), point)
        g_val = PointGeometry(spec, point).g_val
        for i in range(2):
            x = unit_vector(g_val, i)
            assert oracle.ricci(riem, x) == pytest.approx(2.0, abs=1e-7)

    def test_product_metric_keeps_base_ricci(self, sphere_slice):
        # f == 1: the warped metric is a product, Ric~(X, X) = Ric(X, X)
        spec = sphere_slice(1.0)
        scene = warped.warped_scene(spec, "1", {}, (-1.0, 1.0))
        point = (0.3, -0.2)
        g_val = PointGeometry(spec, point).g_val
        x = unit_vector(g_val)
        base_riem, _ = oracle.curvature_components(oracle.inclusion_map(spec), point)
        prod_riem, _ = oracle.curvature_components(
            oracle.warped_inclusion_map(scene), (0.2,) + point
        )
        base = oracle.ricci(base_riem, x)
        prod = oracle.ricci(prod_riem, np.concatenate(([0.0], x)))
        assert prod == pytest.approx(base, abs=1e-8)

    def test_first_bianchi_warped(self, sphere_slice, rng):
        spec = sphere_slice(1.0)
        scene = warped.warped_scene(spec, "exp(t)", {}, (-0.5, 1.0))
        ms = oracle.warped_inclusion_map(scene)
        for _ in range(3):
            p = (float(rng.uniform(-0.3, 0.6)), *rng.uniform(-0.4, 0.4, size=2))
            riem, _ = oracle.curvature_components(ms, p)
            x, y, z = rng.normal(size=(3, 3))
            cyc = (
                np.einsum("lijk,i,j,k->l", riem, x, y, z)
                + np.einsum("lijk,i,j,k->l", riem, y, z, x)
                + np.einsum("lijk,i,j,k->l", riem, z, x, y)
            )
            assert np.allclose(cyc, 0.0, atol=1e-9)


class TestSeedOrders:
    """Each oracle quantity is seeded at the lowest jet order it reads; a
    truncated coefficient depends only on coefficients of no higher degree,
    so the values equal those of the order-4 record bit for bit."""

    @pytest.fixture
    def specs(self, sphere_slice, cone):
        graph = immersion(
            ("u", "v"), ("u", "v", "0.5+u*v+0.3*u*u"), {}, AmbientChart("sphere", 3)
        )
        return {
            "cone": (cone(1.0), (1.0, 0.7)),
            "slice": (sphere_slice(1.0), (0.3, -0.2)),
            "graph in S3": (graph, (0.2, 0.3)),
        }

    @pytest.mark.parametrize("name", ["cone", "slice", "graph in S3", "warped"])
    def test_tension_equals_the_record(self, specs, name):
        if name == "warped":
            spec, point = specs["slice"]
            scene = warped.warped_scene(spec, "sqrt(t+2)", {}, (-0.5, 1.0))
            mapspec, point = oracle.warped_inclusion_map(scene), (0.3,) + point
        else:
            spec, point = specs[name]
            mapspec = oracle.inclusion_map(spec)
        rec = oracle.first_principles(mapspec, point)
        tau = oracle.tension_first_principles(mapspec, point)
        assert np.array_equal(tau, rec.tension)
        assert np.array_equal(
            oracle.bitension_first_principles(mapspec, point), rec.bitension
        )

    @pytest.mark.parametrize("warp", ["exp(t)", "2+cos(t)", "(3*t+1)^(1/2)"])
    def test_record_riemann_equals_the_warped_map(self, sphere_slice, warp):
        scene = warped.warped_scene(sphere_slice(1.0), warp, {}, (0.0, 1.0))
        point = (0.3, 0.3, -0.2)
        mapspec = oracle.warped_inclusion_map(scene)
        rec = oracle.first_principles(mapspec, point)
        riem, _ = oracle.curvature_components(mapspec, point)
        assert np.array_equal(rec.riemann, riem)

    @pytest.mark.parametrize("name", ["cone", "slice", "graph in S3"])
    def test_record_riemann_equals_the_inclusion_map(self, specs, name):
        spec, point = specs[name]
        mapspec = oracle.inclusion_map(spec)
        rec = oracle.first_principles(mapspec, point)
        riem, _ = oracle.curvature_components(mapspec, point)
        assert np.array_equal(rec.riemann, riem)


class TestBatch:
    """The oracle over a batch of points, here t samples of a warped map:
    each value array carries the batch axes first, and each row equals the
    oracle at that point alone bit for bit."""

    @staticmethod
    def _same(a, b):
        return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    @pytest.mark.parametrize("warp", ["exp(t)", "sqrt(t+2)", "2+cos(t)", "2"])
    @pytest.mark.parametrize("base", ["slice", "cone"])
    def test_batch_equals_its_points(self, sphere_slice, cone, base, warp):
        spec, point = (
            (sphere_slice(1.0), (0.3, -0.2)) if base == "slice" else (cone(1.0), (1.0, 0.7))
        )
        mapspec = oracle.warped_inclusion_map(
            warped.warped_scene(spec, warp, {}, (-0.5, 1.0))
        )
        ts = np.array([0.0, 0.3, -0.45, 0.9])
        rec = oracle.first_principles(mapspec, (ts,) + point)
        tau = oracle.tension_first_principles(mapspec, (ts,) + point)
        assert rec.tension.shape == tau.shape == (4, 4)
        assert rec.riemann.shape == (4,) + (3,) * 4
        for i, t in enumerate(ts):
            one = oracle.first_principles(mapspec, (float(t),) + point)
            assert self._same(rec.tension[i], one.tension)
            assert self._same(rec.bitension[i], one.bitension)
            assert self._same(rec.riemann[i], one.riemann)
            assert self._same(tau[i], oracle.tension_first_principles(mapspec, (t,) + point))

    def test_batch_over_chart_points(self, sphere_slice):
        # coordinates of one shape: a batch over points of M at one t
        mapspec = oracle.warped_inclusion_map(
            warped.warped_scene(sphere_slice(1.0), "exp(t)", {}, (-0.5, 1.0))
        )
        us, vs = np.array([0.3, -0.1, 0.2]), np.array([-0.2, 0.4, 0.0])
        rec = oracle.first_principles(mapspec, (0.3, us, vs))
        for i in range(3):
            one = oracle.first_principles(mapspec, (0.3, us[i], vs[i]))
            assert self._same(rec.bitension[i], one.bitension)


FAMILY_WARPS = ("exp(t)", "sqrt(t+2)", "2+cos(t)", "2")


class TestWarpFamily:
    """verify's warp family: the warped scenes of one immersion as one map,
    the scenes a leading batch axis of t.  Row i of each value array equals
    the oracle of scene i's own map over row i of t bit for bit."""

    @pytest.fixture(params=["S3 slice", "cone", "S4 slice"])
    def base(self, request, sphere_slice, cone):
        return {
            "S3 slice": (sphere_slice(1.0), (0.3, -0.2)),
            "cone": (cone(1.0), (1.0, 0.7)),
            "S4 slice": (sphere_slice(1.0, m=3), (0.3, -0.2, 0.1)),
        }[request.param]

    def test_rows_equal_their_scenes(self, base):
        spec, point = base
        scenes = [warped.warped_scene(spec, w, {}, (-0.5, 1.0)) for w in FAMILY_WARPS]
        family = oracle.warped_inclusion_map(verify._WarpFamily(spec, tuple(scenes)))
        # a different t row per scene
        ts = np.array([[0.0, 0.3], [-0.45, 0.9], [0.3, 0.0], [0.7, -0.2]])
        rec = oracle.first_principles(family, (ts,) + point)
        tau = oracle.tension_first_principles(family, (ts,) + point)
        d = spec.m + 1
        assert rec.riemann.shape == (4, 2) + (d,) * 4
        for i, scene in enumerate(scenes):
            own = oracle.warped_inclusion_map(scene)
            one = oracle.first_principles(own, (ts[i],) + point)
            assert TestBatch._same(rec.tension[i], one.tension)
            assert TestBatch._same(rec.bitension[i], one.bitension)
            assert TestBatch._same(rec.riemann[i], one.riemann)
            assert TestBatch._same(tau[i], oracle.tension_first_principles(own, (ts[i],) + point))

    def test_verify_records_equal_their_scenes(self, sphere_slice):
        point = verify.WARP_POINT
        spec = sphere_slice(1.0)
        scenes = verify._warp_scenes(spec)
        records = verify._oracle_records(scenes, spec, point)
        for src, scene in scenes.items():
            one = oracle.first_principles(
                oracle.warped_inclusion_map(scene), (verify.T_SAMPLES,) + point
            )
            for name in ("tension", "bitension", "riemann"):
                assert TestBatch._same(getattr(records[src], name), getattr(one, name))

    def test_scenes_of_one_immersion_serve_another(self, sphere_slice, cone):
        # a warp reads no immersion: the slice's scenes over the cone give
        # the oracle of the cone's own scenes bit for bit
        point = verify.CONE_POINTS[-1]
        records = verify._oracle_records(verify._warp_scenes(sphere_slice(1.0)), cone(1.0), point)
        own = verify._oracle_records(verify._warp_scenes(cone(1.0)), cone(1.0), point)
        for src, rec in records.items():
            for name in ("tension", "bitension", "riemann"):
                assert TestBatch._same(getattr(rec, name), getattr(own[src], name))

    def test_names_the_t_outside_one_scene_interval(self, sphere_slice):
        spec = sphere_slice(1.0)
        scenes = (
            warped.warped_scene(spec, "exp(t)", {}, (-0.5, 1.0)),
            warped.warped_scene(spec, "2+cos(t)", {}, (-0.5, 0.2)),
        )
        family = oracle.warped_inclusion_map(verify._WarpFamily(spec, scenes))
        ts = np.array([[0.0, 0.3], [0.0, 0.3]])
        message = r"^t = 0.3 lies outside the warp interval \[-0.5, 0.2\]"
        with pytest.raises(UsageError, match=message):
            oracle.first_principles(family, (ts, 0.3, -0.2))
