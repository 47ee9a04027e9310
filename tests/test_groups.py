"""Unit tests for the invariance groups: sampler laws, actions, and
composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from invartest.groups import (
    KINDS,
    GroupAction,
    GroupElement,
    apply_action,
    compose,
    sample_haar_orthogonal,
    sample_permutation,
    sample_signflips,
    sample_sphere_image,
)
from invartest.numerics import RngStream, qr_orthonormalize


class TestSignflips:
    def test_single_row_frequency(self):
        gen = RngStream(41001).generator()
        draws = np.array([sample_signflips(1, gen).payload[0] for _ in range(100_000)])
        freq = np.mean(draws == 1.0)
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 100_000)

    def test_mean_of_many_signs(self):
        gen = RngStream(41002).generator()
        n, reps = 8, 100_000
        total = np.zeros(n)
        for _ in range(reps):
            total += sample_signflips(n, gen).payload
        grand_mean = total.sum() / (reps * n)
        assert abs(grand_mean) <= 3.0 / np.sqrt(reps * n)

    def test_direct_action(self):
        g = GroupElement("signflip_rows", np.array([-1.0, 1.0]))
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert_array_equal(apply_action(g, x), [[-1.0, -2.0], [3.0, 4.0]])

    def test_vector_action(self):
        g = GroupElement("signflip_rows", np.array([1.0, -1.0, -1.0]))
        assert_array_equal(apply_action(g, [1.0, 2.0, 3.0]), [1.0, -2.0, -3.0])

    def test_payload_values(self):
        gen = RngStream(41003).generator()
        signs = sample_signflips(20, gen).payload
        assert set(np.unique(signs)) <= {-1.0, 1.0}

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sample_signflips(0, RngStream(1).generator())


class TestPermutations:
    def test_single_row_is_identity(self):
        gen = RngStream(41004).generator()
        for _ in range(5):
            assert_array_equal(sample_permutation(1, gen).payload, [0])

    def test_uniform_over_s3(self):
        gen = RngStream(41005).generator()
        reps = 60_000
        counts = {}
        for _ in range(reps):
            key = tuple(sample_permutation(3, gen).payload)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        se = np.sqrt((1 / 6) * (5 / 6) / reps)
        for key, c in counts.items():
            assert abs(c / reps - 1 / 6) <= 3 * se, key

    def test_direct_action_swap(self):
        g = GroupElement("permute_rows", np.array([1, 0]))
        assert_array_equal(apply_action(g, [[1.0], [5.0]]), [[5.0], [1.0]])

    def test_row_multiset_preserved(self):
        gen = RngStream(41006).generator()
        x = gen.standard_normal((6, 3))
        g = sample_permutation(6, gen)
        y = apply_action(g, x)
        assert_array_equal(np.sort(y, axis=0), np.sort(x, axis=0))


class TestHaarOrthogonal:
    def test_p1_is_random_sign(self):
        gen = RngStream(41007).generator()
        vals = {float(sample_haar_orthogonal(1, gen).payload[0, 0]) for _ in range(50)}
        assert vals == {-1.0, 1.0}

    def test_orthogonality(self):
        gen = RngStream(41008).generator()
        o = sample_haar_orthogonal(8, gen).payload
        assert np.linalg.norm(o.T @ o - np.eye(8)) <= 1e-10

    def test_first_entry_second_moment(self):
        # O_11^2 has mean 1/p; its variance is 2(p-1)/(p^2 (p+2))
        gen = RngStream(41009).generator()
        p, reps = 5, 20_000
        vals = np.array(
            [sample_haar_orthogonal(p, gen).payload[0, 0] ** 2 for _ in range(reps)]
        )
        var = 2 * (p - 1) / (p**2 * (p + 2))
        assert abs(vals.mean() - 1 / p) <= 3 * np.sqrt(var / reps)

    def test_rotation_isometry(self):
        gen = RngStream(41010).generator()
        x = gen.standard_normal((4, 6))
        g = sample_haar_orthogonal(6, gen)
        y = apply_action(g, x)
        assert_allclose(
            np.linalg.norm(y, axis=1), np.linalg.norm(x, axis=1), atol=1e-10
        )


class TestSphereImage:
    def test_zero_maps_to_zero(self):
        assert_array_equal(
            sample_sphere_image(np.zeros(4), RngStream(1).generator()), np.zeros(4)
        )

    def test_norm_preserved(self):
        gen = RngStream(41011).generator()
        for _ in range(20):
            x = gen.standard_normal(7) * 3.0
            y = sample_sphere_image(x, gen)
            assert np.linalg.norm(y) == pytest.approx(
                np.linalg.norm(x), rel=1e-12
            )

    def test_first_coordinate_uniform_p3(self):
        # on S^2 each coordinate of a uniform point is uniform on [-1, 1]
        gen = RngStream(41012).generator()
        x = np.array([1.0, 0.0, 0.0])
        coords = np.array(
            [sample_sphere_image(x, gen)[0] for _ in range(5000)]
        )
        res = stats.kstest(coords, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert res.pvalue > 0.01

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="vector"):
            sample_sphere_image(np.ones((2, 2)), RngStream(1).generator())


# the identity of each kind acting on a 5x3 matrix
IDENTITIES = {
    "signflip_rows": GroupElement("signflip_rows", np.ones(5)),
    "permute_rows": GroupElement("permute_rows", np.arange(5)),
    "rotate_full": GroupElement("rotate_full", np.eye(3)),
    "rotate_per_column": GroupElement("rotate_per_column", (np.eye(5),) * 3),
}


class TestApplyAction:
    @pytest.mark.parametrize("kind", KINDS)
    def test_identity_is_exact(self, kind):
        gen = RngStream(41013).generator()
        x = gen.standard_normal((5, 3))
        assert_array_equal(apply_action(IDENTITIES[kind], x), x)

    def test_all_minus_one_negates(self):
        x = RngStream(41014).generator().standard_normal((4, 2))
        g = GroupElement("signflip_rows", -np.ones(4))
        assert_array_equal(apply_action(g, x), -x)

    def test_dimension_mismatches(self):
        x = np.ones((3, 2))
        with pytest.raises(ValueError, match="cannot act"):
            apply_action(GroupElement("signflip_rows", np.ones(4)), x)
        with pytest.raises(ValueError, match="cannot act"):
            apply_action(GroupElement("permute_rows", np.arange(5)), x)
        with pytest.raises(ValueError, match="cannot act"):
            apply_action(GroupElement("rotate_full", np.eye(4)), x)

    def test_per_column_rotation_preserves_column_norms(self):
        gen = RngStream(41015).generator()
        x = gen.standard_normal((6, 3))
        action = GroupAction("rotate_per_column", n=6, p=3)
        y = apply_action(action.sample(gen), x)
        assert_allclose(
            np.linalg.norm(y, axis=0), np.linalg.norm(x, axis=0), atol=1e-10
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown group kind"):
            GroupElement("reflect_rows", None)


class TestCompose:
    def test_signflip_composition_exact(self):
        gen = RngStream(41016).generator()
        for n in range(2, 9):
            x = gen.standard_normal((n, 2))
            for _ in range(50):
                g = sample_signflips(n, gen)
                h = sample_signflips(n, gen)
                assert_array_equal(
                    apply_action(compose(g, h), x), apply_action(g, apply_action(h, x))
                )

    def test_permutation_composition_exact(self):
        gen = RngStream(41017).generator()
        for n in range(2, 9):
            x = gen.standard_normal((n, 2))
            for _ in range(50):
                g = sample_permutation(n, gen)
                h = sample_permutation(n, gen)
                assert_array_equal(
                    apply_action(compose(g, h), x), apply_action(g, apply_action(h, x))
                )

    def test_identity_is_neutral(self):
        gen = RngStream(41018).generator()
        g = sample_permutation(4, gen)
        e = GroupElement("permute_rows", np.arange(4))
        assert_array_equal(compose(g, e).payload, g.payload)
        assert_array_equal(compose(e, g).payload, g.payload)

    def test_mixed_kinds_rejected(self):
        g = GroupElement("signflip_rows", np.ones(3))
        h = GroupElement("permute_rows", np.arange(3))
        with pytest.raises(ValueError, match="compose"):
            compose(g, h)

    def test_continuous_kinds_rejected(self):
        g = GroupElement("rotate_full", np.eye(3))
        with pytest.raises(ValueError, match="discrete"):
            compose(g, g)


class TestGroupAction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupAction("signflip_rows")
        with pytest.raises(ValueError):
            GroupAction("rotate_full", n=5)
        with pytest.raises(ValueError):
            GroupAction("permute_rows", n=0)

    def test_randomize_matches_sample_apply_in_law(self):
        # lazy sphere-image path vs eager matrix path: same distribution
        gen_a = RngStream(41019, 0).generator()
        gen_b = RngStream(41019, 1).generator()
        action = GroupAction("rotate_full", p=6)
        x = RngStream(41019, 2).generator().standard_normal(6)
        lazy = np.array(
            [np.max(np.abs(action.randomize(x, gen_a))) for _ in range(4000)]
        )
        eager = np.array(
            [
                np.max(np.abs(apply_action(action.sample(gen_b), x)))
                for _ in range(4000)
            ]
        )
        res = stats.ks_2samp(lazy, eager)
        assert res.pvalue > 0.01

    def test_randomize_signflip_reproducible(self):
        action = GroupAction("signflip_rows", n=10)
        x = RngStream(41020).generator().standard_normal((10, 2))
        a = action.randomize(x, RngStream(7).generator())
        b = action.randomize(x, RngStream(7).generator())
        assert_array_equal(a, b)


# A frozen copy of the one-element-at-a-time draw: randomize_batch must read
# the stream exactly as K calls of it. The signflip and rotate_full branches
# are the per-element draw GroupAction.randomize made before the batched
# draw; the permute_rows and rotate_per_column branches are the two-sample
# and lowrank power-study kernels' expressions, one element at a time. A
# vector under rotate_per_column is one column here.

def _loop_sphere_image(x, gen):
    radius = float(np.linalg.norm(x))
    if radius == 0.0:
        return np.zeros_like(x)
    while True:
        z = gen.standard_normal(x.size)
        norm = float(np.linalg.norm(z))
        if norm > 0.0:
            return z * (radius / norm)


def _loop_haar(p, gen):
    while True:
        g = gen.standard_normal((p, p))
        q, r = np.linalg.qr(g)
        diag = np.diagonal(r).copy()
        scale = np.linalg.norm(g)
        if not (np.any(np.abs(diag) < 1e-12 * scale) or scale == 0.0):
            return q * np.sign(diag)[None, :]


def _loop_randomize(kind, arr, gen):
    if kind == "signflip_rows":
        signs = (gen.integers(0, 2, size=arr.shape[0]) * 2 - 1).astype(float)
        return signs * arr if arr.ndim == 1 else signs[:, None] * arr
    if kind == "permute_rows":
        return arr[np.argsort(gen.random(arr.shape[0]))]
    if kind == "rotate_full":
        if arr.ndim == 1:
            return _loop_sphere_image(arr, gen)
        if arr.shape[0] == 1:
            return _loop_sphere_image(arr[0], gen)[None, :]
        return arr @ _loop_haar(arr.shape[1], gen).T
    cols = arr[:, None] if arr.ndim == 1 else arr
    z = gen.standard_normal(cols.shape)
    norms = np.linalg.norm(z, axis=0, keepdims=True)
    z /= np.where(norms > 0.0, norms, 1.0)
    z *= np.linalg.norm(cols, axis=0)[None, :]
    return z.reshape(arr.shape)


def _action_for(kind, arr):
    n = arr.shape[0]
    p = 1 if arr.ndim == 1 else arr.shape[1]
    if kind == "rotate_full":
        return GroupAction(kind, p=arr.shape[-1])
    return GroupAction(kind, n=n, p=p)


# derandomized, so that every run of the suite checks the same examples
class TestRandomizeBatch:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(KINDS), vector=st.booleans(),
           n=st.integers(1, 9), p=st.integers(1, 9), K=st.integers(1, 50),
           zero_cols=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_element_loop(self, kind, vector, n, p, K, zero_cols, seed):
        if kind == "rotate_full" and not vector and 1 < n < p:
            p = n  # the wide case draws a Stiefel frame instead (law test below)
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(n if vector else (n, p))
        if not vector:
            x[:, :min(zero_cols, p)] = 0.0
        action = _action_for(kind, x)
        batch = action.randomize_batch(x, K, np.random.default_rng(seed + 1))
        loop_gen = np.random.default_rng(seed + 1)
        loop = np.stack([_loop_randomize(kind, x, loop_gen) for _ in range(K)])
        batch_gen = np.random.default_rng(seed + 1)
        action.randomize_batch(x, K, batch_gen)
        assert batch.shape == (K, *x.shape)
        assert batch.tobytes() == loop.tobytes()
        assert batch_gen.random() == loop_gen.random()

    def test_randomize_is_the_first_batch_image(self):
        x = RngStream(41021).generator().standard_normal((5, 3))
        for kind in KINDS:
            action = _action_for(kind, x)
            one = action.randomize(x, RngStream(41022).generator())
            first = action.randomize_batch(x, 1, RngStream(41022).generator())[0]
            assert one.tobytes() == first.tobytes()

    @pytest.mark.parametrize("rank", [3, 1])
    def test_stiefel_draw_matches_eager_rotation_in_law(self, rank):
        # 1 < n < p: the lazy image R^T S^T against X O^T with O Haar on R^p
        gen = RngStream(41023, rank).generator()
        x = gen.standard_normal((3, rank)) @ gen.standard_normal((rank, 6))
        action = GroupAction("rotate_full", p=6)
        draws = 3000
        lazy = action.randomize_batch(x, draws, RngStream(41024, rank))
        eager_gen = RngStream(41025, rank).generator()
        eager = np.stack([apply_action(action.sample(eager_gen), x) for _ in range(draws)])
        # a rotation keeps the Gram matrix of the rows exactly
        assert_allclose(lazy @ lazy.mT, np.broadcast_to(x @ x.T, (draws, 3, 3)),
                        atol=1e-10 * np.sum(x * x))
        for f in (lambda y: y[:, 0, 0], lambda y: y[:, 2, 5],
                  lambda y: np.max(np.abs(y.mean(axis=1)), axis=1)):
            assert stats.ks_2samp(f(lazy), f(eager)).pvalue > 0.01

    def test_degenerate_qr_draw_is_redrawn(self):
        x = RngStream(41026).generator().standard_normal((4, 3))
        stub = _StubGenerator(RngStream(41027).generator(), zero_slot=1)
        images = GroupAction("rotate_full", p=3).randomize_batch(x, 3, stub)
        assert [d.shape for d in stub.draws] == [(3, 3, 3), (3, 3, 3)]
        q, _ = qr_orthonormalize(stub.draws[1])
        assert images.tobytes() == (x @ q.mT).tobytes()

    def test_zero_norm_sphere_draw_is_redrawn(self):
        x = np.array([3.0, 4.0, 0.0])
        stub = _StubGenerator(RngStream(41028).generator(), zero_slot=2)
        images = GroupAction("rotate_full", p=3).randomize_batch(x, 4, stub)
        assert [d.shape for d in stub.draws] == [(4, 3), (4, 3)]
        assert_allclose(np.linalg.norm(images, axis=1), 5.0, rtol=1e-14)


class _StubGenerator:
    """A generator whose first normal draw has an all-zero slot."""

    def __init__(self, gen, zero_slot):
        self.gen = gen
        self.zero_slot = zero_slot
        self.draws = []

    def standard_normal(self, shape):
        z = self.gen.standard_normal(shape)
        if not self.draws:
            z[self.zero_slot] = 0.0
        self.draws.append(z.copy())
        return z


class TestShapeChecks:
    # every kind checks the data against its n and p, lazily as eagerly
    @pytest.mark.parametrize("action, x", [
        (GroupAction("signflip_rows", n=5), np.ones((3, 2))),
        (GroupAction("permute_rows", n=5), np.ones((3, 2))),
        (GroupAction("rotate_full", p=7), np.ones((3, 2))),
        (GroupAction("rotate_full", p=7), np.ones(3)),
        (GroupAction("rotate_per_column", n=5, p=2), np.ones((3, 2))),
        (GroupAction("rotate_per_column", n=3, p=4), np.ones((3, 2))),
    ])
    def test_lazy_raises_as_eager(self, action, x):
        with pytest.raises(ValueError) as eager:
            apply_action(action.sample(RngStream(1).generator()), x)
        with pytest.raises(ValueError) as lazy:
            action.randomize(x, RngStream(1).generator())
        assert str(lazy.value) == str(eager.value)
        with pytest.raises(ValueError, match="cannot act|does not match"):
            action.randomize_batch(x, 4, RngStream(1).generator())


class TestRandomizeWeights:
    # with X = I the images are the elements themselves, so W times them is
    # W G_k; small integer weights keep every product and sum exact (up to
    # the sign of a zero)
    @pytest.mark.parametrize("kind", ["signflip_rows", "permute_rows"])
    @pytest.mark.parametrize("n, m, K", [(1, 1, 3), (6, 1, 20), (7, 2, 20), (10, 3, 5)])
    def test_weights_of_the_batch_elements(self, kind, n, m, K):
        action = GroupAction(kind, n=n)
        w = RngStream(41020).generator().integers(-3, 4, (m, n)).astype(float)
        acted = action.randomize_weights(w, K, RngStream(41021).generator())
        elements = action.randomize_batch(np.eye(n), K, RngStream(41021).generator())
        assert acted.shape == (K, m, n)
        assert_array_equal(acted, w @ elements)

    def test_reads_the_stream_as_randomize_batch(self):
        action = GroupAction("permute_rows", n=5)
        a, b = RngStream(41022).generator(), RngStream(41022).generator()
        action.randomize_weights(np.ones((1, 5)), 9, a)
        action.randomize_batch(np.ones(5), 9, b)
        assert a.random() == b.random()

    def test_continuous_kinds_refused(self):
        for action in (GroupAction("rotate_full", p=4),
                       GroupAction("rotate_per_column", n=4, p=1)):
            with pytest.raises(ValueError, match="does not act on row weights"):
                action.randomize_weights(np.ones((1, 4)), 3, RngStream(1))

    @pytest.mark.parametrize("kind", ["signflip_rows", "permute_rows"])
    def test_size_checked(self, kind):
        with pytest.raises(ValueError, match="of size 5 cannot act on 3 rows"):
            GroupAction(kind, n=5).randomize_weights(np.ones((2, 3)), 4, RngStream(1))


class TestRotatePerColumnVector:
    def test_vector_is_one_column(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        action = GroupAction("rotate_per_column", n=4)
        lazy = action.randomize(x, RngStream(41029).generator())
        eager = apply_action(action.sample(RngStream(41030).generator()), x)
        for y in (lazy, eager):
            assert y.shape == (4,)
            assert np.linalg.norm(y) == pytest.approx(np.sqrt(30.0), rel=1e-12)

    def test_lazy_matches_eager_in_law(self):
        x = np.array([1.0, -2.0, 0.5, 3.0])
        action = GroupAction("rotate_per_column", n=4)
        lazy = action.randomize_batch(x, 3000, RngStream(41031))[:, 0]
        gen = RngStream(41032).generator()
        eager = np.array([apply_action(action.sample(gen), x)[0] for _ in range(3000)])
        assert stats.ks_2samp(lazy, eager).pvalue > 0.01
