"""Unit tests for the invariance groups: the laws of the batched draws and
their actions on data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from invartest.groups import (
    KINDS,
    GroupAction,
    _column_gaussians,
    _column_sphere_images,
    _gaussian_rows,
    _orthonormal_frames,
    _scale_columns,
)
from invartest.numerics import RngStream, qr_orthonormalize
from invartest.statistics import batch_opnorm


class TestSignflips:
    def test_single_row_frequency(self):
        gen = RngStream(41001).generator()
        draws = GroupAction("signflip_rows", n=1).randomize_batch(np.ones(1), 100_000, gen)
        freq = np.mean(draws == 1.0)
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 100_000)

    def test_mean_of_many_signs(self):
        gen = RngStream(41002).generator()
        n, reps = 8, 100_000
        signs = GroupAction("signflip_rows", n=n).randomize_batch(np.ones(n), reps, gen)
        assert abs(signs.mean()) <= 3.0 / np.sqrt(reps * n)

    # the image of the all-ones vector is the sign vector itself, and the
    # same draw flips the rows of any x by it
    def test_direct_action(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        action = GroupAction("signflip_rows", n=3)
        signs = action.randomize_batch(np.ones(3), 20, RngStream(41033))
        assert_array_equal(action.randomize_batch(x, 20, RngStream(41033)),
                           signs[:, :, None] * x)

    def test_vector_action(self):
        x = np.array([1.0, 2.0, 3.0])
        action = GroupAction("signflip_rows", n=3)
        signs = action.randomize_batch(np.ones(3), 20, RngStream(41034))
        assert_array_equal(action.randomize_batch(x, 20, RngStream(41034)), signs * x)

    def test_payload_values(self):
        gen = RngStream(41003).generator()
        signs = GroupAction("signflip_rows", n=20).randomize_batch(np.ones(20), 50, gen)
        assert set(np.unique(signs)) == {-1.0, 1.0}

    def test_size_validation(self):
        with pytest.raises(ValueError, match="^n must be an integer >= 1, got 0$"):
            GroupAction("signflip_rows", n=0)


class TestPermutations:
    def test_single_row_is_identity(self):
        x = np.array([[2.0, 3.0]])
        images = GroupAction("permute_rows", n=1).randomize_batch(x, 5, RngStream(41004))
        assert_array_equal(images, np.broadcast_to(x, (5, 1, 2)))

    def test_uniform_over_s3(self):
        gen = RngStream(41005).generator()
        reps = 60_000
        images = GroupAction("permute_rows", n=3).randomize_batch(np.arange(3.0), reps, gen)
        keys, counts = np.unique(images, axis=0, return_counts=True)
        assert len(keys) == 6
        se = np.sqrt((1 / 6) * (5 / 6) / reps)
        for key, c in zip(keys, counts):
            assert abs(c / reps - 1 / 6) <= 3 * se, key

    def test_direct_action_swap(self):
        images = GroupAction("permute_rows", n=2).randomize_batch([[1.0], [5.0]], 50,
                                                                  RngStream(41035))
        assert {tuple(y) for y in images[:, :, 0]} == {(1.0, 5.0), (5.0, 1.0)}

    def test_row_multiset_preserved(self):
        gen = RngStream(41006).generator()
        x = gen.standard_normal((6, 3))
        images = GroupAction("permute_rows", n=6).randomize_batch(x, 10, gen)
        assert_array_equal(np.sort(images, axis=1), np.broadcast_to(np.sort(x, axis=0),
                                                                    images.shape))


class TestHaarOrthogonal:
    def test_p1_is_random_sign(self):
        vals = _orthonormal_frames((50, 1, 1), RngStream(41007).generator())
        assert set(vals.ravel()) == {-1.0, 1.0}

    def test_orthogonality(self):
        o = _orthonormal_frames((20, 8, 8), RngStream(41008).generator())
        assert np.max(np.linalg.norm(o.mT @ o - np.eye(8), axis=(1, 2))) <= 1e-10

    def test_first_entry_second_moment(self):
        # O_11^2 has mean 1/p; its variance is 2(p-1)/(p^2 (p+2))
        gen = RngStream(41009).generator()
        p, reps = 5, 20_000
        vals = _orthonormal_frames((reps, p, p), gen)[:, 0, 0] ** 2
        var = 2 * (p - 1) / (p**2 * (p + 2))
        assert abs(vals.mean() - 1 / p) <= 3 * np.sqrt(var / reps)

    def test_rotation_isometry(self):
        gen = RngStream(41010).generator()
        for rows in (4, 9):  # a Stiefel frame, a full rotation
            x = gen.standard_normal((rows, 6))
            y = GroupAction("rotate_full", p=6).randomize_batch(x, 10, gen)
            assert_allclose(np.linalg.norm(y, axis=2),
                            np.broadcast_to(np.linalg.norm(x, axis=1), (10, rows)), atol=1e-10)


class TestSphereImage:
    def test_zero_maps_to_zero(self):
        images = GroupAction("rotate_full", p=4).randomize_batch(np.zeros(4), 3, RngStream(1))
        assert_array_equal(images, np.zeros((3, 4)))

    def test_norm_preserved(self):
        gen = RngStream(41011).generator()
        action = GroupAction("rotate_full", p=7)
        for _ in range(20):
            x = gen.standard_normal(7) * 3.0
            y = action.randomize_batch(x, 5, gen)
            assert_allclose(np.linalg.norm(y, axis=1), np.linalg.norm(x), rtol=1e-12)

    def test_first_coordinate_uniform_p3(self):
        # on S^2 each coordinate of a uniform point is uniform on [-1, 1]
        gen = RngStream(41012).generator()
        x = np.array([1.0, 0.0, 0.0])
        coords = GroupAction("rotate_full", p=3).randomize_batch(x, 5000, gen)[:, 0]
        res = stats.kstest(coords, stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert res.pvalue > 0.01


class TestApplyAction:
    # the images of the identity under one draw are its elements: sign and
    # permutation matrices exactly, orthogonal matrices (unit columns for
    # rotate_per_column) to rounding; the same draw maps x to those elements
    # applied to x
    @pytest.mark.parametrize("kind", KINDS)
    def test_identity_is_exact(self, kind):
        x = RngStream(41013).generator().standard_normal((5, 5))
        action = _action_for(kind, x)
        elements = action.randomize_batch(np.eye(5), 10, RngStream(41036))
        images = action.randomize_batch(x, 10, RngStream(41036))
        if kind == "rotate_full":
            assert_allclose(elements @ elements.mT, np.broadcast_to(np.eye(5), (10, 5, 5)),
                            atol=1e-12)
            assert_allclose(images, x @ elements, atol=1e-12)
        elif kind == "rotate_per_column":
            assert_allclose(np.linalg.norm(elements, axis=1), 1.0, rtol=1e-15)
            assert_array_equal(images, elements * np.linalg.norm(x, axis=0))
        else:
            assert_array_equal(np.abs(elements).sum(axis=1), 1.0)
            assert_array_equal(np.abs(elements).sum(axis=2), 1.0)
            assert_array_equal(images, elements @ x)

    def test_all_minus_one_negates(self):
        # 1 of the 16 elements; 200 draws miss it with probability 3e-6
        x = RngStream(41014).generator().standard_normal((4, 2))
        images = GroupAction("signflip_rows", n=4).randomize_batch(x, 200, RngStream(41037))
        assert any(np.array_equal(y, -x) for y in images)

    def test_dimension_mismatches(self):
        x = np.ones((3, 2))
        for action in (GroupAction("signflip_rows", n=4), GroupAction("permute_rows", n=5),
                       GroupAction("rotate_full", p=4)):
            with pytest.raises(ValueError, match="cannot act"):
                action.randomize_batch(x, 2, RngStream(1))

    def test_per_column_rotation_preserves_column_norms(self):
        gen = RngStream(41015).generator()
        x = gen.standard_normal((6, 3))
        y = GroupAction("rotate_per_column", n=6, p=3).randomize_batch(x, 10, gen)
        assert_allclose(np.linalg.norm(y, axis=1),
                        np.broadcast_to(np.linalg.norm(x, axis=0), (10, 3)), atol=1e-10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown group kind"):
            GroupAction("reflect_rows", n=3)


class TestGroupAction:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupAction("signflip_rows")
        with pytest.raises(ValueError):
            GroupAction("rotate_full", n=5)
        with pytest.raises(ValueError):
            GroupAction("permute_rows", n=0)

    @pytest.mark.parametrize("p", [0, -2])
    def test_per_column_rotations_need_a_column(self, p):
        with pytest.raises(ValueError, match=f"^p must be an integer >= 1, got {p}$"):
            GroupAction("rotate_per_column", n=6, p=p)
        # p = None still means one column: a vector
        vector = GroupAction("rotate_per_column", n=6).randomize(np.ones(6), RngStream(1))
        assert vector.shape == (6,)

    def test_randomize_matches_sample_apply_in_law(self, eager_images):
        # lazy sphere-image path vs eager matrix path: same distribution
        gen_a = RngStream(41019, 0).generator()
        gen_b = RngStream(41019, 1).generator()
        action = GroupAction("rotate_full", p=6)
        x = RngStream(41019, 2).generator().standard_normal(6)
        lazy = np.array(
            [np.max(np.abs(action.randomize(x, gen_a))) for _ in range(4000)]
        )
        eager = np.max(np.abs(eager_images(action, x, 4000, gen_b)), axis=1)
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
    def test_stiefel_draw_matches_eager_rotation_in_law(self, rank, eager_images):
        # 1 < n < p: the lazy image R^T S^T against X O^T with O Haar on R^p
        gen = RngStream(41023, rank).generator()
        x = gen.standard_normal((3, rank)) @ gen.standard_normal((rank, 6))
        action = GroupAction("rotate_full", p=6)
        draws = 3000
        lazy = action.randomize_batch(x, draws, RngStream(41024, rank))
        eager_gen = RngStream(41025, rank).generator()
        eager = eager_images(action, x, draws, eager_gen)
        # a rotation keeps the Gram matrix of the rows exactly
        assert_allclose(lazy @ lazy.mT, np.broadcast_to(x @ x.T, (draws, 3, 3)),
                        atol=1e-10 * np.sum(x * x))
        for f in (lambda y: y[:, 0, 0], lambda y: y[:, 2, 5],
                  lambda y: np.max(np.abs(y.mean(axis=1)), axis=1)):
            assert stats.ks_2samp(f(lazy), f(eager)).pvalue > 0.01

    def test_degenerate_qr_draw_is_redrawn(self):
        # only a degenerate matrix is replaced, from the next matrices of the
        # stream, so a draw of a frames then b frames is one draw of a + b;
        # a row of the stub stream is one 3 x 3 matrix
        a, b = 2, 3
        for zero in [(), (0,), (1,), (2, 3), (1, 4, 5)]:
            whole = _orthonormal_frames((a + b, 3, 3), _ZeroRowStream(9, zero, 41027))
            stream = _ZeroRowStream(9, zero, 41027)
            parts = [_orthonormal_frames((r, 3, 3), stream) for r in (a, b)]
            assert np.concatenate(parts).tobytes() == whole.tobytes(), zero
            rows = np.delete(_ZeroRowStream(9, zero, 41027).rows, list(zero), axis=0)
            q, _ = qr_orthonormalize(rows[:a + b].reshape(a + b, 3, 3))
            assert whole.tobytes() == q.tobytes(), zero
        # the action on a matrix takes the frames of the replaced draw
        x = RngStream(41026).generator().standard_normal((4, 3))
        images = GroupAction("rotate_full", p=3).randomize_batch(
            x, a + b, _ZeroRowStream(9, (1,), 41027))
        assert images.tobytes() == (x @ _orthonormal_frames(
            (a + b, 3, 3), _ZeroRowStream(9, (1,), 41027)).mT).tobytes()

    def test_zero_norm_sphere_draw_is_redrawn(self):
        # only the zero row is replaced: the rows after it move up and one
        # more row is drawn
        x = np.array([3.0, 4.0, 0.0])
        stub = _StubGenerator(RngStream(41028).generator(), zero_slot=2)
        images = GroupAction("rotate_full", p=3).randomize_batch(x, 4, stub)
        assert [d.shape for d in stub.draws] == [(4, 3), (1, 3)]
        assert_allclose(np.linalg.norm(images, axis=1), 5.0, rtol=1e-14)
        z = np.concatenate([stub.draws[0][[0, 1, 3]], stub.draws[1]])
        assert_allclose(images, 5.0 * z / np.linalg.norm(z, axis=1)[:, None], rtol=1e-14)


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


class _ZeroRowStream:
    """Serves standard normals in order from one fixed sequence of rows of
    length m, whose rows ``zero`` are all zero."""

    def __init__(self, m, zero, seed):
        rows = RngStream(seed).generator().standard_normal((32, m))
        rows[list(zero)] = 0.0
        self.rows = rows
        self.pos = 0

    def standard_normal(self, shape):
        values = self.rows.ravel()[self.pos:self.pos + int(np.prod(shape))]
        self.pos += values.size
        return values.reshape(shape).copy()


class TestGaussianRows:
    # the early stops of the power study and the engine's blocks read a
    # draw in row blocks, so a row of norm 0 may not break the prefix rule
    @pytest.mark.parametrize("zero", [(), (0,), (2,), (3,), (2, 3), (4, 6), (1, 2, 3, 4)])
    def test_a_draw_of_a_then_b_rows_is_one_draw_of_a_plus_b(self, zero):
        a, b, m = 3, 4, 5
        whole, whole_norms = _gaussian_rows((a + b, m), _ZeroRowStream(m, zero, 41043))
        stream = _ZeroRowStream(m, zero, 41043)
        parts = [_gaussian_rows((r, m), stream) for r in (a, b)]
        assert np.concatenate([z for z, _ in parts]).tobytes() == whole.tobytes()
        assert np.concatenate([n for _, n in parts]).tobytes() == whole_norms.tobytes()
        # the first a + b rows of nonzero norm, in stream order
        rows = np.delete(_ZeroRowStream(m, zero, 41043).rows, list(zero), axis=0)
        assert whole.tobytes() == rows[:a + b].tobytes()
        assert whole_norms.tolist() == [np.linalg.norm(r) for r in rows[:a + b]]

    def test_rows_of_a_stacked_shape_are_its_last_axis(self):
        z, norms = _gaussian_rows((2, 3, 5), _ZeroRowStream(5, (1, 4), 41044))
        rows = np.delete(_ZeroRowStream(5, (1, 4), 41044).rows, [1, 4], axis=0)
        assert z.tobytes() == rows[:6].tobytes()
        assert norms.shape == (2, 3) and np.all(norms > 0.0)


class TestShapeChecks:
    # each mismatch raises one message naming both sizes, on every path
    @pytest.mark.parametrize("action, x, message", [
        (GroupAction("signflip_rows", n=5), np.ones((3, 2)),
         "signflip of size 5 cannot act on 3 rows"),
        (GroupAction("permute_rows", n=5), np.ones((3, 2)),
         "permutation of size 5 cannot act on 3 rows"),
        (GroupAction("rotate_full", p=7), np.ones((3, 2)),
         "rotation of size 7 cannot act on 2 columns"),
        (GroupAction("rotate_full", p=7), np.ones(3), "rotation of size 7 cannot act on length 3"),
        (GroupAction("rotate_per_column", n=5, p=2), np.ones((3, 2)),
         "column rotations of size 5 cannot act on 3 rows"),
        (GroupAction("rotate_per_column", n=3, p=4), np.ones((3, 2)),
         "4 column rotations cannot act on 2 columns"),
        (GroupAction("signflip_rows", n=2), np.ones((2, 2, 2)),
         "group elements act on a vector or a matrix, got ndim=3"),
    ], ids=["signflip", "permutation", "rotate_matrix", "rotate_vector", "per_column_rows",
            "per_column_columns", "ndim"])
    def test_message_names_the_sizes(self, action, x, message):
        draws = [lambda: action.randomize_batch(x, 4, RngStream(1)),
                 lambda: action.randomize(x, RngStream(1))]
        if action.kind in ("signflip_rows", "permute_rows"):
            # the weights W act through the rows of W^T
            draws.append(lambda: action.randomize_weights(x.T, 4, RngStream(1)))
        for draw in draws:
            with pytest.raises(ValueError) as err:
                draw()
            assert str(err.value) == message


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


class TestColumnSphereImages:
    # the lowrank scenario scales only the slices its raw-draw certificate
    # misses, so each scaled slice must have the bits of the whole draw's
    @pytest.mark.parametrize("shape", [(5,), (1, 1), (50, 50), (32, 128), (128, 32), (3, 7)])
    def test_scaling_any_subset_gives_the_bits_of_the_whole(self, shape):
        gen = RngStream(41040, sum(shape)).generator()
        x = gen.standard_normal(shape)
        if len(shape) == 2 and shape[1] > 2:
            x[:, 1] = 0.0  # a zero column
        whole = _column_sphere_images(x, 19, RngStream(41041).generator())
        cols = x[:, None] if x.ndim == 1 else x
        z = _column_gaussians(cols.shape, 19, RngStream(41041).generator())
        radii = np.linalg.norm(cols, axis=0)
        subsets = [[k] for k in range(19)] + [gen.permutation(19)[:m] for m in (2, 5, 18)]
        for rows in subsets:
            part = _scale_columns(z[rows], radii).reshape(len(rows), *shape)
            assert part.tobytes() == whole[rows].tobytes()

    # squares of entries near 1e-200 underflow to a zero norm and those of
    # entries near 1e200 overflow (a RuntimeWarning, an error in this suite)
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_tiny_and_huge_columns_reach_their_sphere(self, scale):
        assert_allclose(batch_opnorm(_scale_columns(scale * np.ones((3, 4, 4)), np.ones(4))),
                        2.0, rtol=1e-15)

    def test_only_the_extreme_columns_are_redone(self):
        z = _column_gaussians((6, 4), 5, RngStream(41042).generator())
        radii = np.array([1.0, 2.0, 0.0, 3.0])
        plain = _scale_columns(z.copy(), radii)
        mixed = z.copy()
        mixed[1, :, 0] *= 1e-200
        mixed[3, :, 3] *= 1e200
        mixed = _scale_columns(mixed, radii)
        assert_allclose(mixed, plain, rtol=1e-15)
        keep = np.ones(z.shape, dtype=bool)
        keep[1, :, 0] = keep[3, :, 3] = False
        assert mixed[keep].tobytes() == plain[keep].tobytes()


class TestRotatePerColumnVector:
    def test_vector_is_one_column(self, eager_images):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        action = GroupAction("rotate_per_column", n=4)
        lazy = action.randomize(x, RngStream(41029).generator())
        eager = eager_images(action, x, 1, RngStream(41030).generator())[0]
        for y in (lazy, eager):
            assert y.shape == (4,)
            assert np.linalg.norm(y) == pytest.approx(np.sqrt(30.0), rel=1e-12)

    def test_lazy_matches_eager_in_law(self, eager_images):
        x = np.array([1.0, -2.0, 0.5, 3.0])
        action = GroupAction("rotate_per_column", n=4)
        lazy = action.randomize_batch(x, 3000, RngStream(41031))[:, 0]
        eager = eager_images(action, x, 3000, RngStream(41032).generator())[:, 0]
        assert stats.ks_2samp(lazy, eager).pvalue > 0.01
