"""Shared test helpers."""

import numpy as np
import pytest
from scipy import stats


def _eager_images(action, x, draws, gen):
    """``draws`` images of ``x`` under explicit Haar elements of ``action``'s
    group, drawn apart from ``invartest.groups``: NumPy sign vectors, argsort
    permutations and ``scipy.stats.ortho_group`` matrices, applied by plain
    matrix algebra. A vector is one column."""
    x = np.asarray(x, dtype=float)
    if action.kind == "rotate_full":
        o = stats.ortho_group.rvs(x.shape[-1], size=draws, random_state=gen)
        return o @ x if x.ndim == 1 else x @ o.mT
    cols = x.reshape(x.shape[0], -1)
    n, p = cols.shape
    if action.kind == "signflip_rows":
        images = gen.choice([-1.0, 1.0], (draws, n, 1)) * cols
    elif action.kind == "permute_rows":
        images = cols[np.argsort(gen.random((draws, n)), axis=1)]
    else:  # rotate_per_column: its own rotation of R^n for each column
        o = stats.ortho_group.rvs(n, size=draws * p, random_state=gen)
        images = np.einsum("kjab,bj->kaj", o.reshape(draws, p, n, n), cols)
    return images.reshape(draws, *x.shape)


@pytest.fixture
def eager_images():
    """The eager reference for the law of ``GroupAction.randomize_batch``."""
    return _eager_images
