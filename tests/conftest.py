import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from implicitrk.problems import _elements, _quad_rule

# Property tests draw the same examples on every run by default (derandomized,
# with no example database); HYPOTHESIS_PROFILE=random draws fresh ones.
# Both keep each test's own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("random", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "derandomized"))


@pytest.fixture
def flat_load():
    """The load evaluated the way it was before lattice evaluation: f once on
    the flat coordinates of every quadrature point, in quadrature order
    q = p * nelem + e, times a quadrature-to-load matrix with its columns in
    that order."""

    def load(grid, f, t):
        elems = _elements(grid)
        nelem, nloc = elems.shape
        cols, vals, coords = [], [], []
        for p, (w, phi, _, xq) in enumerate(_quad_rule(grid)):
            cols.append(np.repeat(p * nelem + np.arange(nelem), nloc))
            vals.append(np.tile(w * phi, nelem))
            coords.append(xq)
        Q = sp.csr_matrix(
            (np.concatenate(vals), (np.tile(elems.ravel(), len(cols)), np.concatenate(cols))),
            shape=(grid.npoints, len(cols) * nelem),
        )
        xq = [np.concatenate(c) for c in zip(*coords)]
        return Q @ np.broadcast_to(np.asarray(f(t, *xq), dtype=float), xq[0].shape)

    return load
