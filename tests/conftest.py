import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


@pytest.fixture
def svd_calls(monkeypatch):
    """Shapes passed to linalg._checked_svd, the one floor-testing SVD."""
    from mesodyn import linalg

    calls = []
    checked_svd = linalg._checked_svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return checked_svd(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_checked_svd", counting)
    return calls
