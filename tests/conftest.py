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


@pytest.fixture(scope="session")
def verify_seed_42(tmp_path_factory):
    """One ``mesodyn verify --seed 42`` run, shared by the tests that read
    it: (exit code, output directory)."""
    from mesodyn.cli import main

    out = tmp_path_factory.mktemp("verify_seed_42")
    return main(["verify", "--seed", "42", "--output", str(out)]), out
