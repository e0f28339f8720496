import numpy as np
import pytest

import gencusp.sampling as sampling_mod
from gencusp.sampling import random_marking
from gencusp.verify import CHECKS, _rng_for


def _capped_marking(rng, dim, cond_max):
    """The marking draw with its former cap of 64 draws; None where it gave
    up."""
    for _ in range(64):
        m = rng.standard_normal((dim, dim))
        det = abs(np.linalg.det(m))
        if det < 1e-6:
            continue
        m = m / det ** (1.0 / dim)
        if np.linalg.cond(m) <= cond_max:
            return m
    return None


def _capped_similarity(rng, k):
    """expm-similarity's former draw of P; None where all 64 draws failed."""
    for _ in range(64):
        p = rng.standard_normal((k, k))
        if np.linalg.cond(p) <= 1e3 and abs(np.linalg.det(p)) > 1e-6:
            return p
    return None


@pytest.mark.parametrize("dim, cond_max", [(2, 40.0), (4, 40.0), (6, 40.0), (6, 10.0), (7, 10.0)])
def test_marking_draws_that_passed_keep_their_bits(dim, cond_max):
    for seed in range(40):
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        old = _capped_marking(old_rng, dim, cond_max)
        if old is None:
            continue
        assert np.array_equal(random_marking(new_rng, dim, cond_max), old)
        # the generator is left in the same state
        assert old_rng.random() == new_rng.random()


@pytest.mark.parametrize("k", range(3, 7))
def test_similarity_draws_that_passed_keep_their_bits(k):
    for seed in range(20):
        old_rng, new_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        old = _capped_similarity(old_rng, k)
        assert old is not None
        new = random_marking(new_rng, k, cond_max=1e3, unit_det=False)
        assert np.array_equal(new, old)
        assert old_rng.random() == new_rng.random()


def test_marking_draw_gives_up_after_its_cap(monkeypatch):
    monkeypatch.setattr(sampling_mod, "_MAX_DRAWS", 5)
    rng = np.random.default_rng(0)
    # no matrix has condition below 1
    with pytest.raises(RuntimeError, match="in 5 draws"):
        random_marking(rng, 3, cond_max=0.5)
    assert np.array_equal(rng.standard_normal(9), np.random.default_rng(0).standard_normal(54)[45:])


def test_expm_similarity_raises_when_no_draw_qualifies(monkeypatch):
    # it used to fall through after 64 rejections and use the last P
    monkeypatch.setattr(sampling_mod, "_MAX_DRAWS", 5)
    monkeypatch.setattr(np.linalg, "cond", lambda m: np.inf)
    check = next(c for c in CHECKS if c["name"] == "expm-similarity")
    with pytest.raises(RuntimeError, match="could not draw"):
        check["fn"](_rng_for(0, check["name"]), 1, (3,))


def test_eta_conjugation_check_draws_at_dim_7():
    # its n x n marking at cond_max 10 passes about one draw in six at
    # n = 7: with a cap of 64 draws, seed 5 over dims 3..7 gave up on the
    # 32nd sample
    check = next(c for c in CHECKS if c["name"] == "eta-conjugation-invariance")
    residual, count = check["fn"](_rng_for(5, check["name"]), 50, (3, 4, 5, 6, 7))
    assert count == 50
    assert residual <= check["threshold"]
