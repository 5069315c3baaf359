import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1aug.l1core import (
    L1Config,
    L1State,
    adapt,
    decompose,
    default_l1_config,
    filter_step,
    l1_control,
    orthonormal_complement,
)


def scalar_cfg(ts=0.1, lam=-1.0, omega=None, eps_a=0.1):
    return L1Config(ts=ts, as_diag=np.array([lam]), omega=(0.35 / ts if omega is None else omega), eps_a=eps_a)


class ScalarIntegratorModel:
    """Exact increment model of xdot = u over one step: dx = u * ts."""

    def __init__(self, ts):
        self.ts = ts

    def predict_mean(self, x, u):
        return np.array([float(u[0]) * self.ts])

    def jacobian_u(self, x, u):
        return np.array([[self.ts]])


# --- Config validation ----------------------------------------------------------


def test_config_rejects_nonnegative_as():
    with pytest.raises(ValueError):
        L1Config(ts=0.1, as_diag=np.array([0.0]), omega=1.0, eps_a=0.1)
    with pytest.raises(ValueError):
        L1Config(ts=0.1, as_diag=np.array([-1.0, 1.0]), omega=1.0, eps_a=0.1)


def test_config_rejects_unstable_filter():
    with pytest.raises(ValueError):
        L1Config(ts=0.1, as_diag=np.array([-1.0]), omega=25.0, eps_a=0.1)
    with pytest.raises(ValueError):
        L1Config(ts=0.1, as_diag=np.array([-1.0]), omega=0.0, eps_a=0.1)


def test_config_rejects_bad_eps_a():
    with pytest.raises(ValueError):
        L1Config(ts=0.1, as_diag=np.array([-1.0]), omega=1.0, eps_a=0.0)


def test_default_config_values():
    cfg = default_l1_config(3, ts=0.05, eps_a=0.3)
    assert np.allclose(cfg.as_diag, [-1.0, -1.0, -1.0])
    assert cfg.omega == pytest.approx(7.0)
    assert cfg.omega * cfg.ts == pytest.approx(0.35)


# --- Adaptation law --------------------------------------------------------------


def test_adapt_zero_error_gives_zero():
    assert np.array_equal(adapt(np.zeros(3), default_l1_config(3, 0.05, 0.1)), np.zeros(3))


def test_adapt_scalar_closed_form():
    sigma = adapt(np.array([0.01]), scalar_cfg(ts=0.1, lam=-1.0))
    expected = -(math.exp(-0.1) / ((1.0 - math.exp(-0.1)) / 1.0)) * 0.01
    assert sigma[0] == pytest.approx(expected, abs=1e-12)
    assert sigma[0] == pytest.approx(-0.095083, abs=1e-6)


def test_adapt_is_the_inline_gain_expression_bit_for_bit():
    # The config holds the gain; applying it must round as computing it per call did.
    rng = np.random.default_rng(5)
    for ts, n in ((0.005, 2), (0.04, 4), (0.1, 1), (0.05, 3)):
        cfg = L1Config(ts=ts, as_diag=-rng.uniform(0.1, 5.0, n), omega=0.35 / ts, eps_a=0.1)
        for xtilde in rng.normal(scale=rng.uniform(1e-6, 10.0, (20, 1)), size=(20, n)):
            decay = np.exp(cfg.as_diag * cfg.ts)
            inline = -(decay / ((decay - 1.0) / cfg.as_diag)) * xtilde
            assert adapt(xtilde, cfg).tobytes() == inline.tobytes()


@settings(max_examples=50, deadline=None)
@given(
    xt=st.floats(-10, 10),
    scale=st.floats(-4, 4),
)
def test_adapt_is_linear(xt, scale):
    cfg = scalar_cfg()
    a = adapt(np.array([xt * scale]), cfg)
    b = scale * adapt(np.array([xt]), cfg)
    assert a[0] == pytest.approx(b[0], rel=1e-12, abs=1e-15)


def test_adapt_reconstructs_constant_disturbance_exactly():
    # Oracle: exact interval response of the error dynamics
    # xtilde' = lam*xtilde + sigma - d with constant sigma and d.
    lam, ts, d = -1.0, 0.1, 0.5
    cfg = scalar_cfg(ts=ts, lam=lam)
    phi = (math.exp(lam * ts) - 1.0) / lam
    xt = 0.0
    sigma = 0.0
    target = math.exp(lam * ts) * d
    for i in range(1, 40):
        xt = math.exp(lam * ts) * xt + phi * (sigma - d)
        sigma = adapt(np.array([xt]), cfg)[0]
        assert sigma == pytest.approx(target, abs=1e-9)


def test_adapt_error_halves_with_ts():
    # |d - sigma| = (1 - exp(lam ts)) |d| halves to first order when ts halves.
    lam, d = -1.0, 0.5
    gaps = []
    for ts in (0.1, 0.05):
        sigma_ss = math.exp(lam * ts) * d
        gaps.append(abs(d - sigma_ss))
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.05)


# --- Matched/unmatched decomposition ---------------------------------------------


def split(h, sigma_rate, ts):
    """``decompose``'s sigma_m and the sigma_um that ``l1_control`` logs, by the expression it uses."""
    return decompose(h, sigma_rate, ts), orthonormal_complement(h).T @ (sigma_rate * ts)


def test_decompose_canonical_axes():
    h = np.array([[1.0], [0.0]])
    sigma_m, sigma_um = split(h, np.array([3.0, 7.0]), ts=1.0)
    assert sigma_m[0] == pytest.approx(3.0, abs=1e-12)
    assert abs(sigma_um[0]) == pytest.approx(7.0, abs=1e-12)


def test_decompose_hand_least_squares():
    h = np.array([[1.0], [1.0]])
    sigma_m, sigma_um = split(h, np.array([2.0, 0.0]), ts=1.0)
    assert sigma_m[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(sigma_um[0]) == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_decompose_zero_gives_zero():
    sigma_m, sigma_um = split(np.array([[1.0], [1.0]]), np.zeros(2), ts=0.05)
    assert np.array_equal(sigma_m, np.zeros(1))
    assert np.array_equal(sigma_um, np.zeros(1))


def test_decompose_square_channel_has_empty_complement():
    sigma_m, sigma_um = split(np.array([[2.0]]), np.array([1.0]), ts=0.5)
    assert sigma_m[0] == pytest.approx(0.25, abs=1e-14)
    assert sigma_um.shape == (0,)


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 3), (3, 5)])
def test_complement_of_a_spanning_channel_is_empty(shape):
    h = np.random.default_rng(0).normal(size=shape)
    assert orthonormal_complement(h).shape == (shape[0], 0)


def test_decompose_rank_deficient_warns(caplog):
    with caplog.at_level(logging.WARNING, logger="l1aug.l1core"):
        sigma_m = decompose(np.zeros((2, 1)), np.array([1.0, 1.0]), ts=1.0)
    assert "rank" in caplog.text
    assert np.all(np.isfinite(sigma_m))


def test_decompose_truncates_the_channel_it_warns_about(caplog):
    # One column is never cut by a relative cutoff; the absolute one zeroes it.
    with caplog.at_level(logging.WARNING, logger="l1aug.l1core"):
        sigma_m = decompose(np.array([[1e-12], [0.0]]), np.ones(2), 1.0)
    assert np.array_equal(sigma_m, [0.0])
    assert [r.levelno for r in caplog.records if r.name == "l1aug.l1core"] == [logging.WARNING]


def svd_pinv_decompose(h, sigma_rate, ts, rank_tol=1e-8):
    """Reference: the SVD rank test, then lstsq or a pseudo-inverse cut at rank_tol, then the complete-QR complement."""
    increment = sigma_rate * ts
    sv = np.linalg.svd(h, compute_uv=False)
    if sv.min() < rank_tol:
        sigma_m = np.linalg.pinv(h, rcond=rank_tol / max(sv.max(), rank_tol)) @ increment
    else:
        sigma_m, *_ = np.linalg.lstsq(h, increment, rcond=None)
    n, m = h.shape
    h_perp = np.zeros((n, 0)) if m >= n else np.linalg.qr(h, mode="complete")[0][:, m:]
    return sigma_m, h_perp.T @ increment


def test_decompose_matches_svd_reference_bit_for_bit_on_full_rank_channels(caplog):
    rng = np.random.default_rng(12)
    with caplog.at_level(logging.WARNING, logger="l1aug.l1core"):
        for n in range(1, 6):
            for m in range(1, n + 1):
                for scale in (1e-6, 1e-3, 1.0, 1e3):
                    for _ in range(20):
                        h = scale * rng.normal(size=(n, m))
                        if np.linalg.svd(h, compute_uv=False).min() < 1e-8:
                            continue  # the reference's pseudo-inverse path; see the rank-deficient test
                        sigma_rate = rng.normal(size=n)
                        got = split(h, sigma_rate, 0.05)
                        want = svd_pinv_decompose(h, sigma_rate, 0.05)
                        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert not caplog.records


@pytest.mark.parametrize("h", [
    np.array([[1.0, 0.0], [2.0, 0.0], [-0.5, 0.0]]),
    np.array([[0.3, 0.3], [-1.2, -1.2], [0.7, 0.7], [2.0, 2.0]]),
], ids=["zero_column", "duplicated_columns"])
def test_decompose_rank_deficient_matches_pseudo_inverse_and_logs_once(h, caplog):
    sigma_rate = np.random.default_rng(3).normal(size=h.shape[0])
    with caplog.at_level(logging.WARNING, logger="l1aug.l1core"):
        sigma_m, sigma_um = split(h, sigma_rate, 0.1)
    want_m, want_um = svd_pinv_decompose(h, sigma_rate, 0.1)
    assert np.allclose(sigma_m, want_m, rtol=1e-9, atol=1e-12)
    assert np.array_equal(sigma_um, want_um)
    assert [r.levelno for r in caplog.records if r.name == "l1aug.l1core"] == [logging.WARNING]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_decompose_reconstruction(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, n))
    h = rng.normal(size=(n, m))
    if np.linalg.svd(h, compute_uv=False).min() < 1e-3:
        return
    sigma_rate = rng.normal(size=n)
    ts = 0.05
    sigma_m, sigma_um = split(h, sigma_rate, ts)
    recon = h @ sigma_m + orthonormal_complement(h) @ sigma_um
    target = sigma_rate * ts
    assert np.linalg.norm(recon - target) <= 1e-10 * max(1.0, np.linalg.norm(target))


# --- Low-pass filter --------------------------------------------------------------


def test_filter_fixed_point():
    cfg = scalar_cfg(ts=0.1)
    q, u_a = filter_step(np.array([0.7]), np.array([0.7]), cfg)
    assert q[0] == pytest.approx(0.7, abs=1e-15)
    assert u_a[0] == pytest.approx(-0.7, abs=1e-15)


def test_filter_single_step():
    cfg = scalar_cfg(ts=0.1)  # omega*ts = 0.35
    q, u_a = filter_step(np.zeros(1), np.ones(1), cfg)
    assert q[0] == pytest.approx(0.35, abs=1e-15)
    assert u_a[0] == pytest.approx(-0.35, abs=1e-15)


def test_filter_geometric_step_response():
    cfg = scalar_cfg(ts=0.1)
    q = np.zeros(1)
    for k in range(1, 30):
        q, _ = filter_step(q, np.ones(1), cfg)
        assert q[0] == pytest.approx(1.0 - 0.65**k, abs=1e-12)


def test_filter_dc_convergence_bound():
    cfg = scalar_cfg(ts=0.1)
    q = np.zeros(1)
    sigma = np.array([2.5])
    for k in range(1, 40):
        q, _ = filter_step(q, sigma, cfg)
        assert abs(q[0] - sigma[0]) <= 0.65**k * abs(sigma[0]) + 1e-12


def test_filter_attenuates_fast_sinusoid():
    # Sample finely enough to resolve 10*omega; first-order rolloff gives ~0.1.
    ts = 0.01
    omega = 5.0
    cfg = L1Config(ts=ts, as_diag=np.array([-1.0]), omega=omega, eps_a=0.1)
    q = np.zeros(1)
    out = []
    n_steps = 4000
    for k in range(n_steps):
        s = math.sin(10.0 * omega * k * ts)
        q, _ = filter_step(q, np.array([s]), cfg)
        out.append(q[0])
    period = int(round(2 * math.pi / (10 * omega * ts)))
    steady = np.abs(np.array(out[-3 * period:]))
    assert steady.max() <= 0.15


# --- Predictor and full loop -------------------------------------------------------


def test_predictor_follows_model_at_zero_error():
    ts = 0.1
    model = ScalarIntegratorModel(ts)
    cfg = scalar_cfg(ts=ts)
    x = np.array([0.4])
    l1 = L1State.initial(x, 1)
    u_rl = np.array([0.8])
    u, nxt, (xtilde, _, _, _), _ = l1_control(u_rl, x, model, l1, cfg)
    assert np.array_equal(u, u_rl)
    assert nxt.xhat[0] == pytest.approx(x[0] + u_rl[0] * ts, abs=1e-15)
    assert xtilde[0] == 0.0


def test_predictor_one_step_arithmetic():
    # xhat = 0.01 at x = 0: the error drives one adaptation step, and the
    # predictor advances with the augmented input and the fresh estimate.
    ts = 0.1
    model = ScalarIntegratorModel(ts)
    cfg = scalar_cfg(ts=ts, lam=-1.0)
    l1 = L1State(xhat=np.array([0.01]), q=np.zeros(1))
    u, nxt, (_, sigma_rate, _, _), _ = l1_control(np.zeros(1), np.zeros(1), model, l1, cfg)
    decay = math.exp(-ts)
    sigma = -decay / (1.0 - decay) * 0.01
    u_a = -0.35 * sigma  # omega * ts = 0.35; the gain ts cancels in sigma_m
    assert sigma_rate[0] == pytest.approx(sigma, abs=1e-15)
    assert u[0] == pytest.approx(u_a, abs=1e-15)
    assert nxt.xhat[0] == pytest.approx(0.01 + u_a * ts + (sigma - 0.01) * ts, abs=1e-15)


def test_l1_control_first_step_is_transparent():
    ts = 0.05
    model = ScalarIntegratorModel(ts)
    cfg = scalar_cfg(ts=ts)
    x0 = np.array([0.3])
    l1 = L1State.initial(x0, 1)
    u_rl = np.array([0.7])
    u, _, _, _ = l1_control(u_rl, x0, model, l1, cfg)
    assert np.array_equal(u, u_rl)


def test_l1_control_transparent_under_perfect_model():
    ts = 0.05
    model = ScalarIntegratorModel(ts)
    cfg = scalar_cfg(ts=ts)
    rng = np.random.default_rng(0)
    x = np.array([0.3])
    l1 = L1State.initial(x, 1)
    for _ in range(200):
        u_rl = rng.uniform(-1, 1, 1)
        u, l1, (xtilde, _, _, _), _ = l1_control(u_rl, x, model, l1, cfg)
        assert abs(u[0] - u_rl[0]) <= 1e-9
        assert abs(xtilde[0]) <= 1e-9
        x = x + u * ts


def test_l1_control_rejects_constant_disturbance():
    ts = 0.05
    d = 0.5
    model = ScalarIntegratorModel(ts)
    cfg = scalar_cfg(ts=ts, lam=-1.0)
    x = np.zeros(1)
    l1 = L1State.initial(x, 1)
    u = np.zeros(1)
    for _ in range(50):
        u, l1, _, _ = l1_control(np.zeros(1), x, model, l1, cfg)
        x = x + (u + d) * ts
    u_a = u[0]
    assert -0.5 <= u_a <= -0.45  # rejects at least 90 percent of d
    assert u_a == pytest.approx(-d * math.exp(-ts), abs=1e-6)


class PlanarModel:
    """Increment model of a damped planar system whose input enters both states: n = 2, m = 1."""

    def __init__(self, ts):
        self.ts = ts

    def predict_mean(self, x, u):
        return self.ts * np.array([x[1] + 0.3 * u[0], -0.8 * x[0] - 0.2 * x[1] + u[0]])

    def jacobian_u(self, x, u):
        return self.ts * np.array([[0.3], [1.0]])


def test_l1_control_sigma_um_is_the_complement_projection_bit_for_bit():
    ts = 0.05
    model, cfg = PlanarModel(ts), default_l1_config(2, ts, eps_a=0.1)
    rng = np.random.default_rng(5)
    x = np.array([0.2, -0.1])
    l1 = L1State.initial(x, 1)
    for _ in range(40):
        u, l1, (_, sigma_rate, _, sigma_um), decision = l1_control(rng.uniform(-1, 1, 1), x, model, l1, cfg)
        assert np.array_equal(sigma_um, orthonormal_complement(decision.parts[1]).T @ (sigma_rate * cfg.ts))
        x = x + model.predict_mean(x, u) + ts * np.array([0.4, -0.3])
    assert sigma_um.shape == (1,) and sigma_um[0] != 0.0


def test_l1_state_initialization():
    l1 = L1State.initial(np.array([1.0, 2.0]), m=1)
    assert np.array_equal(l1.xhat, [1.0, 2.0])
    assert np.array_equal(l1.q, np.zeros(1))
    assert l1.am is None
