"""Discrete adaptive augmentation loop: predictor, adaptation, filter.

Between samples the controller carries two things: a state predictor running
the affine model, and the low-pass filter state. The prediction error at each
sample drives a memoryless, piecewise-constant adaptation law whose gain
inverts the exact interval response of the error dynamics; the matched
component of the estimate is low-pass filtered and subtracted from the
baseline input.

Units convention: the uncertainty estimate ``sigma_rate`` is expressed in
state-units per second and multiplied by the sampling time wherever an
increment is needed (predictor update and matched/unmatched split). This
makes the discrete recursion the Euler discretization of the continuous
predictor, so the continuous-time estimation-error analysis carries over.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .affine import AffineModel

Array = np.ndarray

log = logging.getLogger(__name__)

RANK_TOL = 1e-8


@dataclass(frozen=True)
class L1Config:
    """Sampling time, error-feedback eigenvalues, filter cutoff, switch tolerance.

    ``as_diag`` holds the diagonal of the Hurwitz error-feedback matrix
    (default -1 per state). The filter gain is omega per second; the discrete
    filter is stable iff 0 < omega * ts < 2. Only diagonal feedback matrices
    are supported, matching the estimation-error analysis.
    """

    ts: float
    as_diag: Array
    omega: float
    eps_a: float

    def __post_init__(self):
        object.__setattr__(self, "as_diag", np.atleast_1d(np.asarray(self.as_diag, dtype=float)))
        if not self.ts > 0:
            raise ValueError("L1Config: ts must be positive")
        if np.any(self.as_diag >= 0) or not np.all(np.isfinite(self.as_diag)):
            raise ValueError("L1Config: every diagonal entry of As must be strictly negative")
        if not (0.0 < self.omega * self.ts < 2.0):
            raise ValueError(f"L1Config: omega*ts = {self.omega * self.ts:g} outside (0, 2)")
        if not self.eps_a > 0:
            raise ValueError("L1Config: eps_a must be positive")


def default_l1_config(n: int, ts: float, eps_a: float, as_value: float = -1.0, omega_factor: float = 0.35) -> L1Config:
    return L1Config(ts=ts, as_diag=np.full(n, as_value), omega=omega_factor / ts, eps_a=eps_a)


@dataclass(frozen=True)
class L1State:
    """The controller's memory between samples: the state predictor and the filter state.

    The predictor starts on the measured initial state and the filter at
    zero. Single-owner: step strictly in time order.
    """

    xhat: Array
    q: Array

    @classmethod
    def initial(cls, x0: Array, m: int) -> "L1State":
        return cls(xhat=np.array(x0, dtype=float), q=np.zeros(m))


def adapt(xtilde: Array, cfg: L1Config) -> Array:
    """Piecewise-constant adaptation: sigma = -phi^-1 exp(As ts) xtilde.

    Chosen so that the estimate cancels, at the next sample, the error that
    the uncertainty injected over the current interval. Linear in xtilde;
    output in state-units per second.
    """
    xtilde = np.asarray(xtilde, dtype=float)
    decay = np.exp(cfg.as_diag * cfg.ts)
    return -(decay / ((decay - 1.0) / cfg.as_diag)) * xtilde


def orthonormal_complement(h: Array) -> Array:
    """Orthonormal basis of the orthogonal complement of range(h), (n, max(n-m, 0))."""
    q_full, _ = np.linalg.qr(h, mode="complete")
    return q_full[:, h.shape[1]:]


def decompose(h: Array, sigma_rate: Array, ts: float) -> tuple[Array, Array]:
    """Split the per-step uncertainty increment along and across the input channel.

    Solves sigma_rate * ts = h sigma_m + h_perp sigma_um with h_perp an
    orthonormal complement basis, so sigma_m is in input units. sigma_m is
    the minimum-norm least-squares solve, which drops singular values below
    ``RANK_TOL`` times the largest; a smallest singular value below
    ``RANK_TOL`` is logged as a rank fallback (one WARNING per call).
    """
    h = np.asarray(h, dtype=float)
    increment = np.asarray(sigma_rate, dtype=float) * ts
    sigma_m, _, _, sv = np.linalg.lstsq(h, increment, rcond=RANK_TOL)
    if sv.min() < RANK_TOL:
        log.warning("decompose: input channel near rank-deficient (smallest sv %.3e)", sv.min())
    h_perp = orthonormal_complement(h)
    sigma_um = h_perp.T @ increment
    return sigma_m, sigma_um


def filter_step(q: Array, sigma_m: Array, cfg: L1Config) -> tuple[Array, Array]:
    """One first-order low-pass update; returns (next filter state, control).

    q tracks sigma_m with unit DC gain at rate omega; the adaptive input is
    the negated filter state.
    """
    q_next = q + cfg.omega * cfg.ts * (np.asarray(sigma_m, dtype=float) - q)
    return q_next, -q_next


def l1_input(u_rl: Array, xtilde: Array, h: Array, q: Array, cfg: L1Config) -> tuple[Array, Array, Array, Array, Array]:
    """The adaptive law at one sample: adaptation, matched/unmatched split, filter.

    ``h`` is the input gain in increment units. Returns the augmented input
    u_rl + u_a, the estimate sigma_rate, its split (sigma_m, sigma_um) and
    the next filter state.
    """
    sigma_rate = adapt(xtilde, cfg)
    sigma_m, sigma_um = decompose(h, sigma_rate, cfg.ts)
    q_next, u_a = filter_step(q, sigma_m, cfg)
    return u_rl + u_a, sigma_rate, sigma_m, sigma_um, q_next


def l1_control(u_rl: Array, x: Array, am: AffineModel, parts: tuple[Array, Array], l1: L1State,
               cfg: L1Config) -> tuple[Array, L1State, tuple[Array, Array, Array, Array]]:
    """Full per-step controller update, in order.

    Prediction-error update, the adaptive law at the current state, then the
    Euler predictor advance xhat + dx_affine(x, u) + (sigma_rate + As xtilde)
    ts using the augmented input; ``parts`` is ``am.parts(x)``. Returns the
    input to execute, the next state and this step's estimates
    (xtilde, sigma_rate, sigma_m, sigma_um).
    """
    x = np.asarray(x, dtype=float)
    u_rl = np.asarray(u_rl, dtype=float)
    xtilde = l1.xhat - x
    u, sigma_rate, sigma_m, sigma_um, q_next = l1_input(u_rl, xtilde, parts[1], l1.q, cfg)
    xhat_next = l1.xhat + am.predict(parts, u) + (sigma_rate + cfg.as_diag * xtilde) * cfg.ts
    return u, L1State(xhat=xhat_next, q=q_next), (xtilde, sigma_rate, sigma_m, sigma_um)
