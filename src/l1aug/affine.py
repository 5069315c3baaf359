"""Control-affine approximation of a learned model, rebuilt on demand.

Around an anchor input ubar, the model is expanded to first order in the
input only: dx ~ g(x) + h(x) u with h(x) the input Jacobian evaluated at
(x, ubar). When the expansion drifts from the full model by at least eps_a
at the current operating point, the switching law ``reanchor`` re-anchors at
the current input.

Any object exposing ``predict_mean(x, u)`` and ``jacobian_u(x, u)`` can be
affinized; the trained ensemble and the synthetic specs of the
verification harness both satisfy that protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class SwitchDecision:
    switch: bool
    residual: float
    parts: tuple[Array, Array] = field(repr=False, compare=False)  # parts(x) of the model the decision returned with


@dataclass(frozen=True)
class AffineModel:
    """First-order-in-u expansion of ``model`` around the anchor ``ubar``.

    Immutable; evaluation is pure. ``parts`` evaluates the model once per
    state and returns everything the adaptive controller needs at that state.
    """

    model: object
    ubar: Array

    def parts(self, x: Array) -> tuple[Array, Array]:
        """(prediction at the anchor, input Jacobian at the anchor), both at x."""
        f_anchor = self.model.predict_mean(x, self.ubar)
        jac = self.model.jacobian_u(x, self.ubar)
        return f_anchor, jac

    def predict(self, parts: tuple[Array, Array], u: Array) -> Array:
        """g(x) + h(x) u from ``parts = self.parts(x)``, exact at u = ubar."""
        f_anchor, jac = parts
        return f_anchor + jac @ (np.asarray(u, dtype=float) - self.ubar)


def affinize(model: object, ubar: Array) -> AffineModel:
    """Expand ``model`` around the anchor input ``ubar``."""
    ubar = np.asarray(ubar, dtype=float)
    if not np.isfinite(ubar).all():
        raise ValueError("affinize: anchor input must be finite")
    return AffineModel(model=model, ubar=ubar.copy())


def switching_check(am: AffineModel, x: Array, u: Array, eps_a: float) -> SwitchDecision:
    """Compare the expansion against the full model at (x, u).

    Returns switch=True when the Euclidean residual reaches eps_a
    (inclusive). Never mutates the model; the caller re-anchors.
    """
    if not eps_a > 0:
        raise ValueError("switching_check: eps_a must be positive")
    parts = am.parts(x)
    residual = float(np.linalg.norm(am.predict(parts, u) - am.model.predict_mean(x, u)))
    return SwitchDecision(switch=residual >= eps_a, residual=residual, parts=parts)


def reanchor(
    am: AffineModel | None, model: object, x: Array, u: Array, eps_a: float
) -> tuple[AffineModel, SwitchDecision]:
    """The switching law: the model to use at (x, u) and the check that chose it.

    With no model yet (``am`` is None) it anchors at u without a switch and
    with zero residual; after that it re-anchors at u whenever the residual
    reaches eps_a. The decision's ``parts`` are the returned model's
    ``parts(x)``: the checked ones when the model is kept, the new anchor's
    otherwise.
    """
    if am is None:
        am = affinize(model, u)
        return am, SwitchDecision(switch=False, residual=0.0, parts=am.parts(x))
    decision = switching_check(am, x, u, eps_a)
    if not decision.switch:
        return am, decision
    am = affinize(model, u)
    return am, replace(decision, parts=am.parts(x))
