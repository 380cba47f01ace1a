"""The eight client/server optimization methods.

``client_opt`` runs one client's local round on plain arrays: L epochs of
shuffled minibatch steps theta <- theta - lr * d over the client's rows of
the training set. ``server_opt`` folds the client results in ascending
client id into the next ``ServerState``. A client's state is a dict from
name to vector. A method is one ``Method`` record in ``METHODS``: the
hyperparameters it accepts, the names of the client state it carries
across rounds, the one server-state field it may update, its per-step
direction d, and its end-of-round client and server updates.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError
from .models import Batch, ParamVector, loss_and_grad


@dataclass(frozen=True)
class HyperParams:
    lam: float = 0.0  # fedprox proximal weight
    beta: float = 0.0  # feddyn / fedsmoo dual weight
    mu: float = 0.1  # fedcm momentum mixing
    rho: float = 0.0  # SAM perturbation radius
    gamma: float = 0.1  # fedspeed proximal weight
    xi: float = 1e-12  # SAM zero-gradient guard

    def validate(self):
        if self.lam < 0 or self.beta < 0 or self.rho < 0 or self.gamma < 0:
            raise ConfigError("lambda/beta/rho/gamma must be non-negative")
        if not (0.0 <= self.mu <= 1.0):
            raise ConfigError("mu must be in [0, 1]")
        if self.xi <= 0:
            raise ConfigError("xi must be positive")

    @classmethod
    def for_method(cls, method: str, values: dict) -> "HyperParams":
        if method not in METHODS:
            raise ConfigError(f"unknown method '{method}'")
        allowed = METHODS[method].hparams
        for key in values:
            if key not in allowed:
                raise ConfigError(f"hyperparameter '{key}' is illegal for {method}")
        kwargs = {("lam" if k == "lambda" else k): float(v) for k, v in values.items()}
        hp = cls(**kwargs)
        hp.validate()
        return hp


@dataclass
class ClientResult:
    client_id: int
    final_params: ParamVector
    steps_taken: int
    mean_loss: float
    grad_evals: int
    num_samples: int
    aux: ParamVector | None = None


@dataclass
class ClientRound:
    """What a method's functions see of one client's local round."""

    cfg: object  # RunConfig
    hp: HyperParams
    server: object  # the broadcast ServerState
    theta_r: np.ndarray  # broadcast parameters
    state: dict  # client state at round start, name -> ndarray
    eps: np.ndarray | None = None  # the last step's SAM perturbation


@dataclass(frozen=True)
class Method:
    """One method: everything that sets it apart from plain FedAvg.

    ``direction(c, g, tv)`` is the step direction at parameters ``tv`` given
    the step's gradient ``g`` (for SAM methods, taken at the perturbed point).
    ``client_finish(c, theta_f, steps)`` returns the client's new state (every
    key of ``client_state``) and the ``aux`` vector it sends to the server, or
    None. ``server_finish(server, results, theta_new, hp, cfg)`` returns the new
    value of ``server_field``; ``results`` are in ascending client id.
    """

    hparams: frozenset = frozenset()  # config keys the method accepts
    client_state: tuple = ()  # per-client vector names
    server_field: str | None = None  # the ServerState vector it updates
    direction: Callable = lambda c, g, tv: g
    sam: bool = False  # two gradient evaluations per step, see client_opt
    perturb_shift: Callable | None = None  # c -> vector added to the SAM raw gradient
    client_finish: Callable = lambda c, theta_f, steps: ({}, None)
    server_finish: Callable | None = None


def _fedcm_momentum(server, results, theta_new, hp, cfg):
    denom = cfg.client_lr * float(np.mean([r.steps_taken for r in results]))
    if denom > 0:
        return (server.global_params.values - theta_new) / denom
    return np.zeros_like(theta_new)


def _fedgamma_client(c, theta_f, steps):
    denom = c.cfg.client_lr * steps
    # lr=0 leaves theta unmoved; define the 0/0 displacement rate as 0
    rate = (c.theta_r - theta_f) / denom if denom > 0 else 0.0
    c_m_new = c.state["c_m"] - c.server.global_control.values + rate
    return {"c_m": c_m_new}, c_m_new - c.state["c_m"]


def _fedsmoo_client(c, theta_f, steps):
    h = c.state["h"] - c.hp.beta * (theta_f - c.theta_r)
    u = c.state["u"] + (c.eps - c.server.global_perturb.values)
    return {"h": h, "u": u}, c.eps


def _fedsmoo_perturb(server, results, theta_new, hp, cfg):
    m_bar = np.mean([r.aux.values for r in results], axis=0)
    return hp.rho * m_bar / (np.linalg.norm(m_bar) + hp.xi)


_SAM_HPARAMS = frozenset({"rho", "xi"})

METHODS = {
    "fedavg": Method(),
    "fedprox": Method(
        hparams=frozenset({"lambda"}),
        direction=lambda c, g, tv: g + c.hp.lam * (tv - c.theta_r),
    ),
    "feddyn": Method(
        hparams=frozenset({"beta"}),
        client_state=("h",),
        direction=lambda c, g, tv: g - c.state["h"] + c.hp.beta * (tv - c.theta_r),
        client_finish=lambda c, theta_f, steps: (
            {"h": c.state["h"] - c.hp.beta * (theta_f - c.theta_r)},
            None,
        ),
    ),
    "fedcm": Method(
        hparams=frozenset({"mu"}),
        server_field="momentum",
        direction=lambda c, g, tv: c.hp.mu * g + (1.0 - c.hp.mu) * c.server.momentum.values,
        server_finish=_fedcm_momentum,
    ),
    "fedsam": Method(hparams=_SAM_HPARAMS, sam=True),
    "fedgamma": Method(
        hparams=_SAM_HPARAMS,
        client_state=("c_m",),
        server_field="global_control",
        sam=True,
        direction=lambda c, g, tv: g - c.state["c_m"] + c.server.global_control.values,
        client_finish=_fedgamma_client,
        server_finish=lambda server, results, theta_new, hp, cfg: (
            server.global_control.values
            + np.sum([r.aux.values for r in results], axis=0) / cfg.n_clients
        ),
    ),
    "fedspeed": Method(
        hparams=_SAM_HPARAMS | {"gamma"},
        client_state=("g_hat",),
        sam=True,
        direction=lambda c, g, tv: g - c.state["g_hat"] + c.hp.gamma * (tv - c.theta_r),
        client_finish=lambda c, theta_f, steps: (
            {"g_hat": c.state["g_hat"] - c.hp.gamma * (theta_f - c.theta_r)},
            None,
        ),
    ),
    "fedsmoo": Method(
        hparams=_SAM_HPARAMS | {"beta"},
        client_state=("h", "u"),
        server_field="global_perturb",
        sam=True,
        perturb_shift=lambda c: c.server.global_perturb.values - c.state["u"],
        direction=lambda c, g, tv: g - c.state["h"] + c.hp.beta * (tv - c.theta_r),
        client_finish=_fedsmoo_client,
        server_finish=_fedsmoo_perturb,
    ),
}

METHOD_NAMES = tuple(METHODS)
SAM_FAMILY = frozenset(name for name, m in METHODS.items() if m.sam)


def client_opt(cid, server, data, shard, state, hp, cfg, rng):
    """Client ``cid``'s local round from the broadcast ``server.global_params``.

    ``shard`` holds the client's row indices into ``data`` and ``state`` maps
    the method's client-state names to vectors. Runs ``cfg.local_epochs``
    epochs of shuffled minibatch steps; returns (ClientResult, new state).
    """
    m = METHODS[cfg.method]
    theta_r = server.global_params
    layout = theta_r.layout
    c = ClientRound(cfg, hp, server, theta_r.values, state)
    shift = m.perturb_shift(c) if m.perturb_shift is not None else None
    theta = theta_r.values
    losses = []
    for _ in range(cfg.local_epochs):
        order = rng.permutation(len(shard))
        for start in range(0, len(shard), cfg.batch_size):
            rows = shard[order[start : start + cfg.batch_size]]
            batch = Batch(data.features[rows], data.labels[rows])
            loss, g = loss_and_grad(cfg.model, ParamVector(theta, layout), batch)
            g = g.values
            if m.sam:
                # the gradient at theta + rho * raw/||raw||, raw the plain
                # gradient plus any shift; two evaluations even at rho=0
                raw = g if shift is None else g + shift
                c.eps = hp.rho * raw / (np.linalg.norm(raw) + hp.xi)
                g = loss_and_grad(cfg.model, ParamVector(theta + c.eps, layout), batch)[1].values
            theta = theta - cfg.client_lr * m.direction(c, g, theta)
            losses.append(loss)
    new_state, aux = m.client_finish(c, theta, len(losses))
    result = ClientResult(
        client_id=cid,
        final_params=ParamVector(theta, layout),
        steps_taken=len(losses),
        mean_loss=float(np.mean(losses)),
        grad_evals=len(losses) * (2 if m.sam else 1),
        num_samples=len(shard),
        aux=None if aux is None else ParamVector(aux, layout),
    )
    return result, new_state


def mean_params(results, weighted: bool = False) -> ParamVector:
    """Deterministic fold in ascending client id (uniform mean by default)."""
    ordered = sorted(results, key=lambda r: r.client_id)
    stack = np.stack([r.final_params.values for r in ordered])
    if weighted:
        w = np.array([r.num_samples for r in ordered], dtype=np.float64)
        vals = (w[:, None] * stack).sum(axis=0) / w.sum()
    else:
        vals = stack.mean(axis=0)
    return ParamVector(vals, ordered[0].final_params.layout)


def server_opt(server, results, hp, cfg):
    """Aggregate client results into the next server state.

    Returns a new ServerState with round incremented; only the method's
    declared server field (if any) is updated.
    """
    ordered = sorted(results, key=lambda r: r.client_id)
    theta_new = mean_params(ordered, weighted=cfg.weighted_avg)
    new = replace(server, round=server.round + 1, global_params=theta_new)
    m = METHODS[cfg.method]
    if m.server_field is None:
        return new
    value = m.server_finish(server, ordered, theta_new.values, hp, cfg)
    return replace(new, **{m.server_field: ParamVector(value, theta_new.layout)})
