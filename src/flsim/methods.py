"""The eight client/server optimization methods.

``client_opt`` runs one client's local round on plain arrays: the steps
theta <- theta - lr * d over the minibatches the engine scheduled for it.
``server_opt`` folds the client results in ascending client id into the
next ``ServerState``. Inside a round every vector is a
plain float64 array; client and server state are dicts of them by name. A
method is one ``Method`` record in ``METHODS``: the ``HPARAMS`` keys it
accepts, the names of the client and server state it carries across
rounds, its per-step direction d, and its end-of-round updates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError
from .models import ParamVector, layer_views, loss_and_grad


@dataclass
class ClientResult:
    client_id: int
    final_params: np.ndarray
    steps_taken: int
    mean_loss: float
    grad_evals: int
    num_samples: int
    aux: np.ndarray | None = None


@dataclass
class ClientRound:
    """What a method's functions see of one client's local round."""

    cfg: object  # RunConfig
    hp: dict  # the method's hyperparameters by key, see ``hyperparams``
    server: object  # the broadcast ServerState
    theta_r: np.ndarray  # broadcast parameters
    state: dict  # client state at round start, name -> ndarray


@dataclass(frozen=True)
class Method:
    """One method: everything that sets it apart from plain FedAvg.

    ``direction(c, g, tv)`` is the step direction at parameters ``tv`` given
    the step's gradient ``g`` (for SAM methods, taken at the perturbed point).
    It returns a new array (``g`` is one), which ``client_opt`` scales in place.
    ``client_finish(c, theta_f, steps, eps)``, ``eps`` the last SAM perturbation,
    returns the client's new state (every key of ``client_state``) and the
    ``aux`` vector it sends to the server, or None. ``server_finish(server,
    results, theta_new, hp, cfg)`` returns the new server state (every key of
    ``server_state``); ``results`` are in ascending client id.
    """

    hparams: frozenset = frozenset()  # config keys the method accepts
    client_state: tuple = ()  # per-client vector names
    server_state: tuple = ()  # server vector names
    direction: Callable = lambda c, g, tv: g
    sam: bool = False  # two gradient evaluations per step, see client_opt
    perturb_shift: Callable | None = None  # c -> vector added to the SAM raw gradient
    client_finish: Callable = lambda c, theta_f, steps, eps: ({}, None)
    server_finish: Callable = lambda server, results, theta_new, hp, cfg: {}


def _fedcm_momentum(server, results, theta_new, hp, cfg):
    denom = cfg.client_lr * float(np.mean([r.steps_taken for r in results]))
    if denom > 0:
        return {"momentum": (server.global_params.values - theta_new) / denom}
    return {"momentum": np.zeros_like(theta_new)}


def _fedgamma_client(c, theta_f, steps, eps):
    denom = c.cfg.client_lr * steps
    # lr=0 leaves theta unmoved; define the 0/0 displacement rate as 0
    rate = (c.theta_r - theta_f) / denom if denom > 0 else 0.0
    c_m_new = c.state["c_m"] - c.server.state["global_control"] + rate
    return {"c_m": c_m_new}, c_m_new - c.state["c_m"]


def _fedsmoo_client(c, theta_f, steps, eps):
    h = c.state["h"] - c.hp["beta"] * (theta_f - c.theta_r)
    u = c.state["u"] + (eps - c.server.state["global_perturb"])
    return {"h": h, "u": u}, eps


def _fedsmoo_perturb(server, results, theta_new, hp, cfg):
    m_bar = np.add.reduce([r.aux for r in results], axis=0) / len(results)
    return {"global_perturb": hp["rho"] * m_bar / (np.linalg.norm(m_bar) + hp["xi"])}


# Every method hyperparameter: config key -> (default, lowest, highest value it may take)
HPARAMS = {
    "lambda": (0.0, 0.0, math.inf),  # fedprox proximal weight
    "beta": (0.0, 0.0, math.inf),  # feddyn / fedsmoo dual weight
    "mu": (0.1, 0.0, 1.0),  # fedcm momentum mixing
    "rho": (0.0, 0.0, math.inf),  # SAM perturbation radius
    "gamma": (0.1, 0.0, math.inf),  # fedspeed proximal weight
    "xi": (1e-12, math.ulp(0.0), math.inf),  # SAM zero-gradient guard, > 0
}

_SAM_HPARAMS = frozenset({"rho", "xi"})

METHODS = {
    "fedavg": Method(),
    "fedprox": Method(
        hparams=frozenset({"lambda"}),
        direction=lambda c, g, tv: g + c.hp["lambda"] * (tv - c.theta_r),
    ),
    "feddyn": Method(
        hparams=frozenset({"beta"}),
        client_state=("h",),
        direction=lambda c, g, tv: g - c.state["h"] + c.hp["beta"] * (tv - c.theta_r),
        client_finish=lambda c, theta_f, steps, eps: (
            {"h": c.state["h"] - c.hp["beta"] * (theta_f - c.theta_r)},
            None,
        ),
    ),
    "fedcm": Method(
        hparams=frozenset({"mu"}),
        server_state=("momentum",),
        direction=lambda c, g, tv: c.hp["mu"] * g + (1.0 - c.hp["mu"]) * c.server.state["momentum"],
        server_finish=_fedcm_momentum,
    ),
    "fedsam": Method(hparams=_SAM_HPARAMS, sam=True),
    "fedgamma": Method(
        hparams=_SAM_HPARAMS,
        client_state=("c_m",),
        server_state=("global_control",),
        sam=True,
        direction=lambda c, g, tv: g - c.state["c_m"] + c.server.state["global_control"],
        client_finish=_fedgamma_client,
        server_finish=lambda server, results, theta_new, hp, cfg: {
            "global_control": server.state["global_control"]
            + np.sum([r.aux for r in results], axis=0) / cfg.n_clients
        },
    ),
    "fedspeed": Method(
        hparams=_SAM_HPARAMS | {"gamma"},
        client_state=("g_hat",),
        sam=True,
        direction=lambda c, g, tv: g - c.state["g_hat"] + c.hp["gamma"] * (tv - c.theta_r),
        client_finish=lambda c, theta_f, steps, eps: (
            {"g_hat": c.state["g_hat"] - c.hp["gamma"] * (theta_f - c.theta_r)},
            None,
        ),
    ),
    "fedsmoo": Method(
        hparams=_SAM_HPARAMS | {"beta"},
        client_state=("h", "u"),
        server_state=("global_perturb",),
        sam=True,
        perturb_shift=lambda c: c.server.state["global_perturb"] - c.state["u"],
        direction=lambda c, g, tv: g - c.state["h"] + c.hp["beta"] * (tv - c.theta_r),
        client_finish=_fedsmoo_client,
        server_finish=_fedsmoo_perturb,
    ),
}

METHOD_NAMES = tuple(METHODS)


def hyperparams(method: str, values: dict) -> dict:
    """Each of ``method``'s ``hparams`` as ``float(values[key])`` or its ``HPARAMS`` default."""
    if method not in METHODS:
        raise ConfigError(f"unknown method '{method}'")
    hp = {key: row[0] for key, row in HPARAMS.items() if key in METHODS[method].hparams}
    if illegal := [key for key in values if key not in hp]:
        raise ConfigError(f"hyperparameter '{illegal[0]}' is illegal for {method}")
    for key, value in values.items():
        try:
            hp[key] = float(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"hyperparameter '{key}' must be a number") from None
    if not all(map(math.isfinite, hp.values())):
        raise ConfigError("hyperparameters must be finite")
    for key, (_, low, high) in HPARAMS.items():
        if key in hp and not low <= hp[key] <= high:
            raise ConfigError(f"{key} must be in [{low:g}, {high:g}]")
    return hp


def client_opt(cid, server, steps, num_samples, state, hp, cfg):
    """Client ``cid``'s local round from the broadcast ``server.global_params``.

    ``steps`` is the client's part of ``engine.round_schedule``: one
    ``models.Step`` per local step, in order;
    ``num_samples`` is its shard's row count, and ``state`` maps the method's
    client-state names to vectors. Steps a copy of the broadcast vector in
    place and writes nothing it is given. Returns (ClientResult, new state).
    """
    m, spec, lr = METHODS[cfg.method], cfg.model, cfg.client_lr
    direction = m.direction
    c = ClientRound(cfg, hp, server, server.global_params.values, state)
    theta = c.theta_r.copy()  # the client's own buffer, stepped in place
    layers = layer_views(spec, theta)  # views that follow every step
    if m.sam:  # theta + eps, written into a second buffer each step
        pert = np.empty_like(theta)
        pert_layers = layer_views(spec, pert)
    shift = m.perturb_shift(c) if m.perturb_shift is not None else None
    eps = None
    losses = []
    for step in steps:
        loss, g = loss_and_grad(spec, theta, step, layers)
        if m.sam:
            # the gradient at theta + rho * raw/||raw||, raw the plain
            # gradient plus any shift; two evaluations even at rho=0.
            # ||raw|| as np.linalg.norm takes it for a vector, without its dispatch
            raw = g if shift is None else g + shift
            sq, top = raw.dot(raw), 1.0
            # finite entries whose squares overflow: scaled by the largest, eps keeps length rho
            if sq == math.inf and (top := np.abs(raw).max()) < math.inf:
                raw = raw / top
                sq = raw.dot(raw)
            eps = hp["rho"] * raw / (math.sqrt(sq) + hp["xi"] / top)
            g = loss_and_grad(spec, np.add(theta, eps, out=pert), step, pert_layers)[1]
        d = direction(c, g, theta)  # a new array, so scaled in place
        d *= lr
        np.subtract(theta, d, out=theta)
        losses.append(loss)
    new_state, aux = m.client_finish(c, theta, len(losses), eps)
    result = ClientResult(
        client_id=cid,
        final_params=theta,
        steps_taken=len(losses),
        mean_loss=float(np.add.reduce(losses) / len(losses)),
        grad_evals=len(losses) * (2 if m.sam else 1),
        num_samples=num_samples,
        aux=aux,
    )
    return result, new_state


def mean_params(results, weighted: bool = False) -> np.ndarray:
    """Fold of the results in the order given (uniform mean by default); weighted,
    each result's parameters times its row count, summed one after another."""
    if weighted:  # sum adds in order; NumPy would sum a one-entry column pairwise
        first, *rest = [float(r.num_samples) * r.final_params for r in results]
        return sum(rest, first) / float(sum(r.num_samples for r in results))
    stack = np.stack([r.final_params for r in results])
    return np.add.reduce(stack, axis=0) / len(stack)  # np.mean's sum, without its dispatch


def server_opt(server, results, hp, cfg):
    """Aggregate client results into the next server state.

    Sorts the results by client id once, for the fold and ``server_finish``;
    returns a new ServerState with round incremented and the method's state.
    """
    ordered = sorted(results, key=lambda r: r.client_id)
    theta_new = mean_params(ordered, weighted=cfg.weighted_avg)
    state = METHODS[cfg.method].server_finish(server, ordered, theta_new, hp, cfg)
    global_params = ParamVector(theta_new)
    return replace(server, round=server.round + 1, global_params=global_params, state=state)
