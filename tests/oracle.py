"""Reference oracles: the training kernel on raw rows, central differences,
the per-batch step loop, and the kernel's earlier formulation.

``flsim.models.loss_and_grad`` takes a step of rows already canonicalised by
the dataset's ranks. ``batch_loss_and_grad`` ranks a batch's own rows with
``row_keys``, builds the step with ``flsim.models.batch_steps`` (``one_step``)
and calls it, so tests can check the kernel against
``finite_diff_grad`` and against hand-built batches. ``per_batch_schedule``
draws and canonicalises a round's minibatches one batch at a time
(``canonical_batch``): the reference ``flsim.engine.round_schedule`` is
checked against.
``reference_loss_and_grad`` is ``flsim.models.loss_and_grad`` as written before
its log-softmax ran in place, its gradient blocks were written into one vector
and its batch constants came with the step; the kernel must match it bit for
bit. ``reference_client_opt`` is ``flsim.methods.client_opt`` as written
before it stepped one buffer in place: every step and every SAM perturbed
point is a new vector, with layer views built for each kernel call.
``reference_top1`` is ``flsim.models.top1_accuracy`` with its forward pass
written out, ``X @ W + b`` per layer, then ``np.argmax``.
``reference_weighted_mean`` is ``flsim.methods.mean_params(..., weighted=True)``
as a fold in the order given. The references
keep ``@`` for every product the package computes with ``np.dot``, and the
tests require the same bytes of both.
"""
import math

import numpy as np

from flsim.errors import ConfigError, NumericalOverflowError
from flsim.methods import METHODS, ClientResult, ClientRound
from flsim.models import batch_steps, canonical_rows, layer_views, loss_and_grad, row_keys


def one_step(spec, X, y, counts, n):
    """The kernel's ``Step`` for one batch of canonical rows, from the engine's builder."""
    (step,) = batch_steps(spec, X, y, counts, [0, len(y)], [n])
    return step


def round_errstate():
    """The NumPy error state ``flsim.engine.run_round`` holds around every kernel
    call; the kernel sets none, so a test that calls it directly enters this."""
    return np.errstate(over="ignore", invalid="ignore")


def batch_loss_and_grad(spec, theta, X, y):
    """(loss, gradient vector) of ``spec`` at ``theta`` on the rows ``X``, ``y``."""
    theta = np.asarray(theta, dtype=np.float64)
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    sel, counts, _ = canonical_rows(row_keys(X, y), [0])
    step = one_step(spec, X[sel], y[sel], counts, len(y))
    with round_errstate():
        return loss_and_grad(spec, theta, step, layer_views(spec, theta))


def finite_diff_grad(spec, theta, X, y, epsilon):
    """Central-difference gradient estimate, coordinate by coordinate."""
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    theta = np.asarray(theta, dtype=np.float64)
    est = np.zeros_like(theta)
    for i in range(len(theta)):
        bumped = theta.copy()
        bumped[i] += epsilon
        lo_plus, _ = batch_loss_and_grad(spec, bumped, X, y)
        bumped[i] = theta[i] - epsilon
        lo_minus, _ = batch_loss_and_grad(spec, bumped, X, y)
        est[i] = (lo_plus - lo_minus) / (2.0 * epsilon)
    return est


def block(spec, theta, name):
    """The named block of a flat parameter vector, as a view in its shape."""
    sl, shape = spec.slices[name]
    return theta[sl].reshape(shape)


def per_batch_schedule(shards, streams, ranks, local_epochs, batch_size):
    """Per client, its steps' (rows, counts, n), each batch canonicalised alone.

    A shard of one batch is that batch in shard order, the same step every
    epoch, and reads no stream. Every other shard takes the next of
    ``streams``, and each epoch draws a permutation of the shard from it. A
    batch's rows sorted stably by rank keep the first row of each run of equal
    ranks, weighted by the run's length; ``n`` is the batch's size.
    """
    streams, clients = iter(streams), []
    for shard in shards:
        if len(shard) <= batch_size:
            clients.append([canonical_batch(shard, ranks)] * local_epochs)
            continue
        rng, steps = next(streams), []
        for _ in range(local_epochs):
            order = rng.permutation(len(shard))
            for start in range(0, len(shard), batch_size):
                steps.append(canonical_batch(shard[order[start : start + batch_size]], ranks))
        clients.append(steps)
    return clients


def canonical_batch(drawn, ranks):
    """(rows, counts, n) of one batch of row indices, in the order drawn."""
    by_rank = np.argsort(ranks[drawn], kind="stable")
    _, first, counts = np.unique(ranks[drawn][by_rank], return_index=True, return_counts=True)
    return drawn[by_rank[first]], counts.astype(np.float64), float(len(drawn))


def reference_loss_and_grad(spec, theta, X, y, counts, n):
    """``flsim.models.loss_and_grad``'s earlier formulation, step by step."""
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "quadratic_probe":
            grad = theta - np.asarray(spec.probe_target, dtype=np.float64)
            loss = 0.5 * float(grad @ grad)
        else:
            views = iter([theta[sl].reshape(shape) for sl, shape in spec.slices.values()])
            layers = list(zip(views, views))
            (W, b), *above = layers
            inputs, logits = [X], X @ W + b
            for W, b in above:
                inputs.append(np.maximum(logits, 0.0) if spec.activation == "relu" else np.tanh(logits))
                logits = inputs[-1] @ W + b
            z = logits - logits.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            rows = np.arange(len(y))
            loss = float(counts @ (-logp[rows, y]) / n)
            G = np.exp(logp)
            G[rows, y] -= 1.0
            G *= (counts / n)[:, None]
            blocks = []
            for i in reversed(range(len(layers))):
                A = inputs[i]
                blocks[:0] = [(A.T @ G).ravel(), G.sum(axis=0)]
                if i:
                    dact = A > 0.0 if spec.activation == "relu" else 1.0 - A**2
                    G = (G @ layers[i][0].T) * dact
            grad = np.concatenate(blocks)
    if not math.isfinite(loss):
        raise NumericalOverflowError("loss")
    if not np.isfinite(grad).all():
        for name, (sl, _) in spec.slices.items():
            if not np.isfinite(grad[sl]).all():
                raise NumericalOverflowError(name)
    return loss, grad


def reference_top1(spec, theta, X, y):
    """``flsim.models.top1_accuracy`` with the forward pass written out."""
    views = iter([theta[sl].reshape(shape) for sl, shape in spec.slices.values()])
    logits = X
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (W, b) in enumerate(zip(views, views)):
            if i:
                logits = np.maximum(logits, 0.0) if spec.activation == "relu" else np.tanh(logits)
            logits = logits @ W + b
    return float(np.mean(np.argmax(logits, axis=1) == y))


def reference_client_opt(cid, server, steps, num_samples, state, hp, cfg):
    """``flsim.methods.client_opt``'s earlier, functional loop."""
    m = METHODS[cfg.method]
    theta = server.global_params.values
    c = ClientRound(cfg, hp, server, theta, state)
    shift = m.perturb_shift(c) if m.perturb_shift is not None else None
    eps, losses = None, []
    for step in steps:
        loss, g = loss_and_grad(cfg.model, theta, step, layer_views(cfg.model, theta))
        if m.sam:
            raw = g if shift is None else g + shift
            norm, xi = math.sqrt(raw.dot(raw)), hp["xi"]
            top = np.abs(raw).max()
            if norm == math.inf and math.isfinite(top):  # scaled so the squares stay finite
                raw, xi = raw / top, hp["xi"] / top
                norm = math.sqrt(raw.dot(raw))
            eps = hp["rho"] * raw / (norm + xi)
            pert = theta + eps
            g = loss_and_grad(cfg.model, pert, step, layer_views(cfg.model, pert))[1]
        theta = theta - cfg.client_lr * m.direction(c, g, theta)
        losses.append(loss)
    new_state, aux = m.client_finish(c, theta, len(losses), eps)
    mean_loss = float(np.add.reduce(losses) / len(losses))
    evals = len(losses) * (2 if m.sam else 1)
    return ClientResult(cid, theta, len(losses), mean_loss, evals, num_samples, aux), new_state


def reference_weighted_mean(results):
    """The results' parameters weighted by shard size, summed in the order given:
    ``acc = w0 * theta0``, then ``acc = acc + wi * thetai``, over the weights' sum."""
    acc = float(results[0].num_samples) * results[0].final_params
    for r in results[1:]:
        acc = acc + float(r.num_samples) * r.final_params
    return acc / float(sum(r.num_samples for r in results))
