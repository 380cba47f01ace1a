"""Reference oracles: the training kernel on raw rows, central differences,
and the per-batch step loop.

``flsim.models.loss_and_grad`` takes rows already canonicalised by the
dataset's ranks. ``batch_loss_and_grad`` ranks a batch's own rows with
``row_keys`` and calls it, so tests can check the kernel against
``finite_diff_grad`` and against hand-built batches. ``per_batch_schedule``
draws and canonicalises a round's minibatches one batch at a time: the
reference ``flsim.engine.round_schedule`` is checked against.
"""
import numpy as np

from flsim.errors import ConfigError
from flsim.models import canonical_rows, loss_and_grad, row_keys


def batch_loss_and_grad(spec, theta, X, y):
    """(loss, gradient vector) of ``spec`` at ``theta`` on the rows ``X``, ``y``."""
    theta = np.asarray(theta, dtype=np.float64)
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    sel, counts, _ = canonical_rows(row_keys(X, y), [0])
    return loss_and_grad(spec, theta, X[sel], y[sel], counts, float(len(y)))


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

    Each epoch draws a permutation of the shard from the client's stream; a
    batch's rows sorted stably by rank keep the first row of each run of
    equal ranks, weighted by the run's length; ``n`` is the batch's size.
    """
    clients = []
    for shard, rng in zip(shards, streams):
        steps = []
        for _ in range(local_epochs):
            order = rng.permutation(len(shard))
            for start in range(0, len(shard), batch_size):
                drawn = shard[order[start : start + batch_size]]
                by_rank = np.argsort(ranks[drawn], kind="stable")
                _, first, counts = np.unique(
                    ranks[drawn][by_rank], return_index=True, return_counts=True
                )
                steps.append((drawn[by_rank[first]], counts.astype(np.float64), float(len(drawn))))
        clients.append(steps)
    return clients
