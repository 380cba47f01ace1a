"""Gradient oracles: the training kernel on raw rows, and central differences.

``flsim.models.loss_and_grad`` takes rows already canonicalised by the
dataset's ranks. ``batch_loss_and_grad`` ranks a batch's own rows with
``row_keys`` and calls it, so tests can check the kernel against
``finite_diff_grad`` and against hand-built batches.
"""
import numpy as np

from flsim.errors import ConfigError
from flsim.models import canonical_rows, loss_and_grad, row_keys


def batch_loss_and_grad(spec, theta, X, y):
    """(loss, gradient vector) of ``spec`` at ``theta`` on the rows ``X``, ``y``."""
    theta = np.asarray(theta, dtype=np.float64)
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)
    sel, counts = canonical_rows(row_keys(X, y))
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
