import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import SCALES, SPECS, gathered_batches, probe_config, probe_shard, scaled_params
from flsim import methods
from flsim.engine import (
    RunConfig,
    derive_stream,
    init_client_states,
    init_server_state,
    round_schedule,
    run_round,
)
from flsim.errors import ConfigError, NumericalOverflowError
from flsim.methods import (
    HPARAMS,
    METHODS,
    ClientResult,
    client_opt,
    hyperparams,
    mean_params,
    server_opt,
)
from flsim.models import ModelSpec, batch_steps, param_count
from oracle import block, one_step, reference_client_opt, reference_weighted_mean, round_errstate


def run_probe(method, hparams, steps=1, theta0=1.0, lr=0.1, target=(0.0,)):
    """One local round on the quadratic probe, from theta0 in every coordinate."""
    cfg = probe_config(method, target=target, client_lr=lr, local_epochs=steps)
    theta_r = np.full(len(target), float(theta0))
    server = init_server_state(cfg, theta_r)
    (state,) = init_client_states(cfg, theta_r)
    hp = hyperparams(method, hparams)
    rng = derive_stream(cfg.seed, 0, 0)
    _, (steps,) = round_schedule([np.arange(1)], [rng], probe_shard(1), cfg)
    result, new_state = client_opt(0, server, steps, 1, state, hp, cfg)
    return result, new_state, server, cfg, hp


class TestHyperParams:
    def test_illegal_key_rejected(self):
        with pytest.raises(ConfigError):
            hyperparams("fedavg", {"rho": 0.1})
        with pytest.raises(ConfigError):
            hyperparams("fedprox", {"mu": 0.5})

    def test_ranges(self):
        with pytest.raises(ConfigError):
            hyperparams("fedprox", {"lambda": -1.0})
        with pytest.raises(ConfigError):
            hyperparams("fedcm", {"mu": 1.5})
        with pytest.raises(ConfigError):
            hyperparams("fedsam", {"xi": 0.0})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key", ["lambda", "beta", "mu", "rho", "gamma", "xi"])
    def test_non_finite_rejected(self, key, value):
        method = next(m for m in sorted(METHODS) if key in METHODS[m].hparams)
        with pytest.raises(ConfigError, match="finite"):
            hyperparams(method, {key: value})

    def test_defaults(self):
        hp = hyperparams("fedspeed", {"rho": 0.01})
        assert hp["gamma"] == 0.1 and hp["xi"] == 1e-12

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_grid_values_accepted(self, method):
        for key in METHODS[method].hparams - {"xi"}:
            for v in (0.1, 0.01, 0.001):
                hyperparams(method, {key: v})

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_defaults_are_exactly_the_methods_keys(self, method):
        defaults = {"lambda": 0.0, "beta": 0.0, "mu": 0.1, "rho": 0.0, "gamma": 0.1, "xi": 1e-12}
        hp = hyperparams(method, {})
        assert hp.keys() == METHODS[method].hparams
        assert hp == {key: defaults[key] for key in hp}

    def test_every_table_row_is_a_methods_key(self):
        assert set(HPARAMS) == set().union(*(m.hparams for m in METHODS.values()))

    @pytest.mark.parametrize(
        "method,key,value,accepted",
        [
            ("fedcm", "mu", 0.0, True),
            ("fedcm", "mu", 1.0, True),
            ("fedcm", "mu", math.nextafter(1.0, 2.0), False),
            ("fedcm", "mu", -math.ulp(0.0), False),
            ("fedsam", "xi", 0.0, False),
            ("fedsam", "xi", -0.0, False),
            ("fedsam", "xi", math.ulp(0.0), True),
            ("fedprox", "lambda", -0.0, True),
            ("fedprox", "lambda", -math.ulp(0.0), False),
            ("feddyn", "beta", -math.ulp(0.0), False),
            ("fedsam", "rho", -math.ulp(0.0), False),
            ("fedspeed", "gamma", -math.ulp(0.0), False),
            ("fedspeed", "gamma", 1e308, True),
        ],
    )
    def test_bound_edges(self, method, key, value, accepted):
        if accepted:
            assert hyperparams(method, {key: value})[key] == value
        else:
            with pytest.raises(ConfigError, match=f"^{key} must be in"):
                hyperparams(method, {key: value})

    @pytest.mark.parametrize("value", ["abc", "", None, [1], {}, 1j, 10**400])
    @pytest.mark.parametrize("key", sorted(HPARAMS))
    def test_value_float_cannot_take_is_a_config_error_naming_the_key(self, key, value):
        # once a ValueError, TypeError or OverflowError from float() that
        # escaped RunConfig.validate, and so run_training and train_lockstep
        method = next(m for m in sorted(METHODS) if key in METHODS[m].hparams)
        cfg = probe_config(method, client_hparams={key: value})
        with pytest.raises(ConfigError, match=f"^hyperparameter '{key}' must be a number"):
            cfg.validate()

    @pytest.mark.parametrize("value,want", [("0.1", 0.1), (True, 1.0), (np.float32(0.5), 0.5)])
    def test_values_float_takes_are_accepted(self, value, want):
        cfg = probe_config("fedcm", client_hparams={"mu": value})
        cfg.validate()
        assert hyperparams("fedcm", cfg.client_hparams) == {"mu": want}


class TestFedAvg:
    def test_one_step(self):
        result, _, _, _, _ = run_probe("fedavg", {}, steps=1)
        assert result.final_params[0] == pytest.approx(0.9, abs=1e-15)

    def test_two_steps_geometric(self):
        result, _, _, _, _ = run_probe("fedavg", {}, steps=2)
        assert result.final_params[0] == pytest.approx(0.81, abs=1e-12)

    def test_zero_lr_is_noop(self):
        result, _, _, _, _ = run_probe("fedavg", {}, steps=3, lr=0.0)
        assert result.final_params[0] == 1.0


class TestFedProx:
    def test_hand_recursion(self):
        # step 1: d = 1 -> 0.9; step 2: d = 0.9 + (0.9-1) = 0.8 -> 0.82
        result, _, _, _, _ = run_probe("fedprox", {"lambda": 1.0}, steps=2)
        assert result.final_params[0] == pytest.approx(0.82, abs=1e-12)

    def test_lambda_zero_equals_fedavg(self):
        a, _, _, _, _ = run_probe("fedprox", {"lambda": 0.0}, steps=3)
        b, _, _, _, _ = run_probe("fedavg", {}, steps=3)
        assert np.array_equal(a.final_params, b.final_params)


class TestFedDyn:
    def test_hand_step_and_dual(self):
        result, state, _, _, _ = run_probe("feddyn", {"beta": 1.0}, steps=1)
        assert result.final_params[0] == pytest.approx(0.9, abs=1e-12)
        assert state["h"][0] == pytest.approx(0.1, abs=1e-12)

    def test_beta_zero_equals_fedavg(self):
        a, st, _, _, _ = run_probe("feddyn", {"beta": 0.0}, steps=3)
        b, _, _, _, _ = run_probe("fedavg", {}, steps=3)
        assert np.array_equal(a.final_params, b.final_params)
        assert st["h"][0] == 0.0


class TestFedSAM:
    def test_hand_step(self):
        # g1 = 1, eps = 0.5, gradient at 1.5 is 1.5 -> theta = 0.85
        result, _, _, _, _ = run_probe("fedsam", {"rho": 0.5}, steps=1)
        assert result.final_params[0] == pytest.approx(0.85, abs=1e-9)

    def test_rho_zero_equals_fedavg(self):
        a, _, _, _, _ = run_probe("fedsam", {"rho": 0.0}, steps=3)
        b, _, _, _, _ = run_probe("fedavg", {}, steps=3)
        assert np.array_equal(a.final_params, b.final_params)

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_counts_two_evals_per_step(self, method, monkeypatch):
        # grad_evals is derived from the step count; check it against the calls made
        calls = []
        real = methods.loss_and_grad
        monkeypatch.setattr(methods, "loss_and_grad", lambda *a: calls.append(a) or real(*a))
        result, _, _, _, _ = run_probe(method, {}, steps=4)
        per_step = 2 if METHODS[method].sam else 1
        assert result.grad_evals == len(calls) == result.steps_taken * per_step


class TestFedCM:
    def test_mu_one_step_equals_fedavg(self):
        a, _, _, _, _ = run_probe("fedcm", {"mu": 1.0}, steps=3)
        b, _, _, _, _ = run_probe("fedavg", {}, steps=3)
        assert np.array_equal(a.final_params, b.final_params)

    def test_momentum_recursion(self):
        # oracle: replay the linear recursion by hand, then check the
        # server's momentum matches d = mu*g_path mixture via telescoping
        mu, lr, tau = 0.3, 0.1, 4
        result, _, server, cfg, hp = run_probe("fedcm", {"mu": mu}, steps=tau, lr=lr)
        theta = 1.0
        for _ in range(tau):
            d = mu * theta + (1 - mu) * 0.0  # momentum starts at zero
            theta -= lr * d
        assert result.final_params[0] == pytest.approx(theta, abs=1e-12)
        new_server = server_opt(server, [result], hp, cfg)
        expect_delta = (1.0 - theta) / (lr * tau)
        assert new_server.state["momentum"][0] == pytest.approx(expect_delta, abs=1e-12)


class TestFedGamma:
    def test_one_round_control_update(self):
        result, state, server, cfg, hp = run_probe("fedgamma", {"rho": 0.0}, steps=3)
        # c_m' = (theta_r - theta_f) / (lr * tau) with zero-init c_m, c
        expect = (1.0 - result.final_params[0]) / (0.1 * 3)
        assert state["c_m"][0] == pytest.approx(expect, abs=1e-12)
        assert result.aux[0] == pytest.approx(expect, abs=1e-12)
        new_server = server_opt(server, [result], hp, cfg)
        assert new_server.state["global_control"][0] == pytest.approx(
            expect / cfg.n_clients, abs=1e-12
        )

    def test_rho_zero_single_client_equals_fedavg(self):
        a, _, _, _, _ = run_probe("fedgamma", {"rho": 0.0}, steps=3)
        b, _, _, _, _ = run_probe("fedavg", {}, steps=3)
        assert np.array_equal(a.final_params, b.final_params)


class TestFedSpeed:
    def test_hand_step_and_dual(self):
        result, state, _, _, _ = run_probe(
            "fedspeed", {"rho": 0.0, "gamma": 1.0}, steps=1
        )
        assert result.final_params[0] == pytest.approx(0.9, abs=1e-12)
        assert state["g_hat"][0] == pytest.approx(0.1, abs=1e-12)

    def test_reductions(self):
        sam, _, _, _, _ = run_probe("fedspeed", {"rho": 0.5, "gamma": 0.0}, steps=2)
        ref_sam, _, _, _, _ = run_probe("fedsam", {"rho": 0.5}, steps=2)
        assert np.array_equal(sam.final_params, ref_sam.final_params)
        avg, _, _, _, _ = run_probe("fedspeed", {"rho": 0.0, "gamma": 0.0}, steps=2)
        ref_avg, _, _, _, _ = run_probe("fedavg", {}, steps=2)
        assert np.array_equal(avg.final_params, ref_avg.final_params)


class TestFedSMOO:
    def test_single_step_matches_fedsam(self):
        a, _, _, _, _ = run_probe("fedsmoo", {"rho": 0.5, "beta": 0.0}, steps=1)
        b, _, _, _, _ = run_probe("fedsam", {"rho": 0.5}, steps=1)
        assert np.array_equal(a.final_params, b.final_params)

    def test_server_perturb_norm_bounded(self):
        rho = 0.3
        result, _, server, cfg, hp = run_probe("fedsmoo", {"rho": rho, "beta": 0.1})
        new_server = server_opt(server, [result], hp, cfg)
        assert np.linalg.norm(new_server.state["global_perturb"]) <= rho

    def test_dual_updates(self):
        result, state, _, _, _ = run_probe("fedsmoo", {"rho": 0.2, "beta": 1.0}, steps=1)
        # h <- -beta*(theta_f - theta_r); u <- s_hat_last (s was zero)
        drift = result.final_params[0] - 1.0
        assert state["h"][0] == pytest.approx(-drift, abs=1e-12)
        assert state["u"][0] == pytest.approx(
            result.aux[0], abs=1e-15
        )


class TestAggregation:
    def make_result(self, cid, vals):
        vals = np.asarray(vals, dtype=float)
        return ClientResult(cid, vals, steps_taken=1, mean_loss=0.0, grad_evals=1, num_samples=1)

    def test_uniform_mean(self):
        results = [
            self.make_result(0, [0.0, 2.0]),
            self.make_result(1, [4.0, 6.0]),
        ]
        assert np.array_equal(mean_params(results), [2.0, 4.0])

    def test_order_invariant_fold(self):
        # server_opt sorts by client id once, for the fold and for server_finish
        rng = np.random.default_rng(0)
        for method in METHODS:
            cfg = probe_config(method, target=(0.0, 0.0), n_clients=7, sample_size=7)
            server = init_server_state(cfg, rng.standard_normal(2))
            results = [self.make_result(i, rng.standard_normal(2)) for i in range(7)]
            for r in results:
                r.aux = rng.standard_normal(2)
            hp = hyperparams(cfg.method, cfg.client_hparams)
            a = server_opt(server, results, hp, cfg)
            b = server_opt(server, list(reversed(results)), hp, cfg)
            assert a.state.keys() == b.state.keys()
            for key in a.state:
                assert np.array_equal(a.state[key], b.state[key])
            assert np.array_equal(a.global_params.values, b.global_params.values)

    def test_weighted_mean(self):
        results = [
            self.make_result(0, [0.0]),
            self.make_result(1, [3.0]),
        ]
        results[1].num_samples = 2
        assert mean_params(results, weighted=True)[0] == pytest.approx(2.0)


def test_sam_perturbation_norm_bounded():
    # fedsmoo sends its last SAM perturbation as aux; check it across magnitudes
    for scale in (1e-14, 1e-3, 1.0, 1e6):
        result, _, _, _, _ = run_probe("fedsmoo", {"rho": 0.25}, theta0=scale, target=(0.0,) * 3)
        assert np.linalg.norm(result.aux) <= 0.25 + 1e-12


def test_sam_perturbation_keeps_its_length_when_its_squares_overflow():
    # a finite gradient whose sum of squares overflows (W1's entries near
    # 1e308): fedsmoo's perturbation, its aux, is still rho long, not zero
    spec = ModelSpec("mlp", input_dim=2, num_classes=2, hidden_dim=2)
    theta = np.zeros(param_count(spec))
    block(spec, theta, "W1")[:] = 0.1
    block(spec, theta, "W2")[:] = [[-1.0, 1.0], [-1.0, 1.0]]
    cfg = RunConfig("fedsmoo", spec, n_clients=1, sample_size=1, client_lr=0.0,
                    client_hparams={"rho": 0.05})
    server = init_server_state(cfg, theta)
    (state,) = init_client_states(cfg, theta)
    step = one_step(spec, np.full((1, 2), 5e307), np.array([0]), np.ones(1), 1)
    hp = hyperparams(cfg.method, cfg.client_hparams)
    with round_errstate():
        result, _ = client_opt(0, server, [step], 1, state, hp, cfg)
    assert np.linalg.norm(result.aux) == pytest.approx(0.05, rel=1e-12)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_round_passes_arrays_and_declared_server_state(method):
    # the server state is a dict, so it can drift from the record's names
    # where a dataclass field could not; check the keys after a round
    result, _, server, cfg, hp = run_probe(method, {}, steps=2, target=(0.0,) * 3)
    size = param_count(cfg.model)
    for vec in (result.final_params, result.aux):
        if vec is not None:
            assert type(vec) is np.ndarray and vec.dtype == np.float64 and vec.shape == (size,)
    new_server = server_opt(server, [result], hp, cfg)
    assert set(new_server.state) == set(METHODS[method].server_state)
    for vec in new_server.state.values():
        assert type(vec) is np.ndarray and vec.dtype == np.float64 and vec.shape == (size,)


# legal values of each hyperparameter, from zero to large enough to overflow
HPARAM_VALUES = {
    "lambda": st.sampled_from([0.0, 0.01, 1.0, 1e3, 1e200]),
    "beta": st.sampled_from([0.0, 0.01, 1.0, 1e3, 1e200]),
    "mu": st.floats(0.0, 1.0),
    "rho": st.sampled_from([0.0, 1e-3, 0.05, 1.0, 1e200]),
    "gamma": st.sampled_from([0.0, 0.1, 1.0, 1e200]),
    "xi": st.sampled_from([1e-12, 1e-3, 1.0]),
}
PROBES = st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6).map(
    lambda target: ModelSpec("quadratic_probe", probe_target=tuple(target))
)


@st.composite
def client_rounds(draw, method):
    """client_opt's arguments for ``method``: any model, random broadcast and
    state vectors at random scales, random hyperparameters, rate and steps."""
    spec = draw(st.one_of(SPECS, PROBES))
    seed, scales = draw(st.integers(0, 2**16)), draw(st.lists(SCALES, min_size=6, max_size=6))
    rng = np.random.default_rng(seed)
    if spec.kind == "quadratic_probe":
        k = draw(st.integers(1, 3))  # steps of one row each; the probe reads none
        X, y, counts = np.zeros((k, 0)), np.zeros(k, int), np.ones(k)
        pool = batch_steps(spec, X, y, counts, range(k + 1), [1] * k)
        theta_r = rng.standard_normal(param_count(spec)) * min(scales[0], 1e300)
    else:
        rows, batches = draw(st.integers(1, 40)), draw(st.integers(1, 3))
        pool = gathered_batches(spec, rows, seed, scales[4], batches)[1]
        theta_r = scaled_params(spec, seed, scales)
    steps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    hparams = {key: draw(HPARAM_VALUES[key]) for key in sorted(METHODS[method].hparams)}
    lr = draw(st.sampled_from([0.0, 1e-3, 0.1, 1.0, 1e160]))
    cfg = RunConfig(method, spec, client_lr=lr, client_hparams=hparams)
    server = init_server_state(cfg, theta_r)
    size, state_scale = len(theta_r), min(scales[5], 1e300)  # a normal draw stays finite
    server.state = {k: rng.standard_normal(size) * state_scale for k in server.state}
    state = {k: rng.standard_normal(size) * state_scale for k in METHODS[method].client_state}
    return 3, server, steps, 7, state, hyperparams(cfg.method, cfg.client_hparams), cfg


def _bytes(v):
    return None if v is None else np.asarray(v).tobytes()


def _round_outcome(fn):
    """The bytes of everything ``fn()``'s client round returns, or its overflow error's text."""
    try:
        result, state = fn()
    except NumericalOverflowError as exc:
        return str(exc)
    return (
        _bytes(result.final_params), _bytes(result.aux), {k: _bytes(v) for k, v in state.items()},
        _bytes(result.mean_loss), result.client_id, result.steps_taken, result.grad_evals,
        result.num_samples,
    )


@pytest.mark.parametrize("method", sorted(METHODS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_client_opt_bit_identical_to_functional_loop(method, data):
    # stepping one buffer in place, on views built once, gives the bytes of the
    # loop that made a new vector every step, or the same overflow error, and
    # writes none of the broadcast, the server state or the incoming state
    args = data.draw(client_rounds(method))
    _, server, _, _, state, _, _ = args
    inputs = [server.global_params.values, *server.state.values(), *state.values()]
    before = [v.tobytes() for v in inputs]
    rounds = []

    def stepped_in_place():
        rounds.append(client_opt(*args))
        return rounds[0]

    with np.errstate(all="ignore"):  # both sides overflow alike
        got = _round_outcome(stepped_in_place)
        assert [v.tobytes() for v in inputs] == before
        assert _round_outcome(lambda: reference_client_opt(*args)) == got
    if rounds:  # the stepped buffer is the client's own
        assert not any(np.shares_memory(rounds[0][0].final_params, v) for v in inputs)


@settings(max_examples=200, deadline=None)
@given(
    stack=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 64), st.integers(1, 6)),
        elements=st.floats(-1e6, 1e6),
        fill=st.nothing(),  # every entry drawn, so the order of the sum shows
    ),
    specials=st.lists(
        st.tuples(st.integers(0, 63), st.integers(0, 5), st.sampled_from([np.inf, -np.inf, np.nan])),
        max_size=3,
    ),
)
def test_per_round_means_are_np_mean_bytes(stack, specials):
    # mean_params, fedsmoo's mean perturbation and run_round's mean train loss
    # reduce as np.mean does, for any count of rows, inf and nan included
    (n, size), hp = stack.shape, hyperparams("fedsmoo", {"rho": 0.5})
    for i, j, value in specials:
        stack[i % n, j % size] = value
    results = [ClientResult(i, row, 1, float(row[0]), 1, 1, aux=row) for i, row in enumerate(stack)]
    cfg = probe_config(target=(0.0,) * size, n_clients=n, sample_size=n)
    server = init_server_state(cfg, np.zeros(size))
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as mp:
        want = np.mean(stack, axis=0)
        assert _bytes(mean_params(results)) == _bytes(want)
        perturb = methods._fedsmoo_perturb(server, results, None, hp, cfg)["global_perturb"]
        assert _bytes(perturb) == _bytes(hp["rho"] * want / (np.linalg.norm(want) + hp["xi"]))
        # each client reports its row's first entry as its loss and keeps theta
        mp.setattr(methods, "client_opt", lambda cid, server, *_: (
            ClientResult(cid, server.global_params.values, 1, results[cid].mean_loss, 1, 1), {}
        ))
        rplan = list(range(n)), [np.arange(1)] * n, [[]] * n
        metrics = run_round(server, [{}] * n, rplan, cfg)[2]
        want_loss = np.mean([r.mean_loss for r in results])
    assert _bytes(metrics.mean_train_loss) == _bytes(want_loss)


@settings(max_examples=300, deadline=None)
@given(
    stack=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 40), st.integers(1, 6)),
        elements=st.floats(-1.0, 1.0),
        fill=st.nothing(),  # every entry drawn, so the order of the sum shows
    ),
    scale=SCALES,
    sizes=st.lists(st.integers(1, 10**6), min_size=40, max_size=40),
)
def test_weighted_mean_is_the_in_order_fold(stack, scale, sizes):
    # no golden run trains with weighted_avg, so the weighted fold is pinned
    # here, byte for byte, to the shard-size-weighted sum in ascending order
    results = [ClientResult(i, row * scale, 1, 0.0, 1, size)
               for i, (row, size) in enumerate(zip(stack, sizes))]
    with np.errstate(over="ignore", invalid="ignore"):  # 1e308 rows may overflow alike
        assert _bytes(mean_params(results, weighted=True)) == _bytes(reference_weighted_mean(results))
