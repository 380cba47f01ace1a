import numpy as np
import pytest

from conftest import probe_config, probe_shard
from flsim import methods
from flsim.engine import derive_stream, init_client_states, init_server_state
from flsim.errors import ConfigError
from flsim.methods import (
    METHODS,
    SAM_FAMILY,
    ClientResult,
    HyperParams,
    client_opt,
    mean_params,
    server_opt,
)
from flsim.models import ParamVector, layout_for


def run_probe(method, hparams, steps=1, theta0=1.0, lr=0.1, target=(0.0,)):
    """One local round on the quadratic probe, from theta0 in every coordinate."""
    cfg = probe_config(method, target=target, client_lr=lr, local_epochs=steps)
    theta_r = ParamVector(np.full(len(target), float(theta0)), layout_for(cfg.model))
    server = init_server_state(cfg, theta_r)
    (state,) = init_client_states(cfg, theta_r)
    hp = HyperParams.for_method(method, hparams)
    rng = derive_stream(cfg.seed, 0, 0)
    result, new_state = client_opt(0, server, probe_shard(1), np.arange(1), state, hp, cfg, rng)
    return result, new_state, server, cfg, hp


class TestHyperParams:
    def test_illegal_key_rejected(self):
        with pytest.raises(ConfigError):
            HyperParams.for_method("fedavg", {"rho": 0.1})
        with pytest.raises(ConfigError):
            HyperParams.for_method("fedprox", {"mu": 0.5})

    def test_ranges(self):
        with pytest.raises(ConfigError):
            HyperParams.for_method("fedprox", {"lambda": -1.0})
        with pytest.raises(ConfigError):
            HyperParams.for_method("fedcm", {"mu": 1.5})
        with pytest.raises(ConfigError):
            HyperParams.for_method("fedsam", {"xi": 0.0})

    def test_defaults(self):
        hp = HyperParams.for_method("fedspeed", {"rho": 0.01})
        assert hp.gamma == 0.1 and hp.xi == 1e-12

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_grid_values_accepted(self, method):
        for key in METHODS[method].hparams - {"xi"}:
            for v in (0.1, 0.01, 0.001):
                HyperParams.for_method(method, {key: v})


class TestFedAvg:
    def test_one_step(self):
        result, _, _, _, _ = run_probe("fedavg", {}, steps=1)
        assert result.final_params.values[0] == pytest.approx(0.9, abs=1e-15)

    def test_two_steps_geometric(self):
        result, _, _, _, _ = run_probe("fedavg", {}, steps=2)
        assert result.final_params.values[0] == pytest.approx(0.81, abs=1e-12)

    def test_zero_lr_is_noop(self):
        result, _, _, _, _ = run_probe("fedavg", {}, steps=3, lr=0.0)
        assert result.final_params.values[0] == 1.0


class TestFedProx:
    def test_hand_recursion(self):
        # step 1: d = 1 -> 0.9; step 2: d = 0.9 + (0.9-1) = 0.8 -> 0.82
        result, _, _, _, _ = run_probe("fedprox", {"lambda": 1.0}, steps=2)
        assert result.final_params.values[0] == pytest.approx(0.82, abs=1e-12)

    def test_lambda_zero_equals_fedavg(self):
        a, _, _, _, _ = run_probe("fedprox", {"lambda": 0.0}, steps=3)
        b, _, _, _, _ = run_probe("fedavg", {}, steps=3)
        assert np.array_equal(a.final_params.values, b.final_params.values)


class TestFedDyn:
    def test_hand_step_and_dual(self):
        result, state, _, _, _ = run_probe("feddyn", {"beta": 1.0}, steps=1)
        assert result.final_params.values[0] == pytest.approx(0.9, abs=1e-12)
        assert state["h"][0] == pytest.approx(0.1, abs=1e-12)

    def test_beta_zero_equals_fedavg(self):
        a, st, _, _, _ = run_probe("feddyn", {"beta": 0.0}, steps=3)
        b, _, _, _, _ = run_probe("fedavg", {}, steps=3)
        assert np.array_equal(a.final_params.values, b.final_params.values)
        assert st["h"][0] == 0.0


class TestFedSAM:
    def test_hand_step(self):
        # g1 = 1, eps = 0.5, gradient at 1.5 is 1.5 -> theta = 0.85
        result, _, _, _, _ = run_probe("fedsam", {"rho": 0.5}, steps=1)
        assert result.final_params.values[0] == pytest.approx(0.85, abs=1e-9)

    def test_rho_zero_equals_fedavg(self):
        a, _, _, _, _ = run_probe("fedsam", {"rho": 0.0}, steps=3)
        b, _, _, _, _ = run_probe("fedavg", {}, steps=3)
        assert np.array_equal(a.final_params.values, b.final_params.values)

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
        assert np.array_equal(a.final_params.values, b.final_params.values)

    def test_momentum_recursion(self):
        # oracle: replay the linear recursion by hand, then check the
        # server's momentum matches d = mu*g_path mixture via telescoping
        mu, lr, tau = 0.3, 0.1, 4
        result, _, server, cfg, hp = run_probe("fedcm", {"mu": mu}, steps=tau, lr=lr)
        theta = 1.0
        for _ in range(tau):
            d = mu * theta + (1 - mu) * 0.0  # momentum starts at zero
            theta -= lr * d
        assert result.final_params.values[0] == pytest.approx(theta, abs=1e-12)
        new_server = server_opt(server, [result], hp, cfg)
        expect_delta = (1.0 - theta) / (lr * tau)
        assert new_server.momentum.values[0] == pytest.approx(expect_delta, abs=1e-12)


class TestFedGamma:
    def test_one_round_control_update(self):
        result, state, server, cfg, hp = run_probe("fedgamma", {"rho": 0.0}, steps=3)
        # c_m' = (theta_r - theta_f) / (lr * tau) with zero-init c_m, c
        expect = (1.0 - result.final_params.values[0]) / (0.1 * 3)
        assert state["c_m"][0] == pytest.approx(expect, abs=1e-12)
        assert result.aux.values[0] == pytest.approx(expect, abs=1e-12)
        new_server = server_opt(server, [result], hp, cfg)
        assert new_server.global_control.values[0] == pytest.approx(
            expect / cfg.n_clients, abs=1e-12
        )

    def test_rho_zero_single_client_equals_fedavg(self):
        a, _, _, _, _ = run_probe("fedgamma", {"rho": 0.0}, steps=3)
        b, _, _, _, _ = run_probe("fedavg", {}, steps=3)
        assert np.array_equal(a.final_params.values, b.final_params.values)


class TestFedSpeed:
    def test_hand_step_and_dual(self):
        result, state, _, _, _ = run_probe(
            "fedspeed", {"rho": 0.0, "gamma": 1.0}, steps=1
        )
        assert result.final_params.values[0] == pytest.approx(0.9, abs=1e-12)
        assert state["g_hat"][0] == pytest.approx(0.1, abs=1e-12)

    def test_reductions(self):
        sam, _, _, _, _ = run_probe("fedspeed", {"rho": 0.5, "gamma": 0.0}, steps=2)
        ref_sam, _, _, _, _ = run_probe("fedsam", {"rho": 0.5}, steps=2)
        assert np.array_equal(sam.final_params.values, ref_sam.final_params.values)
        avg, _, _, _, _ = run_probe("fedspeed", {"rho": 0.0, "gamma": 0.0}, steps=2)
        ref_avg, _, _, _, _ = run_probe("fedavg", {}, steps=2)
        assert np.array_equal(avg.final_params.values, ref_avg.final_params.values)


class TestFedSMOO:
    def test_single_step_matches_fedsam(self):
        a, _, _, _, _ = run_probe("fedsmoo", {"rho": 0.5, "beta": 0.0}, steps=1)
        b, _, _, _, _ = run_probe("fedsam", {"rho": 0.5}, steps=1)
        assert np.array_equal(a.final_params.values, b.final_params.values)

    def test_server_perturb_norm_bounded(self):
        rho = 0.3
        result, _, server, cfg, hp = run_probe("fedsmoo", {"rho": rho, "beta": 0.1})
        new_server = server_opt(server, [result], hp, cfg)
        assert np.linalg.norm(new_server.global_perturb.values) <= rho

    def test_dual_updates(self):
        result, state, _, _, _ = run_probe("fedsmoo", {"rho": 0.2, "beta": 1.0}, steps=1)
        # h <- -beta*(theta_f - theta_r); u <- s_hat_last (s was zero)
        drift = result.final_params.values[0] - 1.0
        assert state["h"][0] == pytest.approx(-drift, abs=1e-12)
        assert state["u"][0] == pytest.approx(
            result.aux.values[0], abs=1e-15
        )


class TestAggregation:
    def make_result(self, cid, vals, layout):
        pv = ParamVector(np.asarray(vals, dtype=float), layout)
        return ClientResult(cid, pv, steps_taken=1, mean_loss=0.0, grad_evals=1, num_samples=1)

    def test_uniform_mean(self):
        layout = layout_for(probe_config(target=(0.0, 0.0)).model)
        results = [
            self.make_result(0, [0.0, 2.0], layout),
            self.make_result(1, [4.0, 6.0], layout),
        ]
        assert np.array_equal(mean_params(results).values, [2.0, 4.0])

    def test_order_invariant_fold(self):
        layout = layout_for(probe_config(target=(0.0, 0.0)).model)
        rng = np.random.default_rng(0)
        results = [self.make_result(i, rng.standard_normal(2), layout) for i in range(7)]
        a = mean_params(results).values
        b = mean_params(list(reversed(results))).values
        assert np.array_equal(a, b)

    def test_weighted_mean(self):
        layout = layout_for(probe_config(target=(0.0,)).model)
        results = [
            self.make_result(0, [0.0], layout),
            self.make_result(1, [3.0], layout),
        ]
        results[1].num_samples = 2
        assert mean_params(results, weighted=True).values[0] == pytest.approx(2.0)


def test_sam_perturbation_norm_bounded():
    # fedsmoo sends its last SAM perturbation as aux; check it across magnitudes
    for scale in (1e-14, 1e-3, 1.0, 1e6):
        result, _, _, _, _ = run_probe("fedsmoo", {"rho": 0.25}, theta0=scale, target=(0.0,) * 3)
        assert np.linalg.norm(result.aux.values) <= 0.25 + 1e-12
