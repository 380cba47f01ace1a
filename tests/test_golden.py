"""Golden trajectory hashes: every method x model x partition, 5 rounds.

Each case hashes (sha256) the final global parameters, the final value of
every server-state vector the method keeps, and the per-round
``grad_evals`` and ``sampled_clients``. Any change to a trajectory, to a
server update or to the cost accounting changes a hash. The fixture also
records the NumPy and BLAS it was written with, the OpenBLAS core and
NumPy's highest enabled x86 SIMD group (both pick the kernels that decide
the bits), so a mismatch on another machine can be told apart from a
change to the code.

Regenerate (only for an intended behaviour change) with:
    PYTHONPATH=src python tests/test_golden.py --write
"""
import ctypes
import glob
import hashlib
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from conftest import MLP_SPEC, small_task  # noqa: E402
from flsim.engine import RunConfig, run_training  # noqa: E402
from flsim.methods import METHODS  # noqa: E402
from flsim.models import ModelSpec  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "golden.json")

HPARAMS = {
    "fedavg": {},
    "fedprox": {"lambda": 0.1},
    "feddyn": {"beta": 0.1},
    "fedcm": {"mu": 0.5},
    "fedsam": {"rho": 0.05},
    "fedgamma": {"rho": 0.05},
    "fedspeed": {"rho": 0.05, "gamma": 0.1},
    "fedsmoo": {"rho": 0.05, "beta": 0.1},
}
MODELS = {
    "linear": ModelSpec("linear", input_dim=8, num_classes=5),
    "mlp": MLP_SPEC,
}
PARTITIONS = {"iid": ("iid", 0.0), "dirichlet:0": ("dirichlet", 0.0)}

CASES = [
    f"{method}/{model}/{part}"
    for method in HPARAMS
    for model in MODELS
    for part in PARTITIONS
]


def openblas_core() -> str:
    """The core of the OpenBLAS bundled with NumPy (``numpy.libs``), or ``unknown``."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        path = sorted(glob.glob(os.path.join(libs, "*openblas*")))[0]
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_  # the loaded library
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def simd_group() -> str:
    """NumPy's highest enabled ``X86_V*`` CPU feature group, or ``unknown``."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x, or a build without the table
        return "unknown"
    groups = [name for name, on in __cpu_features__.items() if name.startswith("X86_V") and on]
    return max(groups, default="unknown")


def environment() -> dict:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older NumPy has no mode="dicts"
        pass
    return {"numpy": np.__version__, "blas": blas, "openblas_core": openblas_core(),
            "simd": simd_group()}


def case_hash(case: str) -> str:
    method, model, part = case.split("/")
    partition, alpha = PARTITIONS[part]
    cfg = RunConfig(
        method=method,
        model=MODELS[model],
        n_clients=10,
        sample_size=4,
        rounds=5,
        local_epochs=2,
        batch_size=8,
        client_lr=0.05,
        client_hparams=dict(HPARAMS[method]),
        partition=partition,
        alpha=alpha,
        seed=11,
        eval_every=5,
    )
    train, test = small_task(seed=11)
    final = {}

    def keep(server, states, metrics):
        final["server"] = server

    records = run_training(cfg, train, test, on_round=keep)
    server = final["server"]
    h = hashlib.sha256()
    h.update(server.global_params.values.astype("<f8").tobytes())
    for name in METHODS[method].server_state:
        h.update(name.encode())
        h.update(server.state[name].astype("<f8").tobytes())
    per_round = [[m.grad_evals, list(m.sampled_clients)] for m in records]
    h.update(json.dumps(per_round).encode())
    return h.hexdigest()


def load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


def test_fixture_covers_every_case():
    assert sorted(load_fixture()["hashes"]) == sorted(CASES)


def test_fixture_records_every_environment_field():
    assert sorted(load_fixture()["environment"]) == sorted(environment())


def test_openblas_core_unknown_without_library(monkeypatch):
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    assert openblas_core() == "unknown"


def test_simd_group_unknown_without_feature_table(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", None)  # import fails
    assert simd_group() == "unknown"


@pytest.mark.parametrize("case", CASES)
def test_golden_hash(case):
    golden = load_fixture()
    got = case_hash(case)
    # the message, each environment field in the fixture and here, is built only on failure
    assert got == golden["hashes"][case], f"{case}: trajectory hash changed. " + "; ".join(
        f"{key}: fixture {golden['environment'].get(key, 'unrecorded')}, here {value}"
        for key, value in environment().items()
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    out = {
        "comment": "sha256 per case over final global params, final server-state "
        "vectors, and per-round grad_evals/sampled_clients; see tests/test_golden.py.",
        "environment": environment(),
        "hashes": {case: case_hash(case) for case in CASES},
    }
    with open(FIXTURE, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CASES)} hashes to {FIXTURE}")
