import contextlib
import io
import json
import math
import os
import pathlib
import re
import sys
import tempfile
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flsim.cli import main as cli_main
from flsim.data import MAX_DATA_VALUES, MAX_SPREAD
from flsim.errors import ConfigError, ParseError
from flsim import engine, harness
from flsim.harness import (
    _HPARAM_KEYS,
    _KEYS,
    _config_pairs,
    _run_dir,
    ExperimentConfig,
    SummaryRow,
    SweepSpec,
    export_curves,
    make_dataset,
    parse_config,
    run_experiment,
    run_sweep,
    serialize_config,
    summarize,
)
from flsim.methods import METHOD_NAMES, METHODS

RUN_TEXT = """
method = fedprox
lambda = 0.01
rounds = 4
seed = 5
n_clients = 10
sample_size = 4
data.per_class = 30
eval_every = 2
"""

SWEEP_TEXT = """
methods = fedavg,fedprox
grid.fedprox.lambda = 0.1,0.001
partitions = iid,dirichlet:0
seeds = 1,2
rounds = 3
n_clients = 10
sample_size = 4
data.per_class = 30
eval_every = 2
"""

# a one-round fedavg run, and a 4-cell, 2-seed sweep of such runs, for SweepSpecs built in Python
PY_SPEC_RUN = """
method = fedavg
seed = 1
rounds = 1
n_clients = 10
sample_size = 4
data.per_class = 30
eval_every = 1
"""
PY_SPEC_SWEEP = parse_config(
    PY_SPEC_RUN.replace("method = fedavg", "methods = fedavg,fedprox")
    .replace("seed = 1", "seeds = 1,2\npartitions = iid,dirichlet:0")
)


DIVERGE_EXTRA = "client_lr = 1e160\nmodel.kind = mlp\nmodel.hidden_dim = 8\n"
# with eval_every = 1: diverges in round 1 (its update norm overflows), after
# round 0 was evaluated
LATE_DIVERGE_EXTRA = "client_lr = 1e45\nmodel.kind = mlp\nmodel.hidden_dim = 8\n"

# spellings of nan and +-inf that float() accepts, and literals that overflow to inf
NON_FINITE = st.one_of(
    st.sampled_from(["nan", "NaN", "-nan", "inf", "+inf", "-inf", "Infinity", "-INFINITY"]),
    st.integers(309, 100000).map(lambda e: f"1e{e}"),
    st.integers(309, 100000).map(lambda e: f"-2.5e{e}"),
)


FLOAT_KEYS = sorted({k for k, (kind, _) in _KEYS.items() if kind is float} | _HPARAM_KEYS)

# pools for whole generated documents: every key, sweep and grid keys, malformed
# keys, and values of every kind, with separators, comment marks, NUL and non-ASCII
DOC_KEYS = [*_KEYS, *sorted(_HPARAM_KEYS), "methods", "seeds", "partitions"]
DOC_KEYS += ["grid.fedprox.lambda", "grid.fedsam.rho", "grid.fedavg.rho", "grid.fedprox"]
DOC_KEYS += ["grid.fedprox.lambda.x", "grid..", "bogus", "", "#", "a=b", "m\u00e9thod"]
DOC_VALUES = st.one_of(
    st.sampled_from(["", "=", "#", "\x00", "\u00e9", "\u0663", "\u2028", "\x85", ",", ",,"]),
    st.sampled_from(["0", "1", "-3", "01", "1_0", "0.5", "2", "1e308", "1e400", "nan", "-inf"]),
    st.sampled_from(["true", "no", "iid", "dirichlet", "dirichlet:0.3", "dirichlet:x", "iid:1"]),
    st.sampled_from(["fedavg", "fedprox,fedsam", "1,2", "0.1,0.01", "1,,2", "mlp", "tanh"]),
    st.sampled_from(["18446744073709551616", "0.1,0.10", "fedavg,fedavg"]),
    st.text(max_size=5),
)
DOC_SKELETONS = [
    "",
    "method = fedavg\nrounds = 1\nseed = 0\n",
    "methods = fedavg,fedprox\nseeds = 1\nrounds = 1\n",
]


# (text to replace in SWEEP_TEXT, replacement, expected error); each must fail
# at parse time, before any run directory exists
BAD_SWEEPS = [
    ("methods = fedavg,fedprox", "methods =", "empty list"),
    ("seeds = 1,2", "seeds = ,", "empty list"),
    ("partitions = iid,dirichlet:0", "partitions = ,", "empty list"),
    ("seeds = 1,2", "seeds = 1,,2", "empty list"),
    ("partitions = iid,dirichlet:0", "partitions = dirichlet0.3", "unknown partition"),
    ("partitions = iid,dirichlet:0", "partitions = dirichletX", "unknown partition"),
    ("partitions = iid,dirichlet:0", "partitions = iid:0.5", "unknown partition"),
    ("methods = fedavg,fedprox", "methods = fedavg,fedprox,fedcm\ngrid.fedcm.mu = 0.1,2", "mu"),
    ("rounds = 3", "rounds = 3\nlambda = 0.5", r"grid\.<method>\.lambda"),
    ("rounds = 3", "rounds = 3\nmethod = fedprox", "use methods"),
    ("rounds = 3", "rounds = 3\nseed = 9", "use seeds"),
    ("rounds = 3", "rounds = 3\npartition = dirichlet", "use partitions"),
    ("rounds = 3", "rounds = 3\nalpha = 0.3", "use partitions = dirichlet:<alpha>"),
    ("n_clients = 10", "n_clients = 5", "alpha=0 requires n_clients >= num_classes"),
    ("seeds = 1,2", "seeds = 0,18446744073709551616", r"seed must be in \[-2\*\*63"),
    ("data.per_class = 30", "data.per_class = 1", "per_class >= 2"),
    ("data.per_class = 30", "data.per_class = 30\ndata.test_fraction = 2", "test_fraction < 1"),
    ("data.per_class = 30", "data.per_class = 30\ndata.spread = 1e308", r"spread <= 1e\+300"),
    (
        "data.per_class = 30",
        "data.per_class = 1000000000000",
        r"per_class x model\.num_classes x model\.input_dim <= 134217728",
    ),
    ("seeds = 1,2", "seeds = 1,x", r"bad value 'x' \(key: seeds\) \(line 5\)"),
    ("0.1,0.001", "0.1,abc", r"bad value 'abc' \(key: grid\.fedprox\.lambda\) \(line 3\)"),
    ("rounds = 3", "rounds = 3\nbogus", r"expected 'key = value' \(line 7\)"),
    (
        "grid.fedprox.lambda",
        "grid.fedprox",
        r"expected grid\.<method>\.<hparam> \(key: grid\.fedprox\) \(line 3\)",
    ),
    ("methods = fedavg,fedprox", "methods = fedavg", "grid method 'fedprox' not in methods"),
]


def with_value(exp, key, value):
    """``exp`` with config key ``key`` set to ``value`` through the Python API."""
    section, _, name = key.rpartition(".")
    if section == "data":
        return replace(exp, data=replace(exp.data, **{name: value}))
    if section == "model":
        run = replace(exp.run, model=replace(exp.run.model, **{name: value}))
    elif key in _HPARAM_KEYS:
        run = replace(exp.run, client_hparams={**exp.run.client_hparams, key: value})
    else:
        run = replace(exp.run, **{key: value})
    return replace(exp, run=run)


@st.composite
def mixed_type_changes(draw):
    """A method, and a few of its run's keys set to values of mixed types: the
    value itself, a numeric string, a bool, a float for an int, nan and inf,
    and for the seed, values past 2**63 and 2**64."""
    method = draw(st.sampled_from(METHOD_NAMES))
    pairs = _config_pairs(mixed_base(method))
    changes = {}
    for key in draw(st.sets(st.sampled_from(sorted(pairs)), min_size=1, max_size=3)):
        value = pairs[key]
        alike = [value, str(value), True, False, math.nan, math.inf, -math.inf]
        if type(value) is int:
            alike.append(float(value))
        if type(value) is float:
            alike.append(int(value))
        if key == "seed":
            alike += [2**64, 2**64 + value, 2**63, -(2**63) - 1]
        changes[key] = draw(st.sampled_from(alike))
    return method, changes


# a float key's values: zero, and powers of ten from far below one to near the maximum
MAGNITUDES = st.one_of(st.just("0"), st.integers(-300, 308).map(lambda e: f"1e{e}"))


@st.composite
def shared_keys(draw):
    """The keys of a small document that every run of a sweep shares: a few
    small rounds on a small model, the rate and data spread anywhere from zero
    to past overflow."""
    small = st.integers(1, 4)
    doc = {"rounds": draw(small), "n_clients": draw(small)}
    doc["sample_size"] = draw(st.integers(1, doc["n_clients"]))
    doc.update({k: draw(small) for k in ("local_epochs", "eval_every")})
    doc["batch_size"] = draw(st.integers(1, 8))
    doc["client_lr"] = draw(MAGNITUDES)
    doc["model.kind"] = draw(st.sampled_from(["linear", "mlp"]))
    doc["model.activation"] = draw(st.sampled_from(["relu", "tanh"]))
    doc.update({k: draw(small) for k in ("model.input_dim", "model.hidden_dim")})
    doc["model.num_classes"] = draw(st.integers(2, 4))
    doc["data.per_class"] = draw(st.integers(2, 8))
    doc["data.spread"] = draw(MAGNITUDES)
    return doc


def as_document(doc):
    return "".join(f"{k} = {v}\n" for k, v in doc.items())


@st.composite
def small_run_documents(draw):
    """A run document of ``shared_keys``, with hyperparameters and alpha
    anywhere from zero to past overflow."""
    method = draw(st.sampled_from(METHOD_NAMES))
    doc = {"method": method, "seed": draw(st.integers(0, 2**16)), **draw(shared_keys())}
    doc.update({k: draw(MAGNITUDES) for k in sorted(METHODS[method].hparams)})
    doc["partition"] = draw(st.sampled_from(["iid", "dirichlet"]))
    doc["alpha"] = draw(MAGNITUDES)
    return as_document(doc)


@st.composite
def small_sweep_documents(draw):
    """A sweep document of ``shared_keys`` over one to three methods, each
    hyperparameter a grid of one or two magnitudes from zero to past overflow,
    one or two partitions and one or two seeds."""
    def some(items, most):
        return draw(st.lists(st.sampled_from(items), min_size=1, max_size=most, unique=True))

    methods = some(list(METHOD_NAMES), 3)
    doc = {"methods": ",".join(methods), "seeds": ",".join(map(str, some(range(10), 2)))}
    parts = ["iid", "dirichlet:0", "dirichlet:0.3", "dirichlet:1e300"]
    doc["partitions"] = ",".join(some(parts, 2))
    for method in methods:
        for key in sorted(METHODS[method].hparams):
            values = draw(st.lists(MAGNITUDES, min_size=1, max_size=2, unique=True))
            doc[f"grid.{method}.{key}"] = ",".join(values)
    return as_document({**doc, **draw(shared_keys())})


# runs.csv rows of a few cells, so that cells repeat, interleave and differ in
# run count; a diverged run's best top-1 may be nan
summary_rows = st.builds(
    SummaryRow,
    method=st.sampled_from(["fedavg", "fedprox"]),
    hparams=st.sampled_from(["-", "lambda=0.1", "lambda=1e+50"]),
    partition=st.sampled_from(["iid", "dirichlet(0.3)"]),
    seed=st.integers(0, 9),
    best_top1=st.one_of(st.floats(0, 1), st.just(math.nan)),
    best_round=st.integers(-1, 100),
    time_per_round=st.floats(0, 10),
    grad_evals_per_round=st.floats(0, 1000),
    status=st.sampled_from(["completed", "diverged"]),
)


def mixed_base(method):
    """A small run of ``method`` with every hyperparameter it takes set."""
    values = {"lambda": 0.01, "beta": 0.01, "mu": 0.5, "rho": 0.05, "gamma": 0.1, "xi": 1e-12}
    hparams = "".join(f"{k} = {values[k]}\n" for k in sorted(METHODS[method].hparams))
    text = RUN_TEXT.replace("method = fedprox\nlambda = 0.01\n", f"method = {method}\n")
    return parse_config(text.replace("rounds = 4", "rounds = 2") + hparams)


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strip_dt(path):
    """Metrics bytes with wall-time fields removed."""
    out = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            rec.pop("dt", None)
            out.append(json.dumps(rec, sort_keys=True))
    return "\n".join(out)


def strip_time_cols(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    keep = [i for i, h in enumerate(header) if h != "time_per_round"]
    return "\n".join(",".join(l.split(",")[i] for i in keep) for l in lines)


class TestParse:
    def test_valid_run_config(self):
        exp = parse_config(RUN_TEXT)
        assert isinstance(exp, ExperimentConfig)
        assert exp.run.method == "fedprox"
        assert exp.run.client_hparams == {"lambda": 0.01}

    def test_illegal_hparam_for_method(self):
        with pytest.raises(ParseError, match="rho"):
            parse_config("method = fedavg\nrounds = 1\nseed = 0\nrho = 0.1\n")

    def test_empty_document_lists_required(self):
        with pytest.raises(ParseError, match="method.*rounds.*seed"):
            parse_config("")

    def test_unknown_key(self):
        with pytest.raises(ParseError, match="bogus"):
            parse_config(RUN_TEXT + "bogus = 1\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_config("method = fedavg\nrounds = many\nseed = 0\n")

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_config("method = fedcm\nmu = 2.0\nrounds = 1\nseed = 0\n")

    def test_sweep_config(self):
        spec = parse_config(SWEEP_TEXT)
        assert isinstance(spec, SweepSpec)
        runs = [
            (e.run.method, e.run.client_hparams, e.run.partition, e.run.alpha, e.run.seed)
            for e in spec.runs
        ]
        # fedavg (1) + fedprox (2 values, descending), times 2 partitions, iid first
        cells = [
            ("fedavg", {}, "iid"), ("fedavg", {}, "dirichlet"),
            ("fedprox", {"lambda": 0.1}, "iid"), ("fedprox", {"lambda": 0.1}, "dirichlet"),
            ("fedprox", {"lambda": 0.001}, "iid"), ("fedprox", {"lambda": 0.001}, "dirichlet"),
        ]
        assert runs == [(m, hp, p, 0.0, s) for m, hp, p in cells for s in (1, 2)]
        assert spec.base is spec.runs[0]
        assert all(e.run.rounds == 3 and e.data.per_class == 30 for e in spec.runs)

    def test_grid_key_must_match_method(self):
        with pytest.raises(ParseError, match="illegal"):
            parse_config(SWEEP_TEXT + "grid.fedavg.rho = 0.1\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config("method = fedavg\nmethod = fedprox\nrounds = 1\nseed = 0\n")

    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(FLOAT_KEYS), text=NON_FINITE)
    def test_non_finite_float_rejected(self, key, text):
        method = next((m for m in METHODS if key in METHODS[m].hparams), "fedavg")
        doc = f"method = {method}\nrounds = 1\nseed = 0\n"
        parse_config(doc + f"{key} = 0.5\n")  # the key itself is legal here
        with pytest.raises(ParseError, match="bad value"):
            parse_config(doc + f"{key} = {text}\n")

    @settings(max_examples=30, deadline=None)
    @given(text=NON_FINITE)
    def test_non_finite_sweep_values_rejected(self, text):
        grid_error = re.escape(f"bad value '{text}' (key: grid.fedprox.lambda) (line 3)")
        with pytest.raises(ParseError, match=grid_error):
            parse_config(SWEEP_TEXT.replace("lambda = 0.1,0.001", f"lambda = 0.1,{text}"))
        with pytest.raises(ParseError, match="bad alpha"):
            parse_config(SWEEP_TEXT.replace("dirichlet:0", f"dirichlet:{text}"))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), method=st.sampled_from(METHOD_NAMES))
    def test_serialize_parse_roundtrip(self, data, method):
        choices = {
            "partition": ["iid", "dirichlet"],
            "model.kind": ["linear", "mlp"],
            "model.activation": ["relu", "tanh"],
        }
        numbers = {int: st.integers(1, 10**6), float: st.floats(0, 1e6), bool: st.booleans()}
        pairs = {"method": method}
        for key, (kind, _) in _KEYS.items():
            if key != "method":
                strategy = st.sampled_from(choices[key]) if kind is str else numbers[kind]
                pairs[key] = data.draw(strategy)
        pairs["model.num_classes"] = data.draw(st.integers(2, 100))
        # the data keys in the ranges make_dataset accepts, with at most
        # MAX_DATA_VALUES feature values whichever of the three take their
        # defaults (num_classes 10, input_dim 32, per_class 240)
        classes = max(pairs["model.num_classes"], 10)
        pairs["model.input_dim"] = data.draw(st.integers(1, MAX_DATA_VALUES // (240 * classes)))
        dim = max(pairs["model.input_dim"], 32)
        pairs["data.per_class"] = data.draw(st.integers(2, MAX_DATA_VALUES // (classes * dim)))
        fraction = st.floats(0, 1, exclude_min=True, exclude_max=True)
        pairs["data.test_fraction"] = data.draw(fraction)
        # sample_size <= n_clients, whichever of the two takes its default (10 and
        # 100), and num_classes <= n_clients for the default partition, dirichlet:0
        pairs["sample_size"] = data.draw(st.integers(1, 100))
        low = max(pairs["sample_size"], pairs["model.num_classes"], 10)
        pairs["n_clients"] = data.draw(st.integers(low, 10**6))
        for key in sorted(METHODS[method].hparams):
            upper = 1.0 if key == "mu" else 1e6
            lower = 1e-300 if key == "xi" else 0.0
            pairs[key] = data.draw(st.floats(lower, upper))
        # any subset of the optional keys; the rest take their defaults
        present = {"method", "rounds", "seed"} | data.draw(st.sets(st.sampled_from(sorted(pairs))))
        exp = parse_config("".join(f"{k} = {pairs[k]}\n" for k in present))
        assert parse_config(serialize_config(exp)) == exp

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_random_sweep_lists(self, data):
        def items(good, bad):
            """Mostly well-formed lists; sometimes any mix, empty or repeated."""
            return data.draw(
                st.one_of(
                    st.lists(st.sampled_from(good), min_size=1, max_size=3, unique=True),
                    st.lists(st.sampled_from(good + bad), max_size=3),
                )
            )

        methods = items(list(METHOD_NAMES), ["", " ", "bogus"])
        seeds = items(["0", "1", "7", "-3"], ["", "x", "1.5", "01"])
        partitions = items(
            ["iid", "dirichlet", "dirichlet:0.3", "dirichlet:2"],
            ["dirichlet:0", "dirichlet:-1", "dirichlet0.3", "dirichletX", "dirichlet:", "iid:1"]
            + ["", "dirichlet:0.30000001"],
        )
        gm = methods[0] if methods else "fedavg"
        keys = sorted(METHODS[gm].hparams) if gm in METHODS else []
        grid = data.draw(st.sets(st.sampled_from(keys + ["bogus", "lambda"])))
        text = f"methods = {','.join(methods)}\nseeds = {','.join(seeds)}\nrounds = 2\n"
        if partitions:
            text += f"partitions = {','.join(partitions)}\n"
        for key in sorted(grid):
            values = items(["0.5", "1", "0.01"], ["0", "2", "-1", "0.50", "", "nan", "0.5000001"])
            text += f"grid.{gm}.{key} = {','.join(values)}\n"
        text += data.draw(st.sampled_from(["", "", "lambda = 0.1\n", "seed = 4\n"]))
        try:
            spec = parse_config(text)
        except ParseError:
            return
        # every cell is its runs under the listed seeds, in their order
        assert [e.run.seed for e in spec.runs] == [int(s) for s in seeds] * (
            len(spec.runs) // len(seeds)
        )
        for exp in spec.runs:
            exp.run.validate()
            assert set(exp.run.client_hparams) == (grid if exp.run.method == gm else set())
        names = {_run_dir(exp.run) for exp in spec.runs}
        assert len(names) == len(spec.runs)

    @settings(max_examples=300, deadline=None)
    @given(
        skeleton=st.sampled_from(DOC_SKELETONS),
        lines=st.lists(
            st.tuples(st.sampled_from(DOC_KEYS), st.sampled_from([" = ", "=", " "]), DOC_VALUES),
            max_size=8,
        ),
    )
    def test_any_document_parses_or_is_parse_error(self, skeleton, lines):
        text = skeleton + "".join(f"{k}{sep}{v}\n" for k, sep, v in lines)
        try:
            parsed = parse_config(text)
        except ParseError:
            return
        assert isinstance(parsed, (ExperimentConfig, SweepSpec))

    @settings(max_examples=100, deadline=None)
    @given(
        per_class=st.integers(-2, 12),
        spread=st.one_of(
            st.floats(-2, 5),
            st.floats(5, sys.float_info.max),
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, sys.float_info.max]),
            st.sampled_from([MAX_SPREAD, math.nextafter(MAX_SPREAD, math.inf)]),
        ),
        test_fraction=st.one_of(
            st.floats(-0.5, 1.5),
            st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1 - 2**-53, 1 + 2**-52, 0.5]),
        ),
    )
    def test_data_keys_parse_iff_dataset_builds(self, per_class, spread, test_fraction):
        values = {
            "data.per_class": per_class,
            "data.spread": spread,
            "data.test_fraction": test_fraction,
        }
        exp = parse_config(RUN_TEXT)
        for key, value in values.items():
            exp = with_value(exp, key, value)
        try:
            make_dataset(exp)
            builds = True
        except ConfigError:
            builds = False
        text = RUN_TEXT.replace("data.per_class = 30\n", "")
        text += "".join(f"{k} = {v!r}\n" for k, v in values.items())
        try:
            assert parse_config(text) == exp
            parses = True
        except ParseError:
            parses = False
        assert parses == builds

    @pytest.mark.parametrize("first,second", [("rho", "lambda"), ("lambda", "rho")])
    def test_first_illegal_hparam_named(self, first, second):
        run = f"method = fedavg\nrounds = 1\nseed = 0\n{first} = 0.1\n{second} = 0.1\n"
        sweep = SWEEP_TEXT + f"grid.fedavg.{first} = 0.1\ngrid.fedavg.{second} = 0.1\n"
        for text in (run, sweep):
            with pytest.raises(ParseError, match=f"hyperparameter '{first}' is illegal"):
                parse_config(text)

    def test_out_of_range_seed_names_its_run(self):
        text = SWEEP_TEXT.replace("seeds = 1,2", "seeds = 0,18446744073709551616")
        with pytest.raises(ParseError, match=r"\(run \w+_s18446744073709551616\)") as info:
            parse_config(text)
        assert "key: methods" not in str(info.value)

    @pytest.mark.parametrize(
        "old,new",
        [
            ("seeds = 1,2", "seeds = 1,2,1"),
            ("methods = fedavg,fedprox", "methods = fedavg,fedprox,fedavg"),
            ("partitions = iid,dirichlet:0", "partitions = dirichlet,iid,dirichlet:0"),
            ("lambda = 0.1,0.001", "lambda = 0.1,0.001,0.10"),
        ],
    )
    def test_duplicate_sweep_value(self, old, new):
        assert old in SWEEP_TEXT
        with pytest.raises(ParseError, match="duplicate value"):
            parse_config(SWEEP_TEXT.replace(old, new))


class TestRunExperiment:
    def test_single_round_single_record(self, tmp_path):
        exp = parse_config(RUN_TEXT.replace("rounds = 4", "rounds = 1"))
        path, row = run_experiment(exp, tmp_path / "r")
        assert len(open(path).read().splitlines()) == 1
        assert row.status == "completed"

    def test_rerun_identical_bytes_except_walltime(self, tmp_path):
        exp = parse_config(RUN_TEXT)
        p1, _ = run_experiment(exp, tmp_path / "a")
        p2, _ = run_experiment(exp, tmp_path / "b")
        assert strip_dt(p1) == strip_dt(p2)
        assert open(p1).read() != ""

    def test_paper_shaped_default_completes(self, tmp_path):
        text = "method = fedavg\nrounds = 2\nseed = 0\ndata.per_class = 60\n"
        exp = parse_config(text)
        assert exp.run.n_clients == 100 and exp.run.sample_size == 10
        assert exp.run.partition == "dirichlet" and exp.run.alpha == 0.0
        _, row = run_experiment(exp, tmp_path / "d")
        assert row.status == "completed"

    def test_divergence_recorded_not_fatal(self, tmp_path):
        exp = parse_config(RUN_TEXT + DIVERGE_EXTRA)
        _, row = run_experiment(exp, tmp_path / "x")
        assert row.status == "diverged"
        assert row.best_round == 0  # failure round

    def test_degenerate_dirichlet_draw_is_config_error(self, tmp_path):
        text = "method = fedavg\nrounds = 2\nseed = 0\npartition = dirichlet\n"
        text += "alpha = 1.7e308\nn_clients = 10\ndata.per_class = 30\n"
        with pytest.raises(ConfigError, match="alpha"):
            run_experiment(parse_config(text), tmp_path / "r")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "text",
        [
            *(pytest.param(RUN_TEXT + LATE_DIVERGE_EXTRA.replace("1e45", lr), id=lr)
              for lr in ["1e29", "1e45", "1e81", "1e300"]),
            # the SAM norm's sum of squares overflows on a finite gradient
            pytest.param(
                RUN_TEXT.replace("method = fedprox\nlambda = 0.01", "method = fedsam\nrho = 0.05")
                + LATE_DIVERGE_EXTRA.replace("1e45", "10") + "data.spread = 1e100\n",
                id="fedsam",
            ),
        ],
    )
    def test_overflowing_update_is_divergence(self, tmp_path, text):
        exp = parse_config(text.replace("eval_every = 2", "eval_every = 1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            path, row = run_experiment(exp, tmp_path / "r")
        assert row.status == "diverged"
        for line in open(path):
            json.loads(line, parse_constant=reject_constant)

    @settings(max_examples=100, deadline=None)
    @given(text=small_run_documents())
    def test_small_run_completes_diverges_or_is_config_error(self, text):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning escapes as an exception
            out = os.path.join(tmp, "r")
            try:
                _, row = run_experiment(parse_config(text), out)
            except ConfigError:
                assert not os.path.exists(out)
                return
        assert row.status in ("completed", "diverged")

    @settings(max_examples=120, deadline=None)
    @given(case=mixed_type_changes())
    @example(case=("fedprox", {"lambda": "0.1"}))
    @example(case=("fedavg", {"rounds": 2.0}))
    @example(case=("fedprox", {"lambda": True}))
    @example(case=("fedavg", {"alpha": math.nan}))
    def test_python_api_config_reads_back_or_is_config_error(self, case):
        method, changes = case
        exp = mixed_base(method)
        for key, value in changes.items():
            exp = with_value(exp, key, value)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "r")
            try:
                _, row = run_experiment(exp, out)
            except ConfigError:
                assert not os.path.exists(out)
                return
            with open(os.path.join(out, "config.txt")) as fh:
                assert parse_config(fh.read()) == exp
            assert row.status in ("completed", "diverged")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("lambda", "0.1"),
            ("rounds", 2.0),
            ("lambda", True),
            ("alpha", math.nan),
            ("seed", 2**64),
        ],
    )
    def test_config_txt_cannot_hold_names_the_key(self, tmp_path, key, value):
        exp = with_value(parse_config(RUN_TEXT), key, value)
        with pytest.raises(ConfigError, match=key):
            run_experiment(exp, tmp_path / "r")
        assert not (tmp_path / "r").exists()


class TestOneRowPath:
    """run and sweep report the row summarize reads back from the run directory."""

    @pytest.mark.parametrize("extra", ["", DIVERGE_EXTRA], ids=["completed", "diverged"])
    def test_run(self, tmp_path, capsys, extra):
        path, row = run_experiment(parse_config(RUN_TEXT + extra), tmp_path / "api")
        assert row.status == ("diverged" if extra else "completed")
        assert repr(row) == repr(summarize([str(path)])[0])  # repr: nan equals nan

        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_TEXT + extra)
        out = tmp_path / "cli"
        capsys.readouterr()
        assert cli_main(["run", str(cfg), "--out", str(out)]) == (3 if extra else 0)
        run_stdout = capsys.readouterr().out
        assert cli_main(["summarize", str(out)]) == 0
        summary = (out / "summary.csv").read_bytes()
        assert run_stdout.encode() == summary == capsys.readouterr().out.encode()

    def test_sweep(self, tmp_path, capsys):
        spec = parse_config(SWEEP_TEXT)
        _, run_rows = run_sweep(spec, tmp_path / "s")
        runs = tmp_path / "s" / "runs"
        for exp, row in zip(spec.runs, run_rows):
            run = runs / _run_dir(exp.run)
            assert repr(row) == repr(summarize([str(run / "metrics.jsonl")])[0])
            capsys.readouterr()
            assert cli_main(["summarize", str(run)]) == 0
            assert capsys.readouterr().out.encode() == (run / "summary.csv").read_bytes()
        assert cli_main(["summarize", str(tmp_path / "s")]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        table = (tmp_path / "s" / "runs.csv").read_text().splitlines()
        assert [header, *sorted(lines)] == [table[0], *sorted(table[1:])]


class TestSweep:
    def test_one_cell_table(self, tmp_path):
        text = (
            "methods = fedavg\npartitions = iid\nseeds = 1\nrounds = 2\n"
            "n_clients = 10\nsample_size = 4\ndata.per_class = 30\neval_every = 1\n"
        )
        rows, run_rows = run_sweep(parse_config(text), tmp_path / "s")
        assert len(rows) == 1 and len(run_rows) == 1
        assert rows[0].hparams == "-"

    def test_completeness_and_sorting(self, tmp_path):
        rows, run_rows = run_sweep(parse_config(SWEEP_TEXT), tmp_path / "s")
        assert len(rows) == 6
        assert len(run_rows) == 12
        prox = [r for r in rows if r.method == "fedprox"]
        # hparam values descending, Table-2 style
        assert [r.hparams for r in prox] == [
            "lambda=0.1", "lambda=0.1", "lambda=0.001", "lambda=0.001",
        ]

    def test_idempotent_data_bytes(self, tmp_path):
        spec = parse_config(SWEEP_TEXT)
        run_sweep(spec, tmp_path / "s")
        first = strip_time_cols(tmp_path / "s" / "sweep.csv")
        run_sweep(spec, tmp_path / "s")
        assert strip_time_cols(tmp_path / "s" / "sweep.csv") == first

    def test_one_dataset_per_seed(self, tmp_path, monkeypatch):
        # cells differ only in method, hparams and partition, so each seed's
        # dataset is built once and every run of that seed trains on it
        text = (
            SWEEP_TEXT.replace("methods = fedavg,fedprox", "methods = fedavg,fedprox,fedsam")
            .replace("grid.fedprox.lambda = 0.1,0.001\n", "")
            .replace("partitions = iid,dirichlet:0", "partitions = dirichlet:0.5")
        )
        spec = parse_config(text)
        assert [exp.run.seed for exp in spec.runs] == [1, 2] * 3
        built = []
        real = harness.make_dataset
        monkeypatch.setattr(harness, "make_dataset", lambda exp: built.append(exp) or real(exp))
        run_sweep(spec, tmp_path / "s")
        assert [exp.run.seed for exp in built] == [1, 2]
        for exp in spec.runs:
            swept = tmp_path / "s" / "runs" / _run_dir(exp.run)
            lone = tmp_path / "lone" / _run_dir(exp.run)
            run_experiment(exp, lone)
            assert strip_dt(swept / "metrics.jsonl") == strip_dt(lone / "metrics.jsonl")
            assert (swept / "config.txt").read_text() == (lone / "config.txt").read_text()

    def test_one_dataset_alive_at_a_time(self, tmp_path, monkeypatch):
        # seeds train one after another, and a seed's dataset is freed before
        # the next seed's is made
        alive = []
        real = harness.make_dataset

        def make_dataset(exp):
            assert [ref() for ref in alive] == [None] * len(alive)
            data = real(exp)
            alive.append(weakref.ref(data[0]))
            return data

        monkeypatch.setattr(harness, "make_dataset", make_dataset)
        run_sweep(parse_config(SWEEP_TEXT), tmp_path / "s")
        assert len(alive) == 2

    @pytest.mark.parametrize("key, value", [
        ("data.spread", 3.0),
        ("data.per_class", 50),
        ("data.test_fraction", 0.25),
        ("model.input_dim", 16),
        ("model.num_classes", 5),
    ])
    def test_one_dataset_per_set_of_data_inputs(self, tmp_path, monkeypatch, key, value):
        # a Python-built SweepSpec may hold runs that differ in what make_dataset
        # reads: each trains on its own data, as alone (the fedprox run at spread
        # 3.0 has round-0 loss 2.8356, not the 2.0906 of the fedavg run's data),
        # and those that agree share one dataset and train first, one dataset
        # alive at a time; the writes keep run order
        text = PY_SPEC_RUN.replace("per_class = 30", "per_class = 40")
        base = parse_config(text.replace("sample_size = 4", "sample_size = 10\npartition = iid"))
        other = with_value(with_value(base, "method", "fedprox"), key, value)
        spec = SweepSpec([base, other, with_value(base, "method", "fedsam")])
        built, alive = [], []
        real = harness.make_dataset

        def make_dataset(exp):
            assert [ref() for ref in alive] == [None] * len(alive)
            built.append(exp)
            data = real(exp)
            alive.append(weakref.ref(data[0]))
            return data

        monkeypatch.setattr(harness, "make_dataset", make_dataset)
        run_sweep(spec, tmp_path / "s")
        assert built == spec.runs[:2]
        monkeypatch.setattr(harness, "make_dataset", real)
        assert_sweep_equals_lone_runs(spec, tmp_path / "s", tmp_path / "lone")

    def test_one_plan_per_partition_per_seed(self, tmp_path, monkeypatch):
        # runs of a seed share its dataset, and with it each partition plan
        spec = parse_config(SWEEP_TEXT)
        built = []
        real = engine.build_partition
        monkeypatch.setattr(
            engine, "build_partition", lambda cfg, train: built.append(cfg) or real(cfg, train)
        )
        run_sweep(spec, tmp_path / "s")
        keys = [(c.seed, c.partition, c.alpha, c.n_clients) for c in built]
        assert sorted(keys) == sorted(
            (seed, part, 0.0, 10) for seed in (1, 2) for part in ("iid", "dirichlet")
        )
        lone_rows = []
        for exp in spec.runs:
            swept = tmp_path / "s" / "runs" / _run_dir(exp.run)
            lone = tmp_path / "lone" / _run_dir(exp.run)
            lone_rows.append(run_experiment(exp, lone)[1])  # its own dataset and plan
            assert strip_dt(swept / "metrics.jsonl") == strip_dt(lone / "metrics.jsonl")
        (tmp_path / "lone.csv").write_text(harness.format_rows(lone_rows))
        assert strip_time_cols(tmp_path / "s" / "runs.csv") == strip_time_cols(tmp_path / "lone.csv")

    def test_one_round_plan_per_group_per_round(self, tmp_path, monkeypatch):
        # a seed's runs with one partition form a lockstep group, and the group
        # samples, seeds client streams and schedules once a round for all its runs
        spec = parse_config(SWEEP_TEXT.replace("dirichlet:0\n", "dirichlet:0.3\n"))
        schedules, seeded, pending = [], [], []
        real_schedule, real_stream = engine.round_schedule, engine.derive_stream

        def derive_stream(seed, round_idx, client_id):
            if client_id != engine.SERVER_CHANNEL:
                pending.append((seed, round_idx, client_id))
            return real_stream(seed, round_idx, client_id)

        def schedule(shards, rngs, train, cfg):
            # plan_round seeds the plan's client streams just before it schedules them
            group = (cfg.seed, cfg.partition, cfg.alpha)
            schedules.append(group)
            assert len(pending) == len(rngs) == sum(len(s) > cfg.batch_size for s in shards)
            assert all(seed == cfg.seed and r == pending[0][1] for seed, r, _ in pending)
            seeded.extend((group, key) for key in pending)
            pending.clear()
            return real_schedule(shards, rngs, train, cfg)

        monkeypatch.setattr(engine, "round_schedule", schedule)
        monkeypatch.setattr(engine, "derive_stream", derive_stream)
        run_sweep(spec, tmp_path / "s")
        parts = [("iid", 0.0), ("dirichlet", 0.3)]
        groups = [(seed, part, alpha) for seed in (1, 2) for part, alpha in parts]
        assert sorted(schedules) == sorted(groups * 3)  # 3 rounds
        assert pending == []  # every client stream belongs to a plan
        # each (seed, round, client) is seeded once a group, for all 3 of its cells
        assert len(set(seeded)) == len(seeded) > 0
        monkeypatch.undo()
        assert_sweep_equals_lone_runs(spec, tmp_path / "s", tmp_path / "lone")

    @settings(max_examples=60, deadline=None)
    @given(text=small_sweep_documents())
    @example(  # parses, then has more clients than training rows
        text="methods = fedavg\nrounds = 1\nseeds = 1\npartitions = iid\nn_clients = 4\n"
        "sample_size = 1\nmodel.num_classes = 2\ndata.per_class = 2\n"
    )
    @example(  # the iid cell trains before the dirichlet group's partition fails
        text="methods = fedavg\npartitions = iid,dirichlet:1.7e308\nseeds = 1\nrounds = 2\n"
        "n_clients = 10\nsample_size = 4\ndata.per_class = 30\n"
    )
    @example(  # and before the second seed's dataset is made
        text="methods = fedavg\npartitions = iid,dirichlet:1.7e308\nseeds = 1,2\nrounds = 2\n"
        "n_clients = 10\nsample_size = 4\ndata.per_class = 30\n"
    )
    def test_small_sweep_completes_diverges_or_is_config_error(self, text):
        # every runs.csv row is completed or diverged, or the sweep is a
        # ConfigError that writes nothing; no NumPy warning escapes a round
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning escapes as an exception
            out = os.path.join(tmp, "s")
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    _, run_rows = run_sweep(parse_config(text), out)
            except ConfigError:
                assert not os.path.exists(out)
                return
            with open(os.path.join(out, "runs.csv")) as fh:
                statuses = [line.rstrip("\n").rsplit(",", 1)[1] for line in fh][1:]
        assert statuses == [row.status for row in run_rows]
        assert set(statuses) <= {"completed", "diverged"}

    def test_diverged_cell_marked_not_omitted(self, tmp_path):
        text = SWEEP_TEXT + DIVERGE_EXTRA
        rows, _ = run_sweep(parse_config(text), tmp_path / "s")
        assert len(rows) == 6
        assert all(r.status == "diverged" for r in rows)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(summary_rows, max_size=30))
    def test_cell_means_is_a_row_per_cell_in_first_appearance_order(self, rows):
        keys = []
        for r in rows:
            if (r.method, r.hparams, r.partition) not in keys:
                keys.append((r.method, r.hparams, r.partition))
        expected = []
        for key in keys:
            cell = [r for r in rows if (r.method, r.hparams, r.partition) == key]
            done = [r for r in cell if r.status == "completed"]
            expected.append(SummaryRow(
                *key,
                seed=None,
                best_top1=float(np.mean([r.best_top1 for r in done])) if done else math.nan,
                best_round=int(round(np.mean([r.best_round for r in done]))) if done else -1,
                time_per_round=float(np.mean([r.time_per_round for r in cell])),
                grad_evals_per_round=float(np.mean([r.grad_evals_per_round for r in cell])),
                status="diverged" if len(done) < len(cell) else "completed",
            ))
        got = harness.cell_means(rows)
        assert repr(got) == repr(expected)  # repr: nan equals nan
        assert harness.format_rows(got, with_seed=False) == harness.format_rows(
            expected, with_seed=False
        )

    @pytest.mark.parametrize(
        "layout,banner",
        [
            ([0, 2, 3], "2 cells x 1-2 seeds = 3 runs"),
            ([0, 2, 1, 3], "2 cells x 2 seeds = 4 runs"),
        ],
        ids=["unequal", "interleaved"],
    )
    def test_one_sweep_row_per_cell_of_a_python_sweep_spec(self, tmp_path, capsys, layout, banner):
        # a SweepSpec built in Python may hold cells of unequal length, or
        # interleave the runs of its cells; sweep.csv still has a row per cell,
        # the means over however many runs it has (it once cut the runs into
        # equal slices), and the banner counts those cells
        text = "methods = fedavg,fedprox\nseeds = 1,2\nrounds = 2\nn_clients = 10\n"
        text += "sample_size = 4\ndata.per_class = 30\neval_every = 1\n"
        full = parse_config(text)  # cells: fedavg seeds 1, 2; fedprox seeds 1, 2
        spec = SweepSpec([full.runs[i] for i in layout])
        capsys.readouterr()
        rows, run_rows = run_sweep(spec, tmp_path / "s")
        assert [(r.method, r.hparams, r.partition) for r in rows] == [
            ("fedavg", "-", "iid"), ("fedprox", "-", "iid"),
        ]
        assert len((tmp_path / "s" / "sweep.csv").read_text().splitlines()) == 3
        assert capsys.readouterr().out == f"sweep: {banner}\n"
        for row in rows:
            cell = [r for r in run_rows if r.method == row.method]
            assert row.best_top1 == np.mean([r.best_top1 for r in cell])
            assert row.grad_evals_per_round == np.mean([r.grad_evals_per_round for r in cell])
        assert_sweep_equals_lone_runs(spec, tmp_path / "s", tmp_path / "lone")
        if len(layout) == 4:  # each cell's runs in the order the full sweep has them
            run_sweep(full, tmp_path / "full")
            assert strip_time_cols(tmp_path / "s" / "sweep.csv") == strip_time_cols(
                tmp_path / "full" / "sweep.csv"
            )

    @pytest.mark.parametrize(
        "layout", [[], [[]], [[0], []]], ids=["no-cells", "empty", "one-empty"]
    )
    def test_sweep_spec_without_runs_is_a_config_error(self, layout):
        # no cells once raised an IndexError, and an empty cell a ValueError;
        # the nested lists of cells are not runs, so they fail when built
        exp = parse_config(RUN_TEXT)
        with pytest.raises(ConfigError, match="a sweep needs at least one run"):
            SweepSpec([[exp for _ in cell] for cell in layout])

    @pytest.mark.parametrize(
        "seed,error",
        [
            (1, r"duplicate value: two runs would write runs/fedavg_dirichlet0_s1$"),
            (2, r"runs/fedavg_dirichlet0_s1 and runs/fedavg_dirichlet0_s2 share a cell"),
        ],
        ids=["one-directory", "mixed-rate"],
    )
    def test_two_configs_in_one_cell_fail_when_built(self, tmp_path, capsys, seed, error):
        # two fedavg runs that differ in client_lr have one (method, hparams,
        # partition) key: under one seed both once trained into one run
        # directory, and under two seeds sweep.csv averaged the two rates
        # into one row; now the spec is an error before any banner or directory
        e = parse_config(PY_SPEC_RUN)
        other = replace(e, run=replace(e.run, client_lr=0.5, seed=seed))
        with pytest.raises(ConfigError, match=error):
            run_sweep(SweepSpec([e, other]), tmp_path / "s")
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "s").exists()

    @settings(max_examples=25, deadline=None)
    @given(
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=5),
        changed=st.none() | st.tuples(st.integers(0, 4), st.sampled_from([0.5, 0.05000001])),
    )
    @example(picks=[0, 2, 1, 3], changed=None)  # interleaved cells
    @example(picks=[1, 0], changed=None)  # a cell's seeds out of listed order
    @example(picks=[0, 1], changed=(1, 0.5))  # one cell, two rates
    @example(picks=[0, 0], changed=None)  # one run twice
    def test_python_sweep_spec_is_an_error_or_a_row_per_cell(self, picks, changed):
        # runs drawn from a parsed 4-cell, 2-seed sweep, repeated, in any order,
        # one of them maybe at another client_lr: the spec fails when built iff
        # two runs share a run directory or a cell holds two configs; otherwise
        # sweep.csv has a row per cell key, and the banner counts those rows
        runs = [PY_SPEC_SWEEP.runs[i] for i in picks]
        if changed is not None and changed[0] < len(runs):
            i, lr = changed
            runs[i] = replace(runs[i], run=replace(runs[i].run, client_lr=lr))
        keys = list(dict.fromkeys(harness._labels(exp.run)[:3] for exp in runs))
        configs = {(harness._labels(e.run)[:3], e.run.client_lr) for e in runs}
        bad = len({_run_dir(e.run) for e in runs}) < len(runs) or len(configs) > len(keys)
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "s")
            try:
                spec = SweepSpec(runs)
            except ConfigError:
                assert bad
                assert not os.path.exists(out)
                return
            assert not bad
            banner = io.StringIO()
            with contextlib.redirect_stdout(banner):
                rows, _ = run_sweep(spec, out)
            with open(os.path.join(out, "sweep.csv")) as fh:
                lines = fh.read().splitlines()[1:]
        assert [tuple(r[:3]) for r in rows] == keys
        assert [line.split(",")[:3] for line in lines] == [list(k) for k in keys]
        assert banner.getvalue().startswith(f"sweep: {len(lines)} cells x ")


def assert_sweep_equals_lone_runs(spec, swept, lone):
    """Every file of the sweep in ``swept`` equals each run alone through
    run_experiment, written under ``lone``, apart from wall times."""
    run_rows = []
    for exp in spec.runs:
        name = _run_dir(exp.run)
        run_rows.append(run_experiment(exp, lone / name)[1])  # own dataset and plan
        run, alone = swept / "runs" / name, lone / name
        assert strip_dt(run / "metrics.jsonl") == strip_dt(alone / "metrics.jsonl")
        assert (run / "config.txt").read_bytes() == (alone / "config.txt").read_bytes()
        assert strip_time_cols(run / "summary.csv") == strip_time_cols(alone / "summary.csv")
    (lone / "runs.csv").write_text(harness.format_rows(run_rows))
    sweep_rows = harness.cell_means(run_rows)
    (lone / "sweep.csv").write_text(harness.format_rows(sweep_rows, with_seed=False))
    for name in ("runs.csv", "sweep.csv"):
        assert strip_time_cols(swept / name) == strip_time_cols(lone / name)


# fedprox at lambda 1e50 on this mlp diverges in round 3 of 6 (seed 1), so the
# sweep's fedavg cell trains on alone once fedprox has left the group
MID_RUN_DIVERGE_SWEEP = """
methods = fedavg,fedprox
grid.fedprox.lambda = 1e50
seeds = 1
rounds = 6
n_clients = 10
sample_size = 4
data.per_class = 30
eval_every = 1
model.kind = mlp
model.hidden_dim = 8
"""


@st.composite
def lockstep_sweeps(draw):
    """A small sweep over methods, grid points, partitions and seeds; fedprox's
    grid may hold lambda = 1e50, which diverges mid-run on this mlp."""
    def some(items, most):
        return draw(st.lists(st.sampled_from(items), min_size=1, max_size=most, unique=True))

    methods = some(["fedavg", "fedprox", "fedsam", "feddyn", "fedcm"], 3)
    lines = [f"methods = {','.join(methods)}"]
    if "fedprox" in methods:
        lines.append(f"grid.fedprox.lambda = {','.join(some(['0.01', '1e30', '1e50'], 2))}")
    parts = some(["iid", "dirichlet:0.3", "dirichlet:0"], 2)
    seeds = draw(st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True))
    lines += [f"partitions = {','.join(parts)}", f"seeds = {','.join(map(str, seeds))}"]
    lines.append(f"rounds = {draw(st.integers(1, 6))}")
    lines.append(f"eval_every = {draw(st.integers(1, 3))}")
    lines += ["n_clients = 10", "sample_size = 4", "data.per_class = 30"]
    lines += ["model.kind = mlp", "model.hidden_dim = 8"]
    return "\n".join(lines) + "\n"


class TestLockstep:
    def test_mid_run_divergence_leaves_the_group(self, tmp_path):
        spec = parse_config(MID_RUN_DIVERGE_SWEEP)
        _, rows = run_sweep(spec, tmp_path / "s")
        assert [(r.method, r.status, r.best_round) for r in rows] == [
            ("fedavg", "completed", rows[0].best_round),
            ("fedprox", "diverged", 3),
        ]
        assert_sweep_equals_lone_runs(spec, tmp_path / "s", tmp_path / "lone")

    @settings(max_examples=40, deadline=None)
    @given(text=lockstep_sweeps())
    @example(text=MID_RUN_DIVERGE_SWEEP)
    def test_sweep_equals_each_run_alone(self, text):
        spec = parse_config(text)
        with tempfile.TemporaryDirectory() as tmp:
            swept = os.path.join(tmp, "s")
            with contextlib.redirect_stdout(io.StringIO()):
                run_sweep(spec, swept)
            lone = pathlib.Path(tmp) / "lone"
            assert_sweep_equals_lone_runs(spec, pathlib.Path(swept), lone)

    def test_dt_is_own_round_plus_plan_share(self, monkeypatch):
        # each run's dt: its own run_round, plus an equal share of the plan
        spec = parse_config(SWEEP_TEXT)
        cfgs = [e.run for e in spec.runs if e.run.partition == "iid" and e.run.seed == 1]
        data = make_dataset(spec.base)
        ticks = iter(range(1000))
        monkeypatch.setattr(engine.time, "perf_counter", lambda: float(next(ticks)))
        outcomes = engine.train_lockstep(cfgs, *data)
        assert len(outcomes) == 3
        # per round: two ticks around the plan (1 s over 3 runs), two in each run_round
        for records in outcomes:
            assert [m.wall_time_seconds for m in records] == [1.0 + 1.0 / 3] * 3


def write_metrics(path, series):
    with open(path, "w") as fh:
        for rd, top1 in series:
            rec = {
                "round": rd, "sampled": [0], "loss": 1.0, "top1": top1,
                "dt": 0.1, "grad_evals": 4, "upd_norm": 0.5,
            }
            fh.write(json.dumps(rec) + "\n")


GOOD_RECORD = {
    "round": 0, "sampled": [0, 3], "loss": 1.0, "top1": 0.5,
    "dt": 0.1, "grad_evals": 4, "upd_norm": 0.5,
}
GOOD_LINE = (json.dumps(GOOD_RECORD) + "\n").encode()
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


# in-range types, out-of-range values: negative counts, ids and times, top1 > 1
OUT_OF_RANGE = st.sampled_from([-5, -3, -1, -0.45, 1.0000001, 7.5, [-2], [1, -2]])


def metrics_value_ok(key, v):
    """What a metrics.jsonl field may hold: JSON booleans are not numbers,
    an integer must fit a float64, counts, ids and times are non-negative
    and top1 is in [0, 1]."""
    integer = type(v) is int and abs(v) <= sys.float_info.max
    number = integer or type(v) is float
    if key in ("round", "grad_evals"):
        return integer and v >= 0
    if key == "sampled":
        return type(v) is list and all(metrics_value_ok("round", x) for x in v)
    if key == "top1":
        return v is None or (number and 0 <= v <= 1)
    if key == "dt":
        return number and math.isfinite(v) and v >= 0
    return number  # loss and upd_norm: old files hold Infinity


@st.composite
def malformed_metrics_line(draw):
    """A metrics line that is not an object, lacks a field or holds a bad value."""
    how = draw(st.sampled_from(["not_object", "missing", "bad_value"]))
    if how == "not_object":
        return json.dumps(draw(JSON_VALUES.filter(lambda v: not isinstance(v, dict))))
    rec, key = dict(GOOD_RECORD), draw(st.sampled_from(sorted(GOOD_RECORD)))
    if how == "missing":
        del rec[key]
    else:
        values = JSON_VALUES | OUT_OF_RANGE
        rec[key] = draw(values.filter(lambda v: not metrics_value_ok(key, v)))
    return json.dumps(rec)


class TestSummarize:
    def test_monotone_series(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_metrics(p, [(0, 0.1), (1, 0.2), (2, 0.3)])
        rows = summarize([str(p)])
        assert rows[0].best_top1 == 0.3 and rows[0].best_round == 2

    def test_first_attainment(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_metrics(p, [(0, 0.5), (1, 0.9), (2, 0.9)])
        rows = summarize([str(p)])
        assert rows[0].best_top1 == 0.9 and rows[0].best_round == 1

    def test_empty_series_errors(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_metrics(p, [])
        with pytest.raises(ConfigError):
            summarize([str(p)])

    def test_malformed_isolated(self, tmp_path):
        good = tmp_path / "good.jsonl"
        bad = tmp_path / "bad.jsonl"
        write_metrics(good, [(0, 0.4)])
        bad.write_text("not json\n")
        errors = []
        rows = summarize([str(bad), str(good)], errors=errors)
        assert len(rows) == 1 and len(errors) == 1

    def test_status_from_run_directory(self, tmp_path, capsys):
        text = RUN_TEXT.replace("eval_every = 2", "eval_every = 1")
        exp = parse_config(text + LATE_DIVERGE_EXTRA)
        path, row = run_experiment(exp, tmp_path / "late")
        assert row.status == "diverged"
        records = [json.loads(l) for l in open(path)]
        assert 0 < len(records) < exp.run.rounds
        assert records[0]["top1"] is not None
        (summed,) = summarize([str(path)])
        assert summed.status == "diverged"
        assert (summed.best_top1, summed.best_round) == (row.best_top1, row.best_round)

        ok, ok_row = run_experiment(parse_config(RUN_TEXT), tmp_path / "ok")
        assert summarize([str(ok)])[0].status == ok_row.status == "completed"

        bare = tmp_path / "bare.jsonl"
        bare.write_text(open(path).read())
        assert summarize([str(bare)])[0].status == "unknown"
        capsys.readouterr()
        assert cli_main(["summarize", str(bare)]) == 0
        fields = capsys.readouterr().out.splitlines()[1].split(",")
        assert fields[:4] == ["unknown", "-", "-", "-"] and fields[-1] == "unknown"

    def test_best_matches_independent_rescan(self, tmp_path):
        exp = parse_config(RUN_TEXT.replace("eval_every = 2", "eval_every = 1"))
        path, row = run_experiment(exp, tmp_path / "r")
        series = [json.loads(l)["top1"] for l in open(path) if json.loads(l)["top1"] is not None]
        assert row.best_top1 == max(series)


class TestExport:
    def test_row_count_and_sort(self, tmp_path):
        # one directory per run: two files in one directory share a run id
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a, b = tmp_path / "a" / "metrics.jsonl", tmp_path / "b" / "metrics.jsonl"
        write_metrics(a, [(r, 0.1 * r) for r in range(5)])
        write_metrics(b, [(r, 0.05 * r) for r in range(5)])
        out = tmp_path / "curves.csv"
        rows = export_curves([str(b), str(a)], out)
        assert len(rows) == 10
        assert rows == sorted(rows)
        assert open(out).read().splitlines()[0] == "run_id,round,top1"

    def test_last_window(self, tmp_path):
        p = tmp_path / "m.jsonl"
        write_metrics(p, [(r, 0.1) for r in range(10)])
        rows = export_curves([str(p)], tmp_path / "c.csv", last=3)
        assert [r[1] for r in rows] == [7, 8, 9]

    def test_no_files(self, tmp_path):
        with pytest.raises(ConfigError):
            export_curves([], tmp_path / "c.csv")


class TestCLI:
    def test_run_ok(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(RUN_TEXT)
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "fedprox" in capsys.readouterr().out

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("method = fedavg\nrho = 1\nrounds = 1\nseed = 0\n")
        assert cli_main(["run", str(cfg)]) == 2
        cfg.write_bytes(b"\xffmethod = fedavg\nrounds = 1\nseed = 0\n")  # not UTF-8
        assert cli_main(["run", str(cfg)]) == 2

    def test_non_finite_config_exit_2(self, tmp_path):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(RUN_TEXT + "alpha = nan\n")
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_divergence_exit_3(self, tmp_path):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(RUN_TEXT + DIVERGE_EXTRA)
        assert cli_main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("old,new,match", BAD_SWEEPS)
    def test_bad_sweep_exit_2_nothing_written(self, tmp_path, old, new, match):
        assert old in SWEEP_TEXT
        text = SWEEP_TEXT.replace(old, new)
        with pytest.raises(ParseError, match=match):
            parse_config(text)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(text)
        assert cli_main(["sweep", str(cfg), "--out", str(tmp_path / "sw")]) == 2
        assert not (tmp_path / "sw").exists()

    def test_export_last_skips_run_diverged_in_round_0(self, tmp_path):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(RUN_TEXT + DIVERGE_EXTRA)
        out = tmp_path / "o"
        assert cli_main(["run", str(cfg), "--out", str(out)]) == 3
        assert (out / "metrics.jsonl").read_text() == ""
        csv = tmp_path / "c.csv"
        assert cli_main(["export", str(out), "--out", str(csv), "--last", "5"]) == 0
        assert csv.read_text() == "run_id,round,top1\n"

    def test_export_duplicate_run_id_exit_2_nothing_written(self, tmp_path, capsys):
        merged = tmp_path / "merged"
        for parent in ("x", "y"):
            (merged / parent / "run1").mkdir(parents=True)
            write_metrics(merged / parent / "run1" / "metrics.jsonl", [(r, 0.1) for r in range(3)])
        csv = tmp_path / "c.csv"
        assert cli_main(["export", str(merged), "--out", str(csv)]) == 2
        assert not csv.exists()
        err = capsys.readouterr().err
        for parent in ("x", "y"):
            assert str(merged / parent / "run1" / "metrics.jsonl") in err

    @pytest.mark.parametrize("last", ["0", "-2"])
    def test_export_last_below_one_exit_2_nothing_written(self, tmp_path, last):
        write_metrics(tmp_path / "m.jsonl", [(r, 0.1) for r in range(3)])
        csv = tmp_path / "c.csv"
        argv = ["export", str(tmp_path / "m.jsonl"), "--out", str(csv), "--last", last]
        assert cli_main(argv) == 2
        assert not csv.exists()

    @settings(max_examples=150, deadline=None)
    @given(line=malformed_metrics_line())
    def test_malformed_metrics_exit_2_nothing_written(self, line):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "metrics.jsonl")
            with open(path, "w") as fh:
                fh.write(json.dumps(GOOD_RECORD) + "\n" + line + "\n")
            with pytest.raises(ConfigError, match=re.escape(f"{path}:2:")):
                harness.read_metrics(path)
            assert cli_main(["summarize", path]) == 2
            csv = os.path.join(tmp, "c.csv")
            assert cli_main(["export", path, "--out", csv]) == 2
            assert not os.path.exists(csv)

    @pytest.mark.parametrize(
        "metrics,config,blamed",
        [
            (b'{"round":0}\n', None, "metrics.jsonl"),
            (b'\xff{"round":0}\n', None, "metrics.jsonl"),
            (GOOD_LINE, b"method = fedavg\n", "config.txt"),
            (GOOD_LINE, b"methods = fedavg\nseeds = 1\nrounds = 2\n", "config.txt"),
            (GOOD_LINE, b"\xffmethod = fedavg\n", "config.txt"),
        ],
        ids=[
            "bad_metrics_line", "metrics_not_utf8", "bad_config", "sweep_config", "config_not_utf8"
        ],
    )
    def test_summarize_names_the_file_at_fault_once(
        self, tmp_path, capsys, metrics, config, blamed
    ):
        run = tmp_path / "d"
        run.mkdir()
        (run / "metrics.jsonl").write_bytes(metrics)
        if config is not None:
            (run / "config.txt").write_bytes(config)
        capsys.readouterr()
        assert cli_main(["summarize", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.count(str(run / blamed)) == 1
        assert err.count(str(run)) == 1  # and no other file

    def test_old_infinite_upd_norm_still_loads(self, tmp_path, capsys):
        # files written before an overflowing update norm became a divergence
        path = tmp_path / "metrics.jsonl"
        path.write_text(
            '{"round":0,"sampled":[1],"loss":2.3,"top1":0.25,"dt":0.1,'
            '"grad_evals":4,"upd_norm":1.5}\n'
            '{"round":1,"sampled":[0],"loss":NaN,"top1":0.5,"dt":0.1,'
            '"grad_evals":4,"upd_norm":Infinity}\n'
        )
        assert cli_main(["summarize", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[4:6] == ["0.5", "1"]
        csv = tmp_path / "c.csv"
        assert cli_main(["export", str(path), "--out", str(csv)]) == 0
        assert csv.read_text() == "run_id,round,top1\n" + "".join(
            f"{tmp_path.name},{r},{t}\n" for r, t in [(0, 0.25), (1, 0.5)]
        )

    @pytest.mark.parametrize(
        "argv",
        [
            "run {sweep} --out {out}",
            "sweep {run} --out {out}",
            "summarize {empty}",
            "export {empty} --out {out}",
            "run {missing} --out {out}",
            "sweep {missing} --out {out}",
        ],
    )
    def test_wrong_input_exit_2_nothing_written(self, tmp_path, argv):
        (tmp_path / "run.cfg").write_text(RUN_TEXT)
        (tmp_path / "sweep.cfg").write_text(SWEEP_TEXT)
        (tmp_path / "empty").mkdir()
        names = {"run": "run.cfg", "sweep": "sweep.cfg", "empty": "empty", "missing": "no.cfg"}
        paths = {name: tmp_path / file for name, file in names.items()}
        out = tmp_path / "out"
        assert cli_main([arg.format(out=out, **paths) for arg in argv.split()]) == 2
        assert not out.exists()

    def test_sweep_summarize_export(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT)
        out = tmp_path / "sw"
        assert cli_main(["sweep", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["summarize", str(out)]) == 0
        assert cli_main(["export", str(out), "--out", str(tmp_path / "c.csv")]) == 0
        assert (tmp_path / "c.csv").exists()
