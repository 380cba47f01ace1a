import json
import os
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flsim.cli import main as cli_main
from flsim.errors import ConfigError, ParseError
from flsim.harness import (
    _HPARAM_KEYS,
    _KEYS,
    ExperimentConfig,
    SweepSpec,
    export_curves,
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
]


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
            [(e.run.method, e.run.client_hparams, e.run.partition, e.run.alpha, e.run.seed)
             for e in cell]
            for cell in spec.cells
        ]
        # fedavg (1) + fedprox (2 values, descending), times 2 partitions, iid first
        cells = [
            ("fedavg", {}, "iid"), ("fedavg", {}, "dirichlet"),
            ("fedprox", {"lambda": 0.1}, "iid"), ("fedprox", {"lambda": 0.1}, "dirichlet"),
            ("fedprox", {"lambda": 0.001}, "iid"), ("fedprox", {"lambda": 0.001}, "dirichlet"),
        ]
        assert runs == [[(m, hp, p, 0.0, s) for s in (1, 2)] for m, hp, p in cells]
        assert spec.base is spec.cells[0][0]
        assert all(e.run.rounds == 3 and e.data.per_class == 30 for c in spec.cells for e in c)

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
        with pytest.raises(ParseError, match="bad grid values"):
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
        # sample_size <= n_clients, whichever of the two takes its default (10 and 100)
        pairs["sample_size"] = data.draw(st.integers(1, 100))
        pairs["n_clients"] = data.draw(st.integers(max(pairs["sample_size"], 10), 10**6))
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
        seeds = items(["0", "1", "7", "-3"], ["", "x", "1.5"])
        partitions = items(
            ["iid", "dirichlet", "dirichlet:0.3", "dirichlet:2"],
            ["dirichlet:0", "dirichlet:-1", "dirichlet0.3", "dirichletX", "dirichlet:", "iid:1"]
            + [""],
        )
        gm = methods[0] if methods else "fedavg"
        keys = sorted(METHODS[gm].hparams) if gm in METHODS else []
        grid = data.draw(st.sets(st.sampled_from(keys + ["bogus", "lambda"])))
        text = f"methods = {','.join(methods)}\nseeds = {','.join(seeds)}\nrounds = 2\n"
        if partitions:
            text += f"partitions = {','.join(partitions)}\n"
        for key in sorted(grid):
            values = items(["0.5", "1", "0.01"], ["0", "2", "-1", "0.50", "", "nan"])
            text += f"grid.{gm}.{key} = {','.join(values)}\n"
        text += data.draw(st.sampled_from(["", "", "lambda = 0.1\n", "seed = 4\n"]))
        try:
            spec = parse_config(text)
        except ParseError:
            return
        assert spec.cells and all(len(cell) == len(seeds) for cell in spec.cells)
        for cell in spec.cells:
            for exp in cell:
                exp.run.validate()

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


    @pytest.mark.parametrize("lr", ["1e29", "1e45", "1e81"])
    def test_overflowing_update_is_divergence(self, tmp_path, lr):
        text = RUN_TEXT.replace("eval_every = 2", "eval_every = 1")
        exp = parse_config(text + LATE_DIVERGE_EXTRA.replace("1e45", lr))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            path, row = run_experiment(exp, tmp_path / "r")
        assert row.status == "diverged"
        for line in open(path):
            json.loads(line, parse_constant=reject_constant)


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

    def test_diverged_cell_marked_not_omitted(self, tmp_path):
        text = SWEEP_TEXT + DIVERGE_EXTRA
        rows, _ = run_sweep(parse_config(text), tmp_path / "s")
        assert len(rows) == 6
        assert all(r.status == "diverged" for r in rows)


def write_metrics(path, series):
    with open(path, "w") as fh:
        for rd, top1 in series:
            rec = {
                "round": rd, "sampled": [0], "loss": 1.0, "top1": top1,
                "dt": 0.1, "grad_evals": 4, "upd_norm": 0.5,
            }
            fh.write(json.dumps(rec) + "\n")


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
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
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

    def test_sweep_summarize_export(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT)
        out = tmp_path / "sw"
        assert cli_main(["sweep", str(cfg), "--out", str(out)]) == 0
        assert cli_main(["summarize", str(out)]) == 0
        assert cli_main(["export", str(out), "--out", str(tmp_path / "c.csv")]) == 0
        assert (tmp_path / "c.csv").exists()
