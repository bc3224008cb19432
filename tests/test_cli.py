import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from glmmselect import cli
from glmmselect.cli import RHAT_WARN, main
from glmmselect.report import ModelLabel
from glmmselect.simulate import ReplicationResult


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


SMALL_DESIGN = {
    "scale": "scaled",
    "case": 1,
    "n": 12,
    "n_i": 4,
    "l": 3,
    "q": 2,
    "n_active_fixed": 2,
    "active_random": [1],
    "base_seed": 0,
    "replicates": 2,
    "hyperparameters": {"v": 1.0, "nu": 1.0},
    "sampler": {"chains": 1, "adapt": 10, "burnin": 10, "kept": 40, "seed": 0},
    "mode": "ssvs-diagonal",
}

# a 6 x 6 covariance in which only effect 5 has variance
OMEGA_5 = [[0.1 if j == k == 4 else 0.0 for k in range(6)] for j in range(6)]

SMALL_SPEC = {
    "family": {"kind": "poisson"},
    "response": "y",
    "fixed_effects": ["x1", "x2", "x3"],
    "random_blocks": [{"group": "subject", "columns": ["x1", "x2"]}],
    "hyperparameters": {"v": 1.0, "nu": 1.0},
    "sampler": {"chains": 2, "adapt": 10, "burnin": 10, "kept": 30, "seed": 1},
    "mode": "ssvs-diagonal",
}


def rhat_warning(outdir):
    """The stderr line a command gives for the R-hat column of its diagnostics.csv."""
    with open(os.path.join(outdir, "diagnostics.csv"), newline="", encoding="utf-8") as fh:
        rhats = [float(row["rhat"]) for row in csv.DictReader(fh)]
    worst = max((r for r in rhats if math.isfinite(r)), default=0.0)
    if worst <= RHAT_WARN:
        return ""
    return f"warning: max split R-hat {worst:.3f} exceeds {RHAT_WARN}; inspect diagnostics.csv\n"


@pytest.fixture
def workspace(tmp_path):
    design = write(tmp_path, "design.json", SMALL_DESIGN)
    spec = write(tmp_path, "spec.json", SMALL_SPEC)
    sim_out = str(tmp_path / "sim")
    assert main(["simulate", "--design", design, "--out", sim_out, "--replicates", "1"]) == 0
    data = os.path.join(sim_out, "replicate_1.csv")
    return tmp_path, design, spec, data


class TestFit:
    def test_fit_writes_outputs(self, workspace, capsys):
        tmp_path, design, spec, data = workspace
        out = str(tmp_path / "fit")
        assert main(["fit", "--data", data, "--spec", spec, "--out", out]) == 0
        for name in ("chain_1.csv", "chain_2.csv", "diagnostics.csv", "top_models.csv", "inclusion.csv", "summary.txt"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_byte_identical_reruns(self, workspace):
        tmp_path, design, spec, data = workspace
        out1, out2 = str(tmp_path / "f1"), str(tmp_path / "f2")
        assert main(["fit", "--data", data, "--spec", spec, "--out", out1, "--seed", "7"]) == 0
        assert main(["fit", "--data", data, "--spec", spec, "--out", out2, "--seed", "7"]) == 0
        for name in ("chain_1.csv", "top_models.csv", "inclusion.csv", "diagnostics.csv"):
            a = open(os.path.join(out1, name), "rb").read()
            b = open(os.path.join(out2, name), "rb").read()
            assert a == b, name

    def test_missing_file_is_error_exit(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.json", SMALL_SPEC)
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--spec", spec, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_error_exit(self, workspace, capsys, workers):
        tmp_path, design, spec, data = workspace
        out = tmp_path / "fit"
        assert main(["fit", "--data", data, "--spec", spec, "--out", str(out), "--workers", workers]) == 1
        assert capsys.readouterr().err == f"error: --workers must be at least 1, got {workers}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "fit", "ppc", "report"])
    def test_out_path_naming_a_file_is_error_exit(self, workspace, capsys, command):
        tmp_path, design, spec, data = workspace
        fitted = str(tmp_path / "fitted")
        assert main(["fit", "--data", data, "--spec", spec, "--out", fitted]) == 0
        args = {
            "simulate": ["--design", design],
            "fit": ["--data", data, "--spec", spec],
            "ppc": ["--trace", fitted, "--data", data, "--spec", spec, "--n-rep", "2"],
            "report": ["--trace", fitted, "--data", data, "--spec", spec],
        }[command]
        capsys.readouterr()
        assert main([command, *args, "--out", spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "File exists" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["fit"])
        assert exc.value.code == 2


class TestPipeline:
    def test_ppc_and_report_from_saved_trace(self, workspace, capsys):
        tmp_path, design, spec, data = workspace
        fit_out = str(tmp_path / "fit2")
        assert main(["fit", "--data", data, "--spec", spec, "--out", fit_out]) == 0
        ppc_out = str(tmp_path / "ppc")
        assert main([
            "ppc", "--trace", fit_out, "--data", data, "--spec", spec,
            "--out", ppc_out, "--n-rep", "20", "--seed", "3",
        ]) == 0
        assert os.path.exists(os.path.join(ppc_out, "rootogram.csv"))
        assert os.path.exists(os.path.join(ppc_out, "mean_sd.csv"))
        err_out = str(tmp_path / "ppc_neg")
        args = ["ppc", "--trace", fit_out, "--data", data, "--spec", spec, "--out", err_out, "--n-rep", "-2"]
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err == "error: the number of replicates must be >= 0, got -2\n"
        rep_out = str(tmp_path / "rep")
        assert main(["report", "--trace", fit_out, "--data", data, "--spec", spec, "--out", rep_out]) == 0
        assert os.path.exists(os.path.join(rep_out, "top_models.csv"))

    @pytest.mark.parametrize("command", ["report", "ppc"])
    def test_empty_chain_csv_is_error_exit(self, workspace, capsys, command):
        tmp_path, design, spec, data = workspace
        fit_out = str(tmp_path / "fit")
        assert main(["fit", "--data", data, "--spec", spec, "--out", fit_out]) == 0
        open(os.path.join(fit_out, "chain_2.csv"), "w").close()
        capsys.readouterr()
        assert main([command, "--trace", fit_out, "--data", data, "--spec", spec, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "chain_2.csv: file is empty" in err

    def test_header_only_chain_csvs_report_empty_trace(self, workspace, capsys):
        tmp_path, design, spec, data = workspace
        fit_out = tmp_path / "fit"
        assert main(["fit", "--data", data, "--spec", spec, "--out", str(fit_out)]) == 0
        for path in fit_out.glob("chain_*.csv"):
            path.write_text(path.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["report", "--trace", str(fit_out), "--data", data, "--spec", spec, "--out", str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err == "error: empty trace\n"

    def test_rhat_warning_and_summary_table(self, workspace, capsys):
        tmp_path, design, spec, data = workspace
        fit_out = str(tmp_path / "fit")
        capsys.readouterr()
        assert main(["fit", "--data", data, "--spec", spec, "--out", fit_out]) == 0
        captured = capsys.readouterr()
        assert captured.err == rhat_warning(fit_out)
        assert captured.err.startswith("warning: max split R-hat ")
        # move chain 2's beta1 far from chain 1's: its split R-hat is the largest
        path = os.path.join(fit_out, "chain_2.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        j = rows[0].index("beta1")
        for row in rows[1:]:
            row[j] = repr(float(row[j]) + 100.0)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        rep_out = str(tmp_path / "rep")
        assert main(["report", "--trace", fit_out, "--data", data, "--spec", spec, "--out", rep_out]) == 0
        captured = capsys.readouterr()
        assert captured.err == rhat_warning(rep_out)
        assert float(captured.err.split()[4]) > 10.0
        # the indicators are untouched, so report prints the table fit wrote
        with open(os.path.join(fit_out, "summary.txt"), encoding="utf-8") as fh:
            assert captured.out == fh.read() + "\n"

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("sampler", dict(SMALL_SPEC["sampler"], chains=2.0), "sampler: chains must be an integer, got 2.0"),
            ("sampler", dict(SMALL_SPEC["sampler"], kept=10.5), "sampler: kept must be an integer, got 10.5"),
            ("sampler", dict(SMALL_SPEC["sampler"], seed="7"), "sampler: seed must be an integer, got '7'"),
            ("sampler", dict(SMALL_SPEC["sampler"], kept=0), "sampler: kept must be at least thin (1) to record a draw, got 0"),
            ("family", ["poisson"], "family must be an object or a kind name"),
            ("fixed_effects", "x1", "fixed_effects must be a list of column names"),
            ("random_blocks", ["subject"], "random block 1 must be an object"),
        ],
    )
    def test_malformed_spec_is_error_exit(self, workspace, capsys, key, value, problem):
        tmp_path, design, spec, data = workspace
        bad = write(tmp_path, "bad_spec.json", dict(SMALL_SPEC, **{key: value}))
        assert main(["fit", "--data", data, "--spec", bad, "--out", str(tmp_path / "fit")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid model spec: ") and problem in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_replicate_command(self, workspace):
        tmp_path, design, spec, data = workspace
        out = str(tmp_path / "repl")
        assert main(["replicate", "--design", design, "--out", out, "--replicates", "2"]) == 0
        assert os.path.exists(os.path.join(out, "modal_models.csv"))
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_modal_models_name_effects_as_model_labels(self, tmp_path, monkeypatch):
        # modal_models.csv and top_models.csv name a model's effects the same way
        labels = [ModelLabel((1, 0, 1), ((0, 1),)), ModelLabel((0, 0, 0), ((0, 0),)), ModelLabel((1, 0, 1), ((0, 1),))]
        rows = [
            dict(ok=True, modal_fixed=lab.fixed, modal_random=lab.random[0], true_model=False, random_correct=False, rmse=0.0)
            for lab in labels
        ]
        monkeypatch.setattr(cli, "run_replication", lambda design, spec, n_rep, workers: ReplicationResult(rows))
        out = tmp_path / "repl"
        assert main(["replicate", "--design", write(tmp_path, "design.json", SMALL_DESIGN), "--out", str(out)]) == 0
        with open(out / "modal_models.csv", newline="", encoding="utf-8") as fh:
            got = list(csv.DictReader(fh))
        assert [(r["fixed_effects"], r["random_effects"], r["count"]) for r in got] == [("1,3", "2", "2"), ("-", "-", "1")]
        for row, lab in zip(got, labels):
            assert f"fixed[{row['fixed_effects']}] random[{row['random_effects']}]" == lab.describe()

    def test_tied_modal_models_come_out_in_pattern_order(self, tmp_path, monkeypatch):
        # three patterns each modal in two replicates, listed in no order: ties keep ascending pattern order
        patterns = [((1, 1, 0), (1, 0)), ((0, 1, 1), (0, 1)), ((1, 1, 0), (0, 1)), ((0, 1, 1), (0, 1)), ((1, 1, 0), (1, 0)), ((1, 1, 0), (0, 1))]
        rows = [dict(ok=True, modal_fixed=f, modal_random=r, true_model=False, random_correct=False, rmse=0.0) for f, r in patterns]
        rows.append(dict(ok=False, error="stopped"))
        monkeypatch.setattr(cli, "run_replication", lambda design, spec, n_rep, workers: ReplicationResult(rows))
        out = tmp_path / "repl"
        assert main(["replicate", "--design", write(tmp_path, "design.json", SMALL_DESIGN), "--out", str(out)]) == 0
        with open(out / "modal_models.csv", newline="", encoding="utf-8") as fh:
            got = [tuple(r) for r in csv.reader(fh)]
        assert got == [
            ("fixed_effects", "random_effects", "count", "percent"),
            ("2,3", "2", "2", "33.33"),
            ("1,2", "2", "2", "33.33"),
            ("1,2", "1", "2", "33.33"),
        ]

    def test_grid_command(self, workspace):
        tmp_path, design, spec, data = workspace
        grid = write(tmp_path, "grid.json", {"v": [1.0], "h": [1.0, 10.0]})
        out = str(tmp_path / "grid")
        assert main([
            "grid", "--design", design, "--grid", grid, "--out", out, "--replicates", "1",
        ]) == 0
        lines = open(os.path.join(out, "grid.csv")).read().strip().splitlines()
        assert len(lines) == 3  # header + 2 cells
        assert lines[0] == "v,h,percent,rmse,n_ok,n_failed"

    @pytest.mark.parametrize("command", ["simulate", "replicate", "grid"])
    @pytest.mark.parametrize(
        "section, key", [("sampler", "foo"), ("sampler", "max_stepouts"), ("hyperparameters", "foo")]
    )
    def test_unknown_design_setting_is_error_exit(self, tmp_path, capsys, command, section, key):
        doc = dict(SMALL_DESIGN, **{section: dict(SMALL_DESIGN[section], **{key: 10})})
        design = write(tmp_path, "bad_design.json", doc)
        args = [command, "--design", design, "--out", str(tmp_path / "out"), "--replicates", "1"]
        if command == "grid":
            args += ["--grid", write(tmp_path, "grid.json", {"v": [1.0], "h": [1.0]})]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{section}: unknown key(s) '{key}'" in err

    @pytest.mark.parametrize("command", ["simulate", "replicate", "grid"])
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n_subjects": 12}, "unknown key(s) 'n_subjects'"),
            ({"n": True}, "n must be an integer, got True"),
            ({"n": 12.0}, "n must be an integer, got 12.0"),
            ({"sampler": dict(SMALL_DESIGN["sampler"], thin=0)}, "sampler: thin must be at least 1, got 0"),
            ({"sampler": dict(SMALL_DESIGN["sampler"], kept=5, thin=10)}, "sampler: kept must be at least thin (10) to record a draw, got 5"),
            ({"hyperparameters": {"h": "1"}}, "hyperparameters: hyperparameter h must be a finite number, got '1'"),
            # the document's mode is checked even where --mode replaces it
            ({"mode": "ssvs"}, "unknown mode 'ssvs'"),
        ],
    )
    def test_every_study_command_rejects_a_bad_design(self, tmp_path, capsys, command, change, message):
        design = write(tmp_path, "design.json", dict(SMALL_DESIGN, **change))
        args = [command, "--design", design, "--out", str(tmp_path / "out")]
        if command != "simulate":
            args += ["--mode", "ssvs-full"]
        if command == "grid":
            args += ["--grid", write(tmp_path, "grid.json", {"v": [1.0], "h": [1.0]})]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: invalid design {design}: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, which, content, message",
        [
            ("grid", "grid", {"v": [1.0]}, "'h' must be a non-empty list of numbers"),
            ("grid", "grid", {"v": [], "h": [1.0]}, "'v' must be a non-empty list of numbers"),
            ("grid", "grid", {"v": ["a"], "h": [1.0]}, "hyperparameter v must be a finite number, got 'a'"),
            ("grid", "grid", {"v": [1.0], "h": [True]}, "hyperparameter h must be a finite number, got True"),
            ("grid", "grid", {"v": [-1.0], "h": [1.0]}, "hyperparameter v must be positive"),
            ("grid", "grid", {"v": [1.0, 0.5, 1.0], "h": [1.0]}, "'v' lists a value more than once"),
            ("grid", "grid", {"v": [1.0], "h": [2, 2.0]}, "'h' lists a value more than once"),
            ("grid", "grid", {"v": [1.0], "h": [1.0], "nu": [5]}, "unknown key(s) 'nu'"),
            ("grid", "grid", "{not json", "invalid JSON"),
            ("grid", "grid", None, "cannot read"),
            ("grid", "design", dict(SMALL_DESIGN, case="x"), "case must be an integer, got 'x'"),
            ("replicate", "design", "{not json", "invalid JSON"),
            ("replicate", "design", None, "cannot read"),
            ("replicate", "design", [SMALL_DESIGN], "expected a JSON object"),
            ("replicate", "design", dict(SMALL_DESIGN, case="x"), "case must be an integer, got 'x'"),
            ("replicate", "design", dict(SMALL_DESIGN, replicates="two"), "replicates must be an integer, got 'two'"),
            ("replicate", "design", dict(SMALL_DESIGN, active_random=["b"]), "active_random must be an integer, got 'b'"),
            ("replicate", "design", dict(SMALL_DESIGN, active_random=[0]), "must list effects 1..2"),
            ("simulate", "design", dict(SMALL_DESIGN, active_random=[1, 5]), "must list effects 1..2"),
            ("simulate", "design", dict(SMALL_DESIGN, active_random=[1, 1]), "must list effects 1..2 once each"),
            ("simulate", "design", {"scale": "scaled", "q": 2, "omega": [[1, 2], [2, 1]]}, "design.json: active submatrix is not PSD"),
            ("replicate", "design", dict(SMALL_DESIGN, scale="small"), "scale must be 'full' or 'scaled', got 'small'"),
            ("simulate", "design", dict(SMALL_DESIGN, n=None), "n must be an integer, got None"),
            ("simulate", "design", dict(SMALL_DESIGN, n=12.5), "n must be an integer, got 12.5"),
            ("simulate", "design", dict(SMALL_DESIGN, n=0), "n must be at least 1, got 0"),
            ("simulate", "design", {"scale": "scaled", "n_i": -1}, "n_i must be at least 1, got -1"),
            ("simulate", "design", {"scale": "scaled", "l": 3, "q": 5, "n_active_fixed": 2}, "q must be in [1, l]"),
            ("simulate", "design", {"scale": "scaled", "q": -1}, "q must be at least 1, got -1"),
            ("simulate", "design", {"scale": "scaled", "omega": [[1, 0], [0]]}, "omega must be a numeric matrix"),
            ("simulate", "design", {"scale": "full", "base_seed": -1}, "base_seed must be at least 0, got -1"),
            ("simulate", "design", {"scale": "scaled", "active_random": [1], "omega": OMEGA_5}, "disagrees with omega"),
            (
                "replicate",
                "design",
                dict(SMALL_DESIGN, sampler=dict(SMALL_DESIGN["sampler"], chains=2.0)),
                "sampler: chains must be an integer, got 2.0",
            ),
        ],
    )
    def test_bad_json_document_is_error_exit(self, tmp_path, capsys, command, which, content, message):
        self._expect_error(tmp_path, capsys, command, which, content, message, "1")

    @pytest.mark.parametrize(
        "design, random_mask",
        [
            # the truth is the effects omega gives variance, not the base design's (0, 2)
            ({"scale": "scaled", "omega": OMEGA_5}, [0, 0, 0, 0, 1, 0]),
            ({"scale": "scaled", "q": 2, "omega": [[1, 0], [0, 1]]}, [1, 1]),
            ({"scale": "scaled", "active_random": [5], "omega": OMEGA_5}, [0, 0, 0, 0, 1, 0]),
        ],
    )
    def test_omega_sets_the_random_truth(self, tmp_path, design, random_mask):
        out = tmp_path / "sim"
        assert main(["simulate", "--design", write(tmp_path, "design.json", design), "--out", str(out)]) == 0
        assert json.loads((out / "replicate_1_truth.json").read_text())["random_mask"] == random_mask

    @pytest.mark.parametrize("command", ["simulate", "replicate", "grid"])
    @pytest.mark.parametrize(
        "flag, in_design, message",
        [
            ("-2", None, "error: --replicates must be at least 1, got -2"),
            ("0", None, "error: --replicates must be at least 1, got 0"),
            (None, -1, "replicates must be at least 1, got -1"),
            (None, 0, "replicates must be at least 1, got 0"),
        ],
    )
    def test_replicate_count_below_one_is_error_exit(self, tmp_path, capsys, command, flag, in_design, message):
        design = dict(SMALL_DESIGN, replicates=in_design) if in_design is not None else SMALL_DESIGN
        out = self._expect_error(tmp_path, capsys, command, "design", design, message, flag)
        assert out == ""
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _expect_error(tmp_path, capsys, command, which, content, message, replicates):
        """Run ``command`` on a design and a grid file, ``which`` of them holding ``content``.

        Expects an error exit with ``message`` on stderr and returns stdout.
        ``replicates`` is the ``--replicates`` value, or None to leave it out.
        """
        files = {"design": SMALL_DESIGN, "grid": {"v": [1.0], "h": [1.0]}}
        paths = {}
        for name, doc in files.items():
            path = tmp_path / f"{name}.json"
            if name == which:
                doc = content
            if doc is not None:
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            paths[name] = str(path)
        args = [command, "--design", paths["design"], "--out", str(tmp_path / "out")]
        if replicates is not None:
            args += ["--replicates", replicates]
        if command == "grid":
            args += ["--grid", paths["grid"]]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        return captured.out

    def test_add_squares(self, workspace):
        tmp_path, design, spec, data = workspace
        doc = dict(SMALL_SPEC, fixed_effects=["x1", "x2", "x3", "x2_sq"])
        spec2 = write(tmp_path, "spec2.json", doc)
        out = str(tmp_path / "sq")
        assert main([
            "fit", "--data", data, "--spec", spec2, "--out", out, "--add-squares", "x2",
        ]) == 0
        header = open(os.path.join(out, "data_with_squares.csv")).readline().strip().split(",")
        assert "x2_sq" in header

    def test_add_squares_keeps_quoted_cells(self, workspace):
        tmp_path, design, spec, data = workspace
        with open(data, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        noted = str(tmp_path / "noted.csv")
        with open(noted, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [rows[0] + ["note"]] + [row + [f"visit {i}, subject {row[-1]}"] for i, row in enumerate(rows[1:])]
            )
        doc = dict(SMALL_SPEC, fixed_effects=["x1", "x2", "x3", "x2_sq"])
        out = str(tmp_path / "sq")
        assert main(["fit", "--data", noted, "--spec", write(tmp_path, "spec2.json", doc), "--out", out, "--add-squares", "x2"]) == 0
        with open(os.path.join(out, "data_with_squares.csv"), newline="", encoding="utf-8") as fh:
            text = fh.read()
        got = list(csv.reader(io.StringIO(text)))
        assert got[0] == rows[0] + ["note", "x2_sq"]
        x2 = rows[0].index("x2")
        for i, (row, new) in enumerate(zip(rows[1:], got[1:])):
            assert new[:-1] == row + [f"visit {i}, subject {row[-1]}"]
            assert float(new[-1]) == float(row[x2]) ** 2
        assert '"visit 0, subject ' in text

    def test_add_squares_missing_file_is_error_exit(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.json", SMALL_SPEC)
        rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--spec", spec, "--out", str(tmp_path / "o"), "--add-squares", "x2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot read" in err

    def test_add_squares_non_numeric_cell_is_error_exit(self, workspace, capsys):
        tmp_path, design, spec, data = workspace
        lines = open(data, encoding="utf-8").read().splitlines()
        header = lines[0].split(",")
        cells = lines[1].split(",")
        cells[header.index("x2")] = "abc"
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n", encoding="utf-8")
        rc = main(["fit", "--data", str(bad), "--spec", spec, "--out", str(tmp_path / "o"), "--add-squares", "x2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "column 'x2' has a missing or non-numeric value 'abc' in row 2" in err


# simulate, fit and ppc through the CLI entry point, then list every scipy module loaded
_RUNTIME_SCRIPT = """
import json, os, sys
from glmmselect.cli import main
design, spec, work = sys.argv[1:4]
sim, fit = os.path.join(work, "sim"), os.path.join(work, "fit")
data = os.path.join(sim, "replicate_1.csv")
assert main(["simulate", "--design", design, "--out", sim, "--replicates", "1"]) == 0
assert main(["fit", "--data", data, "--spec", spec, "--out", fit]) == 0
assert main(["ppc", "--trace", fit, "--data", data, "--spec", spec, "--out", os.path.join(work, "ppc"), "--n-rep", "5"]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def fresh_python(*args) -> str:
    """The stdout of ``python *args`` in a fresh interpreter that imports the package from this checkout."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestRuntimeDependencies:
    def test_commands_import_no_scipy(self, tmp_path):
        design = write(tmp_path, "design.json", SMALL_DESIGN)
        spec = write(tmp_path, "spec.json", SMALL_SPEC)
        out = fresh_python("-c", _RUNTIME_SCRIPT, design, spec, str(tmp_path))
        assert json.loads(out.splitlines()[-1]) == []

    def test_cli_import_leaves_out_the_process_pool(self):
        # the pool module is imported only when a command runs more than one worker
        out = fresh_python("-c", "import sys, glmmselect.cli; print('concurrent.futures.process' in sys.modules)")
        assert out.split() == ["False"]
