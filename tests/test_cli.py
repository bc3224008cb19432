import csv
import io
import json
import os
import subprocess
import sys

import pytest

from glmmselect.cli import main


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

SMALL_SPEC = {
    "family": {"kind": "poisson"},
    "response": "y",
    "fixed_effects": ["x1", "x2", "x3"],
    "random_blocks": [{"group": "subject", "columns": ["x1", "x2"]}],
    "hyperparameters": {"v": 1.0, "nu": 1.0},
    "sampler": {"chains": 2, "adapt": 10, "burnin": 10, "kept": 30, "seed": 1},
    "mode": "ssvs-diagonal",
}


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

    def test_replicate_command(self, workspace):
        tmp_path, design, spec, data = workspace
        out = str(tmp_path / "repl")
        assert main(["replicate", "--design", design, "--out", out, "--replicates", "2"]) == 0
        assert os.path.exists(os.path.join(out, "modal_models.csv"))
        assert os.path.exists(os.path.join(out, "summary.csv"))

    def test_grid_command(self, workspace):
        tmp_path, design, spec, data = workspace
        grid = write(tmp_path, "grid.json", {"v": [1.0], "h": [1.0, 10.0]})
        out = str(tmp_path / "grid")
        assert main([
            "grid", "--design", design, "--grid", grid, "--out", out, "--replicates", "1",
        ]) == 0
        lines = open(os.path.join(out, "grid.csv")).read().strip().splitlines()
        assert len(lines) == 3  # header + 2 cells

    @pytest.mark.parametrize("command", ["replicate", "grid"])
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

    @pytest.mark.parametrize(
        "command, which, content, message",
        [
            ("grid", "grid", {"v": [1.0]}, "'h' must be a non-empty list of numbers"),
            ("grid", "grid", {"v": [], "h": [1.0]}, "'v' must be a non-empty list of numbers"),
            ("grid", "grid", {"v": ["a"], "h": [1.0]}, "'v' must be a non-empty list of numbers"),
            ("grid", "grid", "{not json", "invalid JSON"),
            ("grid", "grid", None, "cannot read"),
            ("grid", "design", dict(SMALL_DESIGN, case="x"), "design field 'case' must be an integer"),
            ("replicate", "design", "{not json", "invalid JSON"),
            ("replicate", "design", None, "cannot read"),
            ("replicate", "design", [SMALL_DESIGN], "expected a JSON object"),
            ("replicate", "design", dict(SMALL_DESIGN, case="x"), "design field 'case' must be an integer"),
            ("replicate", "design", dict(SMALL_DESIGN, replicates="two"), "design field 'replicates'"),
            ("replicate", "design", dict(SMALL_DESIGN, active_random=["b"]), "design field 'active_random'"),
            ("replicate", "design", dict(SMALL_DESIGN, active_random=[0]), "must list effects 1..2"),
            ("simulate", "design", dict(SMALL_DESIGN, active_random=[1, 5]), "must list effects 1..2"),
            ("replicate", "design", dict(SMALL_DESIGN, scale="small"), "design field 'scale' must be"),
            ("simulate", "design", dict(SMALL_DESIGN, n=None), "design field 'n' must be an integer"),
            ("simulate", "design", dict(SMALL_DESIGN, n=12.5), "design field 'n' must be an integer"),
        ],
    )
    def test_bad_json_document_is_error_exit(self, tmp_path, capsys, command, which, content, message):
        files = {"design": SMALL_DESIGN, "grid": {"v": [1.0], "h": [1.0]}}
        paths = {}
        for name, doc in files.items():
            path = tmp_path / f"{name}.json"
            if name == which:
                doc = content
            if doc is not None:
                path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            paths[name] = str(path)
        args = [command, "--design", paths["design"], "--out", str(tmp_path / "out"), "--replicates", "1"]
        if command == "grid":
            args += ["--grid", paths["grid"]]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

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
        assert err.startswith("error:") and "non-numeric value 'abc' in column 'x2', row 2" in err


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


class TestRuntimeDependencies:
    def test_commands_import_no_scipy(self, tmp_path):
        design = write(tmp_path, "design.json", SMALL_DESIGN)
        spec = write(tmp_path, "spec.json", SMALL_SPEC)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", _RUNTIME_SCRIPT, design, spec, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == []
