import json
import os

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
    def test_ppc_and_report_from_saved_trace(self, workspace):
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
