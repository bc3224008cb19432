import json
from dataclasses import replace

import numpy as np
import pytest

from glmmselect.dataio import (
    load_dataset,
    parse_spec,
    spec_from_dict,
    spec_to_dict,
    write_dataset_csv,
)
from glmmselect.errors import ConfigurationError, DataError, SpecValidationError
from glmmselect.families import Family

MINIMAL = {
    "family": {"kind": "poisson"},
    "response": "y",
    "fixed_effects": ["1", "x"],
    "random_blocks": [{"group": "site", "columns": ["1"]}],
}


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseSpec:
    def test_minimal_with_defaults(self, tmp_path):
        path = write(tmp_path, "m.json", json.dumps(MINIMAL))
        spec = parse_spec(path)
        assert spec.hyper.h == 1.0
        assert spec.hyper.v == 0.01
        assert spec.hyper.nu == 0.01
        assert spec.sampler.chains == 3
        assert spec.sampler.adapt == 1000
        assert spec.sampler.burnin == 1000
        assert spec.sampler.kept == 3000
        assert spec.mode == "ssvs-full"

    def test_negative_h_rejected(self, tmp_path):
        doc = dict(MINIMAL, hyperparameters={"h": -1.0})
        path = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(SpecValidationError):
            parse_spec(path)

    def test_all_problems_listed(self, tmp_path):
        doc = {
            "family": {"kind": "weibull"},
            "fixed_effects": ["x", "x"],
            "random_blocks": [{"group": "", "columns": []}],
            "hyperparameters": {"h": -1},
            "mode": "bogus",
        }
        path = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(SpecValidationError) as err:
            parse_spec(path)
        text = str(err.value)
        for frag in ("weibull", "response", "duplicate", "grouping", "h must be positive", "bogus"):
            assert frag in text

    def test_two_random_blocks(self, tmp_path):
        doc = dict(
            MINIMAL,
            random_blocks=[
                {"group": "site", "columns": ["1", "x"]},
                {"group": "species", "columns": ["1"]},
            ],
        )
        spec = parse_spec(write(tmp_path, "m.json", json.dumps(doc)))
        assert len(spec.random_blocks) == 2
        assert spec.random_blocks[1].group == "species"

    def test_roundtrip_semantically_identical(self, tmp_path):
        doc = dict(
            MINIMAL,
            hyperparameters={"h": 2.0, "v": 1.0, "nu": 1.0},
            sampler={"chains": 2, "kept": 100, "seed": 9},
            mode="ssvs-diagonal",
            offset="logq",
        )
        spec = parse_spec(write(tmp_path, "m.json", json.dumps(doc)))
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec

    def test_nb_dispersion_default(self):
        # the NB scale is sampled from its prior, so a spec neither sets nor echoes it
        doc = dict(MINIMAL, family={"kind": "negative_binomial"})
        spec = spec_from_dict(doc)
        assert not hasattr(spec.family, "dispersion")
        assert "dispersion" not in spec_to_dict(spec)["family"]

    def test_noncanonical_link_rejected(self):
        doc = dict(MINIMAL, family={"kind": "poisson", "link": "identity"})
        with pytest.raises(SpecValidationError, match="unsupported link 'identity' for family 'poisson'"):
            spec_from_dict(doc)

    def test_canonical_link_accepted_and_written(self):
        spec = spec_from_dict(dict(MINIMAL, family={"kind": "bernoulli", "link": "logit"}))
        assert spec.family == Family("bernoulli")
        doc = spec_to_dict(spec)
        assert doc["family"] == {"kind": "bernoulli", "link": "logit"}
        assert spec_from_dict(doc) == spec

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("family", ["poisson"], "family must be an object or a kind name, got ['poisson']"),
            ("family", {"kind": ["poisson"]}, "unknown family kind ['poisson']"),
            ("response", ["y"], "response must be a column name, got ['y']"),
            ("fixed_effects", "x1", "fixed_effects must be a list of column names, got 'x1'"),
            ("fixed_effects", [1], "fixed_effects must be a list of column names, got [1]"),
            ("random_blocks", ["site"], "random block 1 must be an object, got 'site'"),
            ("random_blocks", {"group": "site"}, "random_blocks must be a list of objects, got {'group': 'site'}"),
            (
                "random_blocks",
                [{"group": "site", "columns": "x1"}],
                "random block 1: columns must be a list of column names, got 'x1'",
            ),
            (
                "random_blocks",
                [{"group": ["site"], "columns": ["1"]}],
                "random block 1: group must be a column name, got ['site']",
            ),
            ("offset", 3, "offset must be a column name or null, got 3"),
        ],
    )
    def test_wrong_type_is_one_problem(self, key, value, problem):
        with pytest.raises(SpecValidationError) as err:
            spec_from_dict(dict(MINIMAL, **{key: value}))
        assert err.value.problems == [problem]

    @pytest.mark.parametrize("key, value", [("chains", 2.0), ("kept", 10.5), ("seed", "7"), ("thin", True)])
    def test_non_integer_sampler_value_rejected(self, tmp_path, key, value):
        path = write(tmp_path, "m.json", json.dumps(dict(MINIMAL, sampler={key: value})))
        with pytest.raises(SpecValidationError) as err:
            parse_spec(path)
        assert err.value.problems == [f"sampler: {key} must be an integer, got {value!r}"]

    @pytest.mark.parametrize(
        "key, value, problem",
        [
            ("chains", 0, "chains must be at least 1, got 0"),
            ("thin", 0, "thin must be at least 1, got 0"),
            ("kept", -1, "kept must be at least 0, got -1"),
            # numpy takes no negative seed
            ("seed", -1, "seed must be at least 0, got -1"),
        ],
    )
    def test_out_of_range_sampler_value_rejected(self, key, value, problem):
        with pytest.raises(SpecValidationError) as err:
            spec_from_dict(dict(MINIMAL, sampler={key: value}))
        assert err.value.problems == [f"sampler: {problem}"]

    @pytest.mark.parametrize(
        "section, key, value",
        [("sampler", "slice_widths", {"beta": 0.5}), ("sampler", "max_stepouts", 10), ("family", "dispersion", 1.0)],
    )
    def test_removed_settings_rejected(self, section, key, value):
        base = {"kind": "negative_binomial"} if section == "family" else {}
        doc = dict(MINIMAL, **{section: dict(base, **{key: value})})
        with pytest.raises(SpecValidationError, match=key):
            spec_from_dict(doc)


    @pytest.mark.parametrize(
        "doc, problem",
        [
            (dict(MINIMAL, hyperparams={"h": 2.0}), "unknown key(s) 'hyperparams'"),
            (dict(MINIMAL, offst="logq"), "unknown key(s) 'offst'"),
            (dict(MINIMAL, family={"kind": "poisson", "lnk": "log"}), "family: unknown key(s) 'lnk'"),
            (
                dict(MINIMAL, random_blocks=[{"group": "site", "columns": ["1"], "column": ["x"]}]),
                "random block 1: unknown key(s) 'column'",
            ),
            (dict(MINIMAL, hyperparameters={"hh": 2.0}), "hyperparameters: unknown key(s) 'hh'"),
            (dict(MINIMAL, sampler={"chain": 2}), "sampler: unknown key(s) 'chain'"),
            (
                dict(MINIMAL, family={"kind": "negative_binomial", "dispersion": 1.0}),
                "family.dispersion is not a setting: the family scale is sampled from its prior",
            ),
        ],
    )
    def test_unknown_key_is_one_problem(self, doc, problem):
        with pytest.raises(SpecValidationError) as err:
            spec_from_dict(doc)
        assert err.value.problems == [problem]

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('{"h": true}', "hyperparameter h must be a finite number, got True"),
            ('{"v": Infinity}', "hyperparameter v must be a finite number, got inf"),
            ('{"nu": NaN}', "hyperparameter nu must be a finite number, got nan"),
            ('{"h": "1"}', "hyperparameter h must be a finite number, got '1'"),
            ('{"prior_inclusion": null}', "hyperparameter prior_inclusion must be a finite number, got None"),
        ],
    )
    def test_non_number_hyperparameter_rejected(self, tmp_path, text, problem):
        doc = json.dumps(MINIMAL)[:-1] + f', "hyperparameters": {text}}}'
        with pytest.raises(SpecValidationError) as err:
            parse_spec(write(tmp_path, "m.json", doc))
        assert err.value.problems == [f"hyperparameters: {problem}"]

    def test_integer_hyperparameter_accepted(self):
        assert spec_from_dict(dict(MINIMAL, hyperparameters={"h": 2, "v": 1})).hyper.h == 2


class TestLoadDataset:
    def test_two_row_toy(self, tmp_path):
        csv = "y,x,site\n1,0.5,a\n3,-0.25,b\n"
        spec = spec_from_dict(MINIMAL)
        data = load_dataset(write(tmp_path, "d.csv", csv), spec)
        assert data.n_obs == 2
        np.testing.assert_array_equal(data.y, [1.0, 3.0])
        np.testing.assert_array_equal(data.X[:, 0], [1.0, 1.0])
        np.testing.assert_array_equal(data.X[:, 1], [0.5, -0.25])

    def test_missing_response_named(self, tmp_path):
        csv = "x,site\n0.5,a\n"
        spec = spec_from_dict(MINIMAL)
        with pytest.raises(DataError, match="'y'"):
            load_dataset(write(tmp_path, "d.csv", csv), spec)

    def test_missing_design_column_named(self, tmp_path):
        csv = "y,site\n1,a\n"
        spec = spec_from_dict(MINIMAL)
        with pytest.raises(DataError, match="'x'"):
            load_dataset(write(tmp_path, "d.csv", csv), spec)

    def test_group_labels_by_first_appearance(self, tmp_path):
        csv = "y,x,site\n1,0.1,siteB\n0,0.2,siteA\n2,0.3,siteB\n"
        spec = spec_from_dict(MINIMAL)
        data = load_dataset(write(tmp_path, "d.csv", csv), spec)
        np.testing.assert_array_equal(data.blocks[0].groups, [0, 1, 0])
        assert data.blocks[0].n_groups == 2

    def test_non_numeric_cell_located(self, tmp_path):
        csv = "y,x,site\n1,oops,a\n"
        spec = spec_from_dict(MINIMAL)
        with pytest.raises(DataError, match="d.csv: column 'x' has a missing or non-numeric value 'oops' in row 2"):
            load_dataset(write(tmp_path, "d.csv", csv), spec)

    def test_empty_file(self, tmp_path):
        spec = spec_from_dict(MINIMAL)
        with pytest.raises(DataError):
            load_dataset(write(tmp_path, "d.csv", "y,x,site\n"), spec)

    def test_offset_column(self, tmp_path):
        doc = dict(MINIMAL, offset="logq")
        spec = spec_from_dict(doc)
        csv = "y,x,site,logq\n1,0.5,a,0.0\n2,0.1,a,0.7\n"
        data = load_dataset(write(tmp_path, "d.csv", csv), spec)
        np.testing.assert_allclose(data.offset, [0.0, 0.7])

    def test_count_family_validation(self, tmp_path):
        csv = "y,x,site\n-1,0.5,a\n2,0.1,b\n"
        spec = spec_from_dict(MINIMAL)
        with pytest.raises(Exception):
            load_dataset(write(tmp_path, "d.csv", csv), spec)

    def test_count_past_int64_rejected_with_the_family_message(self, tmp_path):
        # 1e19 is an integer-valued float without an int64 value, which the count likelihoods index by
        csv = "y,x,site\n1e19,0.5,a\n2,0.1,b\n"
        with pytest.raises(ConfigurationError, match="family 'poisson' requires nonnegative integer responses"):
            load_dataset(write(tmp_path, "d.csv", csv), spec_from_dict(MINIMAL))

    def test_write_then_load_roundtrip(self, tmp_path):
        from glmmselect.simulate import scaled_design, simulate_dataset, build_model_spec

        design = replace(scaled_design(), n=5, n_i=2)
        data, _ = simulate_dataset(design, 0)
        spec = build_model_spec(design)
        path = str(tmp_path / "sim.csv")
        write_dataset_csv(path, data, spec)
        back = load_dataset(path, spec)
        np.testing.assert_array_equal(back.y, data.y)
        np.testing.assert_array_equal(back.X, data.X)
        np.testing.assert_array_equal(back.blocks[0].Z, data.blocks[0].Z)
        np.testing.assert_array_equal(back.blocks[0].groups, data.blocks[0].groups)
