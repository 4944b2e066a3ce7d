import csv
import json
import re
from pathlib import Path

import pytest
import yaml

from shiftlab.cli import main as cli_main
from shiftlab.grading import GradedComplementBasis, hilbert_function
from shiftlab.runner import ConfigError, RunConfig, compare, load_config, run


BASE = {
    "schema_version": 1,
    "d": 2,
    "sigma": 0.5,
    "n_max": 20,
    "seed": 42,
    "ideal": {"generators": []},
    "experiments": [],
}


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


class TestConfigValidation:
    def test_roundtrip(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        assert cfg.d == 2 and cfg.seed == 42 and not cfg.experiments

    def test_nonhomogeneous_generator_rejected(self, tmp_path):
        doc = dict(BASE)
        doc["ideal"] = {"generators": [[[[1, 0], 1.0, 0.0], [[0, 2], 1.0, 0.0]]]}
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_unknown_kind_rejected(self):
        doc = dict(BASE)
        doc["experiments"] = [{"kind": "mystery"}]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_window_beyond_nmax_rejected(self):
        doc = dict(BASE)
        doc["experiments"] = [
            {"kind": "essnorm", "polynomial": [[[1, 0], 1.0, 0.0]],
             "windows": [[0, 50]]}
        ]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_duplicate_ids_rejected(self):
        doc = dict(BASE)
        doc["experiments"] = [{"kind": "dims", "id": "x"},
                              {"kind": "dims", "id": "x"}]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_small_sigma_flagged(self):
        doc = dict(BASE)
        doc["sigma"] = 0.3
        cfg = RunConfig.from_dict(doc)
        assert cfg.warnings

    def test_bad_schema_version(self):
        doc = dict(BASE)
        doc["schema_version"] = 99
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)

    def test_unknown_optimizer_key_rejected(self):
        # options the optimizer no longer has fail at load, like any typo
        for key in ("fd_step", "penalty_stages", "fallback_grid"):
            doc = dict(BASE)
            doc["experiments"] = [
                {"id": "e", "kind": "essnorm", "polynomial": [[[1, 0], 1.0, 0.0]],
                 "optimizer": {"n_starts": 4, key: 1}}
            ]
            with pytest.raises(ConfigError) as err:
                RunConfig.from_dict(doc)
            assert f"'{key}'" in str(err.value)
            assert "'n_starts'" in str(err.value) and "'grad_tol'" in str(err.value)


def essnorm_config(tmp_path):
    doc = dict(BASE)
    doc["experiments"] = [
        {
            "id": "essnorm-z1",
            "kind": "essnorm",
            "polynomial": [[[1, 0], 1.0, 0.0]],
            "windows": [[0, 10], [4, 14]],
            "optimizer": {"n_starts": 8},
        }
    ]
    return write_config(tmp_path, doc)


class TestRun:
    def test_essnorm_headline(self, tmp_path):
        cfg = load_config(essnorm_config(tmp_path))
        reports = run(cfg, tmp_path / "out")
        (r,) = reports
        assert r.status == "ok"
        assert r.headline["estimate"] == pytest.approx(1.0, abs=1e-10)
        assert r.headline["boundary_sup"] == pytest.approx(1.0, abs=1e-8)
        assert r.headline["comparison"]["verdict"] == "match"
        # convergence report: every start of z1 on the free sphere is stationary
        assert r.headline["n_stationary"] == 8
        assert "final_penalty" not in r.headline
        assert r.headline["worst_feasibility_residual"] <= 1e-8
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "summary.txt").exists()
        assert (tmp_path / "out" / "essnorm-z1_grid.csv").exists()

    def test_empty_experiment_list_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, BASE))
        reports = run(cfg, tmp_path / "out")
        assert reports == []
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["experiments"] == []

    def test_failure_does_not_abort_others(self, tmp_path):
        doc = dict(BASE)
        doc["experiments"] = [
            # character at a point off the variety of the (here trivial)
            # ideal cannot fail, so break it with a boundary point instead
            {"id": "bad", "kind": "character",
             "polynomial": [[[1, 0], 1.0, 0.0]],
             "point": [[1.5, 0.0], [0.0, 0.0]],
             "truncation_degree": 8},
            {"id": "good", "kind": "dims"},
        ]
        cfg = load_config(write_config(tmp_path, doc))
        reports = run(cfg, tmp_path / "out")
        by_id = {r.id: r for r in reports}
        assert by_id["bad"].status == "failed"
        assert by_id["good"].status == "ok"

    def test_deterministic_outputs(self, tmp_path):
        cfg_path = essnorm_config(tmp_path)
        for sub in ("a", "b"):
            run(load_config(cfg_path), tmp_path / sub)
        a = (tmp_path / "a" / "essnorm-z1_grid.csv").read_bytes()
        b = (tmp_path / "b" / "essnorm-z1_grid.csv").read_bytes()
        assert a == b
        # report.json is identical apart from wall times
        da = json.loads((tmp_path / "a" / "report.json").read_text())
        db = json.loads((tmp_path / "b" / "report.json").read_text())
        for doc in (da, db):
            for e in doc["experiments"]:
                e.pop("wall_time_s")
        assert da == db

    def test_workers_give_same_results(self, tmp_path):
        doc = dict(BASE)
        doc["experiments"] = [
            {"id": "dims", "kind": "dims"},
            {"id": "besov", "kind": "besov", "degrees": [0, 10]},
        ]
        cfg_path = write_config(tmp_path, doc)
        run(load_config(cfg_path), tmp_path / "seq", workers=1)
        run(load_config(cfg_path), tmp_path / "par", workers=2)
        for name in ("dims_dims.csv", "besov_defects.csv"):
            assert (tmp_path / "seq" / name).read_bytes() == (
                tmp_path / "par" / name
            ).read_bytes()

    def test_demo_workers_write_same_bytes(self, tmp_path):
        # the experiments share one block cache, which the threads fill
        cfg_path = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
        run(load_config(cfg_path), tmp_path / "seq", workers=1)
        run(load_config(cfg_path), tmp_path / "par", workers=2)

        def report(sub):
            text = (tmp_path / sub / "report.json").read_text()
            return re.sub(r'^\s*"wall_time_s": .*\n', "", text, flags=re.M)

        assert report("seq") == report("par")
        names = sorted(f.name for f in (tmp_path / "seq").glob("*.csv"))
        assert len(names) == 6
        assert names == sorted(f.name for f in (tmp_path / "par").glob("*.csv"))
        for name in names:
            assert (tmp_path / "seq" / name).read_bytes() == (
                tmp_path / "par" / name
            ).read_bytes()

    def test_dims_rank_margins(self, tmp_path):
        # (z1+z2)^2, (z1-z2)^2 and (1+1e-7) z1^2 + 2 z1z2 + z2^2: the third
        # leaves the plane of the first two by 1e-7, so the degree-2 rank
        # decision is near its threshold; degrees 0 and 1 decide no rank
        doc = dict(BASE)
        doc["n_max"] = 4
        doc["ideal"] = {"generators": [
            [[[2, 0], 1.0, 0.0], [[1, 1], 2.0, 0.0], [[0, 2], 1.0, 0.0]],
            [[[2, 0], 1.0, 0.0], [[1, 1], -2.0, 0.0], [[0, 2], 1.0, 0.0]],
            [[[2, 0], 1.0 + 1e-7, 0.0], [[1, 1], 2.0, 0.0], [[0, 2], 1.0, 0.0]],
        ]}
        doc["experiments"] = [{"id": "dims", "kind": "dims"}]
        (r,) = run(load_config(write_config(tmp_path, doc)), tmp_path / "out")
        with (tmp_path / "out" / "dims_dims.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "dim_total", "dim_ideal", "dim_complement", "rank_margin"]
        assert [row[4] for row in rows[1:3]] == ["", ""]
        margin = float(rows[3][4])
        assert 1.0 < margin < 1e3
        assert all(float(row[4]) > 1e3 for row in rows[4:])
        assert r.headline["min_rank_margin"] == margin
        # the second warning: three quadrics in d = 2 fill every degree >= 2
        assert r.warnings[0] == (
            f"degree 2: rank decision within a factor {margin:.3g} of the threshold "
            "rank_tol * |R_00|"
        )
        assert len(r.warnings) == 2 and "finite-co-dimensional" in r.warnings[1]

    def test_dims_monomial_ideal_has_no_margins(self, tmp_path):
        doc = dict(BASE)
        doc["ideal"] = {"generators": [[[[1, 1], 1.0, 0.0]]]}
        doc["experiments"] = [{"id": "dims", "kind": "dims"}]
        (r,) = run(load_config(write_config(tmp_path, doc)), tmp_path / "out")
        assert r.warnings == [] and r.headline["min_rank_margin"] is None
        assert all(row[4] is None for row in r.series["dims"])

    def test_dims_shares_the_cached_basis(self, tmp_path, monkeypatch):
        # dims reads its table off the sigma = 1/2 basis the besov experiment
        # also uses, so (z1^2 + z2^2) is built once, not twice
        builds = []
        init = GradedComplementBasis.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GradedComplementBasis, "__init__", counting_init)
        doc = dict(BASE)
        doc["n_max"] = 12
        doc["ideal"] = {"generators": [[[[2, 0], 1.0, 0.0], [[0, 2], 1.0, 0.0]]]}
        doc["experiments"] = [{"id": "dims", "kind": "dims"},
                              {"id": "besov", "kind": "besov"}]
        cfg = load_config(write_config(tmp_path, doc))
        dims, besov = run(cfg, tmp_path / "out")
        assert dims.status == besov.status == "ok"
        assert len(builds) == 1
        hf = hilbert_function(cfg.ideal, 12, rank_tol=cfg.rank_tol)
        assert dims.headline["dims_complement"] == hf.dims_complement
        assert [row[4] for row in dims.series["dims"]] == hf.rank_margins

    def test_besov_row_defect_on_quadric(self, tmp_path):
        # the row defect is (2 sigma - 1)/(n + 2 sigma - 1) on every complement;
        # the column prediction holds for the zero ideal only
        doc = dict(BASE)
        doc["d"] = 3
        doc["sigma"] = 1.0
        doc["n_max"] = 12
        doc["ideal"] = {"generators": [
            [[[2, 0, 0], 1.0, 0.0], [[0, 2, 0], 1.0, 0.0], [[0, 0, 2], 1.0, 0.0]]]}
        doc["experiments"] = [{"id": "besov", "kind": "besov"}]
        (r,) = run(load_config(write_config(tmp_path, doc)), tmp_path / "out")
        assert r.status == "ok"
        assert r.headline["max_row_defect_deviation"] <= 1e-12
        assert "max_column_defect_deviation" not in r.headline
        assert r.headline["note"] == "the column prediction applies to the zero ideal only"

    def test_commutator_experiment(self, tmp_path):
        doc = dict(BASE)
        doc["ideal"] = {"generators": [[[[1, 1], 1.0, 0.0]]]}
        doc["experiments"] = [
            {"id": "comm", "kind": "commutator", "pairs": [[1, 2]],
             "degrees": [2, 12], "schatten_exponents": [2.0]}
        ]
        cfg = load_config(write_config(tmp_path, doc))
        (r,) = run(cfg, tmp_path / "out")
        assert r.status == "ok"
        assert r.headline["(1,2)"]["max_block_norm"] < 1e-10

    def test_seed_override(self, tmp_path):
        cfg = load_config(essnorm_config(tmp_path))
        run(cfg, tmp_path / "out", seed_override=7)
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["seed"] == 7

    def test_seed_override_leaves_config(self, tmp_path):
        cfg = load_config(essnorm_config(tmp_path))
        seed = cfg.seed
        assert seed != 7
        run(cfg, tmp_path / "out", seed_override=7)
        assert cfg.seed == seed

    def test_aastar_rank_deficiency_warning(self, tmp_path):
        # on the Drury-Arveson space S1 S1* + S2 S2* = I on every H_n with
        # n >= 1, so the k = 1 words span 4 dimensions, not 5
        doc = dict(BASE)
        doc["experiments"] = [
            {"id": "aa", "kind": "aastar", "i": 1, "j": 2,
             "dictionary_degrees": [1], "window_top": 12}
        ]
        (r,) = run(load_config(write_config(tmp_path, doc)), tmp_path / "out")
        line = "k=1: rank-deficient dictionary (rank 4 of 5); minimum-norm solution used"
        assert r.status == "ok" and r.warnings == [line]
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["experiments"][0]["warnings"] == [line]
        assert f"  warning: {line}" in (tmp_path / "out" / "summary.txt").read_text()


    def test_character_narrow_window_warning_in_report(self, tmp_path):
        # truncation degree 2 below deg p = 3: the warning goes into the
        # report and the summary (a warning on stderr fails the suite)
        doc = dict(BASE)
        doc["experiments"] = [
            {"id": "char", "kind": "character",
             "polynomial": [[[3, 0], 1.0, 0.0], [[1, 0], 0.5, 0.0]],
             "point": [[0.3, 0.0], [0.2, 0.0]],
             "truncation_degree": 2},
        ]
        (r,) = run(load_config(write_config(tmp_path, doc)), tmp_path / "out")
        line = "polynomial degree 3 exceeds window width 2"
        assert r.status == "ok" and r.warnings == [line]
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["experiments"][0]["warnings"] == [line]
        assert f"  warning: {line}" in (tmp_path / "out" / "summary.txt").read_text()


class TestCompare:
    def test_match(self):
        assert compare(1.0, 1.0, 0.01)["verdict"] == "match"

    def test_lower_bound_only(self):
        v = compare(0.52, 0.50, 0.01)
        assert v["verdict"] == "lower-bound-only-satisfied"
        assert "advice" in v

    def test_violation(self):
        assert compare(0.30, 0.50, 0.01)["verdict"] == "violation"


class TestCli:
    def test_validate(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert cli_main(["validate", str(path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        doc = dict(BASE)
        doc["ideal"] = {"generators": [[[[1, 0], 1.0, 0.0], [[0, 2], 1.0, 0.0]]]}
        path = write_config(tmp_path, doc)
        assert cli_main(["validate", str(path)]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    def test_dims(self, tmp_path, capsys):
        doc = dict(BASE)
        doc["n_max"] = 5
        doc["ideal"] = {"generators": [[[[1, 1], 1.0, 0.0]]]}
        path = write_config(tmp_path, doc)
        assert cli_main(["dims", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "n,dim_total,dim_ideal,dim_complement"
        assert "2,3,1,2" in out

    def test_run(self, tmp_path, capsys):
        path = essnorm_config(tmp_path)
        out = tmp_path / "cli_out"
        assert cli_main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "report.json").exists()
