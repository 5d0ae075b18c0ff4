"""Command-line experiment runner: argument parsing, exit codes, CSV output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sheetlab.cli import ENV_OUT, EXPERIMENTS, _gaussian_couplings, main
from sheetlab.fokker_planck import residual_table
from sheetlab.noise import sample_sheet
from sheetlab.plane import Grid, Point
from sheetlab.rng import DOMAIN_SHEET, substream

DATA = Path(__file__).parent / "data"
GOLDENS = sorted(DATA.glob("cli_*_golden.json"))


def run(argv, tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUT, str(tmp_path))
    return main(argv)


def _csv(path):
    """(metadata dict, rows split on commas) of an experiment's CSV."""
    lines = path.read_text().strip().splitlines()
    meta = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("# "))
    return meta, [l.split(",") for l in lines if not l.startswith("# ")]


def _check_golden(golden, meta, body, rows, rtol=0.0):
    """An experiment's CSV against its recorded golden: metadata, header, the
    passed column (last, where the golden records one) and the numeric
    columns of ``rows`` at 1e-12."""
    assert meta["experiment"] == golden["experiment"]
    assert {key: meta[key] for key in golden["meta"]} == golden["meta"]
    assert meta["all_pass"] == str(golden["all_pass"])
    assert body[0] == golden["header"]
    if "passed" in golden:
        assert [row[-1] for row in rows] == [str(p) for p in golden["passed"]]
        rows = [row[:-1] for row in rows]
    got = np.array([[float(v) for v in row] for row in rows])
    want = np.array(golden["rows"], dtype=float)  # null -> nan
    np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-12, equal_nan=True)


def _check_golden_run(name, capsys, tmp_path, monkeypatch):
    """Run the argv of ``name``'s golden; check its exit status, its row
    labels (where the golden records them) and ``_check_golden``."""
    golden = json.loads((DATA / f"cli_{name.replace('-', '_')}_golden.json").read_text())
    assert run(golden["argv"], tmp_path, monkeypatch) == (0 if golden["all_pass"] else 2)
    capsys.readouterr()
    meta, body = _csv(tmp_path / f"{name}.csv")
    rows = body[1:]
    if "labels" in golden:
        assert [row[0] for row in rows] == golden["labels"]
        rows = [row[1:] for row in rows]
    _check_golden(golden, meta, body, rows)


class TestArgumentHandling:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("sheet-stats", "picard", "control-search"):
            assert name in out

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["no-such-experiment"]) == 1

    def test_unknown_key_rejected(self, capsys, tmp_path, monkeypatch):
        assert run(["lemma61", "bogus=3"], tmp_path, monkeypatch) == 1
        assert "bogus" in capsys.readouterr().err

    def test_malformed_token_rejected(self, capsys, tmp_path, monkeypatch):
        assert run(["lemma61", "k64"], tmp_path, monkeypatch) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["lemma61", "k=abc"],
            ["ito-check", "grids=16,x"],
            ["lemma61", "k=2.5"],
            ["picard", "M=6.5"],
            ["ito-check", "reps=1e2"],
            ["chaos-rate", "N=8.5,17"],
        ],
    )
    def test_numeric_key_rejects_text(self, argv, capsys, tmp_path, monkeypatch):
        # a key whose default is numeric takes numbers only, and one whose default
        # is an integer takes integers only: a usage error, not a traceback or a
        # silently truncated value
        assert run(argv, tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err.startswith("argument error:") and "usage" in err
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    def test_ito_check_needs_two_replications(self, capsys, tmp_path, monkeypatch):
        # one replication has no standard error: a usage error, not NaN rows
        assert run(["ito-check", "reps=1"], tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err.startswith("argument error:") and "two replications" in err
        assert not (tmp_path / "ito-check.csv").exists()

    @pytest.mark.parametrize("reps", [0, 1])
    @pytest.mark.parametrize("argv", [["sheet-stats", "k=4"], ["fokker-planck", "M=20", "k=4"]])
    def test_replicate_statistics_need_two_reps(self, argv, reps, capsys, tmp_path, monkeypatch):
        # no replicate has no estimate and one has no standard error: a usage
        # error, not an IndexError traceback or NaN in the CSV
        assert run([*argv, f"reps={reps}"], tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err.startswith("argument error:") and "two replicates" in err
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    def test_fokker_planck_needs_a_frequency(self, capsys, tmp_path, monkeypatch):
        # "w=," parses to no frequency at all: a usage error, not a numpy
        # TypeError or a NaN mean
        assert run(["fokker-planck", "M=20", "k=4", "w=,"], tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err.startswith("argument error:") and "at least one frequency" in err
        assert not (tmp_path / "fokker-planck.csv").exists()

    def test_chaos_rate_rejects_a_zero_horizon(self, capsys, tmp_path, monkeypatch):
        # a zero side makes dt = 0: a usage error, not a ZeroDivisionError
        assert run(["chaos-rate", "t=0"], tmp_path, monkeypatch) == 1
        err = capsys.readouterr().err
        assert err.startswith("argument error:") and "horizon" in err
        assert not (tmp_path / "chaos-rate.csv").exists()

    def test_a_run_without_checks_is_rejected(self, capsys, tmp_path, monkeypatch):
        # no N has its double in the list, so no halving ratio is checked:
        # a usage error, not a vacuous pass
        assert run(["chaos-rate", "N=8,12", "reps=2", "k=4"], tmp_path, monkeypatch) == 1
        out, err = capsys.readouterr()
        assert err.startswith("argument error:") and "no check" in err
        assert "[PASS]" not in out
        assert not (tmp_path / "chaos-rate.csv").exists()

    def test_lemma61_takes_no_seed(self, capsys, tmp_path, monkeypatch):
        # lemma61 draws nothing, so it has no seed to set
        assert run(["lemma61", "seed=0"], tmp_path, monkeypatch) == 1
        assert "unknown key 'seed'" in capsys.readouterr().err


class TestExitCodes:
    def test_passing_experiment_returns_zero(self, capsys, tmp_path, monkeypatch):
        code = run(["est-check", "pairs=20", "c=1", "order=30"], tmp_path, monkeypatch)
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_failed_check_returns_two(self, capsys, tmp_path, monkeypatch):
        code = run(["lemma61", "k=32", "tol_constants=1e-9"], tmp_path, monkeypatch)
        out = capsys.readouterr().out
        assert code == 2
        assert "[FAIL]" in out


class TestCsvOutput:
    def test_metadata_header_and_rows(self, capsys, tmp_path, monkeypatch):
        code = run(["lemma61"], tmp_path, monkeypatch)
        assert code == 0
        path = tmp_path / "lemma61.csv"
        assert path.exists()
        lines = path.read_text().strip().splitlines()
        meta = [l for l in lines if l.startswith("# ")]
        body = [l for l in lines if not l.startswith("# ")]
        assert any(l.startswith("# experiment = lemma61") for l in meta)
        assert any(l.startswith("# all_pass = True") for l in meta)
        assert any(l.startswith("# wall_seconds = ") for l in meta)
        assert body[0].startswith("kernel,")
        assert len(body) == 3  # header + one row per kernel case

    def test_float_values_round_trip(self, capsys, tmp_path, monkeypatch):
        run(["lemma61"], tmp_path, monkeypatch)
        body = [
            l
            for l in (tmp_path / "lemma61.csv").read_text().strip().splitlines()
            if not l.startswith("# ")
        ]
        first = body[1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=0.05)  # mixed partial near 1


class TestSeedAndWorkerInvariance:
    def test_seed_changes_results(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_OUT, str(tmp_path / "s0"))
        main(["est-check", "pairs=5", "c=1", "order=20", "seed=0"])
        monkeypatch.setenv(ENV_OUT, str(tmp_path / "s1"))
        main(["est-check", "pairs=5", "c=1", "order=20", "seed=1"])
        capsys.readouterr()
        row = lambda p: p.read_text().splitlines()  # noqa: E731
        a = [l for l in row(tmp_path / "s0" / "est-check.csv") if l.startswith("gaussian")]
        b = [l for l in row(tmp_path / "s1" / "est-check.csv") if l.startswith("gaussian")]
        assert a != b


class TestEstCheckStream:
    """est-check draws its couplings from a domain of its own.  A coupling is
    m + s * base, so standardising it recovers its base normals; they must not
    be channel 1 of the stream-0 sheet at the same seed, which the draw from
    the sheet domain's stream (0, 1) reproduces."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_couplings_are_not_the_sheet_increments(self, seed):
        grid = Grid(horizon=Point(1.0, 1.0), nt=16, nx=16)
        increments = sample_sheet(grid, 2, seed).increments[1].ravel()
        sheet_normals = increments / np.sqrt(grid.dt * grid.dx)
        base_of = lambda x: (x - x.mean()) / x.std()  # noqa: E731
        collided = substream(seed, DOMAIN_SHEET, stream=0, channel=1).normal(size=256)
        np.testing.assert_allclose(base_of(collided), base_of(sheet_normals), atol=1e-12)
        first, _ = _gaussian_couplings(1, seed)[0]
        assert not np.allclose(base_of(first[:, 0]), base_of(sheet_normals), atol=1e-6)


class TestFokkerPlanckGolden:
    """The fokker-planck experiment at its defaults against rows recorded before
    its kernel streamed coefficient rows (tests/data/cli_fokker_planck_golden.json)."""

    def test_default_run_reproduces_the_recorded_rows(self, capsys, tmp_path, monkeypatch):
        golden = json.loads((DATA / "cli_fokker_planck_golden.json").read_text())
        assert run(golden["argv"], tmp_path, monkeypatch) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        meta, body = _csv(tmp_path / "fokker-planck.csv")
        assert meta["all_pass"] == str(golden["all_pass"])
        mean_abs = float(meta["mean_abs_residual"])
        assert mean_abs == pytest.approx(golden["mean_abs_residual"], rel=0, abs=1e-12)
        assert body[0] == golden["header"]
        got = np.array([[float(v) for v in row] for row in body[1:]])
        np.testing.assert_allclose(got, np.array(golden["rows"], dtype=float), rtol=0, atol=1e-12)

    def test_conjugate_rows_are_evaluated_in_a_table_of_their_own(self, capsys, tmp_path, monkeypatch):
        # within one table -w copies +w's phase, so the conjugate gap checks
        # something only when -w and +w are evaluated in different calls
        from sheetlab import cli

        calls = []

        def recording(ensemble, freqs, z):
            calls.append(sorted(float(w[0]) for w in freqs))
            return residual_table(ensemble, freqs, z)

        monkeypatch.setattr(cli, "residual_table", recording)
        assert run(["fokker-planck", "M=20", "k=4", "reps=2"], tmp_path, monkeypatch) == 0
        capsys.readouterr()
        assert calls == [[0.0, 1.0, 2.0], [-2.0, -1.0]] * 2
        _, body = _csv(tmp_path / "fokker-planck.csv")
        assert [row[0] for row in body[1:]] == ["1.0", "-1.0", "2.0", "-2.0"]


class TestItoCheckGolden:
    """The ito-check experiment at its defaults against rows recorded before its
    fields were solved in closed form (tests/data/cli_ito_check_golden.json)."""

    def test_default_run_reproduces_the_recorded_rows(self, capsys, tmp_path, monkeypatch):
        golden = json.loads((DATA / "cli_ito_check_golden.json").read_text())
        assert run(golden["argv"], tmp_path, monkeypatch) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        meta, body = _csv(tmp_path / "ito-check.csv")
        _check_golden(golden, meta, body, body[1:])  # the first row has no ratio: null


class TestPicardGolden:
    """The picard experiment (an M=64 Picard solve) at its defaults against rows
    recorded before the ensemble states were stored node-major
    (tests/data/cli_picard_golden.json).  The diverging majorant row reaches
    5e19, so the values are also held to a relative 1e-12."""

    def test_default_run_reproduces_the_recorded_rows(self, capsys, tmp_path, monkeypatch):
        golden = json.loads((DATA / "cli_picard_golden.json").read_text())
        assert run(golden["argv"], tmp_path, monkeypatch) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        meta, body = _csv(tmp_path / "picard.csv")
        assert [row[0] for row in body[1:]] == golden["labels"]
        _check_golden(golden, meta, body, [row[1:] for row in body[1:]], rtol=1e-12)


class TestControlEquivGolden:
    """The control-equiv experiment (both control routes on replicate streams)
    at its defaults against rows recorded before replicate noise reused one bit
    generator (tests/data/cli_control_equiv_golden.json)."""

    def test_default_run_reproduces_the_recorded_rows(self, capsys, tmp_path, monkeypatch):
        golden = json.loads((DATA / "cli_control_equiv_golden.json").read_text())
        assert run(golden["argv"], tmp_path, monkeypatch) == 0
        assert "[FAIL]" not in capsys.readouterr().out
        meta, body = _csv(tmp_path / "control-equiv.csv")
        _check_golden(golden, meta, body, body[1:])


class TestNoiseDrawGoldens:
    """Experiments whose cell noise is drawn by ``noise._draw_cells``, against
    rows recorded before that sampler served them (tests/data/cli_*_golden.json).
    sheet-stats runs at 500 replicates; its golden was recorded again when its
    variance check moved from a fixed 0.05 tolerance, which that many
    replicates missed (a FAIL and exit status 2), to 3 standard errors."""

    @pytest.mark.parametrize("name", ["chaos-rate", "chaos-closed-form", "sheet-stats"])
    def test_run_reproduces_the_recorded_rows(self, name, capsys, tmp_path, monkeypatch):
        _check_golden_run(name, capsys, tmp_path, monkeypatch)


class TestExperimentGoldens:
    """lemma61 and est-check at their defaults, and control-search at 4
    replicates (its defaults take many seconds), against rows and metadata
    recorded before the runners returned their checks as data
    (tests/data/cli_*_golden.json).  The est-check golden was recorded again
    once its couplings moved off the sheet's stream to a domain of their own.
    control-search's rows have no passed column; its best_theta_* metadata
    are held exactly."""

    @pytest.mark.parametrize("name", ["lemma61", "est-check", "control-search"])
    def test_run_reproduces_the_recorded_rows(self, name, capsys, tmp_path, monkeypatch):
        _check_golden_run(name, capsys, tmp_path, monkeypatch)


class TestRunRecord:
    """What ``main`` records for every experiment (one golden argv each): the
    experiment, every parameter in the order of its defaults, the derived
    values, then ``wall_seconds`` and ``all_pass``, which is the AND of the
    printed PASS/FAIL lines and decides the exit status."""

    @pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
    def test_metadata_records_parameters_and_verdict(self, path, capsys, tmp_path, monkeypatch):
        argv = json.loads(path.read_text())["argv"]
        name, defaults = argv[0], EXPERIMENTS[argv[0]][1]
        code = run(argv, tmp_path, monkeypatch)
        lines = capsys.readouterr().out.splitlines()
        meta, _ = _csv(tmp_path / f"{name}.csv")
        keys = list(meta)
        assert keys[0] == "experiment" and meta["experiment"] == name
        assert keys[1 : 1 + len(defaults)] == list(defaults)
        assert keys[-2:] == ["wall_seconds", "all_pass"]
        for token in argv[1:]:
            key, _, value = token.partition("=")
            assert meta[key] == value
        verdicts = [l.startswith("[PASS]") for l in lines if l.startswith(("[PASS] ", "[FAIL] "))]
        assert verdicts
        assert meta["all_pass"] == str(all(verdicts))
        assert code == (0 if all(verdicts) else 2)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        env = dict(os.environ, **{ENV_OUT: str(tmp_path)})
        proc = subprocess.run(
            [sys.executable, "-m", "sheetlab.cli", "--help"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "usage" in proc.stdout.lower()
