import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bivirus as bv
from bivirus import CASES, cli, equilibria, model, speclin
from bivirus.model import State


def write_config(path, doc):
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _csv_states(path):
    """The state columns of a trajectory CSV, one row per record."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]


def case_config(name, **extra):
    cs = CASES[name]
    doc = {
        "version": 1,
        "system": {
            "B1": [[1.6, 1.0], [1.0, 1.6]],
            "B2": cs.B2.tolist(),
        },
    }
    doc.update(extra)
    return doc


class TestAnalyze:
    def test_case2_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", case_config("case2"))
        assert cli.main(["analyze", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "R1 = 2.6000" in out
        assert "equilibria (4):" in out
        assert sum(ln.strip().startswith("coexistence ")
                   for ln in out.splitlines()) == 1
        assert "locally_stable" in out
        assert "degeneracy: none suspected" in out
        assert "inconclusive" in out

    def test_case1_degeneracy_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", case_config("case1"))
        assert cli.main(["analyze", "--config", cfg]) == 0
        assert "LINE OF EQUILIBRIA SUSPECTED" in capsys.readouterr().out

    def test_reducible_system_exits_2(self, tmp_path, capsys):
        doc = case_config("case2")
        doc["system"]["B1"] = [[1.0, 0.0], [0.0, 1.0]]
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["analyze", "--config", cfg]) == 2
        assert "irreducibility violated" in capsys.readouterr().err

    def test_malformed_json_line_anchored(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text('{\n "version": 1,\n "system": }\n', encoding="utf-8")
        assert cli.main(["analyze", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"{p}:3:" in err  # line-anchored message

    def test_missing_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"system": {}})
        assert cli.main(["analyze", "--config", cfg]) == 2

    def test_json_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", case_config("case3"))
        assert cli.main(["analyze", "--config", cfg, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 2
        kinds = [e["kind"] for e in doc["equilibria"]]
        assert kinds == ["healthy", "boundary_virus1", "boundary_virus2",
                         "coexistence"]
        assert doc["boundary_stability"]["virus1"]["verdict"] == "unstable"
        assert doc["line_degeneracy_suspected"] is False

    def test_report_written_to_out_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", case_config("case4"))
        out = tmp_path / "out"
        assert cli.main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "analysis.txt").read_text() == capsys.readouterr().out


class TestSimulate:
    def test_csv_format(self, tmp_path, capsys):
        doc = case_config("case2", initial_conditions=[
            {"x1": [0.5, 0.5], "x2": [0.2, 0.2]}],
            t_end=50.0)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "runs"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        raw = (out / "run_000.csv").read_bytes()
        assert b"\r" not in raw
        text = raw.decode()
        lines = text.strip().split("\n")
        assert lines[0] == "t,x1_1,x1_2,x2_1,x2_2"
        assert len(lines) >= 50
        # 17-significant-digit round trip
        val = lines[1].split(",")[1]
        assert float(val) == 0.5

    def test_constant_rows_at_equilibrium(self, tmp_path):
        doc = case_config("case2", initial_conditions=[
            {"x1": [0.0, 0.0], "x2": [0.0, 0.0]}], t_end=30.0)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "runs"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        states = _csv_states(out / "run_000.csv")
        assert np.abs(states).max() == 0.0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "run,file,label"
        assert summary[1].endswith("healthy")

    def test_eight_demo_starts_reach_boundaries(self, tmp_path):
        doc = case_config("case2", initial_conditions=[
            {"x1": [a, a], "x2": [b, b]}
            for a, b in bv.cases.DEMO_START_INTENSITIES])
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "runs"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        labels = [ln.split(",")[2] for ln in
                  (out / "summary.csv").read_text().splitlines()[1:]]
        assert set(labels) == {"boundary_virus1", "boundary_virus2"}
        # final rows sit on one of the two boundary equilibria
        sys2 = CASES["case2"].system()
        enum = bv.enumerate_equilibria(sys2)
        targets = [e.coordinates() for e in enum
                   if e.kind.startswith("boundary")]
        for i in range(8):
            states = _csv_states(out / f"run_{i:03d}.csv")
            d = min(np.max(np.abs(states[-1] - t)) for t in targets)
            assert d <= 1e-3

    def test_csv_round_trip_resimulation(self, tmp_path):
        doc = case_config("case2", initial_conditions=[
            {"x1": [0.5, 0.5], "x2": [0.2, 0.2]}])
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "runs"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        states = _csv_states(out / "run_000.csv")
        s_last = State.from_vector(states[-1])
        traj = bv.integrate(CASES["case2"].system(), s_last, 100.0)
        assert np.max(np.abs(traj.final_vector - states[-1])) <= 1e-6

    def test_infeasible_start_skipped(self, tmp_path, capsys):
        doc = case_config("case2", initial_conditions=[
            {"x1": [0.9, 0.9], "x2": [0.9, 0.9]},
            {"x1": [0.3, 0.3], "x2": [0.2, 0.2]}], t_end=30.0)
        cfg = write_config(tmp_path / "c.json", doc)
        out = tmp_path / "runs"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "skipped" in err
        assert not (out / "run_000.csv").exists()
        assert (out / "run_001.csv").exists()

    def test_all_skipped_exits_2(self, tmp_path, capsys):
        doc = case_config("case2", initial_conditions=[
            {"x1": [0.9, 0.9], "x2": [0.9, 0.9]}])
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "r")]) == 2
        # a horizon or record stride that cannot mean anything is refused,
        # naming the setting, before any run is labelled
        start = [{"x1": [0.4, 0.3], "x2": [0.2, 0.3]}]
        for extra, flags, name in [({}, ["--t-end", "inf"], "t_end"),
                                   ({"record_interval": 0}, [],
                                    "record_interval")]:
            cfg = write_config(tmp_path / "c.json", case_config(
                "case2", initial_conditions=start, **extra))
            capsys.readouterr()
            assert cli.main(["simulate", "--config", cfg, "--out",
                             str(tmp_path / "r2")] + flags) == 2
            assert name in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path):
        doc = case_config("case2", seed=3, initial_conditions=[
            {"x1": [0.4, 0.3], "x2": [0.2, 0.3]}], t_end=40.0)
        cfg = write_config(tmp_path / "c.json", doc)
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            assert cli.main(["simulate", "--config", cfg,
                             "--out", str(out)]) == 0
            outs.append((out / "run_000.csv").read_bytes())
        assert outs[0] == outs[1]


class TestSandwichCmd:
    def test_case4_agree(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", case_config("case4"))
        assert cli.main(["sandwich", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "AGREE" in out and "DISAGREE" not in out

    def test_case2_disagree_advisory(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", case_config("case2"))
        assert cli.main(["sandwich", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "DISAGREE" in out
        assert "unstable equilibrium" in out
        assert "W extents" in out

    def test_inconclusive_exits_3(self, tmp_path, capsys):
        # case1 has no certificate, so its corners need the stop rule
        cfg = write_config(tmp_path / "c.json", case_config("case1"))
        assert cli.main(["sandwich", "--config", cfg, "--t-end", "2"]) == 3
        assert "INCONCLUSIVE" in capsys.readouterr().out
        # settings that cannot mean anything are refused, naming the
        # setting, instead of ending inconclusive or in a false verdict
        for name, doc, flags, setting in [
                ("case1", {}, ["--t-end", "nan"], "t_end"),
                ("case2", {}, ["--t-end", "nan"], "t_end"),
                ("case2", {}, ["--tol", "-1"], "stop_tol"),
                ("case4", {"agree_tol": -1}, [], "agreement tolerance")]:
            cfg = write_config(tmp_path / "c.json",
                               case_config(name, **doc))
            assert cli.main(["sandwich", "--config", cfg] + flags) == 2
            assert setting in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", case_config("case3"))
        assert cli.main(["sandwich", "--config", cfg, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["agree"] is True
        assert doc["conclusive"] is True
        assert "jittered" not in doc
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["sandwich", "--config", cfg, "--seed", "1"])
        assert exit_info.value.code == 2


def _malformed(doc, where, value):
    if where == "initial_conditions":
        doc[where] = [value]
    elif where in doc["system"]:
        doc["system"][where] = value
    else:
        doc[where] = value
    return doc


class TestMalformedNumbers:
    """A config value that is not a number (or not a rectangular array of
    numbers) is a config error naming the file, not a traceback."""

    @pytest.mark.parametrize("command, where, value", [
        ("analyze", "B1", [[1.6, 1], [1, "x"]]),
        ("analyze", "B1", [[1.6, 1], [1]]),
        ("simulate", "initial_conditions",
         {"x1": [0.1, "a"], "x2": [0.2, 0.2]}),
        ("simulate", "initial_conditions",
         {"x1": [0.1, 0.2], "x2": [0.2]}),
        ("simulate", "initial_conditions",
         {"x1": [[0.1], [0.2]], "x2": [0.2, 0.2]}),
        ("sandwich", "t_end", "long"),
    ], ids=["B1_entry", "B1_ragged", "x1_entry", "x2_short", "x1_nested",
            "t_end"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, command, where,
                                     value):
        doc = _malformed(case_config("case2"), where, value)
        cfg = write_config(tmp_path / "bad.json", doc)
        argv = [command, "--config", cfg]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "runs")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and cfg in err


class TestFlags:
    def test_analyze_refuses_a_flag_it_does_not_read(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", case_config("case2"))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["analyze", "--config", cfg, "--tol", "1e-3"])
        assert exit_info.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestCasesCmd:
    def test_all_cells_pass(self, capsys):
        assert cli.main(["cases"]) == 0
        out = capsys.readouterr().out
        assert "ALL CELLS PASS" in out
        assert "FAIL" not in out

    def test_json_document(self, capsys):
        assert cli.main(["cases", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert [c["case"] for c in doc["cases"]] == \
            ["case1", "case2", "case3", "case4"]


class TestConstructLineCmd:
    def test_build_verify_reload(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "version": 1, "B1": [[1.6, 1.0], [1.0, 1.6]], "mu": 1.0})
        out = tmp_path / "line"
        assert cli.main(["construct-line", "--config", cfg,
                         "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "critical (bifurcation point)" in text
        doc = json.loads((out / "constructed_system.json").read_text())
        for r in doc["construction"]["alpha_residuals"].values():
            assert r <= 1e-10
        # the written config reloads and analyzes cleanly
        assert cli.main(["analyze", "--config",
                         str(out / "constructed_system.json")]) == 0
        out2 = capsys.readouterr().out
        assert "LINE OF EQUILIBRIA SUSPECTED" in out2

    @pytest.mark.parametrize("mu,phrase", [(0.9, "locally stable"),
                                           (1.1, "saddle")])
    def test_mu_verdicts(self, tmp_path, capsys, mu, phrase):
        cfg = write_config(tmp_path / "c.json", {
            "version": 1, "B1": [[1.6, 1.0], [1.0, 1.6]], "mu": mu})
        assert cli.main(["construct-line", "--config", cfg]) == 0
        assert f"(z, 0) endpoint verdict: {phrase}" in capsys.readouterr().out

    def test_subcritical_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {
            "version": 1, "B1": [[0.3, 0.1], [0.1, 0.3]]})
        assert cli.main(["construct-line", "--config", cfg]) == 2
        assert "subcritical" in capsys.readouterr().err


class TestDeterminism:
    def test_analyze_json_bit_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", case_config("case2"))
        cli.main(["analyze", "--config", cfg, "--json"])
        first = capsys.readouterr().out
        cli.main(["analyze", "--config", cfg, "--json"])
        second = capsys.readouterr().out
        assert first == second


class TestSpectralWorkOnce:
    """A report, like the analyze and simulate commands, validates its
    system once and computes each of R1, R2 and the two cross-infection
    radii once, and each endemic profile once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {}
        for mod, name in ((speclin, "spectral_radius"),
                          (speclin, "is_irreducible"),
                          (equilibria, "_endemic_profile"),
                          (model, "validate")):
            fn = getattr(mod, name)

            def counted(*args, _fn=fn, _name=name, **kw):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kw)
            monkeypatch.setattr(mod, name, counted)
        return counts

    EXPECTED = {"spectral_radius": 4, "is_irreducible": 6,
                "_endemic_profile": 2, "validate": 1}

    def test_build_analysis_report(self, calls):
        cli.build_analysis_report(CASES["case2"].system())
        assert calls == self.EXPECTED

    def test_run_case(self, calls):
        ok, _, _ = cli.run_case(CASES["case2"])
        assert ok
        assert calls == self.EXPECTED

    def test_analyze_command(self, calls, tmp_path):
        cfg = write_config(tmp_path / "c.json", case_config("case2"))
        assert cli.main(["analyze", "--config", cfg]) == 0
        assert calls == self.EXPECTED

    def test_simulate_command(self, calls, tmp_path):
        # no boundary verdicts: two spectral radii and two irreducibility
        # tests fewer than a report
        doc = case_config("case2", initial_conditions=[
            {"x1": [0.3, 0.3], "x2": [0.2, 0.2]}])
        cfg = write_config(tmp_path / "c.json", doc)
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path / "out")]) == 0
        assert calls == {"spectral_radius": 2, "is_irreducible": 4,
                         "_endemic_profile": 2, "validate": 1}


class TestWithoutScipy:
    """The library imports only numpy: importing it loads no scipy module,
    and the bundled case studies run where any scipy import fails."""

    def run_fresh(self, code):
        src = str(Path(bv.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)

    def test_import_loads_no_scipy(self):
        proc = self.run_fresh(
            "import sys, bivirus, bivirus.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cases_run_with_scipy_blocked(self):
        proc = self.run_fresh(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "import bivirus.cli\n"
            "sys.exit(bivirus.cli.main(['cases']))")
        assert proc.returncode == 0, proc.stderr
        assert "ALL CELLS PASS" in proc.stdout
