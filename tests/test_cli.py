import csv
import math

import numpy as np
import pytest

from convexauction import oracle
from convexauction.cli import (
    METHODS,
    ExperimentConfig,
    build_parser,
    load_mechanism,
    main,
    parse_distribution,
    run_experiment,
    save_mechanism,
)
from convexauction import heuristic_brm, make_categorical, symmetric_instance


class TestParseDistribution:
    def test_all_forms(self):
        space, dist = parse_distribution("categorical:3,10,0.8")
        np.testing.assert_allclose(space.values, [3, 10])
        space, dist = parse_distribution("uniform:5")
        assert space.size == 5
        space, dist = parse_distribution("binomial:4,0.5")
        assert space.size == 5

    def test_rejects_garbage(self):
        for bad in ("nope:1", "categorical:1", "uniform:x", ""):
            with pytest.raises(ValueError):
                parse_distribution(bad)


class TestExperiment:
    def test_rows_and_determinism(self, tmp_path):
        cfg = dict(
            distribution="categorical:3,10,0.8",
            n_min=1,
            n_max=3,
            methods=("heur_lb_cf", "heur_rrm_rev", "heur_brm_rev"),
            timing=False,
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_experiment(ExperimentConfig(output_path=str(out1), **cfg))
        run_experiment(ExperimentConfig(output_path=str(out2), **cfg))
        assert out1.read_bytes() == out2.read_bytes()
        # an existing, longer file is overwritten in place and cut to length
        out2.write_bytes(out1.read_bytes() * 3)
        run_experiment(ExperimentConfig(output_path=str(out2), **cfg))
        assert out1.read_bytes() == out2.read_bytes()

        with open(out1) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        # ordering claims hold row-wise per bidder count
        by = {(r["method"], r["n_bidders"]): float(r["value"]) for r in rows}
        for n in ("1", "2", "3"):
            lb = by[("heur_lb_cf", n)]
            rrm = by[("heur_rrm_rev", n)]
            brm = by[("heur_brm_rev", n)]
            assert lb <= rrm + 1e-9 <= brm + 2e-9
        assert all(r["verified"] == "true" for r in rows)
        assert all(r["runtime_ms"] == "" for r in rows)

    def test_empty_methods_gives_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        run_experiment(
            ExperimentConfig(
                distribution="uniform:3", n_min=1, n_max=2, methods=(),
                output_path=str(out), timing=False,
            )
        )
        assert out.read_text().strip() == "method,distribution,n_bidders,objective_kind,value,runtime_ms,verified"

    def test_oversized_exact_is_skipped_with_notice(self, tmp_path, capsys):
        out = tmp_path / "skip.csv"
        run_experiment(
            ExperimentConfig(
                distribution="uniform:5", n_min=3, n_max=3,
                methods=("exact_rrm", "heur_lb_cf"),
                output_path=str(out), timing=False,
            )
        )
        err = capsys.readouterr().err
        assert "skipping exact_rrm" in err
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["heur_lb_cf"]

    def test_exact_rows_solve_on_orbits(self, tmp_path):
        """categorical:3,10,0.8 at n = 5..8: 2n orbit cells, n * 2^n dense."""
        out = tmp_path / "exact.csv"
        methods = ("exact_rrm", "exact_brm", "heur_brm_cf")
        assert main(["experiment", "--dist", "categorical:3,10,0.8", "--bidders", "5..8",
                     "--methods", ",".join(methods), "--output", str(out), "--no-timing"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["n_bidders"]) for r in rows] == [
            (m, str(n)) for m in methods for n in range(5, 9)]
        assert all(r["verified"] == "true" for r in rows)
        value = {(r["method"], int(r["n_bidders"])): float(r["value"]) for r in rows}
        for n in range(5, 9):
            brm = value["exact_brm", n]
            # a certified gap is at most 1e-9 * max(1, bound) plus a 1e-12 relative margin
            gap = 2e-9 * max(1.0, brm)
            assert brm >= value["heur_brm_cf", n] - gap
            assert value["exact_rrm", n] <= brm + gap

    def test_exact_rows_up_to_32_bidders_all_certify(self, tmp_path, capsys):
        """categorical:3,10,0.8 at n = 1..32 (up to 64 orbit cells): every
        exact solve gives a verified row, and none is skipped."""
        out = tmp_path / "exact.csv"
        assert main(["experiment", "--dist", "categorical:3,10,0.8", "--bidders", "1..32",
                     "--methods", "exact_rrm,exact_brm", "--output", str(out),
                     "--no-timing"]) == 0
        printed = capsys.readouterr()
        assert "notice:" not in printed.out + printed.err
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64
        assert all(r["verified"] == "true" for r in rows)

    def test_bad_configs_exit_two_before_any_job(self, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        base = ["experiment", "--dist", "uniform:2", "--bidders", "1..1", "--output", str(out)]
        assert main(base + ["--methods", "exact_rrm", "--epsilon", "0.3"]) == 2
        assert main(base + ["--methods", "heur_lb_cf", "--oracle-grid", "0.3"]) == 2
        assert not out.exists()
        solve = ["solve", "--dist", "uniform:2", "--n", "2"]
        assert main(solve + ["--method", "heur_lb_cf", "--oracle-grid", "0.3"]) == 2
        assert main(solve + ["--method", "exact_rrm", "--epsilon", "0.3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4
        for line, name in zip(err, ("epsilon", "grid", "grid", "epsilon")):
            assert line.startswith("error: ") and name in line, line

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(distribution="uniform:3", n_min=2, n_max=1, methods=())
        with pytest.raises(ValueError):
            ExperimentConfig(distribution="uniform:3", n_min=1, n_max=1, methods=("zzz",))

    def test_parallel_run_is_byte_identical(self, tmp_path, monkeypatch):
        cfg = dict(
            distribution="categorical:3,10,0.8",
            n_min=1,
            n_max=3,
            methods=("heur_lb_cf", "heur_brm_rev"),
            timing=False,
        )
        monkeypatch.setenv("CONVEX_AUCTION_THREADS", "1")
        serial = tmp_path / "serial.csv"
        run_experiment(ExperimentConfig(output_path=str(serial), **cfg))
        monkeypatch.setenv("CONVEX_AUCTION_THREADS", "3")
        threaded = tmp_path / "threaded.csv"
        run_experiment(ExperimentConfig(output_path=str(threaded), **cfg))
        assert serial.read_bytes() == threaded.read_bytes()

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        """At eps = 0.05 the greedy pseudo-surplus rule on uniform:5, n = 20 is
        not monotone in own type; the clamp's warning says why it fails."""
        out = tmp_path / "warn.csv"
        assert main(["experiment", "--dist", "uniform:5", "--bidders", "20..20",
                     "--methods", "pseudo_surplus_greedy,heur_lb_cf", "--epsilon", "0.05",
                     "--output", str(out), "--no-timing"]) == 0
        with open(out) as fh:
            verified = {r["method"]: r["verified"] for r in csv.DictReader(fh)}
        assert verified == {"pseudo_surplus_greedy": "false", "heur_lb_cf": "true"}
        warnings = [line for line in capsys.readouterr().err.splitlines()
                    if line.startswith("warning: ")]
        assert len(warnings) == 1
        assert warnings[0].startswith(
            "warning: pseudo_surplus_greedy n=20: allocation is not monotone; payments clamped")

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text(
            "# experiment defaults\n"
            "dist=categorical:3,10,0.8\n"
            "bidders=1..2\n"
            "methods=heur_lb_cf\n"
            "no_timing=true\n"
        )
        out_default = tmp_path / "from_file.csv"
        assert main(["experiment", "--config", str(config),
                     "--output", str(out_default)]) == 0
        with open(out_default) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["heur_lb_cf", "heur_lb_cf"]

        # flags win over the file
        out_override = tmp_path / "override.csv"
        assert main(["experiment", "--config", str(config), "--bidders", "1..1",
                     "--methods", "heur_brm_rev", "--output", str(out_override)]) == 0
        with open(out_override) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["heur_brm_rev"]

    def test_registry_serves_both_commands_and_aliases(self, tmp_path, capsys):
        out = tmp_path / "names.csv"
        run_experiment(ExperimentConfig(
            distribution="uniform:5", n_min=3, n_max=3,
            methods=("heur_lb_cf", "heur_rrm_cf", "heur_brm_cf", "heur_brm_rev",
                     "surplus", "ex_ante"),
            output_path=str(out), timing=False,
        ))
        with open(out) as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        for alias, name in (("heur_rrm_cf", "heur_lb_cf"), ("heur_brm_rev", "heur_brm_cf")):
            assert rows[alias]["value"] == rows[name]["value"]
        assert rows["ex_ante"]["objective_kind"] == "ex_ante_relaxation"
        assert all(r["verified"] == "true" for r in rows.values())
        # an experiment name solves and saves a dense mechanism
        path = tmp_path / "lb.json"
        assert main(["solve", "--dist", "uniform:5", "--n", "3", "--method", "heur_lb_cf",
                     "--output", str(path)]) == 0
        objective = float(capsys.readouterr().out.split("objective=")[1].split()[0])
        assert math.isclose(objective, float(rows["heur_lb_cf"]["value"]), rel_tol=1e-12)
        assert main(["check", str(path)]) == 0
        capsys.readouterr()

    def test_solve_prints_the_row_experiment_writes(self, tmp_path, capsys):
        """Every registry name prints the same kind and value from ``solve``
        (dense table) as from ``experiment`` (orbits); exact optima agree
        within the certified gap ``solve`` prints."""
        out = tmp_path / "all.csv"
        assert main(["experiment", "--dist", "categorical:3,10,0.8", "--bidders", "3..3",
                     "--methods", ",".join(METHODS), "--output", str(out), "--no-timing"]) == 0
        with open(out) as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        assert rows.keys() == METHODS.keys()
        capsys.readouterr()
        for name, row in rows.items():
            assert main(["solve", "--dist", "categorical:3,10,0.8", "--n", "3",
                         "--method", name]) == 0
            printed = dict(f.split("=", 1) for f in capsys.readouterr().out.split() if "=" in f)
            assert printed["kind"] == row["objective_kind"], name
            assert ("grid_slack" in printed) == name.startswith("exact_"), name
            value, slack = float(printed["objective"]), float(printed.get("grid_slack", 0.0))
            assert abs(value - float(row["value"])) <= slack + 1e-12 * max(1.0, value), name
        assert rows["heur_rrm_rev"]["objective_kind"] == "revenue_robust"

    def test_each_row_is_verified_once(self, tmp_path, monkeypatch):
        calls = []
        real = oracle.check

        def counted(tables, *args, **kwargs):
            calls.append(tables.provenance)
            return real(tables, *args, **kwargs)

        monkeypatch.setattr(oracle, "check", counted)
        out = tmp_path / "exact.csv"
        assert main(["experiment", "--dist", "categorical:3,10,0.8", "--bidders", "2..4",
                     "--methods", "exact_rrm,exact_brm", "--output", str(out),
                     "--no-timing"]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6 and all(r["verified"] == "true" for r in rows)
        assert len(calls) == 6

    SHARED = ("heur_lb_cf", "heur_rrm_cf", "heur_rrm_rev", "heur_brm_cf", "heur_brm_rev")

    @pytest.mark.parametrize("threads", ["1", "3"])
    def test_rows_sharing_a_pipeline_equal_single_method_runs(self, tmp_path, monkeypatch,
                                                              threads):
        """Aliases and ``heur_rrm_rev`` reuse one run per n; each row still
        reads exactly as when its method runs alone."""
        monkeypatch.setenv("CONVEX_AUCTION_THREADS", threads)

        def rows(methods, name):
            out = tmp_path / name
            assert main(["experiment", "--dist", "binomial:4,0.3", "--bidders", "1..4",
                         "--methods", ",".join(methods), "--output", str(out),
                         "--no-timing"]) == 0
            return out.read_text().splitlines()[1:]

        together = rows(self.SHARED, "together.csv")
        assert together == [row for m in self.SHARED for row in rows((m,), f"{m}.csv")]
        assert len(together) == 20

    def test_each_distinct_pipeline_is_verified_once_per_n(self, tmp_path, monkeypatch):
        calls = []
        real = oracle.check

        def counted(tables, *args, **kwargs):
            calls.append((tables.provenance, tables.space.instance.n))
            return real(tables, *args, **kwargs)

        monkeypatch.setattr(oracle, "check", counted)
        out = tmp_path / "shared.csv"
        assert main(["experiment", "--dist", "uniform:3", "--bidders", "1..3",
                     "--methods", ",".join(self.SHARED), "--output", str(out),
                     "--no-timing"]) == 0
        assert sorted(calls) == [(p, n) for p in ("heuristic_brm[closed_form]",
                                                  "heuristic_lb_rrm[closed_form]")
                                 for n in (1, 2, 3)]

    @pytest.mark.parametrize("line, named", [
        ("epsilonn=0.3", "'epsilonn'"),
        ("no_timing=ture", "'ture'"),
        ("no_timing=", "''"),
    ])
    def test_config_file_typos_exit_two(self, tmp_path, capsys, line, named):
        out = tmp_path / "typo.csv"
        config = tmp_path / "typo.cfg"
        config.write_text(f"dist=uniform:2\nbidders=1..1\nmethods=heur_lb_cf\n"
                          f"output={out}\n{line}\n")
        assert main(["experiment", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, err
        assert not out.exists()

    @pytest.mark.parametrize("line, named", [
        ("bidders=1..x", "'1..x'"),
        ("bidders=two", "'two'"),
        ("epsilon=abc", "'abc'"),
        ("oracle_grid=0.x", "'0.x'"),
    ])
    def test_bad_config_numbers_exit_two_naming_field_and_value(
        self, tmp_path, capsys, line, named
    ):
        out = tmp_path / "numbers.csv"
        config = tmp_path / "numbers.cfg"
        config.write_text(f"dist=uniform:2\nmethods=heur_lb_cf\noutput={out}\n"
                          + ("" if line.startswith("bidders") else "bidders=1..1\n")
                          + f"{line}\n")
        assert main(["experiment", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        key = line.split("=")[0]
        assert err.startswith(f"error: {key} must be ") and named in err, err
        assert not out.exists()

    def test_bad_bidders_flag_exits_two_naming_it(self, tmp_path, capsys):
        out = tmp_path / "flag.csv"
        assert main(["experiment", "--dist", "uniform:2", "--bidders", "2..y",
                     "--methods", "heur_lb_cf", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bidders must be ") and "'2..y'" in err, err
        assert not out.exists()

    def test_repeated_config_key_exits_two_naming_it(self, tmp_path, capsys):
        out = tmp_path / "twice.csv"
        config = tmp_path / "twice.cfg"
        config.write_text(f"dist=uniform:2\nbidders=1..1\nmethods=heur_lb_cf\n"
                          f"output={out}\ndist=uniform:3\n")
        assert main(["experiment", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'dist'" in err and "twice" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("word, timed", [
        ("true", False), ("YES", False), ("1", False),
        ("false", True), ("no", True), ("0", True),
    ])
    def test_config_no_timing_words(self, tmp_path, capsys, word, timed):
        out = tmp_path / "words.csv"
        config = tmp_path / "words.cfg"
        config.write_text(f"dist=uniform:2\nbidders=1..1\nmethods=heur_lb_cf\n"
                          f"output={out}\nno_timing={word}\n")
        assert main(["experiment", "--config", str(config)]) == 0
        with open(out) as fh:
            (row,) = csv.DictReader(fh)
        assert bool(row["runtime_ms"]) == timed
        capsys.readouterr()

    def test_experiment_missing_required_keys(self, capsys):
        assert main(["experiment", "--dist", "uniform:3"]) == 2
        capsys.readouterr()


class TestMechanismFiles:
    def test_round_trip_exact(self, tmp_path):
        space, dist = make_categorical(3, 10, 0.8)
        inst = symmetric_instance(space, dist, 2)
        mech, _ = heuristic_brm(inst, "closed_form")
        path = tmp_path / "mech.json"
        save_mechanism(str(path), inst, mech)
        inst2, mech2 = load_mechanism(str(path))
        for i in range(2):
            assert np.array_equal(inst2.values(i), inst.values(i))
            assert np.array_equal(inst2.pmf(i), inst.pmf(i))
        assert np.array_equal(mech2.allocation.table, mech.allocation.table)
        assert mech2.robust_payments is None
        for a, b in zip(mech2.interim_allocation.tables, mech.interim_allocation.tables):
            assert np.array_equal(a, b)
        for a, b in zip(mech2.interim_payments.tables, mech.interim_payments.tables):
            assert np.array_equal(a, b)
        assert mech2.provenance == mech.provenance
        assert mech2.perceived == mech.perceived

    def test_save_load_save_identical_bytes(self, tmp_path):
        space, dist = make_categorical(0, 100, 0.5)
        inst = symmetric_instance(space, dist, 2)
        mech, _ = heuristic_brm(inst, "closed_form")
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_mechanism(str(p1), inst, mech)
        inst2, mech2 = load_mechanism(str(p1))
        save_mechanism(str(p2), inst2, mech2)
        assert p1.read_bytes() == p2.read_bytes()
        p2.write_bytes(b"x" * (3 * p1.stat().st_size))
        save_mechanism(str(p2), inst2, mech2)
        assert p1.read_bytes() == p2.read_bytes()


    def test_indented_layout_still_loads(self, tmp_path):
        """Files written with ``json.dump(..., indent=1)`` load to the same
        mechanism as the compact layout ``save_mechanism`` writes."""
        import json

        space, dist = make_categorical(3, 10, 0.8)
        inst = symmetric_instance(space, dist, 2)
        mech, _ = heuristic_brm(inst, "closed_form")
        compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
        save_mechanism(str(compact), inst, mech)
        assert compact.read_text().count("\n") == 1
        doc = json.loads(compact.read_text())
        with open(indented, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        (i1, m1), (i2, m2) = load_mechanism(str(compact)), load_mechanism(str(indented))
        for i in range(inst.n):
            assert np.array_equal(i1.values(i), i2.values(i))
            assert np.array_equal(i1.pmf(i), i2.pmf(i))
        assert np.array_equal(m1.allocation.table, m2.allocation.table)
        for a, b in zip(m1.interim_allocation.tables, m2.interim_allocation.tables):
            assert np.array_equal(a, b)
        for a, b in zip(m1.interim_payments.tables, m2.interim_payments.tables):
            assert np.array_equal(a, b)
        assert (m1.provenance, m1.perceived) == (m2.provenance, m2.perceived)


class TestCommands:
    def test_solve_check_roundtrip(self, tmp_path, capsys):
        mech_path = tmp_path / "m.json"
        code = main([
            "solve", "--dist", "categorical:3,10,0.8", "--n", "2",
            "--method", "heur_brm_cf", "--output", str(mech_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "revenue=" in out
        inst, mech = load_mechanism(str(mech_path))
        lib_mech, lib_report = heuristic_brm(inst, "closed_form")
        printed = float([l for l in out.splitlines() if l.startswith("revenue=")][0].split("=")[1])
        assert math.isclose(printed, lib_report.revenue, rel_tol=1e-12)

        assert main(["check", str(mech_path), "--constraints", "bic,bir,xp"]) == 0
        captured = capsys.readouterr().out
        assert captured.count("pass") == 3

    @pytest.mark.parametrize("method, golden", [
        ("exact_rrm", 5 * (1 + math.sqrt(2) / 2)),
        ("exact_brm", 5 * math.sqrt(3)),
    ])
    def test_solve_prints_certified_gap(self, capsys, method, golden):
        """On the {0, 100} pair the printed revenue plus ``grid_slack`` bounds
        the known optimum from above."""
        assert main(["solve", "--dist", "categorical:0,100,0.5", "--n", "2",
                     "--method", method]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("revenue=") and lines[3].startswith("grid_slack=")
        revenue, slack = (float(line.split("=")[1]) for line in lines[2:4])
        assert 0.0 <= slack <= 2e-9 * golden
        assert revenue <= golden * (1 + 1e-12) <= revenue + slack + 1e-12 * golden

    @pytest.mark.parametrize("method, exact", [("exact_brm", True), ("heur_lb_cf", False)])
    def test_solve_prints_newton_steps_of_exact_methods(self, capsys, method, exact):
        assert main(["solve", "--dist", "categorical:3,10,0.8", "--n", "2",
                     "--method", method]) == 0
        lines = capsys.readouterr().out.splitlines()
        steps = [line for line in lines if line.startswith("newton_steps=")]
        if exact:
            assert lines[3].startswith("grid_slack=") and lines[4] == steps[0]
            assert 0 < int(steps[0].split("=")[1]) <= oracle._MAX_NEWTON
        else:
            assert steps == []

    def test_check_exit_one_on_violation(self, tmp_path, capsys):
        import json

        mech_path = tmp_path / "m.json"
        main([
            "solve", "--dist", "categorical:3,10,0.8", "--n", "2",
            "--method", "heur_rrm_cf", "--output", str(mech_path),
        ])
        doc = json.loads(mech_path.read_text())
        doc["allocation"] = [[1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(mech_path), "--constraints", "xp"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_check_exit_one_on_non_finite_violation(self, tmp_path, capsys):
        import json

        mech_path = tmp_path / "m.json"
        main([
            "solve", "--dist", "categorical:3,10,0.8", "--n", "2",
            "--method", "heur_rrm_cf", "--output", str(mech_path),
        ])
        doc = json.loads(mech_path.read_text())
        # finite payments whose squares overflow: IC's worst violation is NaN
        doc["robust_payments"] = [[1e200] * 4, [1e200] * 4]
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(mech_path), "--constraints", "ic"]) == 1
        assert "ic: FAIL (worst violation nan)" in capsys.readouterr().out

    def test_check_rejects_nan_mechanism_file(self, tmp_path, capsys):
        import json

        mech_path = tmp_path / "m.json"
        main([
            "solve", "--dist", "categorical:3,10,0.8", "--n", "2",
            "--method", "heur_rrm_cf", "--output", str(mech_path),
        ])
        doc = json.loads(mech_path.read_text())
        doc["robust_payments"] = [[float("nan")] * 4, [float("nan")] * 4]
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(mech_path)]) == 2
        assert "finite" in capsys.readouterr().err

    @staticmethod
    def _solved_file(tmp_path, method):
        import json

        mech_path = tmp_path / "m.json"
        assert main(["solve", "--dist", "categorical:3,10,0.8", "--n", "2",
                     "--method", method, "--output", str(mech_path)]) == 0
        return mech_path, json.loads(mech_path.read_text())

    @pytest.mark.parametrize("field", ["perceived", "provenance", "allocation", "instance"])
    def test_missing_field_exits_two_naming_it(self, tmp_path, capsys, field):
        import json

        mech_path, doc = self._solved_file(tmp_path, "heur_rrm_cf")
        del doc[field]
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        for command in (["check", str(mech_path)],
                        ["discretize", str(mech_path), "--delta", "0.05"]):
            assert main(command) == 2
            assert f"no {field!r} field" in capsys.readouterr().err

    def test_missing_bidder_field_exits_two(self, tmp_path, capsys):
        import json

        mech_path, doc = self._solved_file(tmp_path, "heur_rrm_cf")
        del doc["instance"]["bidders"][1]["pmf"]
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(mech_path)]) == 2
        assert "no 'pmf' field" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["interim_allocation", "interim_payments"])
    def test_interim_table_of_wrong_length_exits_two(self, tmp_path, capsys, field):
        import json

        mech_path, doc = self._solved_file(tmp_path, "heur_brm_cf")
        assert main(["check", str(mech_path)]) == 0
        doc[field][1] = doc[field][1][:1]
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(mech_path)]) == 2
        assert f"{field!r} needs one entry per type" in capsys.readouterr().err
        with pytest.raises(ValueError, match="one entry per type"):
            load_mechanism(str(mech_path))

    @pytest.mark.parametrize("field", ["allocation", "robust_payments"])
    @pytest.mark.parametrize("reshape", [
        lambda rows: [rows[0][:3], rows[1]],  # one row truncated
        lambda rows: [rows[0] + rows[1]],  # one flat row of every entry
        lambda rows: [rows[0][:2], rows[0][2:], rows[1][:2], rows[1][2:]],  # split per type
    ], ids=["truncated", "flattened", "split"])
    def test_expost_table_of_wrong_shape_exits_two(self, tmp_path, capsys, field, reshape):
        import json

        mech_path, doc = self._solved_file(tmp_path, "heur_rrm_cf")
        doc[field] = reshape(doc[field])
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(mech_path)]) == 2
        assert f"{field!r} needs 2 rows of 4 entries" in capsys.readouterr().err
        with pytest.raises(ValueError, match="rows of 4 entries"):
            load_mechanism(str(mech_path))

    @pytest.mark.parametrize("edit, named", [
        (lambda doc: doc["instance"]["bidders"][0].update(values={"a": 1}), "'values'"),
        (lambda doc: doc["instance"].update(bidders=5), "'bidders'"),
        (lambda doc: doc.update(allocation=[[{"x": 0.5}] * 4] * 2), "'allocation'"),
        (lambda doc: doc.update(provenance=7), "'provenance'"),
    ], ids=["values-object", "bidders-number", "table-of-objects", "provenance-number"])
    def test_malformed_field_exits_two_naming_it(self, tmp_path, capsys, edit, named):
        """A field of the wrong JSON type is a malformed file (exit 2), not a
        failed verification (exit 1) and not a traceback."""
        import json

        mech_path, doc = self._solved_file(tmp_path, "heur_rrm_cf")
        edit(doc)
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        for command in (["check", str(mech_path)],
                        ["discretize", str(mech_path), "--delta", "0.05"]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err, err
        with pytest.raises(ValueError, match=named):
            load_mechanism(str(mech_path))

    def test_non_integer_thread_count_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CONVEX_AUCTION_THREADS", "abc")
        out = tmp_path / "exp.csv"
        assert main(["experiment", "--dist", "uniform:2", "--bidders", "1..2",
                     "--methods", "heur_lb_cf", "--output", str(out)]) == 2
        assert "CONVEX_AUCTION_THREADS" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_errors_exit_two(self, capsys):
        assert main(["solve", "--dist", "categorical:3,10,0.8", "--n", "2",
                     "--method", "not_a_method"]) == 2
        assert main(["nonsense"]) == 2
        assert main(["solve", "--dist", "bogus:1", "--n", "1", "--method", "surplus"]) == 2
        capsys.readouterr()

    def test_parser_is_built_once(self, capsys):
        assert build_parser() is build_parser()
        assert main(["--help"]) == 0
        assert main(["experiment", "--help"]) == 0
        assert "--no-timing" in capsys.readouterr().out

    def test_export_stdout(self, capsys):
        assert main(["export", "--dist", "uniform:2", "--n", "2",
                     "--program", "rrm_xp"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OBJECTIVE maximize: ")

    def test_discretize_command(self, tmp_path, capsys):
        mech_path = tmp_path / "m.json"
        main([
            "solve", "--dist", "categorical:3,10,0.8", "--n", "2",
            "--method", "heur_rrm_cf", "--output", str(mech_path),
        ])
        assert main(["discretize", str(mech_path), "--delta", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "revenue_gap=" in out

    def test_experiment_command_with_exact(self, tmp_path):
        out = tmp_path / "exp.csv"
        code = main([
            "experiment", "--dist", "categorical:0,100,0.5", "--bidders", "2..2",
            "--methods", "exact_rrm,exact_brm", "--oracle-grid", "0.01",
            "--output", str(out), "--no-timing",
        ])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        values = {r["method"]: float(r["value"]) for r in rows}
        assert math.isclose(values["exact_rrm"], 5 * (1 + math.sqrt(2) / 2), abs_tol=0.02)
        assert math.isclose(values["exact_brm"], 5 * math.sqrt(3), abs_tol=0.02)
