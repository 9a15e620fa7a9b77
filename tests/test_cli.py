import csv
import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexauction import cli, oracle
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
from convexauction import heuristic_brm, make_categorical, make_uniform, symmetric_instance
from convexauction.core import (
    AuctionInstance,
    ExPostAllocation,
    InterimAllocation,
    InterimPaymentRule,
    RobustPaymentRule,
)
from convexauction.mechanisms import Mechanism, Tables
from convexauction.spaces import DenseSpace
from conftest import raised_heuristic_brm

# values a table's text must keep bit for bit: a signed zero, the smallest
# subnormal, a float whose repr switches to exponent form, one that does not
# round-trip through fewer than 17 digits, and 1e16, beyond every allocation
SPECIAL = (-0.0, 0.0, 5e-324, 1e-5, 0.1 + 0.2, 1.0, 1e16)


def _json_dumps_text(instance, mech) -> bytes:
    """The mechanism file as one ``json.dumps`` of the whole document writes it."""
    import json

    tables = Tables.of(instance, mech)
    rows = lambda t: None if t is None else [row.ravel().tolist() for row in t]  # noqa: E731
    bidders = [{"values": instance.values(i).tolist(), "pmf": instance.pmf(i).tolist()}
               for i in range(instance.n)]
    doc = {
        "format": "convexauction-mechanism/1",
        "instance": {"bidders": bidders},
        "provenance": tables.provenance,
        "perceived": tables.perceived,
        "allocation": rows(tables.x),
        "robust_payments": rows(tables.p),
        "interim_allocation": rows(tables.xhat),
        "interim_payments": rows(tables.h),
    }
    return (json.dumps(doc) + "\n").encode()


@st.composite
def drawn_mechanisms(draw):
    """(instance, mechanism) of 1-3 bidders with 1-3 types, ex-post only,
    interim only or both, whose tables draw from a few values, ``SPECIAL``
    among them, so that most entries repeat."""
    shape = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    instance = AuctionInstance(tuple(make_uniform(k) for k in shape))
    extra = draw(st.lists(st.floats(0.0, 1e16, allow_subnormal=True), max_size=4))
    pool = np.array(SPECIAL + tuple(extra))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def table(size, at_most=np.inf):
        return rng.choice(pool[pool <= at_most], size)

    cells = (len(shape), *shape)
    kind = draw(st.sampled_from(["ex_post", "interim", "mixed"]))
    x = None if kind == "interim" else ExPostAllocation(table(cells, 1.0))
    p = RobustPaymentRule(table(cells)) if kind == "ex_post" else None
    xhat, h = ((None, None) if kind == "ex_post" else
               (InterimAllocation(tuple(table(k) for k in shape)),
                InterimPaymentRule(tuple(table(k) for k in shape))))
    mech = Mechanism(x, p, xhat, h, provenance=draw(st.text(max_size=8)),
                     perceived=draw(st.sampled_from(["quadratic", "linear"])))
    return instance, mech


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

    def test_exact_solve_over_the_step_limit_is_skipped_with_notice(
            self, tmp_path, capsys, monkeypatch):
        """An exact solve refused at the Newton step limit is a notice and a
        skipped row, as an oversized one is; the other rows stay."""
        monkeypatch.setattr(oracle, "_MAX_NEWTON", 3)
        out = tmp_path / "limit.csv"
        run_experiment(ExperimentConfig(
            distribution="categorical:3,10,0.8", n_min=2, n_max=2,
            methods=("exact_rrm", "exact_brm", "heur_lb_cf"), output_path=str(out), timing=False))
        err = capsys.readouterr().err
        for method in ("exact_rrm", "exact_brm"):
            assert (f"notice: skipping {method} for n=2: interior-point method did not certify "
                    "a gap of 1e-09 within 3 Newton steps") in err
        with open(out) as fh:
            assert [r["method"] for r in csv.DictReader(fh)] == ["heur_lb_cf"]

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
        with pytest.raises(ValueError, match=r"with 1 <= N <= M, got 2\.\.1$"):
            ExperimentConfig(distribution="uniform:3", n_min=2, n_max=1, methods=())
        with pytest.raises(ValueError):
            ExperimentConfig(distribution="uniform:3", n_min=1, n_max=1, methods=("zzz",))

    def test_one_profile_space_is_held_at_a_time(self, tmp_path, monkeypatch):
        """Each bidder count's orbit space is dead before the next is built."""
        built = []
        real = cli.OrbitSpace

        def tracked(instance):
            gc.collect()
            assert [ref() for ref in built] == [None] * len(built)
            space = real(instance)
            built.append(weakref.ref(space))
            return space

        monkeypatch.setattr(cli, "OrbitSpace", tracked)
        out = tmp_path / "serial.csv"
        run_experiment(ExperimentConfig(
            distribution="categorical:3,10,0.8", n_min=1, n_max=4,
            methods=("heur_lb_cf", "heur_brm_rev", "surplus"), output_path=str(out),
            timing=False))
        assert len(built) == 4
        assert len(out.read_text().splitlines()) == 1 + 3 * 4

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

    def test_rows_sharing_a_pipeline_equal_single_method_runs(self, tmp_path):
        """Aliases and ``heur_rrm_rev`` reuse one run per n; each row still
        reads exactly as when its method runs alone."""

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
        ("epsilon 0.3", "bad config line 'epsilon 0.3'"),
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

    @pytest.mark.parametrize("source", ["file", "flag"])
    @pytest.mark.parametrize("line, named", [
        ("bidders=1..x", "'1..x'"),
        ("bidders=two", "'two'"),
        ("bidders=3..", "'3..'"),
        ("bidders=0..3", "got 0..3"),
        ("bidders=3..1", "got 3..1"),
        ("epsilon=abc", "'abc'"),
        ("oracle_grid=0.x", "'0.x'"),
    ])
    def test_bad_config_numbers_exit_two_naming_field_and_value(
        self, tmp_path, capsys, line, named, source
    ):
        """A bad value reads the same whether it came from the file or a flag."""
        out = tmp_path / "numbers.csv"
        key, value = line.split("=")
        settings = {"dist": "uniform:2", "methods": "heur_lb_cf", "output": str(out),
                    "bidders": "1..1", key: value}
        config = tmp_path / "numbers.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
        argv = ["--config", str(config)] if source == "file" else flags
        assert main(["experiment", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and named in err, err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--epsilon", "abc"), ("--oracle-grid", "0.x")])
    def test_bad_solve_number_exits_two_naming_it(self, capsys, flag, value):
        assert main(["solve", "--dist", "uniform:2", "--n", "2", "--method", "heur_lb_cf",
                     flag, value]) == 2
        key = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == f"error: {key} must be a number, got {value!r}\n"

    def test_flags_and_config_file_write_the_same_csv(self, tmp_path):
        settings = {"dist": "categorical:3,10,0.8", "bidders": "1..4", "epsilon": "0.01",
                    "methods": "heur_lb_cf,heur_lb_greedy,exact_rrm", "oracle_grid": "0.01"}
        config = tmp_path / "same.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in settings.items()) + "no_timing=yes\n")
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(["experiment", "--config", str(config), "--output", str(from_file)]) == 0
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in settings.items()]
        assert main(["experiment", *flags, "--no-timing", "--output", str(from_flags)]) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()
        assert len(from_file.read_text().splitlines()) == 1 + 3 * 4

    @pytest.mark.parametrize("bidders", ["2..y", "3.."])
    def test_bad_bidders_flag_exits_two_naming_it(self, tmp_path, capsys, bidders):
        out = tmp_path / "flag.csv"
        assert main(["experiment", "--dist", "uniform:2", "--bidders", bidders,
                     "--methods", "heur_lb_cf", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bidders must be ") and repr(bidders) in err, err
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

    def test_save_refuses_tables_of_another_instance(self, tmp_path):
        """A file that its own loader would refuse is never written."""
        mech, _ = heuristic_brm(symmetric_instance(*make_uniform(3), 2), "closed_form")
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="allocation table does not match instance"):
            save_mechanism(str(path), symmetric_instance(*make_uniform(2), 2), mech)
        assert not path.exists()

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

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(drawn_mechanisms())
    def test_file_is_the_json_dumps_of_the_document(self, drawn):
        """Each distinct float is formatted once, yet the bytes are those of
        ``json.dumps``, and loading gives back every entry bit for bit."""
        import tempfile

        instance, mech = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/m.json"
            save_mechanism(path, instance, mech)
            with open(path, "rb") as fh:
                assert fh.read() == _json_dumps_text(instance, mech)
            _, loaded = load_mechanism(path)
        for a, b in ((mech.allocation, loaded.allocation),
                     (mech.robust_payments, loaded.robust_payments)):
            assert (a is None) == (b is None)
            if a is not None:
                assert np.array_equal(a.table.view(np.int64), b.table.view(np.int64))
        for a, b in ((mech.interim_allocation, loaded.interim_allocation),
                     (mech.interim_payments, loaded.interim_payments)):
            assert (a is None) == (b is None)
            if a is not None:
                for u, v in zip(a.tables, b.tables):
                    assert np.array_equal(u.view(np.int64), v.view(np.int64))

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method_writes_the_json_dumps_of_its_file(self, tmp_path, method):
        instance = symmetric_instance(*make_categorical(3, 10, 0.8), 3)
        tables, _ = METHODS[method](DenseSpace(instance), cli.GreedyConfig(), cli.OracleConfig())
        mech = tables.mechanism()
        save_mechanism(str(tmp_path / "m.json"), instance, mech)
        assert (tmp_path / "m.json").read_bytes() == _json_dumps_text(instance, mech)

    def test_text_true_outside_a_table_still_loads(self, tmp_path):
        """The boolean walk runs when the text holds a ``true`` literal, and a
        string holding one is not a boolean."""
        inst = symmetric_instance(*make_categorical(3, 10, 0.8), 2)
        mech, _ = heuristic_brm(inst, "closed_form")
        path = tmp_path / "m.json"
        save_mechanism(str(path), inst, Mechanism(
            mech.allocation, interim_allocation=mech.interim_allocation,
            interim_payments=mech.interim_payments, provenance="true or false"))
        _, loaded = load_mechanism(str(path))
        assert loaded.provenance == "true or false"
        assert np.array_equal(loaded.allocation.table, mech.allocation.table)

    @pytest.mark.parametrize("literal", ["true", "false"])
    def test_boolean_in_a_table_is_refused_with_its_field(self, tmp_path, literal):
        inst = symmetric_instance(*make_categorical(3, 10, 0.8), 2)
        mech, _ = heuristic_brm(inst, "closed_form")
        path = tmp_path / "m.json"
        save_mechanism(str(path), inst, mech)
        text = path.read_text()
        head, sep, rest = text.partition('"interim_payments": [[')
        path.write_text(head + sep + literal + rest[rest.index(","):])
        with pytest.raises(ValueError) as err:
            load_mechanism(str(path))
        assert str(err.value) == (f"mechanism file {path}: 'interim_payments' needs one "
                                  "entry per type, [2, 2] per bidder, each a number")

    def test_one_loaded_instance_builds_its_dense_layout_once(self, tmp_path, monkeypatch):
        """``load_mechanism``, ``verify``, ``bound_report`` and
        ``discretization_gap`` share the instance's one dense layout."""
        from convexauction import discretization, mechanisms, spaces

        inst = symmetric_instance(*make_uniform(3), 3)
        mech, _ = mechanisms.heuristic_lb_rrm(inst, "closed_form")
        path = str(tmp_path / "m.json")
        save_mechanism(path, inst, mech)
        built, real = [], spaces.ProfileSpace.__init__

        def counted(self, *args):
            built.append(self)
            real(self, *args)

        monkeypatch.setattr(spaces.ProfileSpace, "__init__", counted)
        loaded, mech = load_mechanism(path)
        index = DenseSpace(loaded).index
        assert oracle.verify(loaded, mech)["ic"].passed
        assert mechanisms.bound_report(loaded, mech).ok
        discretization.discretization_gap(loaded, mech.allocation, 0.05)
        assert len(built) == 1 and built[0].instance is loaded
        assert Tables.of(loaded, mech).space.index is index


def _child(*args: str) -> subprocess.CompletedProcess:
    """``convexauction *args`` in a child process, whose overflow warnings
    are not errors."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-m", "convexauction", *args],
                          env=env, capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("dist, method", [("categorical:0,1e200,0.5", "exact_rrm"),
                                           ("categorical:1e-300,2e-300,0.5", "exact_brm")])
def test_non_finite_newton_direction_is_refused(dist, method):
    """Values that overflow the Newton system give a direction that is not
    finite; the line search once halved its step along it without end."""
    done = _child("solve", "--dist", dist, "--n", "2", "--method", method)
    assert done.returncode == 2
    assert done.stderr.endswith("error: interior-point Newton direction is not finite\n")


_HUGE = "categorical:3e100,10e100,0.8"  # revenue near 1e50, where 1e-6 is below one ulp


def test_solver_and_revenue_disagreeing_is_refused():
    """The solver's objective and the recomputed revenue differing by more
    than 1e-6 is a refusal naming both, one ``error:`` line and exit 2."""
    done = _child("solve", "--dist", _HUGE, "--n", "2", "--method", "exact_rrm")
    assert done.returncode == 2
    assert done.stderr.startswith("error: solver objective ")
    assert done.stderr.endswith(" disagree\n") and done.stderr.count("\n") == 1


def test_experiment_skips_a_refused_exact_row_and_writes_the_others(tmp_path):
    """A refused exact solve skips its row with a notice; the other rows are
    written.  Every method has a row or a notice, and one at least is refused."""
    out = tmp_path / "huge.csv"
    methods = ("heur_lb_cf", "exact_rrm", "exact_brm")
    done = _child("experiment", "--dist", _HUGE, "--bidders", "2..2",
                  "--methods", ",".join(methods), "--no-timing", "--output", str(out))
    assert done.returncode == 0, done.stderr
    notices = done.stderr.splitlines()
    assert notices and all(line.startswith("notice: skipping exact_") and line.endswith(" disagree")
                           for line in notices)
    with open(out, newline="") as fh:
        written = [row["method"] for row in csv.DictReader(fh)]
    skipped = [line.split()[2] for line in notices]
    assert "heur_lb_cf" in written and sorted(written + skipped) == sorted(methods)


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
        # XA on an ex-post table: the expected total share, collapsed from x
        assert main(["check", str(mech_path), "--constraints", "xa"]) == 0
        assert capsys.readouterr().out.startswith("xa: pass")

    def test_solve_check_roundtrip_on_a_binomial_heuristic(self, tmp_path, capsys):
        """binomial:58,0.5 reads regular, so the heuristic's payments are not
        clamped and its file passes every check."""
        mech_path = tmp_path / "m.json"
        assert main(["solve", "--dist", "binomial:58,0.5", "--n", "2",
                     "--method", "heur_lb_cf", "--output", str(mech_path)]) == 0
        assert "warning:" not in capsys.readouterr().out
        assert main(["check", str(mech_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out

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

    def test_solve_prints_a_pipeline_warning(self, capsys):
        assert main(["solve", "--dist", "uniform:5", "--n", "3", "--method",
                     "pseudo_surplus_greedy", "--epsilon", "0.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == ("warning: allocation is not monotone; payments clamped, "
                             "IC/IR not guaranteed")

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

    def test_check_exit_one_on_a_raised_interim_rule(self, tmp_path, capsys):
        """Stored x̂ and h raised together: x̂ is read off the allocation, so BIR
        fails, and a notice names the stored x̂ the checks did not read."""
        instance, raised = raised_heuristic_brm()
        mech_path = tmp_path / "raised.json"
        save_mechanism(str(mech_path), instance, raised)
        assert main(["check", str(mech_path)]) == 1
        out, err = capsys.readouterr()
        assert "bic: pass" in out and "bir: FAIL (worst violation 0.9" in out
        assert err.startswith("notice: the stored interim_allocation is up to 0.3")

    def test_check_notes_a_stored_interim_rule_it_does_not_read(self, tmp_path, capsys):
        """A stored x̂ off the allocation's collapse is named on stderr, with
        the largest difference; the verdicts are those of the honest file."""
        from dataclasses import replace

        instance = symmetric_instance(*make_categorical(3, 10, 0.8), 3)
        mech, _ = heuristic_brm(instance)
        halved = InterimAllocation(tuple(t / 2 for t in mech.interim_allocation.tables))
        honest_path, halved_path = tmp_path / "honest.json", tmp_path / "halved.json"
        save_mechanism(str(honest_path), instance, mech)
        save_mechanism(str(halved_path), instance, replace(mech, interim_allocation=halved))
        capsys.readouterr()
        assert main(["check", str(honest_path)]) == 0
        honest = capsys.readouterr()
        assert main(["check", str(halved_path)]) == 0
        noted = capsys.readouterr()
        assert honest.err == "" and noted.out == honest.out
        largest = max(float(t.max()) for t in halved.tables)
        assert noted.err == (f"notice: the stored interim_allocation is up to {largest!r} off the "
                             "allocation's collapse; the checks read the collapse\n")

    @pytest.mark.parametrize("method", ["heur_brm_cf", "exact_brm", "heur_rrm_cf", "ex_ante"])
    def test_check_prints_no_notice_on_a_solved_file(self, tmp_path, capsys, method):
        mech_path, _ = self._solved_file(tmp_path, method)
        capsys.readouterr()
        assert main(["check", str(mech_path)]) == 0
        assert capsys.readouterr().err == ""

    def test_solve_refuses_a_binomial_whose_coefficients_overflow(self, capsys):
        code = main(["solve", "--dist", "binomial:1030,0.5", "--n", "1", "--method", "ex_ante"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: bad distribution spec 'binomial:1030,0.5': 1030 trials")

    @pytest.mark.parametrize("trials, p", [(1024, 0.5), (590, 0.7), (309, 0.9)])
    def test_solve_refuses_virtual_values_that_overflow(self, tmp_path, capsys, trials, p):
        """At the first t whose lowest type's hazard term overflows, ``solve``
        prints one error line naming the bidder and the type and exits 2, and
        ``experiment`` writes no CSV; one trial fewer solves with no warning."""
        assert main(["solve", "--dist", f"binomial:{trials},{p}", "--n", "1",
                     "--method", "ex_ante"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: bidder 0's virtual value at type 0 overflows: its pmf entry ")
        csv_path = tmp_path / "e.csv"
        assert main(["experiment", "--dist", f"binomial:{trials},{p}", "--bidders", "1..1",
                     "--methods", "heur_lb_cf", "--no-timing", "--output", str(csv_path)]) == 2
        assert not csv_path.exists() and capsys.readouterr().err.startswith("error: bidder 0")
        assert main(["solve", "--dist", f"binomial:{trials - 1},{p}", "--n", "1",
                     "--method", "ex_ante"]) == 0
        out, err = capsys.readouterr()
        assert "warning:" not in out + err and err == ""

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

    @pytest.mark.parametrize("constraints, named", [(None, "bic"), ("xa", "xa")])
    def test_check_exits_two_naming_the_set_a_file_cannot_feed(
            self, tmp_path, capsys, constraints, named):
        """Interim payments alone: no allocation to check BIC or XA against."""
        import json

        mech_path, doc = self._solved_file(tmp_path, "ex_ante")
        doc["interim_allocation"] = None
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        extra = ["--constraints", constraints] if constraints else []
        assert main(["check", str(mech_path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {named} check needs an interim or ex-post")

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

    def test_foreign_format_exits_two(self, tmp_path, capsys):
        import json

        mech_path, doc = self._solved_file(tmp_path, "heur_rrm_cf")
        doc["format"] = "some-other-format/1"
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(mech_path)]) == 2
        assert "not a mechanism file" in capsys.readouterr().err

    def test_interim_rule_missing_a_bidder_exits_two(self, tmp_path, capsys):
        import json

        mech_path, doc = self._solved_file(tmp_path, "heur_brm_cf")
        doc["interim_allocation"] = doc["interim_allocation"][:-1]
        mech_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(mech_path)]) == 2
        assert "'interim_allocation' needs one entry per type" in capsys.readouterr().err

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
        (lambda doc: doc["robust_payments"][0].__setitem__(1, True), "'robust_payments'"),
        (lambda doc: doc["allocation"].__setitem__(1, [True] * 4), "'allocation'"),
        (lambda doc: doc["instance"]["bidders"][1]["pmf"].__setitem__(0, False), "'pmf'"),
    ], ids=["values-object", "bidders-number", "table-of-objects", "provenance-number",
            "boolean-payment", "boolean-row", "boolean-pmf"])
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

    def test_usage_errors_exit_two(self, capsys):
        assert main(["solve", "--dist", "categorical:3,10,0.8", "--n", "2",
                     "--method", "not_a_method"]) == 2
        assert main(["nonsense"]) == 2
        assert main(["solve", "--dist", "bogus:1", "--n", "1", "--method", "surplus"]) == 2
        capsys.readouterr()

    def test_out_of_memory_is_an_error(self, capsys):
        """20 bidders of uniform:5 have 5^20 profiles: the dense tables ask for
        more memory than any address space holds, so the request fails before
        any memory is touched, and is an error (exit 2), not a failed check."""
        assert main(["solve", "--dist", "uniform:5", "--n", "20", "--method", "surplus"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_parser_is_built_once(self, capsys):
        assert build_parser() is build_parser()
        assert main(["--help"]) == 0
        assert main(["experiment", "--help"]) == 0
        assert "--no-timing" in capsys.readouterr().out

    def test_export_stdout(self, tmp_path, capsys):
        args = ["export", "--dist", "uniform:2", "--n", "2", "--program", "rrm_xp"]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("OBJECTIVE maximize: ")
        path = tmp_path / "rrm_xp.txt"
        assert main(args + ["--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == out

    def test_discretize_command(self, tmp_path, capsys):
        mech_path, _ = self._solved_file(tmp_path, "heur_rrm_cf")
        assert main(["discretize", str(mech_path), "--delta", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "revenue_gap=" in out
        # an ex-ante file has interim rules only: nothing to round
        mech_path, _ = self._solved_file(tmp_path, "ex_ante")
        capsys.readouterr()
        assert main(["discretize", str(mech_path), "--delta", "0.05"]) == 2
        assert capsys.readouterr().err == "error: mechanism has no ex-post allocation\n"
        # a surplus file pays p = q: its gaps are not those of p = sqrt(q)
        mech_path, _ = self._solved_file(tmp_path, "surplus")
        capsys.readouterr()
        assert main(["discretize", str(mech_path), "--delta", "0.05"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "perceived='linear'" in captured.err, captured.err

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
