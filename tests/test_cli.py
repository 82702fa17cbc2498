import argparse

import numpy as np
import pytest

from implicitrk.cli import build_parser, main
from implicitrk.sparsela import NonConvergenceError
from implicitrk.stepper import StageFormulation, TimeStepper


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], [ln.split(",") for ln in lines[1:]]


class TestTableauCommand:
    def test_radau2_prints_array(self, capsys):
        assert main(["tableau", "--tableau", "radau-iia:2"]) == 0
        out = capsys.readouterr().out
        assert "0.4166" in out
        assert "stiffly accurate : True" in out
        assert "B(3) residual" in out

    def test_alexander_prints_root(self, capsys):
        assert main(["tableau", "--tableau", "alexander"]) == 0
        assert "0.43586652" in capsys.readouterr().out

    def test_unsupported_stage_count_exit_2(self, capsys):
        assert main(["tableau", "--tableau", "radau-iia:9"]) == 2

    def test_unknown_family_exit_2(self):
        assert main(["tableau", "--tableau", "gauss:2"]) == 2


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bc")
    rc = main(["bc-compare", "--out", str(out)])
    assert rc == 0
    return out


class TestBcCompare:
    def test_both_files_written(self, outputs):
        assert (outputs / "daenorm.csv").exists()
        assert (outputs / "odenorm.csv").exists()

    def test_row_count_and_header(self, outputs):
        for name in ("daenorm.csv", "odenorm.csv"):
            header, rows = read_csv(outputs / name)
            assert header == "t,nrmu"
            assert len(rows) == 11

    def test_dae_final_norm_near_one(self, outputs):
        _, rows = read_csv(outputs / "daenorm.csv")
        assert float(rows[-1][0]) == pytest.approx(0.5)
        assert abs(float(rows[-1][1]) - 1.0) < 0.02

    def test_ode_norms_stay_zero(self, outputs):
        _, rows = read_csv(outputs / "odenorm.csv")
        assert all(float(r[1]) < 1e-10 for r in rows)

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["bc-compare", "--out", str(a)])
        main(["bc-compare", "--out", str(b)])
        assert (a / "daenorm.csv").read_bytes() == (b / "daenorm.csv").read_bytes()

    @pytest.mark.parametrize("command", ["bc-compare", "precond-bench"])
    def test_bc_method_is_refused(self, command, tmp_path):
        # bc-compare always runs both methods, precond-bench always the DAE one
        with pytest.raises(SystemExit) as err:
            main([command, "--bc-method", "ode", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_csv_uses_unix_line_ends_and_dot_decimals(self, outputs):
        raw = (outputs / "daenorm.csv").read_bytes()
        assert b"\r" not in raw
        assert b";" not in raw


class TestConverge:
    def test_bc_method_reaches_the_stepper(self, tmp_path):
        l2 = {}
        for method in (None, "ode"):
            out = tmp_path / f"{method}.csv"
            flag = ["--bc-method", method] if method else []
            rc = main(["converge", "--mode", "spatial", "--n-list", "8", *flag,
                       "--out", str(out)])
            assert rc == 0
            l2[method] = float(read_csv(out)[1][0][1])
        assert l2[None] == pytest.approx(9.901480e-3, rel=1e-6)
        assert l2["ode"] == pytest.approx(9.901373e-3, rel=1e-6)

    def test_temporal_dahlquist_radau3(self, tmp_path):
        out = tmp_path / "temporal.csv"
        rc = main([
            "converge", "--mode", "temporal", "--problem", "dahlquist",
            "--tableau", "radau-iia:3", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == "dt,err,order"
        assert len(rows) == 4
        assert rows[0][2] == ""
        orders = [float(r[2]) for r in rows[1:]]
        assert orders[-1] == pytest.approx(5.0, abs=0.2)

    def test_temporal_order_uses_the_dt_ratio(self, tmp_path):
        # dt falls fourfold per row, so a third-order method gains 2 * 3 bits
        out = tmp_path / "temporal.csv"
        rc = main([
            "converge", "--mode", "temporal", "--problem", "dahlquist",
            "--tableau", "radau-iia:2", "--dt-list", "0.2", "0.05", "0.0125",
            "--out", str(out),
        ])
        assert rc == 0
        orders = [float(r[2]) for r in read_csv(out)[1][1:]]
        assert orders == pytest.approx([3.0, 3.0], abs=0.2)

    def test_temporal_heat1d(self, tmp_path):
        out = tmp_path / "heat1d.csv"
        rc = main([
            "converge", "--mode", "temporal", "--problem", "heat1d",
            "--nx", "16", "--tableau", "radau-iia:2", "--tfinal", "0.4",
            "--dt-list", "0.2", "0.1", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2
        # spatial error dominates at this resolution, so errors stay close
        assert float(rows[1][1]) <= float(rows[0][1]) * 1.05

    def test_spatial_smoke(self, tmp_path):
        out = tmp_path / "spatial.csv"
        rc = main([
            "converge", "--mode", "spatial", "--n-list", "4", "8",
            "--tfinal", "0.25", "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == "N,L2err,H1err"
        assert len(rows) == 2
        # errors shrink with refinement
        assert float(rows[1][1]) < float(rows[0][1])


class TestPrecondBench:
    def test_small_bench_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main([
            "precond-bench", "--nx", "8", "--steps", "2", "--pc", "jacobi",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == "ns,time,Its"
        assert [int(r[0]) for r in rows] == [1, 2, 3, 4]
        # exact single-stage preconditioning solves in one iteration
        assert float(rows[0][2]) == pytest.approx(1.0)
        # block Jacobi grows with stage count
        its = [float(r[2]) for r in rows]
        assert its[1] > its[0]

    def test_eigen_rows_print_cond(self, tmp_path, capsys):
        out = tmp_path / "eigen.csv"
        rc = main([
            "precond-bench", "--nx", "8", "--steps", "2", "--pc", "eigen",
            "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        # every step is one direct solve, whatever the stage count
        assert [float(r[2]) for r in rows] == [1.0] * 4
        printed = capsys.readouterr().out
        assert "s=4:" in printed and "cond(T) 28.32" in printed

    def test_eigen_on_a_defective_tableau_exit_2(self, tmp_path, capsys):
        rc = main([
            "converge", "--mode", "temporal", "--problem", "heat1d", "--nx", "8",
            "--tableau", "alexander", "--pc", "eigen", "--dt-list", "0.2",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 2
        assert "cond(T)" in capsys.readouterr().err

    def test_dirk_ignores_eigen(self, tmp_path):
        # DIRK solves each stage by its exact block, so --pc changes nothing
        base = ["converge", "--mode", "temporal", "--problem", "heat1d", "--nx", "8",
                "--stage-type", "dirk", "--tableau", "alexander", "--dt-list", "0.2", "0.1"]
        assert main(base + ["--pc", "eigen", "--out", str(tmp_path / "eigen.csv")]) == 0
        assert main(base + ["--out", str(tmp_path / "none.csv")]) == 0
        assert (tmp_path / "eigen.csv").read_text() == (tmp_path / "none.csv").read_text()

    def test_solver_failure_exit_3(self, tmp_path):
        # an unreachable tolerance on a system larger than the restart length
        # exhausts maxit (small systems instead terminate by lucky breakdown)
        rc = main([
            "bc-compare", "--rtol", "1e-30", "--nx", "40",
            "--out", str(tmp_path / "x"),
        ])
        assert rc == 3

    def test_tableau_is_refused(self, tmp_path):
        # the bench always runs RadauIIA(1..4) or its three DIRK tableaux
        with pytest.raises(SystemExit) as err:
            main(["precond-bench", "--tableau", "radau-iia:3", "--out", str(tmp_path / "x")])
        assert err.value.code == 2

    def test_dirk_rows(self, tmp_path):
        out = tmp_path / "dirk.csv"
        rc = main([
            "precond-bench", "--nx", "8", "--steps", "2",
            "--stage-type", "dirk", "--out", str(out),
        ])
        assert rc == 0
        _, rows = read_csv(out)
        assert [int(r[0]) for r in rows] == [1, 3, 4]
        assert all(float(r[2]) == pytest.approx(1.0) for r in rows)

    def test_all_kinds_identical_at_single_stage(self):
        from implicitrk.cli import run_precond_bench
        from implicitrk.precond import PreconditionerKind
        from implicitrk.tableaux import radau_iia

        its = [
            run_precond_bench(
                8, 0.125, 2, kind,
                StageFormulation.STAGE_DERIVATIVE_IA, tabs=[radau_iia(1)]
            )[0][2]
            for kind in PreconditionerKind
        ]
        assert all(v == its[0] == 1.0 for v in its)


class ReadRecorder(argparse.Namespace):
    """A namespace that records the public attributes read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# tiny runs of each subcommand that together reach every one of its modes
FLAG_RUNS = {
    "bc-compare": [["--nx", "4", "--dt", "0.25", "--tfinal", "0.5"]],
    "converge": [
        ["--mode", "spatial", "--n-list", "4", "--tfinal", "0.25"],
        ["--mode", "temporal", "--problem", "dahlquist", "--dt-list", "0.5", "0.25",
         "--tfinal", "0.5"],
        ["--mode", "temporal", "--problem", "heat1d", "--nx", "4", "--dt-list", "0.25",
         "--tfinal", "0.5"],
    ],
    "precond-bench": [
        ["--nx", "4", "--steps", "1"],
        ["--stage-type", "dirk", "--nx", "4", "--steps", "1"],
    ],
}


@pytest.mark.parametrize("command", sorted(FLAG_RUNS))
def test_every_parsed_flag_is_read(command, tmp_path):
    # a flag that a subcommand parses but never reads is silently ignored
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    parser = action.choices[command]
    reads, dests = set(), set()
    for k, argv in enumerate(FLAG_RUNS[command]):
        args = parser.parse_args([*argv, "--out", str(tmp_path / str(k))],
                                 namespace=ReadRecorder())
        # argparse's own hasattr and getattr calls read every dest
        args._reads.clear()
        assert args.fn(args) == 0
        reads |= args._reads
        dests |= {d for d in vars(args) if not d.startswith("_")}
    assert dests - {"fn"} - reads == set()


@pytest.mark.parametrize("argv", [
    ["converge", "--rtol", "-1"],
    ["converge", "--rtol", "nan"],
    ["bc-compare", "--dt", "0"],
    ["bc-compare", "--tfinal", "-1"],
    ["converge", "--cfl", "inf"],
    ["converge", "--dt-list", "0.1", "0"],
    ["bc-compare", "--nx", "1"],
    ["converge", "--n-list", "8", "1"],
    ["precond-bench", "--steps", "0"],
    ["precond-bench", "--nx", "x"],
], ids=" ".join)
def test_out_of_range_flag_exits_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main([*argv, "--out", str(tmp_path / "x")])
    assert err.value.code == 2
    assert f"argument {argv[1]}:" in capsys.readouterr().err


def test_bc_compare_refuses_a_partial_last_step(tmp_path, capsys):
    # 0.5 / 0.03 steps would end the series at t = 0.51
    rc = main(["bc-compare", "--dt", "0.03", "--tfinal", "0.5", "--out", str(tmp_path)])
    assert rc == 2
    assert "--tfinal" in capsys.readouterr().err
    assert not (tmp_path / "daenorm.csv").exists()


def test_solver_flags_reach_every_stepper(monkeypatch, tmp_path):
    # a subcommand can read --rtol and --pc and then build a stepper without them
    from implicitrk import cli
    from implicitrk.precond import PreconditionerKind

    steppers = []

    class Recording(cli.TimeStepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            steppers.append(self)

    monkeypatch.setattr(cli, "TimeStepper", Recording)
    runs = [(command, argv) for command in sorted(FLAG_RUNS) for argv in FLAG_RUNS[command]]
    for k, (command, argv) in enumerate(runs):
        steppers.clear()
        assert main([command, *argv, "--rtol", "1e-9", "--pc", "gs-lower",
                     "--out", str(tmp_path / str(k))]) == 0
        assert steppers, argv
        for st in steppers:
            assert st.krylov.rtol == 1e-9, argv
            # precond-bench's DIRK mode solves each stage by its exact block
            dirk = command == "precond-bench" and st.formulation is StageFormulation.DIRK
            assert st.pc_kind is (None if dirk else PreconditionerKind.BLOCK_LOWER), argv


def fail_steps(monkeypatch, when):
    """Make ``TimeStepper.step`` raise NonConvergenceError on the steppers
    for which ``when(stepper)`` holds."""
    step = TimeStepper.step

    def failing(self, problem=None):
        if when(self):
            raise NonConvergenceError("injected failure", [1.0])
        return step(self, problem)

    monkeypatch.setattr(TimeStepper, "step", failing)


class TestFailedEntries:
    # one configuration of a sweep fails: its row is left empty, the others
    # are still run, and the command succeeds

    def test_spatial_sweep(self, monkeypatch, tmp_path):
        fail_steps(monkeypatch, lambda st: st.problem.m == 9 ** 2)
        out = tmp_path / "spatial.csv"
        assert main(["converge", "--mode", "spatial", "--n-list", "4", "8", "16",
                     "--tfinal", "0.25", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["4", "8", "16"]
        assert rows[1][1:] == ["", ""]
        assert all(v != "" for r in (rows[0], rows[2]) for v in r)

    def test_temporal_sweep(self, monkeypatch, tmp_path):
        fail_steps(monkeypatch, lambda st: st.dt == 0.1)
        out = tmp_path / "temporal.csv"
        assert main(["converge", "--mode", "temporal", "--problem", "dahlquist",
                     "--dt-list", "0.2", "0.1", "0.05", "0.025", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [float(r[0]) for r in rows] == [0.2, 0.1, 0.05, 0.025]
        assert rows[1][1:] == ["", ""]
        # the row after the failure has an error but no order to take
        assert rows[2][1] != "" and rows[2][2] == ""
        assert float(rows[3][2]) == pytest.approx(3.0, abs=0.2)

    @pytest.mark.parametrize("mode", [["--pc", "jacobi"], ["--stage-type", "dirk"]],
                             ids=["coupled", "dirk"])
    def test_precond_bench(self, mode, monkeypatch, tmp_path, capsys):
        fail_steps(monkeypatch, lambda st: st.tableau.s == 3)
        out = tmp_path / "bench.csv"
        assert main(["precond-bench", "--nx", "4", "--steps", "2", *mode,
                     "--out", str(out)]) == 0
        _, rows = read_csv(out)
        its = {int(r[0]): float(r[2]) for r in rows}
        assert its.pop(3) == -1
        assert its and all(v >= 1 for v in its.values())
        assert "s=3: " in capsys.readouterr().out
