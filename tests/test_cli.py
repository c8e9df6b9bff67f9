import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.io as sio
import scipy.sparse as sp

import robsub
from conftest import planted_lowrank
from robsub import LossSpec, cli, pipeline
from robsub import io as rio
from robsub.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, main
from robsub.io import InputError, load_matrix, load_vector, save_matrix_market
from robsub.pipeline import _stage_bicriteria


@pytest.fixture()
def matrix_files(tmp_path):
    a, _ = planted_lowrank(200, 15, 3, seed=0, noise=0.05, outlier_frac=0.01)
    mtx = tmp_path / "a.mtx"
    csv = tmp_path / "a.csv"
    save_matrix_market(mtx, a)
    np.savetxt(csv, a, delimiter=",")
    rng = np.random.default_rng(1)
    rhs = tmp_path / "b.csv"
    np.savetxt(rhs, a @ rng.standard_normal(15) + 0.1 * rng.standard_normal(200),
               delimiter=",")
    return {"a_mtx": str(mtx), "a_csv": str(csv), "rhs": str(rhs), "dir": tmp_path}


@pytest.fixture()
def k4_edges(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("\n".join(f"{i} {j}" for i in range(4) for j in range(i + 1, 4)))
    return str(path)


def _load(path):
    with open(path) as fh:
        return json.load(fh)


class TestIo:
    def test_mtx_csv_round_trip(self, matrix_files):
        a1 = load_matrix(matrix_files["a_mtx"])
        a2 = load_matrix(matrix_files["a_csv"])
        assert np.allclose(np.asarray(a1.todense() if hasattr(a1, "todense") else a1),
                           a2, atol=1e-8)

    def test_missing_file(self):
        with pytest.raises(InputError):
            load_matrix("/definitely/not/here.mtx")

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "a.parquet"
        p.write_text("x")
        with pytest.raises(InputError):
            load_matrix(str(p))

    def test_vector_shape_check(self, matrix_files):
        with pytest.raises(InputError):
            load_vector(matrix_files["a_csv"])


class TestApproxCommand:
    def test_full_stage_report(self, matrix_files, tmp_path):
        report = tmp_path / "r.json"
        rc = main(["approx", "--input", matrix_files["a_mtx"], "--k", "3",
                   "--loss", "l1", "--eps", "0.2", "--seed", "7",
                   "--stage", "full", "--report", str(report)])
        assert rc == EXIT_OK
        r = _load(report)
        assert r["schema_version"] == 1
        res = r["results"]
        assert res["subspace_dim"] == 3
        assert 0 <= res["v_cost_p"] <= res["input_v_cost_p"]
        assert "baseline_svd_v_cost_p" in res
        assert res["v_cost"] == pytest.approx(res["v_cost_p"])  # p = 1

    def test_bicriteria_dim_within_cap(self, matrix_files, tmp_path):
        report = tmp_path / "r.json"
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "2",
                   "--loss", "l1", "--stage", "bicriteria", "--seed", "1",
                   "--report", str(report)])
        assert rc == EXIT_OK
        r = _load(report)
        assert r["results"]["subspace_dim"] <= 50 * 2 * 2

    def test_bicriteria_stage_skips_residual_sampling(self, matrix_files, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("residual sampling ran")

        monkeypatch.setattr(pipeline, "dim_reduce", fail)
        report = tmp_path / "r.json"
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "2",
                   "--loss", "huber", "--stage", "bicriteria", "--seed", "1",
                   "--report", str(report)])
        assert rc == EXIT_OK
        trace = _load(report)["results"]["trace"]
        assert trace["bicriteria_dim"] >= 2 and "reduced_dim" not in trace

    def test_dimreduce_stage(self, matrix_files, tmp_path):
        report = tmp_path / "r.json"
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "2",
                   "--loss", "l1", "--stage", "dimreduce", "--seed", "1",
                   "--report", str(report)])
        assert rc == EXIT_OK
        r = _load(report)
        assert r["results"]["subspace_dim"] >= 2

    def test_dimreduce_stage_reports_its_sample(self, tmp_path):
        # 300 x 200 at k = 1: the L1 bicriteria stage draws about P_M = 50 rows,
        # a proper subspace, so residual sampling draws a sample of its own
        csv = tmp_path / "wide.csv"
        np.savetxt(csv, np.random.default_rng(0).standard_normal((300, 200)), delimiter=",")
        report = tmp_path / "r.json"
        rc = main(["approx", "--input", str(csv), "--k", "1", "--loss", "l1",
                   "--stage", "dimreduce", "--seed", "1", "--report", str(report)])
        assert rc == EXIT_OK
        tr = _load(report)["results"]["trace"]
        assert tr["bicriteria_dim"] < 200 and tr["reduced_dim"] >= tr["bicriteria_dim"]
        assert tr["dimreduce_rows_expected"] > 0 and tr["dimreduce_rows"] > 0

    def test_bicriteria_stage_is_the_pipeline_stage(self, tmp_path):
        # k = 1 puts the L1 survivor cap (50) below n, so sampling rounds run
        # and fewer than d rows survive: the span depends on the seeding
        csv = tmp_path / "wide.csv"
        np.savetxt(csv, np.random.default_rng(3).standard_normal((400, 60)), delimiter=",")
        out = tmp_path / "u.mtx"
        rc = main(["approx", "--input", str(csv), "--k", "1", "--loss", "l1",
                   "--stage", "bicriteria", "--seed", "4", "--subspace-out", str(out)])
        assert rc == EXIT_OK
        u = np.asarray(load_matrix(str(out)).todense())
        xhat = _stage_bicriteria(load_matrix(str(csv)), 1, LossSpec.lp(1.0), 4, {})
        assert u.shape[1] == xhat.dim < 60
        assert np.abs(u @ u.T - xhat.u @ xhat.u.T).max() <= 1e-10

    def test_seed_determinism_modulo_timings(self, matrix_files, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["approx", "--input", matrix_files["a_mtx"], "--k", "3",
                "--loss", "huber", "--eps", "0.25", "--seed", "11", "--stage", "full"]
        assert main(argv + ["--report", str(r1)]) == EXIT_OK
        assert main(argv + ["--report", str(r2)]) == EXIT_OK
        d1, d2 = _load(r1), _load(r2)
        d1.pop("timings"), d2.pop("timings")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_subspace_export(self, matrix_files, tmp_path):
        out = tmp_path / "u.mtx"
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "2",
                   "--loss", "l1", "--seed", "0", "--report",
                   str(tmp_path / "r.json"), "--subspace-out", str(out)])
        assert rc == EXIT_OK
        u = np.asarray(load_matrix(str(out)).todense())
        assert u.shape == (15, 2)
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-8)

    def test_p2_full_stage_uses_svd(self, matrix_files, tmp_path):
        report = tmp_path / "r.json"
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "3",
                   "--loss", "l2", "--stage", "full", "--seed", "0",
                   "--report", str(report)])
        assert rc == EXIT_OK
        res = _load(report)["results"]
        # at p=2 the baseline is the optimum, so the fit matches it
        assert res["v_cost_p"] == pytest.approx(res["baseline_svd_v_cost_p"])

    def test_p2_full_stage_takes_the_svd_once(self, tmp_path, monkeypatch):
        # the fit is the SVD baseline itself, so its cost is the baseline's: one
        # SVD, at k, and the report's costs are those of that one subspace
        a = np.random.default_rng(0).standard_normal((300, 8))
        csv, report = tmp_path / "a.csv", tmp_path / "r.json"
        np.savetxt(csv, a, delimiter=",")
        a = load_matrix(str(csv))
        loss = LossSpec.lp(2.0)
        sub, cost = cli.svd_truncation_cost(a, 2, None, loss)
        calls, real = [], cli.svd_truncation_cost
        monkeypatch.setattr(cli, "svd_truncation_cost",
                            lambda a, k, *args: calls.append(k) or real(a, k, *args))
        rc = main(["approx", "--input", str(csv), "--k", "2", "--loss", "l2",
                   "--stage", "full", "--seed", "1", "--report", str(report)])
        assert rc == EXIT_OK and calls == [2]
        res = _load(report)["results"]
        assert res["v_cost_p"] == res["baseline_svd_v_cost_p"] == cost
        assert res["v_cost_p"] == robsub.residual_cost(a, sub, None, loss)
        assert res["input_v_cost_p"] == robsub.v_norm_p(a, None, loss)

    @pytest.mark.parametrize("loss", ["l1", "huber"])
    def test_full_stage_wider_than_small_cap(self, tmp_path, loss):
        # CSR 1200 x 450, d above the default small_cap of 400: sparse rank 3
        # plus 100 sparse outlier rows; the small solve is m + 1 wide
        rng = np.random.default_rng(0)
        v = sp.random(3, 450, density=0.05, random_state=0)
        a = sp.vstack([sp.csr_matrix(rng.standard_normal((1100, 3))) @ v,
                       30.0 * sp.random(100, 450, density=0.05, random_state=1)])
        mtx, report = tmp_path / "wide.mtx", tmp_path / "r.json"
        save_matrix_market(mtx, a)
        rc = main(["approx", "--input", str(mtx), "--k", "3", "--loss", loss,
                   "--stage", "full", "--seed", "1", "--report", str(report)])
        assert rc == EXIT_OK
        res = _load(report)["results"]
        assert res["d"] == 450 and res["trace"]["reduced_dim"] < 450
        assert res["v_cost_p"] < res["baseline_svd_v_cost_p"]

    def test_full_stage_traces_small_solve(self, tmp_path):
        # CSR 3000 x 200, rank 3 plus noise and 30 outlier rows: the small
        # problem is 201 wide, above the Krylov crossover, and every eigen
        # step of its alternation is certified
        rng = np.random.default_rng(0)
        a = (rng.standard_normal((3000, 3)) @ rng.standard_normal((3, 200))
             + 0.05 * rng.standard_normal((3000, 200)))
        a[:30] = 30.0 * rng.standard_normal((30, 200))
        mtx, report = tmp_path / "planted200.mtx", tmp_path / "r.json"
        save_matrix_market(mtx, sp.csr_matrix(a))
        rc = main(["approx", "--input", str(mtx), "--k", "3", "--loss", "huber",
                   "--stage", "full", "--seed", "1", "--report", str(report)])
        assert rc == EXIT_OK
        res = _load(report)["results"]
        assert res["trace"]["reduced_dim"] == 200
        assert res["trace"]["small_mm_steps"] >= 10
        assert res["trace"]["small_eigen_fallbacks"] == 0
        assert res["v_cost_p"] < res["baseline_svd_v_cost_p"]

    def test_missing_input_exit_2(self, tmp_path):
        rc = main(["approx", "--input", str(tmp_path / "nope.mtx"), "--k", "2"])
        assert rc == EXIT_INPUT

    def test_bad_config_exit_3(self, matrix_files):
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "0"])
        assert rc == EXIT_CONFIG
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "2",
                   "--loss", "lp"])  # missing --p
        assert rc == EXIT_CONFIG
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "2",
                   "--stage", "dimreduce", "--eps", "1.5"])
        assert rc == EXIT_CONFIG

    def test_empty_input_exit_3(self, tmp_path, capsys):
        mtx = tmp_path / "empty.mtx"
        save_matrix_market(mtx, sp.csr_matrix((0, 6)))
        rc = main(["approx", "--input", str(mtx), "--k", "3", "--loss", "l1",
                   "--report", str(tmp_path / "r.json")])
        assert rc == EXIT_CONFIG
        assert "no rows" in capsys.readouterr().err

    def test_empty_array_mtx_exit_3(self, tmp_path):
        # scipy.io.mmread dies with SIGFPE on a 0 x 6 array-format file, so
        # the command runs in its own process, where a regression fails
        # this test instead of killing the test run
        mtx = tmp_path / "empty.mtx"
        sio.mmwrite(str(mtx), np.zeros((0, 6)))
        assert sio.mminfo(str(mtx))[3] == "array"
        src = os.path.dirname(os.path.dirname(robsub.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "robsub.cli", "approx", "--input", str(mtx),
                               "--k", "3", "--loss", "l1", "--report", str(tmp_path / "r.json")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "input matrix has no rows" in proc.stderr

    @pytest.mark.parametrize("stage", ["bicriteria", "dimreduce"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_subspace_stage_empty_input_exit_3(self, tmp_path, monkeypatch, capsys, stage,
                                               sparse):
        mtx = tmp_path / "empty.mtx"
        if sparse:
            save_matrix_market(mtx, sp.csr_matrix((0, 6)))
        else:
            # the loader hands the dense matrix over in this process; the
            # array-format file itself is read in a subprocess test above
            monkeypatch.setattr(rio, "load_matrix", lambda path: np.zeros((0, 6)))
        rc = main(["approx", "--input", str(mtx), "--k", "3", "--loss", "l1",
                   "--stage", stage, "--report", str(tmp_path / "r.json")])
        assert rc == EXIT_CONFIG
        assert "input matrix has no rows" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["bicriteria", "dimreduce"])
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
    def test_subspace_stage_fewer_rows_than_k(self, tmp_path, stage, sparse):
        # two rows span two dimensions: the stages run at rank 2, unwarned
        dense = np.random.default_rng(40).standard_normal((2, 6))
        path = tmp_path / ("a.mtx" if sparse else "a.csv")
        if sparse:
            save_matrix_market(path, sp.csr_matrix(dense))
        else:
            np.savetxt(path, dense, delimiter=",")
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["approx", "--input", str(path), "--k", "3", "--loss", "l1",
                       "--stage", stage, "--report", str(report)])
        assert rc == EXIT_OK
        assert _load(report)["results"]["subspace_dim"] == 2

    def test_t_rows_bounds_base_rows(self, matrix_files, tmp_path):
        # 200 rows are below the final sample's 300 expected rows, so every
        # row is kept with no draw; of 600 rows a plan of 300 is drawn
        a, _ = planted_lowrank(600, 15, 3, seed=0, noise=0.05, outlier_frac=0.01)
        tall = tmp_path / "tall.csv"
        np.savetxt(tall, a, delimiter=",")
        traces = {}
        for path in (matrix_files["a_csv"], str(tall)):
            report = tmp_path / "r.json"
            rc = main(["approx", "--input", path, "--k", "3",
                       "--loss", "huber", "--seed", "2", "--report", str(report)])
            assert rc == EXIT_OK
            traces[path] = _load(report)["results"]["trace"]
        assert traces[matrix_files["a_csv"]]["t_rows"] == 200
        assert traces[matrix_files["a_csv"]]["t_rows_expected"] == 200
        assert traces[str(tall)]["t_rows_expected"] == pytest.approx(300, abs=1e-9)
        assert traces[str(tall)]["t_rows"] < 600

    def test_full_trace_written_whole(self, tmp_path, monkeypatch):
        # every key of a full-stage fit's trace reaches the report, each value
        # a Python int or float; at 600 x 200 and k = 1 the L1 bicriteria stage
        # keeps a proper subspace, so residual sampling scores rows and records t_m
        csv = tmp_path / "wide.csv"
        np.savetxt(csv, np.random.default_rng(0).standard_normal((600, 200)), delimiter=",")
        payloads, real = [], cli._write_report
        monkeypatch.setattr(cli, "_write_report",
                            lambda path, payload: payloads.append(payload) or real(path, payload))
        report = tmp_path / "r.json"
        rc = main(["approx", "--input", str(csv), "--k", "1", "--loss", "l1",
                   "--seed", "1", "--report", str(report)])
        assert rc == EXIT_OK
        trace = payloads[0]["results"]["trace"]
        assert set(trace) == {
            "eps", "bicriteria_rows", "bicriteria_rows_expected", "bicriteria_dim",
            "dimreduce_rows", "dimreduce_rows_expected", "t_m", "reduced_dim",
            "t_rows", "t_rows_expected", "small_mm_steps", "small_eigen_fallbacks"}
        assert all(type(v) in (int, float) for v in trace.values()), trace
        assert _load(report)["results"]["trace"] == trace

    def test_all_zero_input_exit_0(self, tmp_path):
        # all-zero scores draw no row: the padded k columns cost nothing
        csv = tmp_path / "zero.csv"
        np.savetxt(csv, np.zeros((500, 10)), delimiter=",")
        for loss in ("l1", "huber"):
            report = tmp_path / f"{loss}.json"
            rc = main(["approx", "--input", str(csv), "--k", "2", "--loss", loss,
                       "--seed", "1", "--report", str(report)])
            assert rc == EXIT_OK
            res = _load(report)["results"]
            assert res["subspace_dim"] == 2 and res["v_cost_p"] == 0.0

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_small_cap_exit_3(self, matrix_files, capsys, cap):
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "2", "--loss", "l1",
                   "--seed", "0", "--small-cap", cap])
        assert rc == EXIT_CONFIG
        assert "small_cap must be >= 1" in capsys.readouterr().err

    def test_small_cap_below_side_exit_4(self, tmp_path, capsys):
        # at d = 320 the reduced span is all of R^320, so the small problem
        # is 321 wide: above a cap of 310 (and the 301 that t_rows implies)
        csv = tmp_path / "wide.csv"
        np.savetxt(csv, np.random.default_rng(5).standard_normal((400, 320)), delimiter=",")
        rc = main(["approx", "--input", str(csv), "--k", "1", "--loss", "l1",
                   "--seed", "0", "--small-cap", "310"])
        assert rc == EXIT_NUMERIC
        assert "small problem has side 321 > cap 310" in capsys.readouterr().err

    def test_non_finite_input_exit_3(self, matrix_files, capsys):
        a = np.loadtxt(matrix_files["a_csv"], delimiter=",")
        a[5, 2] = np.nan
        path = matrix_files["dir"] / "nan.csv"
        np.savetxt(path, a, delimiter=",")
        rc = main(["approx", "--input", str(path), "--k", "2", "--loss", "huber"])
        assert rc == EXIT_CONFIG
        assert "infs or NaNs" in capsys.readouterr().err

    def test_lapack_failure_exit_4(self, matrix_files, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, yet it is a numerical failure
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "approx_m2", fail)
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "2", "--loss", "huber"])
        assert rc == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err


class TestRegressCommand:
    def test_ratio_reported(self, matrix_files, tmp_path):
        report = tmp_path / "r.json"
        rc = main(["regress", "--input", matrix_files["a_csv"], "--rhs",
                   matrix_files["rhs"], "--loss", "huber", "--seed", "0",
                   "--report", str(report)])
        assert rc == EXIT_OK
        res = _load(report)["results"]
        assert res["cost_ratio"] >= 0.0
        assert res["sampled_cost"] >= 0.0
        assert res["full_irls_cost"] > 0.0

    def test_determinism(self, matrix_files, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            main(["regress", "--input", matrix_files["a_csv"], "--rhs",
                  matrix_files["rhs"], "--seed", "3", "--report", str(path)])
            d = _load(path)
            d.pop("timings")
            outs.append(json.dumps(d, sort_keys=True))
        assert outs[0] == outs[1]

    def test_base_cap_engages_sampling(self, matrix_files, tmp_path):
        # 200 rows are below the default base cap of 2840 at d = 15; at a
        # base cap of 40 the sample expects 40 of them
        res = {}
        for flag in ([], ["--base-cap", "40"]):
            report = tmp_path / "r.json"
            rc = main(["regress", "--input", matrix_files["a_csv"], "--rhs",
                       matrix_files["rhs"], "--seed", "0", "--report", str(report)] + flag)
            assert rc == EXIT_OK
            res[bool(flag)] = _load(report)["results"]
        assert res[False]["levels"] == 0
        assert res[False]["base_rows"] == res[False]["base_rows_expected"] == 200
        assert res[True]["levels"] == 1
        assert res[True]["base_rows_expected"] == pytest.approx(40.0, abs=1e-9)

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_non_positive_base_cap_exit_3(self, matrix_files, capsys, cap):
        rc = main(["regress", "--input", matrix_files["a_csv"], "--rhs", matrix_files["rhs"],
                   "--seed", "0", "--base-cap", cap])
        assert rc == EXIT_CONFIG
        assert "base_cap must be >= 1" in capsys.readouterr().err

    def test_all_zero_input_exit_0(self, tmp_path):
        # at a base cap of 40 the all-zero [A b] is scored, draws no row, and
        # falls back to IRLS on every row, which fits x = 0 at cost 0
        csv, rhs = tmp_path / "zero.csv", tmp_path / "zero_b.csv"
        np.savetxt(csv, np.zeros((500, 10)), delimiter=",")
        np.savetxt(rhs, np.zeros(500), delimiter=",")
        report = tmp_path / "r.json"
        rc = main(["regress", "--input", str(csv), "--rhs", str(rhs), "--loss", "l1",
                   "--base-cap", "40", "--seed", "1", "--report", str(report)])
        assert rc == EXIT_OK
        res = _load(report)["results"]
        assert res["levels"] == 0 and res["base_rows"] == 500 and res["sampled_cost"] == 0.0

    def test_non_finite_input_exit_3(self, matrix_files, capsys):
        a = np.loadtxt(matrix_files["a_csv"], delimiter=",")
        a[5, 2] = np.nan
        path = matrix_files["dir"] / "nan.csv"
        np.savetxt(path, a, delimiter=",")
        rc = main(["regress", "--input", str(path), "--rhs", matrix_files["rhs"],
                   "--loss", "huber"])
        assert rc == EXIT_CONFIG
        assert "infs or NaNs" in capsys.readouterr().err

    def test_rejects_p2(self, matrix_files):
        rc = main(["regress", "--input", matrix_files["a_csv"], "--rhs",
                   matrix_files["rhs"], "--loss", "l2"])
        assert rc == EXIT_CONFIG


class TestUsage:
    def test_removed_flag_exit_3(self, matrix_files, capsys):
        rc = main(["approx", "--input", matrix_files["a_csv"], "--k", "2", "--kappa", "0.2"])
        assert rc == EXIT_CONFIG
        assert "unrecognized arguments: --kappa" in capsys.readouterr().err

    def test_missing_k_exit_3(self, matrix_files):
        assert main(["approx", "--input", matrix_files["a_csv"]]) == EXIT_CONFIG

    def test_help_exit_0(self, capsys):
        assert main(["approx", "--help"]) == EXIT_OK
        assert "--base-cap" not in capsys.readouterr().out


class TestGadgetCommand:
    def test_k4_verdict(self, k4_edges, tmp_path):
        report = tmp_path / "g.json"
        rc = main(["gadget", "--edges", k4_edges, "--k", "3",
                   "--report", str(report)])
        assert rc == EXIT_OK
        res = _load(report)["results"]
        assert res["best_set_is_clique"] is True
        assert res["clique_formula_matched"] is True
        assert res["r"] == 3 and res["d"] == 4

    def test_determinism(self, k4_edges, tmp_path):
        outs = []
        for name in ("g1.json", "g2.json"):
            path = tmp_path / name
            main(["gadget", "--edges", k4_edges, "--k", "3", "--report", str(path)])
            d = _load(path)
            d.pop("timings")
            outs.append(json.dumps(d, sort_keys=True))
        assert outs[0] == outs[1]

    def test_non_regular_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 2\n")
        rc = main(["gadget", "--edges", str(path), "--k", "1"])
        assert rc == EXIT_CONFIG

    def test_missing_edge_file_exit_2(self, tmp_path):
        rc = main(["gadget", "--edges", str(tmp_path / "absent.txt"), "--k", "1"])
        assert rc == EXIT_INPUT

    def test_malformed_edge_line_exit_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("x y\n")
        rc = main(["gadget", "--edges", str(path), "--k", "1"])
        assert rc == EXIT_INPUT

    def test_export(self, k4_edges, tmp_path):
        out = tmp_path / "inst.mtx"
        rc = main(["gadget", "--edges", k4_edges, "--k", "3",
                   "--report", str(tmp_path / "g.json"), "--export", str(out)])
        assert rc == EXIT_OK
        block = np.asarray(load_matrix(str(out)).todense())
        assert np.allclose(np.linalg.norm(block, axis=1), 1.0, atol=1e-10)

