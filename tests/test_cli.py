import json
import tracemalloc

import numpy as np
import pytest

from metric_atlas import bounds
from metric_atlas.bounds import real_atomic_context, reports_from_json
from metric_atlas.cli import METRIC_NAMES, main
from metric_atlas.spaces import distribution_from_json


@pytest.fixture
def z10_files(tmp_path):
    mu = tmp_path / "z10mu.json"
    mu.write_text(json.dumps({"space": {"kind": "cycle", "n": 10},
                              "p": [0.6, 0.1, 0.1, 0.1, 0.1, 0, 0, 0, 0, 0]}))
    nu = tmp_path / "z10u.json"
    nu.write_text(json.dumps({"space": {"kind": "cycle", "n": 10},
                              "p": [0.1] * 10}))
    return str(mu), str(nu)


@pytest.fixture
def atom_files(tmp_path):
    f = tmp_path / "f.json"
    f.write_text(json.dumps({"atoms": [{"x": 0.0, "w": 1.0}]}))
    g = tmp_path / "g.json"
    g.write_text(json.dumps({"atoms": [{"x": 0.0, "w": 0.5}, {"x": 1.0, "w": 0.5}]}))
    return str(f), str(g)


class TestCompute:
    def test_tv_value(self, z10_files, capsys):
        mu, nu = z10_files
        assert main(["compute", "--metric", "tv", "--mu", mu, "--nu", nu]) == 0
        assert capsys.readouterr().out == "0.5\n"

    def test_real_metrics(self, atom_files, capsys):
        f, g = atom_files
        assert main(["compute", "--metric", "kolmogorov", "--mu", f, "--nu", g]) == 0
        assert capsys.readouterr().out == "0.5\n"
        assert main(["compute", "--metric", "wasserstein", "--mu", f, "--nu", g]) == 0
        assert capsys.readouterr().out == "0.5\n"

    def test_levy_on_finite_space_is_an_input_error(self, z10_files, capsys):
        mu, nu = z10_files
        assert main(["compute", "--metric", "levy", "--mu", mu, "--nu", nu]) == 1
        assert "real line" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, z10_files, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        mu, _ = z10_files
        assert main(["compute", "--metric", "tv", "--mu", str(bad), "--nu", mu]) == 1
        assert "malformed JSON" in capsys.readouterr().err

    def test_missing_file(self, z10_files, capsys):
        mu, _ = z10_files
        assert main(["compute", "--metric", "tv", "--mu", mu,
                     "--nu", "/nonexistent.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("obj, field", [
        ({"space": {"kind": "cycle", "n": 4.7}, "p": [0.25] * 4}, "space.n"),
        ({"space": {"kind": "cycle", "n": None}, "p": [0.25] * 4}, "space.n"),
        ({"space": {"kind": "cycle", "n": 4}, "p": [0.25, "a", 0.25, 0.25]}, "distribution.p"),
        ({"space": {"kind": "matrix", "d": [[0, 1], [1]]}, "p": [0.5, 0.5]}, "space.d"),
        ({"space": {"kind": "euclidean", "points": [[0, "a"], [1, 2]]}, "p": [0.5, 0.5]},
         "space.points"),
        ({"atoms": [{"x": None, "w": 1.0}]}, "atoms.positions"),
        ({"atoms": [{"x": 0.0, "w": "one"}]}, "atoms.weights"),
    ], ids=["n-float", "n-null", "p-string", "d-ragged", "points-string", "x-null",
            "w-string"])
    def test_malformed_input_names_field(self, tmp_path, z10_files, capsys, obj, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        mu, _ = z10_files
        assert main(["compute", "--metric", "tv", "--mu", str(bad), "--nu", mu]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    def test_matrix_kind_reads_d_alone(self, tmp_path, capsys):
        paths = []
        for name, p in (("mu", [1, 0]), ("nu", [0.5, 0.5])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"space": {"kind": "matrix", "d": [[0, 1], [1, 0]],
                                                  "labels": 5}, "p": p}))
            paths.append(str(path))
        assert main(["compute", "--metric", "tv", "--mu", paths[0], "--nu", paths[1]]) == 0
        assert capsys.readouterr().out == "0.5\n"

    def test_atomic_disc_is_the_lines(self, tmp_path, capsys):
        # the interval [0, 1] holds all of mu and none of nu
        paths = []
        for name, xs in (("f", (0.0, 1.0)), ("g", (-0.5, 1.5))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"atoms": [{"x": x, "w": 0.5} for x in xs]}))
            paths.append(str(path))
        assert main(["compute", "--metric", "disc", "--mu", paths[0], "--nu", paths[1]]) == 0
        assert capsys.readouterr().out == "1.0\n"

    @pytest.mark.parametrize("shared", [0, 4, 7], ids=["disjoint", "overlap", "nested"])
    def test_atomic_metrics_equal_the_contexts_bit_for_bit(self, tmp_path, capsys, shared):
        # F has 7 atoms, `shared` of them also atoms of G (nested: G holds all of F)
        rng = np.random.default_rng(shared)
        xs = rng.permutation(np.arange(16) * 0.37)
        objs = {"f": xs[:7], "g": xs[7 - shared:13]}
        paths, dists = [], []
        for name, positions in objs.items():
            w = rng.random(positions.size) + 0.1
            obj = {"atoms": [{"x": float(x), "w": float(v)}
                             for x, v in zip(positions, w / w.sum())]}
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(obj))
            paths.append(str(path))
            dists.append(distribution_from_json(obj))
        values = real_atomic_context(*dists).values
        for metric in METRIC_NAMES:
            assert main(["compute", "--metric", metric, "--mu", paths[0], "--nu", paths[1]]) == 0
            got = float(capsys.readouterr().out)
            assert got == values["entropy" if metric == "kl" else metric], metric

    def test_atomic_tv_reads_nothing_else(self, monkeypatch, atom_files, capsys):
        def unasked(*args):
            raise AssertionError("a metric that was not asked for was read")
        for key in set(bounds.LINE_METRICS) - {"tv"}:
            monkeypatch.setitem(bounds.LINE_METRICS, key, unasked)
        f, g = atom_files
        assert main(["compute", "--metric", "tv", "--mu", f, "--nu", g]) == 0
        assert capsys.readouterr().out == "0.5\n"

    def test_bad_mass_names_field(self, tmp_path, z10_files, capsys):
        bad = tmp_path / "half.json"
        bad.write_text(json.dumps({"space": {"kind": "cycle", "n": 4},
                                   "p": [0.5, 0, 0, 0]}))
        mu, _ = z10_files
        assert main(["compute", "--metric", "tv", "--mu", str(bad), "--nu", mu]) == 1
        assert "distribution.p" in capsys.readouterr().err


class TestCertify:
    def test_csv_shape_and_exit_code(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["certify", "--trials", "12", "--seed", "0",
                     "--size", "4..7", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "instance_id,edge_id,lhs,rhs,h_rhs,slack,status"
        assert len(lines) == 1 + 12 * 19
        assert not any(",fail" in line for line in lines)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["certify", "--trials", "8", "--seed", "3",
                  "--size", "4..6", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_output_parses_back(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["certify", "--trials", "5", "--seed", "1",
                     "--size", "4..6", "--format", "json",
                     "--out", str(out)]) == 0
        reports = reports_from_json(out.read_text())
        assert len(reports) == 5

    def test_bad_size_range(self, capsys):
        assert main(["certify", "--trials", "2", "--size", "big"]) == 1
        assert "size" in capsys.readouterr().err

    def test_size_range_is_checked_by_the_library_alone(self, tmp_path, capsys):
        assert main(["certify", "--trials", "6", "--size", "1..1",
                     "--out", str(tmp_path / "report.csv")]) == 0
        assert main(["certify", "--trials", "2", "--size", "2..100"]) == 1
        assert capsys.readouterr().err.startswith("error: size_range: ")

    def test_bad_trials(self, capsys):
        assert main(["certify", "--trials", "0"]) == 1
        assert "trials" in capsys.readouterr().err


class TestWalks:
    def test_cdg_csv_contract(self, tmp_path):
        out = tmp_path / "cdg.csv"
        assert main(["walk-cdg", "--t", "10", "--steps", "60",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,tv,disc"
        assert len(lines) == 61
        assert lines[1].startswith("1,")

    def test_cdg_needs_odd_modulus(self, capsys):
        assert main(["walk-cdg", "--p", "10", "--steps", "5"]) == 1
        assert "odd" in capsys.readouterr().err

    def test_cdg_needs_p_or_t(self, capsys):
        for args in ([], ["--p", "7", "--t", "3"]):  # neither, both
            assert main(["walk-cdg", *args, "--steps", "5"]) == 1
            assert capsys.readouterr().err.startswith("error: p, t: ")

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_cdg_rejects_bad_steps(self, tmp_path, capsys, steps):
        out = tmp_path / "cdg.csv"
        assert main(["walk-cdg", "--t", "5", "--steps", steps, "--out", str(out)]) == 1
        assert "error: steps: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--t", "40"], ["--t", "64"],
                                      ["--p", str(2 ** 40 - 1)]],
                             ids=["t40", "t64", "p2^40-1"])
    def test_cdg_rejects_huge_modulus_before_allocating(self, capsys, args):
        tracemalloc.start()
        try:
            code = main(["walk-cdg", *args, "--steps", "5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {args[0][2:]}: ")
        assert peak < 2 ** 20

    def test_product_csv_contract(self, tmp_path):
        out = tmp_path / "prod.csv"
        assert main(["walk-product", "--n", "6", "--times", "0,1.5,10",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "time,tv,entropy,chi2,hellinger,separation"
        assert len(lines) == 4

    @pytest.mark.parametrize("args, message", [
        (["--times", "1,nan"], "error: t: "),
        (["--times", "0,abc"], "error: times: not a number: 'abc'"),
        (["--horizon", "nan"], "error: horizon: "),
        (["--horizon", "inf"], "error: horizon: "),
        (["--horizon", "-5"], "error: horizon: "),
        (["--n", "1100"], "error: n: "),
        (["--n", "1015"], "error: n: "),
        (["--g", str(2 ** 1100)], "error: g: "),
        (["--times", ""], "error: times: "),
        (["--steps", "1"], "error: steps: must be >= 2, got 1\n"),
    ], ids=["times-nan", "times-not-a-number", "horizon-nan", "horizon-inf",
            "horizon-negative", "g-overflows", "default-g-log-g-overflows",
            "given-g-overflows", "times-empty", "steps-one"])
    def test_product_rejects_bad_time(self, tmp_path, capsys, args, message):
        out = tmp_path / "prod.csv"
        assert main(["walk-product", "--n", "3", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_product_rejects_huge_n_before_forming_the_default_g(self, capsys):
        tracemalloc.start()
        try:
            code = main(["walk-product", "--n", str(10 ** 7), "--times", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith("error: n: ")
        assert peak < 2 ** 20  # 2^(10^7) alone would take 1.25 MB

    def test_product_rejects_huge_n_before_the_tv_weights(self, capsys):
        tracemalloc.start()
        try:
            code = main(["walk-product", "--g", "4", "--n", str(10 ** 6 + 1), "--times", "1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err.startswith("error: n: ")
        assert peak < 2 ** 20  # the n + 1 weights alone would take 32 MB

    @pytest.mark.parametrize("command", [
        ["compute", "--metric", "tv", "--mu", "{f}", "--nu", "{g}"],
        ["certify", "--trials", "1"],
        ["walk-cdg", "--t", "5", "--steps", "2"],
        ["walk-product", "--n", "3", "--times", "1"],
        ["demo"],
    ], ids=lambda c: c[0])
    def test_unwritable_out_names_the_field(self, tmp_path, atom_files, capsys, command):
        f, g = atom_files
        out = tmp_path / "missing" / "out.txt"
        argv = [arg.format(f=f, g=g) for arg in command]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: out: cannot write {out}: ")

    def test_demo_deterministic(self, capsys):
        assert main(["demo"]) == 0
        first = capsys.readouterr().out
        assert main(["demo"]) == 0
        assert capsys.readouterr().out == first
        payload = json.loads(first)
        assert abs(payload["z10"]["tv_skewed"] - 0.5) < 1e-15
        binom = payload["binomial_vs_normal"]
        assert sorted(binom, key=int) == ["16", "100", "1000", "10000", "100000", "1000000"]
        assert all(set(row) == {"tv", "disc", "kolmogorov", "levy", "sqrt_n_disc",
                                "sqrt_n_kolmogorov", "sqrt_n_levy"} for row in binom.values())
