import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from implicitnorm import FinVector, cli, engine


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestNormCommand:
    def test_f_system(self):
        code, out, _ = run_cli("norm", "--system", "f", '{"dense":[1,1]}')
        assert code == 0
        data = json.loads(out)
        assert data["value"] == pytest.approx(2 / math.log2(3), rel=1e-15)
        assert data["system"] == "f"

    def test_g_system(self):
        code, out, _ = run_cli("norm", "--system", "g", '{"dense":[1,1]}')
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2 / math.log2(2.5),
                                                         rel=1e-15)

    def test_empty_vector(self):
        code, out, _ = run_cli("norm", '{"dense":[]}')
        assert code == 0
        assert json.loads(out)["value"] == 0

    def test_character_and_witness_flags(self):
        code, out, _ = run_cli("norm", "--witness", "--character",
                               '{"dense":[1,1,1]}')
        data = json.loads(out)
        assert data["character"] == 3
        assert "witness" in data

    def test_malformed_json_exit_2(self):
        code, _, err = run_cli("norm", "{bad json")
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_removed_global_flags_exit_2(self, flag):
        # JSON is the only output; CSV is `audit ineq --csv` only
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()):
            cli.main([flag, "norm", '{"dense":[1,1]}'])
        assert exc.value.code == 2

    def test_guard_exit_3(self):
        code, _, err = run_cli("--guard", "2", "norm", '{"dense":[1,1,1]}')
        assert code == 3
        assert "resource guard" in err

    def test_vector_from_file(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"coords": [[3, 1.0], [5, -1.0]]}')
        code, out, _ = run_cli("norm", f"@{path}")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2 / math.log2(3))


class TestSeqCommands:
    def test_split(self):
        a = math.log2(9) / 8
        vec = json.dumps({"coords": [[i + 1, a] for i in range(8)]})
        code, out, _ = run_cli("seq", "split", "--eps", "0.5", vec)
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 4
        assert all(abs(nv - 0.5) < 1e-9 for nv in data["piece_norms"])

    def test_l1(self):
        code, out, _ = run_cli("seq", "l1", "--m", "4", "--n", "15")
        data = json.loads(out)
        assert data["certificate"] == pytest.approx(
            math.log2(61) / math.log2(16), rel=1e-12)
        assert len(data["blocks"]) == 4

    def test_equiv(self, tmp_path):
        xs = [{"coords": [[1, 1.0]]}, {"coords": [[2, 1.0]]}]
        ys = [{"coords": [[3, 1.0]]}, {"coords": [[7, 1.0]]}]
        xp, yp = tmp_path / "xs.json", tmp_path / "ys.json"
        xp.write_text(json.dumps(xs))
        yp.write_text(json.dumps(ys))
        code, out, _ = run_cli("seq", "equiv", "--coeffs", "[[1,0],[1,1]]",
                               f"@{xp}", f"@{yp}")
        assert code == 0
        assert json.loads(out)["equivalence_constant"] == 1.0

    def test_equiv_not_equivalent_on_family_exit_2(self, tmp_path):
        # 1e-200 * 1e-200 underflows, so the xs combination is zero and the
        # ys combination is not: NotEquivalentOnFamilyError, a DomainError
        xp, yp = tmp_path / "xs.json", tmp_path / "ys.json"
        xp.write_text(json.dumps([{"coords": [[1, 1e-200]]}]))
        yp.write_text(json.dumps([{"coords": [[2, 1.0]]}]))
        code, out, err = run_cli("seq", "equiv", "--coeffs", "[[1e-200]]",
                                 f"@{xp}", f"@{yp}")
        assert code == 2
        assert out == ""
        assert err.startswith("input error: not equivalent on family")

    def test_lemma_duo_guard_exit_3(self):
        code, _, err = run_cli("--guard", "512", "audit", "lemma-duo",
                               "--eps", "1", "--l", "2", "--m", "8",
                               "--nlen", "127")
        assert code == 3
        assert "resource guard" in err

    def test_select_reports_symbolic_growth(self):
        code, out, _ = run_cli("seq", "select", "--budget", "1",
                               "--support-budget", "64")
        data = json.loads(out)
        assert code == 0
        assert data["levels"][0]["partition_condition_met"] is True
        assert data["growth_indices"][1].startswith("3*(2^")

    def test_project_and_stabilize(self, tmp_path):
        a = math.log2(33) / 32
        blocks = [{"coords": [[32 * k + i + 1, a] for i in range(32)]}
                  for k in range(4)]
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps(blocks))
        code, out, _ = run_cli("seq", "project", "--samples", "10",
                               f"@{path}")
        assert code == 0
        assert json.loads(out)["pass"] is True
        code, out, _ = run_cli("seq", "stabilize", "--eps-schedule",
                               "[1.0, 0.5]", f"@{path}")
        assert code == 0
        data = json.loads(out)
        assert [lv["level"] for lv in data["levels"]] == [1, 2]


class TestAuditCommands:
    def test_ineq_expected_outcome(self):
        code, out, _ = run_cli("audit", "ineq", "--c", "3")
        assert code == 0
        data = json.loads(out)
        assert data["all_expected_outcomes"] is True
        assert data["reports"]["E2_printed"]["counterexample"] is not None
        assert data["reports"]["E2_subadditive"]["min_margin"] >= 0

    def test_ineq_csv(self):
        code, out, _ = run_cli("audit", "ineq", "--c", "3", "--csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "inequality,xi,xi_prime,margin"
        assert len(lines) == 6

    def test_ineq_unexpected_exit_1(self):
        # with c = 100 the printed product-growth bound holds on the whole
        # default grid, so the expected counterexample does not appear
        code, out, _ = run_cli("audit", "ineq", "--c", "100")
        assert code == 1
        assert json.loads(out)["all_expected_outcomes"] is False

    def test_beta(self):
        code, out, _ = run_cli("audit", "beta", "--d", "2", "--log2r", "20")
        data = json.loads(out)
        assert code == 0
        assert data["value"] == pytest.approx(2.3589232848033506, rel=1e-11)
        assert data["tail_bound"] <= 1e-12

    def test_beta_tilde(self):
        code, out, _ = run_cli("audit", "beta", "--d", "2", "--log2r", "30",
                               "--tilde")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(1.771559620736657,
                                                         rel=1e-11)

    def test_beta_domain_error_exit_2(self):
        code, _, err = run_cli("audit", "beta", "--d", "108", "--log2r", "8000")
        assert code == 2
        assert "d^2" in err

    def test_lemma_duo(self):
        code, out, _ = run_cli("audit", "lemma-duo", "--eps", "1", "--l", "2",
                               "--m", "8", "--nlen", "127")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert data["lhs"] <= data["rhs"] + 1e-9

    def test_lemma_duo_gate_exit_2(self):
        code, _, err = run_cli("audit", "lemma-duo", "--eps", "1", "--l", "2",
                               "--m", "4", "--nlen", "127")
        assert code == 2
        assert "ceil" in err

    def test_gnorm(self):
        code, out, _ = run_cli("audit", "gnorm", "--cases", "40",
                               "--lmax", "10000")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] and data["scalar_weight_inequality"]
        assert data["min_norm_margin"] >= -1e-9

    def test_pente(self):
        code, out, _ = run_cli("audit", "pente", "--r", "2", "--d", "1.1",
                               '{"dense":[1,1,1,1]}')
        assert code == 0
        data = json.loads(out)
        assert data["lhs"] == pytest.approx(4 / math.log2(5), rel=1e-12)

    @pytest.mark.parametrize("r", ["inf", "-inf", "nan"])
    def test_pente_non_finite_threshold_exit_2(self, r):
        code, out, err = run_cli("audit", "pente", f"--r={r}", "--d", "0.5",
                                 '{"dense":[1,0.5,0.7]}')
        assert code == 2 and out == ""
        assert "input error" in err and "finite" in err

    def test_pente_gate_exit_2(self):
        code, _, err = run_cli("audit", "pente", "--r", "2", "--d", "1.1",
                               '{"dense":[1]}')
        assert code == 2


def _pin_blocks():
    """Four flat blocks of F norm 1, lengths 5, 3, 6, 4, with gaps."""
    out, start = [], 1
    for n, gap in ((5, 2), (3, 0), (6, 3), (4, 1)):
        a = math.log2(n + 1) / n
        out.append({"coords": [[start + i, a] for i in range(n)]})
        start += n + gap
    return json.dumps(out)


def _stabilize_blocks():
    """Three seeded near-flat blocks of support 24 (coefficients 1 +- 0.1),
    then three flat-dip-flat blocks of support 131 (65 ones, 0.5, 65 ones),
    each of F norm 1; the flat-dip-flat ones survive to the third level."""
    rng = np.random.default_rng(16)
    rows = [[float(v) for v in 1.0 + rng.uniform(-0.1, 0.1, 24)] for _ in range(3)]
    rows += [[1.0] * 65 + [0.5] + [1.0] * 65] * 3
    out, start = [], 1
    for row in rows:
        x = FinVector.from_dense(row, start=start)
        out.append(x.scale(1.0 / engine.norm_value(x)).to_jsonable())
        start += len(row)
    return json.dumps(out)


_FLAT_1016 = json.dumps({"dense": [1] * 1016})


class TestStdoutPins:
    """sha256 of stdout recorded when these commands still normed one
    vector per call, and when the composition DP still filled every part
    count of every length; neither batching nor the band fill may change
    a byte."""

    @pytest.mark.parametrize("argv,digest", [
        (("audit", "gnorm", "--cases", "300", "--seed", "7"),
         "b906cd81f857c2085032635737444da41a46aed2f48223e934d971bfee1c5544"),
        (("seq", "project", "--samples", "70", "--seed", "7", _pin_blocks()),
         "f0d5bf2fd85648104ca2097a68c07f67d74c0a4a2577e37df0c1d552e21043b3"),
        (("norm", "--system", "g", "--witness", "--character", _FLAT_1016),
         "0c5c47a616e8b491fde8dbee08365aa7dc057edad9f20cafc9fc4bfa0917c84b"),
        (("norm", "--system", "f", "--witness", "--character", _FLAT_1016),
         "712845300e83adca8f1a13f546bd0b084a3f5e8ba405affae51fcf800ba49917"),
        (("audit", "lemma-duo", "--eps", "1", "--l", "2", "--m", "8", "--nlen", "127"),
         "5fb33e29756040d4e41608daafd1fea216778f43cae2af98749fed9e6feb8b76"),
        (("seq", "stabilize", "--eps-schedule", "[1.0,0.5,0.25]", _stabilize_blocks()),
         "e74dcc107feaf14eb62df8a3ff2bd15d60db9bd250193a2666bfbd188f64a5fd"),
    ], ids=["audit-gnorm", "seq-project", "norm-g-flat1016", "norm-f-flat1016",
            "audit-lemma-duo", "seq-stabilize"])
    def test_stdout_digest(self, argv, digest):
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConfigAndCache:
    def test_config_file(self, tmp_path):
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({"system": "g", "tolerance": 1e-8}))
        code, out, _ = run_cli("--config", str(cfgpath), "norm",
                               '{"dense":[1,1]}')
        assert json.loads(out)["system"] == "g"

    def test_config_unknown_key_exit_2(self, tmp_path):
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({"tolerence": -1}))
        code, out, err = run_cli("--config", str(cfgpath), "norm",
                                 '{"dense":[1,1]}')
        assert code == 2
        assert out == ""
        assert "'tolerence'" in err

    @pytest.mark.parametrize("key,value", [
        ("tolerance", "1e-9"), ("tolerance", True), ("support_guard", 2.5),
        ("support_guard", True), ("parallelism", "2"), ("system", 1)])
    def test_config_wrong_type_exit_2(self, tmp_path, key, value):
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({key: value}))
        code, out, err = run_cli("--config", str(cfgpath), "norm",
                                 '{"dense":[1,1]}')
        assert code == 2
        assert out == ""
        assert repr(key) in err

    def test_parallelism_below_one_exit_2(self, tmp_path):
        # the flag and the config key do nothing, but are still checked
        code, out, err = run_cli("--parallelism", "0", "norm", '{"dense":[1,1]}')
        assert (code, out) == (2, "")
        assert "parallelism must be >= 1" in err
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({"parallelism": 0}))
        code, out, _ = run_cli("--config", str(cfgpath), "norm", '{"dense":[1,1]}')
        assert (code, out) == (2, "")

    def test_config_env(self, tmp_path, monkeypatch):
        cfgpath = tmp_path / "cfg.json"
        cfgpath.write_text(json.dumps({"system": "g"}))
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfgpath))
        _, out, _ = run_cli("norm", '{"dense":[1,1]}')
        assert json.loads(out)["system"] == "g"

    def test_record(self, tmp_path):
        rec = tmp_path / "run.json"
        run_cli("--record", str(rec), "norm", '{"dense":[1,1]}')
        data = json.loads(rec.read_text())
        assert data["engine_version"]
        assert data["exit_code"] == 0

    def test_record_digests(self, tmp_path):
        vec = tmp_path / "v.json"
        vec.write_bytes(b'{"dense": [1, 1]}')
        rec = tmp_path / "run.json"
        argv = ["--record", str(rec), "norm", f"@{vec}"]
        code, out, _ = run_cli(*argv)
        assert code == 0
        inputs = hashlib.sha256()
        for token in argv:
            inputs.update(token.encode() + b"\x00")
        inputs.update(vec.read_bytes())     # the @file token is the last
        data = json.loads(rec.read_text())
        assert data["command"] == argv
        assert data["inputs_digest"] == inputs.hexdigest()
        assert data["outputs_digest"] == hashlib.sha256(
            out.removesuffix("\n").encode()).hexdigest()


class TestDeterminism:
    BATTERY = [
        ("norm", "--witness", "--character", '{"dense":[1,0.5,-2,1]}'),
        ("norm", "--system", "g", '{"coords":[[2,1.0],[9,-0.25]]}'),
        ("seq", "l1", "--m", "3", "--n", "7"),
        ("audit", "ineq", "--c", "3"),
        ("audit", "beta", "--d", "2", "--log2r", "20"),
        ("audit", "gnorm", "--cases", "20", "--lmax", "1000"),
    ]

    def test_repeat_runs_bitwise_identical(self):
        first = [run_cli(*args) for args in self.BATTERY]
        second = [run_cli(*args) for args in self.BATTERY]
        assert first == second

    def test_parallelism_levels_identical(self):
        a = run_cli("--parallelism", "1", "audit", "ineq", "--c", "3")
        b = run_cli("--parallelism", "4", "audit", "ineq", "--c", "3")
        assert a == b

    def test_output_reparses(self):
        for args in self.BATTERY:
            code, out, _ = run_cli(*args)
            json.loads(out)     # round-trip under the published schema
