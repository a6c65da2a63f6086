import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from implicitnorm import FinVector, Interval, blocks, cli, engine, serialize


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

    def test_engine_check_failure_exit_1(self):
        # l1_average_block scales by F's w(n)/n, so under G its first block
        # does not norm to 1
        code, out, err = run_cli("seq", "--system", "g", "l1", "--m", "4", "--n", "15")
        assert (code, out) == (1, "")
        assert err == ("engine check failed: flat block of length 15 normalised "
                       "to 1.5086349891920565, not 1\n")

    def test_select_reports_engine_check_failure_as_level_error(self):
        code, out, _ = run_cli("seq", "--system", "g", "select", "--budget", "1")
        assert code == 0
        assert json.loads(out) == {
            "all_conditions_met": False, "block_supports": [], "growth_indices": ["1"],
            "levels": [{"eps": 0.5, "level": 1, "m": 8, "n_len": 256, "start": 1,
                        "error": "flat block of length 256 normalised to "
                                 "1.703776021571756, not 1"}],
            "schedule_flagged_not_summable": False}

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

    def test_stabilize_l1_growth_overflow_reads_false(self):
        # each chosen block's l1 norm is finite but their sum is not: the
        # growth check reads false where it once raised OverflowError
        blocks = json.dumps([{"coords": [[2 * i + 1, 4e307], [2 * i + 2, 4e307]]}
                             for i in range(12)])
        code, out, _ = run_cli("seq", "stabilize", "--eps-schedule",
                               json.dumps([1e308] * 7), blocks)
        assert code == 0
        levels = json.loads(out)["levels"]
        assert [lv["level"] for lv in levels] == list(range(1, 8))
        assert [lv["growth_check_l1"] for lv in levels] == [None] + [False] * 6


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
        (("audit", "ineq", "--c", "3"),
         "94fdc7ec59d0e8658ab7a7e7744dabc349461d2e02ae1134799e467535092181"),
        (("audit", "ineq", "--c", "3", "--csv"),
         "92afe95b5d1e01b8e8d786767dfb05780c32ec94f95d72024abfaf44881153dc"),
    ], ids=["audit-gnorm", "seq-project", "norm-g-flat1016", "norm-f-flat1016",
            "audit-lemma-duo", "seq-stabilize", "audit-ineq-c3", "audit-ineq-c3-csv"])
    def test_stdout_digest(self, argv, digest):
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


_BLOCK = '[{"coords": [[1, 1.0]]}]'
_HUGE_BLOCK = '[{"coords": [[1, 1e308], [2, 1e308]]}]'
# a float sum of these stays finite; their l1 norm overflows
_ROUNDING_OVERFLOW = ('{"dense": [5.992310449541049e+307, 5.992310449541056e+307, '
                      '5.992310449541054e+307]}')


class TestInputErrors:
    """Input the CLI cannot use exits 2 with nothing on stdout."""

    @pytest.mark.parametrize("argv,key", [
        (("--tolerance", "nan", "norm", '{"dense":[1,1]}'), "tolerance"),
        (("seq", "split", "--eps", "nan", '{"dense":[0.1,0.1]}'), "eps"),
        (("audit", "lemma-duo", "--eps", "0.5", "--l", "1", "--m", "8", "--nlen", "0"),
         "n_len"),
        (("audit", "gnorm", "--cases", "0"), "cases"),
        (("seq", "equiv", "--coeffs", "[1]", _BLOCK, _BLOCK), "coefficient tuple"),
        (("seq", "stabilize", "--eps-schedule", '["a"]', _BLOCK), "eps schedule"),
        (("--guard", "0", "norm", '{"dense":[1,1]}'), "support guard"),
        (("seq", "equiv", "--coeffs", "{}", _BLOCK, _BLOCK), "coefficient tuples"),
    ], ids=["tolerance-nan", "split-eps-nan", "lemma-duo-nlen-0", "gnorm-cases-0",
            "equiv-coeffs-not-tuples", "stabilize-schedule-not-numbers", "guard-0",
            "equiv-coeffs-not-list"])
    def test_numeric_argument_outside_domain_exit_2(self, argv, key):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert "input error" in err and key in err

    @pytest.mark.parametrize("argv,key", [
        (("seq", "select", "--budget", "1", "--eps-schedule", "[0]"), "eps schedule"),
        (("seq", "select", "--budget", "1", "--eps-schedule", "[NaN]"), "eps schedule"),
        (("seq", "select", "--budget", "2", "--eps-schedule", "[0.5, -1]"), "eps schedule"),
        (("audit", "beta", "--d", "1", "--log2r", "8", "--tail-tol", "nan"), "tail tolerance"),
        (("audit", "beta", "--d", "1", "--log2r", "8", "--tail-tol=-1"), "tail tolerance"),
        (("seq", "project", "[]"), "blocks"),
        (("seq", "split", "--eps", "inf", '{"dense":[0.1,0.1]}'), "eps"),
        (("audit", "lemma-duo", "--eps", "inf", "--l", "2", "--m", "8", "--nlen", "127"),
         "eps"),
        (("seq", "stabilize", "--eps-schedule", "[1e999]", _BLOCK), "eps schedule"),
        (("seq", "stabilize", "--eps-schedule", "[0]", _BLOCK), "eps schedule"),
        (("audit", "ineq", "--c", "0"), "constant c"),
        (("audit", "ineq", "--c", "nan"), "constant c"),
        (("audit", "ineq", "--c", "inf"), "constant c"),
        (("audit", "beta", "--d", "1", "--log2r", "inf"), "tower base"),
        (("audit", "beta", "--d", "0", "--log2r", "0"), "weight(r) > 1"),
        (("audit", "beta", "--d", "0", "--log2r", "-5"), "weight(r) > 1"),
        (("audit", "beta", "--tilde", "--d", "0", "--log2r", "0.5"), "weight(r) > 1"),
        (("audit", "beta", "--d", "1", "--log2r", "20", "--tail-tol", "0"), "tail tolerance"),
        (("audit", "beta", "--d", "1", "--log2r", "20", "--tail-tol", "1e-300"),
         "tail tolerance"),
        (("seq", "stabilize", "--eps-schedule", "[]", _BLOCK), "eps schedule"),
        (("audit", "beta", "--d", "0", "--log2r", "0.01"), "too close to 1"),
        (("norm", '{"dense":[1e308,1e308]}'), "l1 norm"),
        (("norm", '{"dense":[1e308,1e308,1e308]}'), "l1 norm"),
        (("seq", "equiv", "--coeffs", "[[1]]", _HUGE_BLOCK, _HUGE_BLOCK), "l1 norm"),
        (("seq", "split", "--eps", "1e308", '{"dense":[1e308,1e308]}'), "l1 norm"),
        (("seq", "stabilize", "--eps-schedule", "[1e308]", _HUGE_BLOCK), "l1 norm"),
        (("audit", "pente", "--r", "2", "--d", "1.1", '{"dense":[1e308,1e308]}'), "l1 norm"),
        (("norm", _ROUNDING_OVERFLOW), "l1 norm"),
        (("norm", "--system", "g", _ROUNDING_OVERFLOW), "l1 norm"),
        (("seq", "split", "--eps", "1e308", _ROUNDING_OVERFLOW), "l1 norm"),
        (("seq", "project", "--samples", "-5", _BLOCK), "samples"),
        (("seq", "project", "--samples", "0", _BLOCK), "samples"),
        (("audit", "gnorm", "--lmax", "-3"), "lmax"),
        (("audit", "gnorm", "--lmax", "1"), "lmax"),
    ], ids=["select-schedule-zero", "select-schedule-nan", "select-schedule-negative",
            "beta-tail-tol-nan", "beta-tail-tol-negative", "project-no-blocks",
            "split-eps-inf", "lemma-duo-eps-inf", "stabilize-schedule-inf",
            "stabilize-schedule-zero", "ineq-c-zero", "ineq-c-nan", "ineq-c-inf",
            "beta-base-inf", "beta-base-weight-1", "beta-base-below-1",
            "beta-tilde-base-below-1", "beta-tail-tol-zero", "beta-tail-tol-overflow",
            "stabilize-schedule-empty", "beta-base-weight-near-1", "norm-l1-overflow-2",
            "norm-l1-overflow-3", "equiv-l1-overflow", "split-l1-overflow",
            "stabilize-l1-overflow", "pente-l1-overflow", "norm-l1-overflow-rounding",
            "norm-g-l1-overflow-rounding", "split-l1-overflow-rounding",
            "project-samples-negative", "project-samples-0", "gnorm-lmax-negative", "gnorm-lmax-1"])
    def test_value_refused_where_it_enters_exit_2(self, argv, key):
        # each of these once ended in a traceback and exit 1, a wrong
        # answer, or a pass that checked nothing
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert "input error" in err and key in err

    @pytest.mark.parametrize("vector,key", [
        ('{"coords":[[1.9,2]]}', "coords entry [1.9, 2]"),
        ('{"coords":[[true,2]]}', "coords entry [True, 2]"),
        ('{"coords":[["3",2]]}', "coords entry ['3', 2]"),
        ('{"dense":[true,2]}', "dense entry 0: True"),
        ('{"dense":["1.5"]}', "dense entry 0: '1.5'"),
        ('{"dense":"12"}', "dense form must be a list"),
        ('{"coords":{}}', "coords form must be a list"),
        ('{"dense":[1%s]}' % ("0" * 400), "values must be finite"),
    ], ids=["coords-float-index", "coords-bool-index", "coords-string-index",
            "dense-bool", "dense-string", "dense-not-list", "coords-not-list",
            "dense-int-overflow"])
    def test_vector_json_not_coerced_exit_2(self, vector, key):
        # each of these once exited 0 with a silently changed vector, the
        # last with a traceback
        code, out, err = run_cli("norm", vector)
        assert (code, out) == (2, "")
        assert "input error" in err and key in err

    @pytest.mark.parametrize("argv,before", [
        (("seq", "select", "--budget", "1", "--eps-schedule", "[1e-4]"), 0),
        # the first level's 8 blocks and its flat average y, at eps 0.5
        (("seq", "select", "--budget", "2", "--eps-schedule", "[0.5, 1e-4]"), 9),
        (("seq", "l1", "--m", "2", "--n", "100000"), 0),
        (("seq", "l1", "--m", "100000", "--n", "1"), 0),
    ], ids=["select-40000-blocks", "select-second-level", "l1-long-blocks",
            "l1-many-blocks"])
    def test_guard_refuses_before_blocks_are_built_exit_3(self, monkeypatch, argv, before):
        # the check later norms would run refuses before any block is
        # built, which once took seconds, or forever at eps 1e-300
        built = []
        monkeypatch.setattr(blocks, "FinVector", lambda *a: built.append(a) or FinVector(*a))
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "")
        assert "resource guard" in err and "exceeds guard 4096" in err
        assert len(built) == before

    @pytest.mark.parametrize("content,key", [
        ([], "JSON object"),
        ({"name": "h", "min_parts": "2", "add": 1, "scale": 1}, "'min_parts'"),
        ({"name": "h", "min_parts": 2, "add": -5, "scale": 1}, "domain"),
        ({"name": "h", "min_parts": 2, "add": 1}, "'scale'"),
        ({"name": "h", "min_parts": 2, "add": 1, "scale": 1, "mul": 2}, "'mul'"),
    ], ids=["list", "string-min-parts", "negative-add", "missing-key", "extra-key"])
    def test_bad_system_file_exit_2(self, tmp_path, content, key):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(content))
        code, out, err = run_cli("norm", "--system", str(path), '{"dense":[1,1]}')
        assert (code, out) == (2, "")
        assert "input error" in err and key in err

    def test_good_system_file(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"name": "h", "min_parts": 2, "add": 1, "scale": 1}))
        code, out, _ = run_cli("norm", "--system", str(path), '{"dense":[1,1]}')
        assert code == 0
        assert json.loads(out)["value"] == 2 / math.log2(3)

    @pytest.mark.parametrize("argv", [("norm", "@{}"), ("--config", "{}", "norm", "[1]")],
                             ids=["payload", "config"])
    def test_unreadable_path_exit_2(self, tmp_path, argv):
        code, out, err = run_cli(*(a.format(tmp_path) for a in argv))
        assert (code, out) == (2, "")
        assert "input error" in err and str(tmp_path) in err


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

    def test_dumps_takes_plain_data_only(self):
        assert serialize.dumps({"b": (1, 0.5), "a": [None, True]}) == \
            '{"a":[null,true],"b":[1,0.5]}'
        with pytest.raises(TypeError, match="cannot serialize Interval"):
            serialize.dumps({"frames": [Interval(1, 2)]})
