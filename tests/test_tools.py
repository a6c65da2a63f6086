import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairs:
    """The pair runner, with stand-ins for git and the benchmark runs:
    each revision resolves to itself, and tree ``<workdir>/<rev>`` runs."""

    @staticmethod
    def _run(monkeypatch, tmp_path, wrong, calls=None, failing=None):
        bp = _bench_pairs()
        monkeypatch.setattr(bp.subprocess, "run",
                            lambda cmd, **k: SimpleNamespace(stdout=cmd[-1] + "\n"))
        monkeypatch.setattr(bp, "checkout", lambda rev, dest: dest)

        def run_once(tree, command, workload, seed):
            if calls is not None:
                calls.append((tree.name, workload, seed))
            if (tree.name, workload, seed) == failing:
                raise subprocess.CalledProcessError(
                    3, command, "", "".join(f"line {k}\n" for k in range(40))
                    + "ValueError: boom\n")
            return {"attempted": 4, "correct": (tree.name, workload, seed) not in wrong,
                    "failed": 0,
                    "metrics": {"cycle_cost_ref": {"unit": "ref", "value": float(seed)}}}
        monkeypatch.setattr(bp, "run_once", run_once)
        out = tmp_path / "BENCH.json"
        monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "p", "--change", "c",
                                          "--out", str(out), "--workdir", str(tmp_path)])
        return bp.main(), json.loads(out.read_text())["workloads"]

    def test_all_correct(self, monkeypatch, tmp_path):
        code, workloads = self._run(monkeypatch, tmp_path, set())
        assert code == 0
        assert all(w["incorrect_runs"] == {"parent": 0, "change": 0}
                   for w in workloads.values())

    def test_wrong_outputs_refused_after_writing(self, monkeypatch, tmp_path, capsys):
        code, workloads = self._run(monkeypatch, tmp_path, {("c", "dp_random", 3)})
        assert code == 1
        assert workloads["dp_random"]["incorrect_runs"] == {"parent": 0, "change": 1}
        assert workloads["dp_random"]["failed_operations"] == {"parent": 0, "change": 0}
        assert workloads["dp_random"]["pairs"] == 10
        assert "dp_random (change: 1)" in capsys.readouterr().err

    def test_resume_refused_for_other_revisions(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        out.write_text(json.dumps({"change": "c2", "parent": "p2", "workloads": {}}))
        before, calls = out.read_bytes(), []
        code, _ = self._run(monkeypatch, tmp_path, set(), calls)
        assert code == 1
        err = capsys.readouterr().err
        assert "change" in err and "parent" in err
        assert out.read_bytes() == before
        assert calls == []

    def test_failed_run_reported_and_resumed(self, monkeypatch, tmp_path, capsys):
        # the change side fails at seed 3 of the first workload, where the
        # parent runs first: the runs before it stay, and a resume runs
        # only the rest
        code, workloads = self._run(monkeypatch, tmp_path, set(), failing=("c", "dp_random", 3))
        assert code == 1
        err = capsys.readouterr().err
        assert "change run of dp_random at seed 3 exited 3" in err
        assert "ValueError: boom" in err and "line 21" in err and "line 20" not in err
        runs = workloads["dp_random"]["runs"]
        assert sorted(runs["parent"]) == ["1", "2", "3"] and sorted(runs["change"]) == ["1", "2"]
        calls = []
        code, workloads = self._run(monkeypatch, tmp_path, set(), calls)
        assert code == 0
        assert calls[0] == ("c", "dp_random", 3) and ("p", "dp_random", 3) not in calls
        assert workloads["dp_random"]["pairs"] == 10
