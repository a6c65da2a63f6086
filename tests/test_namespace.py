"""The package namespace is lazy: names resolve to their home modules on
first access, a CLI process imports only the modules its command runs,
and no module imports a thread or process pool."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import implicitnorm

SRC = Path(__file__).resolve().parents[1] / "src"

# the names the package exported when it imported its four modules eagerly
EXPORTED = {
    "vectors": ["FinVector", "Functional", "Interval", "OrderedPartition",
                "VectorError", "WitnessTree", "elementary_norms", "restrict",
                "spread"],
    "engine": ["CharacterResult", "DomainError", "EngineCheckError",
               "ENGINE_VERSION", "F_SYSTEM", "G_SYSTEM", "IntervalTables",
               "MemoTable", "NormResult", "NormSystem", "SupportGuardError",
               "best_sum", "brute_norm", "build_tables", "character",
               "constant_best_sum", "constant_vector_norm", "get_system",
               "layer_norm", "log2_affine_system", "norm", "norm_value",
               "norm_values", "norming_functional", "tail_layer_norm"],
    "blocks": ["BlockSequence", "ExperimentReport", "NotEquivalentOnFamilyError",
               "ProjectionOp", "ProjectionReport", "SplitProfile",
               "StabilizationState", "average_split_experiment",
               "build_projection", "domination_margin", "equivalence_constant",
               "greedy_block_select", "greedy_split", "l1_average_block",
               "projection_norm_estimate", "split_count_bounds",
               "stabilize_subsequence", "tail_constant"],
    "audits": ["AuditReport", "RefinementReport", "Tower", "TowerProductResult",
               "audit_all", "audit_power", "audit_product_growth_printed",
               "audit_root_power", "audit_slack", "audit_subadditivity", "beta",
               "beta_tilde", "default_nu_grid", "default_xi_grid", "f_log2",
               "find_min_constant", "g_log2", "gamma_factor",
               "refinement_margin", "tower_product"],
}
HOME = {name: module for module, names in EXPORTED.items() for name in names}


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("IMPLICITNORM_CONFIG", None)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)


class TestLazyNamespace:
    def test_all_is_the_eager_export_set(self):
        assert len(HOME) == 72
        assert len(implicitnorm.__all__) == len(set(implicitnorm.__all__))
        assert set(implicitnorm.__all__) == set(HOME)

    @pytest.mark.parametrize("name", sorted(HOME))
    def test_name_is_home_module_attribute(self, name):
        home = importlib.import_module(f"implicitnorm.{HOME[name]}")
        assert getattr(implicitnorm, name) is getattr(home, name)

    def test_dir_covers_all(self):
        listed = set(dir(implicitnorm))
        assert set(implicitnorm.__all__) <= listed
        assert {"vectors", "engine", "blocks", "audits", "serialize",
                "cli"} <= listed

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            implicitnorm.no_such_name
        assert not hasattr(implicitnorm, "no_such_name")

    def test_star_import(self):
        ns = {}
        exec("from implicitnorm import *", ns)
        ns.pop("__builtins__")
        assert set(ns) == set(HOME)
        assert all(ns[name] is getattr(implicitnorm, name) for name in ns)

    def test_submodules_resolve_in_fresh_process(self):
        out = run_python(
            "import sys, implicitnorm as P\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('implicitnorm.'))\n"
            "print(loaded)\n"
            "print(P.engine.GLOBAL_MEMO is not None, P.blocks.__name__,"
            " P.audits.__name__)\n").stdout.splitlines()
        assert out == ["[]", "True implicitnorm.blocks implicitnorm.audits"]


# modules whose import a command pays for only when it needs them
WATCHED = ("implicitnorm.blocks", "implicitnorm.audits", "concurrent.futures",
           "hashlib")

_LOADED_AFTER_MAIN = (
    "import json, sys\n"
    "from implicitnorm import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    f"print(json.dumps([code] + [m for m in {WATCHED!r} if m in sys.modules]))\n")


class TestCommandImports:
    """Module sets, not timings: a top-level import added later would bring
    back the cost silently."""

    @staticmethod
    def loaded(*argv):
        last = run_python(_LOADED_AFTER_MAIN, *argv).stdout.splitlines()[-1]
        code, *modules = json.loads(last)
        assert code == 0
        return set(modules)

    def test_norm(self):
        assert self.loaded("norm", "--system", "f", '{"dense":[1,1]}') == set()

    def test_audit_beta(self):
        loaded = self.loaded("audit", "beta", "--d", "2", "--log2r", "20")
        assert "implicitnorm.audits" in loaded
        assert not loaded & {"implicitnorm.blocks", "concurrent.futures"}

    def test_seq_l1(self):
        loaded = self.loaded("seq", "l1", "--m", "4", "--n", "15")
        assert "implicitnorm.blocks" in loaded
        assert "implicitnorm.audits" not in loaded

    def test_audit_gnorm(self):
        # its seeded cases come from numpy.random, which imports hashlib
        # through the standard random module; the package imports nothing
        loaded = self.loaded("audit", "gnorm", "--cases", "5", "--lmax", "100")
        assert loaded <= {"hashlib"}

    def test_audit_lemma_duo(self):
        loaded = self.loaded("audit", "lemma-duo", "--eps", "1", "--l", "2",
                             "--m", "8", "--nlen", "127")
        assert loaded == {"implicitnorm.blocks"}

    def test_parallelism_loads_no_pool(self):
        loaded = self.loaded("--parallelism", "4", "audit", "ineq", "--c", "3")
        assert "implicitnorm.audits" in loaded
        assert "concurrent.futures" not in loaded


class TestSingleThreaded:
    """The memo and the composition tables carry no locks, which is sound
    only while nothing in the package runs engine code on threads."""

    POOLS = ("threading", "concurrent", "multiprocessing")

    @pytest.mark.parametrize("path", sorted((SRC / "implicitnorm").glob("*.py")),
                             ids=lambda path: path.name)
    def test_no_thread_or_process_imports(self, path):
        found = []
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [name for name in names if name.split(".")[0] in self.POOLS]
        assert found == []


def _defined_in(module) -> list:
    """The functions and classes ``module`` defines, with the functions
    its classes define (properties by their getters)."""
    own = [obj for obj in vars(module).values()
           if inspect.isfunction(obj) or inspect.isclass(obj)
           if obj.__module__ == module.__name__]
    for cls in [obj for obj in own if inspect.isclass(obj)]:
        for attr in vars(cls).values():
            attr = attr.fget if isinstance(attr, property) else attr
            attr = getattr(attr, "__func__", attr)      # static and class methods
            if inspect.isfunction(attr):
                own.append(attr)
    return own


class TestAnnotations:
    """A lazily imported module is not bound where a command does not run
    it, so an annotation that names it fails only when read; every
    annotation must resolve from its module's globals and the imports of
    the module's ``if TYPE_CHECKING:`` block."""

    @pytest.mark.parametrize("path", sorted((SRC / "implicitnorm").glob("*.py")),
                             ids=lambda path: path.name)
    def test_type_hints_resolve(self, path):
        name = "implicitnorm" if path.stem == "__init__" else f"implicitnorm.{path.stem}"
        module = importlib.import_module(name)
        checking = {"__package__": "implicitnorm", "__name__": name}
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                exec(compile(ast.Module(node.body, []), str(path), "exec"), checking)
        for obj in _defined_in(module):
            typing.get_type_hints(obj, localns=checking)
