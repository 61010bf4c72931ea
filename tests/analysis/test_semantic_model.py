"""Tests for the ZProve semantic model layers.

Covers the module graph (import resolution, closures, fingerprints,
cycle detection, parse errors), name resolution through aliased imports
and re-export chains, the call graph, intra-procedural def-use through
the origin evaluator, and the incremental cache — including the
soundness case: editing a dependency must re-analyze its *untouched*
dependents.
"""

import json

from repro.analysis.semantic import (
    CACHE_VERSION,
    AnalysisCache,
    ModuleGraph,
    SemanticModel,
    func_key,
    module_name_for,
    run_deep,
    rules_signature,
)
from repro.analysis.semantic.dataflow import (
    CONST,
    TAINT_WALLCLOCK,
    param_token,
)


def write_pkg(root, files):
    """Materialize ``{relpath: source}`` as a package tree under root."""
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        # Every directory on the way down becomes a package.
        for parent in path.parents:
            if parent == root:
                break
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
    return root


# ---------------------------------------------------------------------------
# Module graph


class TestModuleGraph:
    def test_module_names_follow_package_structure(self, tmp_path):
        write_pkg(tmp_path, {"pkg/sub/mod.py": "X = 1\n"})
        assert module_name_for(tmp_path / "pkg" / "sub" / "mod.py") == (
            "pkg.sub.mod"
        )
        assert module_name_for(tmp_path / "pkg" / "__init__.py") == "pkg"

    def test_import_edges_and_dependents(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/main.py": "from pkg.util import f\n",
            },
        )
        graph = ModuleGraph.build([tmp_path])
        assert "pkg.util" in graph.imports["pkg.main"]
        assert "pkg.main" in graph.dependents["pkg.util"]
        assert graph.import_closure("pkg.main") >= {"pkg.main", "pkg.util"}
        assert graph.dependent_closure("pkg.util") >= {
            "pkg.util",
            "pkg.main",
        }

    def test_from_pkg_import_submodule_binds_the_module(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/leaf.py": "def f():\n    return 0\n",
                "pkg/main.py": "from pkg import leaf\n",
            },
        )
        graph = ModuleGraph.build([tmp_path])
        bound = graph.imported("pkg.main", "leaf")
        assert bound is not None
        assert bound.module == "pkg.leaf"
        assert bound.symbol is None
        assert bound.internal

    def test_cycle_detection_finds_the_scc(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/a.py": "from pkg import b\n",
                "pkg/b.py": "import pkg.c as c\n",
                "pkg/c.py": "from pkg.a import helper\n",
                "pkg/leaf.py": "X = 1\n",
            },
        )
        graph = ModuleGraph.build([tmp_path])
        assert graph.cycles() == [["pkg.a", "pkg.b", "pkg.c"]]

    def test_acyclic_diamond_has_no_cycles(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/base.py": "X = 1\n",
                "pkg/left.py": "from pkg.base import X\n",
                "pkg/right.py": "from pkg.base import X\n",
                "pkg/top.py": (
                    "from pkg.left import X\nfrom pkg.right import X\n"
                ),
            },
        )
        assert ModuleGraph.build([tmp_path]).cycles() == []

    def test_fingerprint_changes_only_with_the_import_closure(
        self, tmp_path
    ):
        files = {
            "pkg/dep.py": "def base(x):\n    return x\n",
            "pkg/user.py": "from pkg.dep import base\n",
            "pkg/loner.py": "Y = 2\n",
        }
        write_pkg(tmp_path, files)
        before = ModuleGraph.build([tmp_path])
        fp_user = before.fingerprint("pkg.user")
        fp_loner = before.fingerprint("pkg.loner")

        # Rebuilding over identical text is stable.
        again = ModuleGraph.build([tmp_path])
        assert again.fingerprint("pkg.user") == fp_user

        # Editing the dependency invalidates the dependent...
        (tmp_path / "pkg" / "dep.py").write_text(
            "def base(x):\n    return 42\n", encoding="utf-8"
        )
        after = ModuleGraph.build([tmp_path])
        assert after.fingerprint("pkg.user") != fp_user
        # ...but not an unrelated module.
        assert after.fingerprint("pkg.loner") == fp_loner

    def test_parse_errors_are_recorded_not_fatal(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/good.py": "X = 1\n",
                "pkg/bad.py": "def broken(:\n",
            },
        )
        graph = ModuleGraph.build([tmp_path])
        assert "pkg.bad" not in graph.modules
        assert any("bad.py" in p for p in graph.parse_errors)

        report, stats = run_deep([tmp_path], use_cache=False)
        zs000 = [f for f in report.findings if f.code == "ZS000"]
        assert len(zs000) == 1
        assert "bad.py" in zs000[0].path
        assert stats.parse_errors == 1
        assert report.files_checked == len(graph.modules) + 1


# ---------------------------------------------------------------------------
# Name resolution and the call graph


class TestResolution:
    def test_aliased_import_resolves_to_the_definition(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/main.py": (
                    "from pkg.util import f as g\n"
                    "def caller(x):\n"
                    "    return g(x)\n"
                ),
            },
        )
        model = SemanticModel.build([tmp_path])
        info = model.resolve_callable("pkg.main", "g")
        assert info is not None
        assert (info.module, info.qualname) == ("pkg.util", "f")

    def test_callgraph_edge_through_aliased_import(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/main.py": (
                    "from pkg.util import f as g\n"
                    "def caller(x):\n"
                    "    return g(x)\n"
                ),
            },
        )
        model = SemanticModel.build([tmp_path])
        caller = model.symbols_of("pkg.main").lookup_function("caller")
        callees = model.callgraph.callees(func_key(caller))
        assert ("pkg.util", "f") in callees
        assert ("pkg.util", "f") in model.callgraph.reachable(
            [func_key(caller)]
        )

    def test_reexport_chain_is_chased(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/__init__.py": "from pkg.util import f\n",
                "other.py": (
                    "from pkg import f\n"
                    "def use(x):\n"
                    "    return f(x)\n"
                ),
            },
        )
        model = SemanticModel.build([tmp_path])
        info = model.resolve_callable("other", "f")
        assert info is not None
        assert (info.module, info.qualname) == ("pkg.util", "f")

    def test_class_constructor_resolves_to_init(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/thing.py": (
                    "class Thing:\n"
                    "    def __init__(self, n):\n"
                    "        self.n = n\n"
                ),
                "pkg/main.py": "from pkg.thing import Thing\n",
            },
        )
        model = SemanticModel.build([tmp_path])
        info = model.resolve_callable("pkg.main", "Thing")
        assert info is not None
        assert info.qualname == "Thing.__init__"

    def test_module_alias_dotted_call(self, tmp_path):
        write_pkg(
            tmp_path,
            {
                "pkg/util.py": "def f(x):\n    return x\n",
                "pkg/main.py": "import pkg.util as u\n",
            },
        )
        model = SemanticModel.build([tmp_path])
        info = model.resolve_dotted_callable("pkg.main", "u.f")
        assert info is not None
        assert (info.module, info.qualname) == ("pkg.util", "f")


# ---------------------------------------------------------------------------
# Origin evaluator (def-use)


class TestOrigins:
    def _summary(self, tmp_path, source, qualname):
        write_pkg(tmp_path, {"pkg/mod.py": source})
        model = SemanticModel.build([tmp_path])
        func = model.symbols_of("pkg.mod").lookup_function(qualname)
        assert func is not None
        return model.evaluator.summary(func)

    def test_def_use_across_augmented_assignment(self, tmp_path):
        origins = self._summary(
            tmp_path,
            "def acc(seed):\n"
            "    total = 1\n"
            "    total += seed\n"
            "    return total\n",
            "acc",
        )
        # The augmented assignment folds the old binding into the new
        # one: both the constant and the parameter survive.
        assert param_token("seed") in origins
        assert CONST in origins

    def test_wall_clock_taint_flows_through_helper(self, tmp_path):
        origins = self._summary(
            tmp_path,
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
            "def mk():\n"
            "    return now()\n",
            "mk",
        )
        assert TAINT_WALLCLOCK in origins

    def test_parameter_substitution_at_call_sites(self, tmp_path):
        origins = self._summary(
            tmp_path,
            "def shift(s):\n"
            "    return (s << 1) | 1\n"
            "def outer(seed):\n"
            "    return shift(seed)\n",
            "outer",
        )
        # shift()'s summary is param:s; binding the call argument must
        # rewrite it to the caller's param:seed.
        assert param_token("seed") in origins
        assert param_token("s") not in origins

    def test_recursion_stays_conservative(self, tmp_path):
        origins = self._summary(
            tmp_path,
            "def loop(n):\n"
            "    if n:\n"
            "        return loop(n - 1)\n"
            "    return 0\n",
            "loop",
        )
        assert "unknown" in origins or CONST in origins


# ---------------------------------------------------------------------------
# Incremental cache


CACHED_PKG = {
    "pkg/helper.py": "def base(seed):\n    return seed\n",
    "pkg/main.py": (
        "import random\n"
        "from pkg.helper import base\n"
        "def make(seed):\n"
        "    return random.Random(base(seed))\n"
    ),
    "pkg/loner.py": "Y = 2\n",
}


class TestCache:
    def test_warm_run_is_all_hits(self, tmp_path):
        write_pkg(tmp_path, CACHED_PKG)
        cache = tmp_path / "cache.json"
        report, cold = run_deep([tmp_path], cache_path=cache)
        assert not report.findings
        assert cold.modules_analyzed == cold.modules_total
        assert cold.cache_hits == 0

        report, warm = run_deep([tmp_path], cache_path=cache)
        assert not report.findings
        assert warm.modules_analyzed == 0
        assert warm.cache_hits == warm.modules_total

    def test_dependency_edit_reanalyzes_untouched_dependent(
        self, tmp_path
    ):
        """The soundness case for interprocedural caching.

        main.py never changes, but helper.base's summary flips from
        param-passthrough to constant — the warm run must re-analyze
        main.py (its closure fingerprint changed) and surface the new
        ZS101 finding there.
        """
        write_pkg(tmp_path, CACHED_PKG)
        cache = tmp_path / "cache.json"
        report, _ = run_deep([tmp_path], cache_path=cache)
        assert not report.findings

        (tmp_path / "pkg" / "helper.py").write_text(
            "def base(seed):\n    return 42\n", encoding="utf-8"
        )
        report, stats = run_deep([tmp_path], cache_path=cache)
        zs101 = [f for f in report.findings if f.code == "ZS101"]
        assert len(zs101) == 1
        assert zs101[0].path.endswith("main.py")
        # helper + main re-analyzed; the unrelated module stays cached.
        assert stats.modules_analyzed >= 2
        assert stats.cache_hits >= 1

    def test_corrupt_cache_file_is_tolerated_and_replaced(self, tmp_path):
        write_pkg(tmp_path, CACHED_PKG)
        cache = tmp_path / "cache.json"
        cache.write_text("{not json", encoding="utf-8")
        report, stats = run_deep([tmp_path], cache_path=cache)
        assert not report.findings
        assert stats.cache_hits == 0
        # The run rewrites a valid cache.
        payload = json.loads(cache.read_text(encoding="utf-8"))
        assert payload["version"] == CACHE_VERSION
        assert payload["entries"]

    def test_version_mismatch_invalidates_everything(self, tmp_path):
        write_pkg(tmp_path, CACHED_PKG)
        cache = tmp_path / "cache.json"
        run_deep([tmp_path], cache_path=cache)
        payload = json.loads(cache.read_text(encoding="utf-8"))
        payload["version"] = CACHE_VERSION - 1
        cache.write_text(json.dumps(payload), encoding="utf-8")

        loaded = AnalysisCache(cache)
        loaded.load()
        assert len(loaded) == 0

    def test_rules_hash_mismatch_invalidates_everything(self, tmp_path):
        """Changing the rule set must cold-start the cache.

        Cached findings are per-module *outputs of the rules*; a cache
        written by an older rule set would silently miss everything a
        newly added rule (or a widened one) should flag.
        """
        write_pkg(tmp_path, CACHED_PKG)
        cache = tmp_path / "cache.json"
        run_deep([tmp_path], cache_path=cache)
        payload = json.loads(cache.read_text(encoding="utf-8"))
        assert payload["rules_hash"] == rules_signature()

        stale = AnalysisCache(cache, rules_hash="0" * 16)
        stale.load()
        assert len(stale) == 0

        # And a fresh run against the doctored hash re-analyzes all.
        payload["rules_hash"] = "0" * 16
        cache.write_text(json.dumps(payload), encoding="utf-8")
        report, stats = run_deep([tmp_path], cache_path=cache)
        assert stats.cache_hits == 0
        assert stats.modules_analyzed == stats.modules_total

    def test_rules_signature_tracks_rule_source(self):
        from repro.analysis.semantic import DeepRule, default_deep_rules

        full = rules_signature()
        assert full == rules_signature(list(default_deep_rules()))
        assert len(full) == 16

        class Variant(DeepRule):
            code = "ZS199"
            name = "variant"
            summary = "variant"

            def check_module(self, model, module):
                return []

        subset = rules_signature(list(default_deep_rules())[:2])
        variant = rules_signature([Variant()])
        assert len({full, subset, variant}) == 3

    def test_rules_signature_tracks_module_level_tables(
        self, tmp_path, monkeypatch
    ):
        """A rule's module-level constants are part of its logic."""
        import importlib

        rule_src = (
            "from repro.analysis.semantic import DeepRule\n"
            "EXEMPT = {exempt!r}\n"
            "class TableRule(DeepRule):\n"
            "    code = 'ZS198'\n"
            "    name = 'table'\n"
            "    summary = 'table'\n"
            "    def check_module(self, model, module):\n"
            "        return [] if EXEMPT else []\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        signatures = []
        for exempt in ("a", "b"):
            path = tmp_path / f"table_rule_{exempt}.py"
            path.write_text(rule_src.format(exempt=exempt), encoding="utf-8")
            mod = importlib.import_module(path.stem)
            signatures.append(rules_signature([mod.TableRule()]))
        assert signatures[0] != signatures[1]

    def test_prune_drops_departed_modules(self, tmp_path):
        cache = AnalysisCache(tmp_path / "cache.json")
        cache.put("keep", "fp1", [])
        cache.put("gone", "fp2", [])
        cache.prune(["keep"])
        assert len(cache) == 1
        assert cache.get("keep", "fp1") == []
        assert cache.get("gone", "fp2") is None
