"""The registry core: registration, aliases, suggestions, lazy loading."""

import ast
import json
import pathlib
import subprocess
import sys
import warnings

import pytest

from repro import registry
from repro.errors import ProtocolError, RegistryError, UnknownRegistryEntry
from repro.registry import Registry

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: Every package whose init is one table handed to ``repro._lazy_exports``
#: (``repro.registry`` defines its names in its init).
LAZY_PACKAGES = ["repro", *sorted(
    f"repro.{init.parent.name}" for init in SRC.glob("repro/*/__init__.py")
    if init.parent.name != "registry")]

#: Submodules a bare package import loads: an export named like its
#: defining submodule is bound at import, with what that submodule imports.
EAGERLY_LOADED = {
    "repro.graphs": {"repro.graphs.degeneracy", "repro.graphs.labeled"},
    "repro.results": {"repro.results.aggregate"},
}


def _export_table(package: str) -> list[tuple[str, tuple[str, ...]]]:
    """The ``(module, names)`` table ``package``'s init hands ``_lazy_exports``."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    calls = [node for node in ast.walk(ast.parse(init.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_exports"]
    assert len(calls) == 1, init
    return [(package if isinstance(module, ast.Name) else ast.literal_eval(module),
             ast.literal_eval(names)) for module, names in (row.elts for row in calls[0].args[1].elts)]


def _fresh() -> Registry:
    reg = Registry("widget", label="widget", context_params=1)

    @reg.register("alpha", capabilities=("fast",), aliases=("a",),
                  deprecated_aliases=("old_alpha",))
    def _alpha(n, size: int = 3):
        """Builds an alpha."""
        return ("alpha", n, size)

    @reg.register("beta", summary="explicit summary wins")
    def _beta(n, **anything):
        """Docstring summary (unused)."""
        return ("beta", n, anything)

    return reg


class TestRegistration:
    def test_get_build_and_metadata(self):
        reg = _fresh()
        assert reg.build("alpha", 8) == ("alpha", 8, 3)
        entry = reg.entry("alpha")
        assert entry.summary == "Builds an alpha."
        assert entry.capabilities == ("fast",)
        # context param (n) is excluded from the tunable-param schema
        assert dict(entry.params) == {"size": "int = 3"}
        assert reg.entry("beta").summary == "explicit summary wins"

    def test_duplicate_name_rejected(self):
        reg = _fresh()
        with pytest.raises(RegistryError, match="duplicate"):
            reg.register("alpha")(lambda n: None)

    def test_reregistering_same_factory_is_idempotent(self):
        reg = Registry("widget")

        def factory():
            return 1

        reg.register("x")(factory)
        reg.register("x")(factory)  # module re-exec: no error
        assert len(reg) == 1

    def test_alias_collisions_rejected(self):
        reg = _fresh()
        with pytest.raises(RegistryError, match="alias"):
            reg.register("gamma", aliases=("a",))(lambda n: None)
        with pytest.raises(RegistryError, match="shadows"):
            reg.register("delta", aliases=("beta",))(lambda n: None)

    def test_canonical_name_cannot_steal_an_alias(self):
        reg = _fresh()
        with pytest.raises(RegistryError, match="already an alias"):
            reg.register("a")(lambda n: None)
        assert reg.resolve("a") == "alpha"  # alias still intact

    def test_rejected_registration_leaves_no_partial_state(self):
        reg = _fresh()
        with pytest.raises(RegistryError):
            reg.register("gamma", aliases=("fresh", "a"))(lambda n: None)
        assert "gamma" not in reg       # entry not half-installed
        assert "fresh" not in reg       # earlier alias rolled back too
        assert list(reg) == ["alpha", "beta"]

    def test_membership_len_iter(self):
        reg = _fresh()
        assert "alpha" in reg and "a" in reg and "nope" not in reg
        assert len(reg) == 2
        assert list(reg) == ["alpha", "beta"]


class TestAliases:
    def test_plain_alias_resolves_silently(self):
        reg = _fresh()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reg.resolve("a") == "alpha"
            assert reg.get("a") is reg.get("alpha")

    def test_deprecated_alias_warns_once_and_resolves(self):
        reg = _fresh()
        with pytest.warns(DeprecationWarning, match="'old_alpha' is deprecated"):
            assert reg.resolve("old_alpha") == "alpha"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert reg.resolve("old_alpha") == "alpha"  # second use: silent


class TestUnknown:
    def test_suggestion_and_payload(self):
        reg = _fresh()
        with pytest.raises(UnknownRegistryEntry, match="did you mean 'alpha'") as exc:
            reg.get("alpa")
        assert exc.value.kind == "widget"
        assert exc.value.name == "alpa"
        assert exc.value.suggestion == "alpha"
        assert exc.value.known == ("alpha", "beta")

    def test_no_close_match_lists_known(self):
        reg = _fresh()
        with pytest.raises(UnknownRegistryEntry) as exc:
            reg.get("zzzzzz")
        assert exc.value.suggestion is None
        assert "did you mean" not in str(exc.value)
        assert "known: alpha, beta" in str(exc.value)

    def test_is_both_protocol_error_and_key_error(self):
        reg = _fresh()
        with pytest.raises(ProtocolError):
            reg.get("nope")
        with pytest.raises(KeyError):
            reg.get("nope")


class TestParamValidation:
    def test_unknown_param_rejected_with_accepted_list(self):
        reg = _fresh()
        with pytest.raises(RegistryError, match="unknown parameter.*'sise'.*size"):
            reg.validate_params("alpha", {"sise": 4})

    def test_var_keyword_factory_accepts_anything(self):
        reg = _fresh()
        reg.validate_params("beta", {"whatever": 1})  # **anything: no error


class TestLazyLoading:
    def test_modules_import_on_first_use_only(self, tmp_path, monkeypatch):
        probe = tmp_path / "lazy_probe_mod.py"
        probe.write_text(
            "import builtins\n"
            "builtins._lazy_probe_count = getattr(builtins, '_lazy_probe_count', 0) + 1\n"
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        import builtins
        monkeypatch.delattr(builtins, "_lazy_probe_count", raising=False)

        reg = Registry("widget", modules=("lazy_probe_mod",))
        assert not hasattr(builtins, "_lazy_probe_count")  # nothing imported yet
        reg.names()
        assert builtins._lazy_probe_count == 1
        reg.names()
        assert builtins._lazy_probe_count == 1  # loaded once
        sys.modules.pop("lazy_probe_mod", None)
        monkeypatch.delattr(builtins, "_lazy_probe_count", raising=False)

    def test_import_repro_registry_stays_cheap(self):
        """`import repro.registry` must not drag in protocol/analysis modules."""
        code = (
            "import sys, repro.registry\n"
            "heavy = [m for m in ('repro.protocols.degeneracy_reconstruction',"
            " 'repro.analysis.experiments', 'repro.sketching.connectivity')"
            " if m in sys.modules]\n"
            "assert not heavy, heavy\n"
            "repro.registry.PROTOCOL.names()\n"
            "assert 'repro.protocols.degeneracy_reconstruction' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_import_repro_cli_stays_cheap(self):
        """Every CLI verb pays for `import repro.cli`; keep heavy deps out."""
        code = (
            "import sys, repro.cli\n"
            "heavy = [m for m in ('numpy', 'networkx',"
            " 'repro.analysis.experiments') if m in sys.modules]\n"
            "assert not heavy, heavy\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    #: Packages (with their submodules) the read side must not load.
    ENGINE_SIDE = (
        "repro.engine.executor", "repro.engine.campaign", "repro.engine.shard",
        "repro.engine.scenario", "repro.engine.faults", "repro.model",
        "repro.graphs", "repro.obs", "concurrent.futures", "multiprocessing",
    )

    def _assert_not_loaded(self, setup: str, allowed: tuple[str, ...] = ()) -> None:
        code = (
            f"import sys\n{setup}\n"
            f"heavy = [m for m in sys.modules for p in {self.ENGINE_SIDE!r}"
            f" if (m == p or m.startswith(p + '.')) and m not in {allowed!r}]\n"
            "assert not heavy, heavy\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_import_repro_results_loads_no_engine(self):
        self._assert_not_loaded("import repro.results")

    def test_report_verb_loads_no_engine(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--no-progress"]) == 0
        capsys.readouterr()
        records = str(tmp_path / "smoke.jsonl")
        self._assert_not_loaded(
            "import contextlib, io, repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    assert repro.cli.main(['report', {records!r}]) == 0\n"
            "assert ' runs by ' in out.getvalue()"
        )

    @pytest.fixture()
    def smoke_records(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["campaign", "smoke", "--results-dir", str(tmp_path),
                     "--no-progress"]) == 0
        capsys.readouterr()
        return str(tmp_path / "smoke.jsonl")

    @pytest.mark.parametrize("verb", ["diff", "baseline check", "report --trend"])
    def test_spec_hashing_verbs_load_no_scenario(self, verb, smoke_records, tmp_path):
        """These verbs key records by spec hash; the hash lives in the
        package init, so they load no engine submodule (the trend ledger
        appends through the shard writer, which loads no scenario)."""
        baseline = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "baselines" / "smoke.json"
        argv, allowed = {
            "diff": (["diff", smoke_records, smoke_records], ()),
            "baseline check": (["baseline", "check", smoke_records, str(baseline)], ()),
            "report --trend": (["report", smoke_records, "--trends",
                                str(tmp_path / "trends.jsonl")], ("repro.engine.shard",)),
        }[verb]
        self._assert_not_loaded(
            "import contextlib, io, repro.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert repro.cli.main({argv!r}) == 0\n",
            allowed,
        )

    def test_import_engine_campaign_loads_no_multiprocessing(self):
        code = (
            "import sys, repro.engine.campaign\n"
            "assert 'multiprocessing' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_package_exports_resolve_lazily(self, package):
        """Importing a package loads none of its submodules but the eagerly
        bound ones; each `__all__` name is its table module's object (also
        when every submodule was imported first) and is in `dir()`."""
        table = _export_table(package)
        code = (
            f"import importlib, inspect, pkgutil, sys, {package} as pkg\n"
            f"loaded = {{m for m in sys.modules if m.startswith({package + '.'!r})}}\n"
            f"assert loaded == {EAGERLY_LOADED.get(package, set())!r}, loaded\n"
            f"table = {table!r}\n"
            "assert pkg.__all__ == [name for _, names in table for name in names]\n"
            "for info in pkgutil.iter_modules(pkg.__path__):\n"
            "    if info.name != '__main__':\n"
            "        importlib.import_module(f'{pkg.__name__}.{info.name}')\n"
            "for module, names in table:\n"
            "    home = importlib.import_module(module)\n"
            "    for name in names:\n"
            "        value = getattr(pkg, name)\n"
            "        assert value is getattr(home, name) and name in home.__all__, name\n"
            "        if inspect.isfunction(value) or inspect.isclass(value):\n"
            "            assert getattr(sys.modules[value.__module__], name) is value, name\n"
            "        assert name in dir(pkg), name\n"
            "try:\n"
            "    pkg.no_such_export\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('unknown name resolved')\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_engine_keeps_its_spec_version(self):
        code = (
            "import repro.engine as e\n"
            "from repro.engine import scenario\n"
            "assert e.SPEC_VERSION is scenario.SPEC_VERSION == 2\n"
            "assert 'SPEC_VERSION' not in e.__all__ and 'spec_content_hash' not in e.__all__\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_exports_named_like_their_submodule_stay_functions(self):
        """Importing the submodule first must not rebind the package name."""
        code = (
            "import inspect, repro.graphs.degeneracy, repro.results.aggregate, repro\n"
            "for value in (repro.degeneracy, repro.graphs.degeneracy,\n"
            "              repro.aggregate, repro.results.aggregate):\n"
            "    assert inspect.isfunction(value), value\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_package_init_holds_one_export_table(self, package):
        """No init defines its own `__getattr__` / `__dir__` or a `_LAZY`
        map (the helper's are nested), and no init names an export twice."""
        init = SRC.joinpath(*package.split("."), "__init__.py")
        tree = ast.parse(init.read_text())
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert not defined & {"__getattr__", "__dir__"}
        assigned = {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        assert not any(name.startswith("_LAZY") for name in assigned)
        names = [name for _, row in _export_table(package) for name in row]
        assert len(names) == len(set(names))

    def test_import_serve_client_loads_no_daemon(self):
        """`submit` / `jobs` / `job` and `Session.submit` pay only for the client."""
        code = (
            "import sys, repro.serve.client\n"
            "heavy = [m for m in sys.modules if m == 'asyncio' or m.startswith(('asyncio.',"
            " 'repro.engine')) or m in ('repro.serve.http', 'repro.serve.queue',"
            " 'repro.serve.store')]\n"
            "assert not heavy, heavy\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_protocol_owner_map_matches_the_registrations(self):
        """Each mapped name loads alone, from exactly its module, and the
        map covers every registered protocol."""
        owners = registry.PROTOCOL.owners
        assert set(owners) == set(registry.PROTOCOL.names())
        for name, module in owners.items():
            assert registry.PROTOCOL.entry(name).module == module
        code = (
            "import sys, repro.registry as r\n"
            f"for name, module in {owners!r}.items():\n"
            "    assert r.PROTOCOL.resolve(name) == name\n"
            "    assert module in sys.modules, module\n"
            "    assert r.PROTOCOL._entries[name].module == module, name\n"
            "    assert not r.PROTOCOL._loaded, name\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    DEGENERACY = {"name": "d", "family": "random_k_degenerate", "sizes": [12],
                  "protocol": "degeneracy", "seeds": [0, 1],
                  "family_params": {"k": 2}, "protocol_params": {"k": 2}}

    def _assert_serial_campaign_skips(self, tmp_path, scenarios, heavy: str) -> None:
        """Run ``scenarios`` twice (cold, then all cache hits) as one serial
        ``repro campaign`` in a fresh process, then assert that no module
        name in ``sys.modules`` satisfies the expression ``heavy`` of ``m``."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"name": "c", "scenarios": scenarios}))
        argv = ["campaign", str(spec), "--results-dir", str(tmp_path / "r"),
                "--executor", "serial", "--no-progress"]
        code = (
            "import contextlib, io, sys, repro.cli\n"
            "for _ in range(2):  # cold, then every run a cache hit\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert repro.cli.main({argv!r}) == 0\n"
            f"heavy = [m for m in sys.modules if {heavy}]\n"
            "assert not heavy, heavy\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_serial_campaign_loads_only_the_protocols_it_names(self, tmp_path):
        forest = {"name": "f", "family": "random_forest", "sizes": [12],
                  "protocol": "forest", "seeds": [0, 1]}
        self._assert_serial_campaign_skips(
            tmp_path, [self.DEGENERACY, forest],
            "m.startswith('repro.sketching') or m.split('.')[0] == 'logging'"
            " or m.startswith('concurrent')")

    def test_degeneracy_campaign_loads_no_other_protocol_module(self, tmp_path):
        others = ("forest", "generalized_degeneracy", "bounded_degree",
                  "partition_connectivity", "adaptive_query", "trivial")
        self._assert_serial_campaign_skips(
            tmp_path, [self.DEGENERACY],
            f"m in {tuple(f'repro.protocols.{o}' for o in others)!r}")

    def test_agm_campaign_loads_no_other_sketch_protocol(self, tmp_path):
        agm = {"name": "a", "family": "two_components", "sizes": [16],
               "protocol": "agm_connectivity", "seeds": [0, 1]}
        self._assert_serial_campaign_skips(
            tmp_path, [agm],
            "m in ('repro.sketching.bipartiteness', 'repro.sketching.multiround_conn')")

    def test_unknown_protocol_suggests_over_the_full_list(self):
        code = (
            "from repro.engine import Scenario\n"
            "from repro.errors import UnknownRegistryEntry\n"
            "for typo, near in (('agm_conectivity', 'agm_connectivity'),"
            " ('degenracy', 'degeneracy')):\n"
            "    try:\n"
            "        Scenario(name='s', family='path', sizes=(8,), protocol=typo)\n"
            "    except UnknownRegistryEntry as exc:\n"
            "        assert exc.suggestion == near, exc\n"
            "        assert len(exc.known) == 7 and 'sketch_bipartiteness' in exc.known\n"
            "    else:\n"
            "        raise AssertionError(typo)\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_unknown_engine_name_raises_attribute_error(self):
        import repro.engine

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            repro.engine.Nope  # noqa: B018


class TestGlobalRegistries:
    def test_catalog_covers_all_kinds_sorted(self):
        catalog = registry.catalog()
        assert list(catalog) == ["campaign", "experiment", "graph_family",
                                 "protocol", "span"]
        for entries in catalog.values():
            assert list(entries) == sorted(entries)
            for meta in entries.values():
                assert set(meta) == {"aliases", "capabilities", "deprecated_aliases",
                                     "kind", "module", "params", "summary"}

    def test_registrations_live_in_their_own_modules(self):
        """Protocols/families register where they are implemented."""
        assert registry.PROTOCOL.entry("degeneracy").module == \
            "repro.protocols.degeneracy_reconstruction"
        assert registry.PROTOCOL.entry("agm_connectivity").module == \
            "repro.sketching.connectivity"
        assert registry.GRAPH_FAMILY.entry("random_planar").module == \
            "repro.graphs.generators"
        assert registry.EXPERIMENT.entry("EXP-T5").module == \
            "repro.analysis.experiments"
        assert registry.CAMPAIGN.entry("smoke").module == "repro.engine.campaign"

    def test_capability_metadata(self):
        deg = registry.PROTOCOL.entry("degeneracy")
        assert "reconstruction" in deg.capabilities
        agm = registry.PROTOCOL.entry("agm_connectivity")
        assert {"decision", "sketching", "randomized"} <= set(agm.capabilities)

    def test_registry_for_unknown_kind(self):
        with pytest.raises(RegistryError, match="unknown registry kind"):
            registry.registry_for("flavour")

    def test_retired_benchmark_kind_is_unknown(self):
        assert "benchmark" not in registry.kinds()
        with pytest.raises(RegistryError, match="known: graph_family, protocol"):
            registry.registry_for("benchmark")

    def test_scenario_unknown_names_suggest(self):
        from repro.engine import Scenario

        with pytest.raises(UnknownRegistryEntry, match="did you mean 'degeneracy'"):
            Scenario(name="s", family="path", sizes=(8,), protocol="degenracy")
        with pytest.raises(UnknownRegistryEntry, match="did you mean 'random_planar'"):
            Scenario(name="s", family="random_plana", sizes=(8,), protocol="forest")

    def test_scenario_canonicalizes_aliases(self):
        from repro.engine import Scenario

        spec = next(Scenario(name="s", family="gnp", sizes=(8,),
                             protocol="full_adjacency").expand())
        assert spec.family == "erdos_renyi"
