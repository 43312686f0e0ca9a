"""Start-up stays in proportion to the command.

Every package re-exports its names lazily and the CLI imports each
command's modules inside its handler, so ``import repro.cli`` loads the
parser's constant tables and nothing else, and a ``repro serve`` tenant
loads the cell factory without the sweep layer.  Like the numpy checks
next door, these run in a fresh interpreter: this test process has long
since imported everything.
"""

from __future__ import annotations

import json

import pytest

from tests.serve.test_numpy_free_imports import _fresh_interpreter

#: Modules ``import repro.cli`` must not load.
CLI_FORBIDDEN = (
    "multiprocessing", "asyncio", "uuid", "numpy", "repro.sweep.broker",
    "repro.traces.workload", "repro.serve", "repro.artifacts",
)

PACKAGES = (
    "repro", "repro.sweep", "repro.sim", "repro.sim.fast", "repro.traces",
    "repro.traces.sources", "repro.serve", "repro.confidence",
    "repro.predictors", "repro.predictors.tage", "repro.artifacts",
    "repro.apps", "repro.analysis", "repro.common",
)


def _loaded(code: str, names) -> list[str]:
    """Which of ``names`` are in ``sys.modules`` after running ``code``."""
    return json.loads(_fresh_interpreter(
        "import json, sys\n" + code
        + f"print(json.dumps(sorted(set({list(names)!r}) & set(sys.modules))))\n"
    ))


def test_cli_import_loads_only_the_parser_tables():
    assert _loaded("import repro.cli\n", CLI_FORBIDDEN) == []


def test_help_loads_no_command_module():
    # ``paper --help`` prints the artifact scales, so only the artifact
    # data model (``repro.artifacts.spec``) may join the parser tables.
    forbidden = [name for name in CLI_FORBIDDEN if name != "repro.artifacts"]
    code = (
        "import contextlib, io\n"
        "import repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        repro.cli.main(['--help'])\n"
        "    except SystemExit:\n"
        "        pass\n"
    )
    assert _loaded(code, forbidden + ["repro.artifacts.registry"]) == []


def test_parser_loads_no_result_cache():
    """The parser prints the default cache directory from its stdlib
    leaf, not from the result cache (and its pickle)."""
    code = "import repro.cli\nrepro.cli.build_parser()\n"
    assert _loaded(code, ("repro.sweep.cache", "repro.sweep", "pickle")) == []


def test_tage_session_loads_no_sweep_layer():
    code = (
        "from repro.serve.state import SessionSpec, TenantSession\n"
        "TenantSession(SessionSpec(tenant='t', predictor='tage-16K'))\n"
    )
    assert _loaded(code, ("repro.sweep.broker", "repro.sweep.executor",
                          "repro.traces.workload", "multiprocessing")) == []


def test_file_trace_loads_no_synthesis(tmp_path):
    """``file:`` replay never loads the scenario zoo or trace synthesis;
    the first registered-name lookup does."""
    path = tmp_path / "t.rtrc"
    code = (
        "from repro.sim.runner import get_trace\n"
        "from repro.traces.io import write_trace\n"
        "from repro.traces.types import Trace\n"
        "pcs = [0x400000 + 4 * (i % 37) for i in range(300)]\n"
        "takens = bytes((i * 7) % 3 == 0 for i in range(300))\n"
        f"write_trace(Trace('t', pcs, takens, [5] * 300), {str(path)!r})\n"
        f"assert len(get_trace('file:' + {str(path)!r}, 200)) == 200\n"
    )
    synthesis = ("repro.traces.sources.zoo", "repro.traces.workload",
                 "repro.traces.suites")
    assert _loaded(code, synthesis) == []
    assert _loaded(code + "get_trace('zoo.markov', 10)\n", synthesis) == [
        "repro.traces.sources.zoo", "repro.traces.workload",
    ]


def test_cbp_trace_loads_no_zoo():
    """The CBP names are registered sources that load nothing to
    register; resolving one loads the synthesis it needs, never the
    scenario zoo."""
    zoo = ("repro.traces.sources.zoo", "repro.traces.sources.generators",
           "repro.traces.sources.adversarial")
    synthesis = ("repro.traces.suites", "repro.traces.workload")
    code = (
        "from repro.traces.sources.base import get_source\n"
        "assert get_source('INT-1').spec_dict()['kind'] == 'cbp1'\n"
    )
    assert _loaded(code, zoo + synthesis) == []
    code = (
        "from repro.traces import resolve_trace\n"
        "assert len(resolve_trace('INT-1', 100)) == 100\n"
    )
    assert _loaded(code, zoo + synthesis) == sorted(synthesis)


@pytest.mark.parametrize("provider", [None, "none"])
def test_first_observe_imports_nothing_the_session_did_not(provider):
    """Work must not move out of HELLO (session construction) into the
    first request: stepping imports no further ``repro`` module."""
    code = (
        "import json, sys\n"
        "from repro.serve.state import SessionSpec, TenantSession\n"
        "session = TenantSession(SessionSpec(tenant='t', predictor='tage-16K'))\n"
        "before = set(sys.modules)\n"
        "pcs = [0x400000 + 4 * (i % 37) for i in range(300)]\n"
        "takens = bytes((i * 7) % 3 == 0 for i in range(300))\n"
        "session.observe_batch(pcs, takens)\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
        "                        if m == 'repro' or m.startswith('repro.'))))\n"
    )
    assert json.loads(_fresh_interpreter(
        code, REPRO_COMPILED_PROVIDER=provider
    )) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_and_is_listed(package):
    code = (
        "import importlib, json\n"
        f"package = importlib.import_module({package!r})\n"
        "listed = dir(package)\n"
        "missing = [name for name in package.__all__ if name not in listed]\n"
        "unresolved = []\n"
        "for name in package.__all__:\n"
        "    try:\n"
        "        getattr(package, name)\n"
        "    except AttributeError:\n"
        "        unresolved.append(name)\n"
        "print(json.dumps([len(package.__all__), missing, unresolved]))\n"
    )
    count, missing, unresolved = json.loads(_fresh_interpreter(code))
    assert count > 0
    assert missing == []
    assert unresolved == []


def test_unknown_attribute_still_raises_attribute_error():
    code = (
        "import repro.sweep\n"
        "try:\n"
        "    repro.sweep.no_such_name\n"
        "except AttributeError as error:\n"
        "    print(error)\n"
    )
    assert _fresh_interpreter(code) == (
        "module 'repro.sweep' has no attribute 'no_such_name'"
    )
