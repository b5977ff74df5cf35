"""Start-up: ``import chainmat`` loads no submodule, and each command loads
only the modules it uses.  Every check runs in a fresh interpreter, since
this test process has long since imported everything."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import chainmat

SRC = os.path.dirname(os.path.dirname(chainmat.__file__))
sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks"))
from workloads import cli_menu  # noqa: E402  (the benchmark's command list)

SUBMODULES = {f"chainmat.{m.name}" for m in pkgutil.iter_modules(chainmat.__path__)}
NOT_FOR_ENUMGEO = {f"chainmat.{n}" for n in ("linalg", "modindep", "indepsys", "codes", "howell")}

# Runs a command through ``chainmat.cli.main`` with its output discarded.
RUN_COMMAND = """
import io, sys
out, sys.stdout = sys.stdout, io.StringIO()
from chainmat.cli import main
main(sys.argv[1:])
sys.stdout = out
"""
# Then prints the chainmat submodules loaded, and dataclasses if it is.
REPORT = """
import sys
print(' '.join(m for m in sys.modules if m.startswith('chainmat.') or m == 'dataclasses'))
"""


def _table():
    """(code or argv, modules that must be absent from sys.modules), one
    row per command."""
    rows = {}

    def absent(command, modules):
        rows.setdefault(command, set()).update(modules)

    absent("import chainmat", SUBMODULES)
    absent("import chainmat.cli", {"chainmat.howell", "chainmat.oracle", "chainmat.gallery"})
    absent(("--json", "check-matroid", "data:vamos_z8"),
           {f"chainmat.{n}" for n in ("codes", "enumgeo", "gallery", "oracle")})
    absent(("bound", "--ring", "z:4", "-k", "2", "--antichain"), NOT_FOR_ENUMGEO)
    absent(("counting", "--ring", "z:1024", "--shape", "2,0,0", "-s", "3"), NOT_FOR_ENUMGEO)
    # the code commands list codewords, where they read any, from Howell
    # forms, so none of them loads modindep
    for argv in (("puncture", "data:vamos_z8", "-X", "a"), ("shorten", "data:vamos_z8", "-X", "a,b"),
                 ("dual-code", "data:vamos_z8"), ("contractible", "data:vamos_z8", "-e", "a"),
                 ("contract", "data:vamos_z8", "-X", "a,b")):
        absent(argv, {"chainmat.modindep"})
    # no command loads the oracle without --oracle, and none in the
    # benchmark's list loads dataclasses
    for argv in (("dual-code", "data:nonchain_free_G"), ("snf", "data:p8_z4"), ("dual-system", "data:p8_z4"),
                 ("minor", "data:p8_z4", "--delete", "a"), ("indep", "data:not_monotonic")):
        absent(argv, {"chainmat.oracle"})
    for argv in cli_menu():
        absent(tuple(argv), {"chainmat.oracle", "dataclasses"})
    return [pytest.param(c, mods, id=c if isinstance(c, str) else " ".join(c)) for c, mods in rows.items()]


@pytest.mark.parametrize("command, absent", _table())
def test_startup_loads_only_what_it_uses(command, absent):
    # Every command pays for compiling what it imports: without cached
    # bytecode that is most of a small command's time.
    code, argv = (command, ()) if isinstance(command, str) else (RUN_COMMAND, command)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    # -S skips the site hooks, which take most of a bare interpreter's
    # start-up; chainmat comes from PYTHONPATH either way
    proc = subprocess.run([sys.executable, "-S", "-c", code + REPORT, *argv],
                          capture_output=True, text=True, env=env, check=True)
    loaded = set(proc.stdout.split())
    assert not loaded & absent, sorted(loaded & absent)


def test_lazy_package_surface():
    for name in chainmat.__all__:
        home = importlib.import_module(f"chainmat.{chainmat._HOME[name]}")
        assert getattr(chainmat, name) is getattr(home, name), name
    names = {}
    exec("from chainmat import *", names)
    assert set(names) - {"__builtins__"} == set(chainmat.__all__)
    assert set(chainmat.__all__) <= set(dir(chainmat))
    with pytest.raises(AttributeError):
        chainmat.no_such_name
    from chainmat import cli, howell

    assert cli is sys.modules["chainmat.cli"] and howell is sys.modules["chainmat.howell"]
