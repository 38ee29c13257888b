"""hoimix starts processes one way: `os.fork`, called in one place.

run_many's children and train's block producer both fork through
`experiment._Forked`. An AST check keeps a second fork, and the process and
thread modules of the standard library, out of `src/hoimix`."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hoimix"

MODULES = ("multiprocessing", "concurrent.futures", "threading", "subprocess")


def process_starters(source: str) -> list[str]:
    """The calls of the source named `fork` (`os.fork` or a bare `fork`)
    and its imports of `multiprocessing`, `concurrent.futures`, `threading`
    or `subprocess` (or of a name or submodule of one); each as `line:name`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "fork":
                found.append((node.lineno, "fork"))
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            (node.lineno, name)
            for name in names
            if any(name == module or name.startswith(module + ".") for module in MODULES)
        ]
    return [f"{line}:{name}" for line, name in sorted(found)]


def test_the_process_check_finds_every_fork_and_process_module():
    source = (
        "import os\nimport multiprocessing\nfrom concurrent import futures\n"
        "from concurrent.futures import ProcessPoolExecutor\nimport threading, subprocess\n"
        "from os import fork\nos.fork()\nfork()\n"
        "import concurrent\nfrom .threading import x\nos.forkpty\nos.getpid()\n"
    )
    assert process_starters(source) == [
        "2:multiprocessing",
        "3:concurrent.futures",
        "4:concurrent.futures.ProcessPoolExecutor",
        "5:subprocess",
        "5:threading",
        "7:fork",
        "8:fork",
    ]


def test_hoimix_forks_in_one_place_and_imports_no_process_module():
    found = {path.name: process_starters(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    found = {name: [call.split(":")[1] for call in calls] for name, calls in found.items() if calls}
    assert found == {"experiment.py": ["fork"]}
