"""The files every command writes, and the one module that writes them.

Each subcommand of `hoimix.cli.main` runs in process on a tiny config, and
each file it writes must hold exactly the text built from the library's own
results. Then an AST check keeps every other module of `src/hoimix` from
writing a file by hand."""

import ast
import dataclasses
import json
import os
import pathlib

import pytest

from hoimix import cli, experiment
from hoimix.checkpoint import save_checkpoint
from hoimix.cli import main
from hoimix.evaluation import CSV_HEADER, report_to_dict
from hoimix.experiment import (
    AGGREGATE_HEADER,
    ExperimentConfig,
    prepare_world,
    run_class_split,
    run_experiment,
    run_ratio_sweep,
)
from hoimix.model import ModelParams
from hoimix.pseudo_label import iterate_cycles
from hoimix.synth_world import WorldConfig

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hoimix"

CFG = ExperimentConfig(
    world=WorldConfig(n_object_classes=3, n_verb_classes=2, n_hoi_classes=6, n_images=60, seed=31),
    ws_fraction=0.5,
    fs_fraction=0.5,
    us_fraction=0.0,
    iterations=200,
    n_test_images=16,
    hidden_dim=24,
)


def json_file(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def assert_files(directory, expected: dict) -> None:
    """The directory holds exactly the expected files (no temp file left),
    each with exactly the expected text or bytes."""
    assert sorted(os.listdir(directory)) == sorted(expected)
    for name, content in expected.items():
        path = directory / name
        actual = path.read_bytes() if isinstance(content, bytes) else path.read_text()
        assert actual == content, name


def test_every_command_writes_the_text_of_the_library_results(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json_file(CFG.to_dict()))
    common = ["--config", str(config), "--out-dir"]

    out = tmp_path / "train"
    assert main(["train", *common, str(out), "--run-id", "t"]) == 0
    run = run_experiment(CFG, run_id="t", periodic_eval=True)
    assert capsys.readouterr().out == f"{CSV_HEADER}\n{run.csv_row}\n"
    meta = {"config": CFG.to_dict(), "run_id": "t", "policy": CFG.optimizer.policy.value}
    save_checkpoint(tmp_path / "expected.ckpt", run.params, run.state, meta=meta)
    assert_files(
        out,
        {
            "metrics.csv": f"{CSV_HEADER}\n{run.csv_row}\n",
            "run.log": "".join(run.log.lines()),
            "checkpoint.ckpt": (tmp_path / "expected.ckpt").read_bytes(),
            "config.json": json_file(CFG.to_dict()),
        },
    )

    out = tmp_path / "eval"
    assert main(["eval", *common, str(out), "--checkpoint", str(tmp_path / "train" / "checkpoint.ckpt")]) == 0
    assert_files(out, {"eval.json": json_file(report_to_dict(run.report))})

    out = tmp_path / "sweep"
    assert main(["sweep", *common, str(out), "--ratios", "50/50,100/0", "--n-seeds", "2"]) == 0
    rows, aggregates = run_ratio_sweep(CFG, [(0.5, 0.5, 0.0), (1.0, 0.0, 0.0)], [0, 1])
    assert_files(
        out,
        {
            "sweep.csv": "\n".join([CSV_HEADER, *rows]) + "\n",
            "sweep_aggregate.csv": "\n".join([AGGREGATE_HEADER, *aggregates]) + "\n",
        },
    )

    out = tmp_path / "class-split"
    assert main(["class-split", *common, str(out)]) == 0
    assert_files(out, {"class_split.json": json_file(run_class_split(CFG))})

    out = tmp_path / "pseudo-cycle"
    assert main(["pseudo-cycle", *common, str(out), "--ratio", "30/40/30", "--cycles", "2"]) == 0
    cfg = dataclasses.replace(CFG, ws_fraction=0.3, fs_fraction=0.4, us_fraction=0.3)
    tagged, test_images, rare_ids = prepare_world(cfg)
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    _, reports, base = iterate_cycles(
        tagged, cfg, 2, test_images=test_images, rare_ids=rare_ids, dump_dir=str(dumps)
    )
    expected = {p.name: p.read_text() for p in dumps.iterdir()}
    assert sorted(expected) == [f"pseudo_cycle_{r.cycle}.jsonl" for r in reports]
    expected["pseudo_cycles.json"] = json_file(
        {"base_map_full": base.map_full, "cycles": [dataclasses.asdict(r) for r in reports]}
    )
    assert_files(out, expected)


def no_work(*args, **kwargs):
    raise AssertionError("worked before the output directory was made")


def without_work(monkeypatch):
    """Make every fit (in process or in a forked worker) and the evaluation
    of a checkpoint raise."""
    monkeypatch.setattr(experiment, "fit", no_work)
    monkeypatch.setattr(cli, "evaluate", no_work)


@pytest.mark.parametrize("command", ["train", "eval", "sweep", "class-split"])
def test_a_command_whose_out_dir_cannot_be_made_fails_at_once_naming_it(
    command, monkeypatch, tmp_path, capsys
):
    config = tmp_path / "config.json"
    config.write_text(json_file(CFG.to_dict()))
    ckpt = tmp_path / "checkpoint.ckpt"
    dims = (CFG.world.feature_dim, CFG.hidden_dim, CFG.world.n_hoi_classes)
    save_checkpoint(ckpt, ModelParams.init(*dims, 0), meta={})
    extra = {"eval": ["--checkpoint", str(ckpt)], "sweep": ["--ratios", "50/50", "--n-seeds", "1"]}
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "run"
    without_work(monkeypatch)
    assert main([command, "--config", str(config), "--out-dir", str(out), *extra.get(command, [])]) == 1
    assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{out}'\n"


def test_a_run_or_sweep_whose_out_dir_cannot_be_made_fails_before_training(monkeypatch, tmp_path):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "run"
    without_work(monkeypatch)
    with pytest.raises(NotADirectoryError, match=str(out)):
        run_experiment(CFG, out_dir=str(out))
    with pytest.raises(NotADirectoryError, match=str(out)):
        run_ratio_sweep(CFG, [(0.5, 0.5, 0.0)], [0], out_dir=str(out))


def hand_written_outputs(source: str) -> list[str]:
    """The calls of the source that open a file for writing or make a
    directory: `atomic_open`, `os.makedirs`, and `open` with a literal mode
    that writes, appends, creates or updates; each as `line:call`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "open":
            modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
            if not any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes):
                continue
        elif name not in ("atomic_open", "makedirs"):
            continue
        found.append((node.lineno, name))
    return [f"{line}:{name}" for line, name in sorted(found)]


def test_the_writer_check_finds_every_way_to_write_a_file():
    source = (
        "import os\nfrom .checkpoint import atomic_open\n"
        "os.makedirs(d, exist_ok=True)\n"
        "with atomic_open(p) as fh:\n    pass\n"
        "with checkpoint.atomic_open(p, 'wb') as fh:\n    pass\n"
        "open(p, 'w')\nopen(p, mode='ab')\nopen(p, 'r+')\n"
        "open(p)\nopen(p, 'rb')\nload(p)\n"
    )
    assert hand_written_outputs(source) == [
        "3:makedirs", "4:atomic_open", "6:atomic_open", "8:open", "9:open", "10:open"
    ]


def test_only_the_checkpoint_module_writes_files():
    # every command writes through checkpoint.write_outputs, so a new
    # command cannot write its outputs by hand
    found = {
        path.name: hand_written_outputs(path.read_text())
        for path in sorted(SRC.glob("*.py"))
        if path.name != "checkpoint.py"
    }
    assert {name: calls for name, calls in found.items() if calls} == {}
