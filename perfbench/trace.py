"""Outside-in span tracer for hoimix.

The tracer wraps public functions at the module attribute that the caller
looks up. The package uses ``from``-imports, so the training loop calls the
binding ``hoimix.experiment.forward``; wrapping ``hoimix.model.forward`` would
catch nothing. Each span records its name, start, end and parent; spans stay
in memory and are written out once the traced run has ended.

A span's name is ``<layer>.<function>``; the layer is the one its self time
is charged to. ``infer_pairs`` is charged to evaluation because it ranks the
predictions an evaluation scores.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from collections import defaultdict

# (module, attribute, span name)
SPANNED = (
    ("hoimix.experiment", "run_experiment", "experiment.run_experiment"),
    ("hoimix.experiment", "run_ratio_sweep", "experiment.run_ratio_sweep"),
    ("hoimix.experiment", "train", "experiment.train"),
    ("hoimix.experiment", "write_run_outputs", "experiment.write_run_outputs"),
    ("hoimix.experiment", "generate_world", "synth_world.generate_world"),
    ("hoimix.experiment", "generate_eval_images", "synth_world.generate_eval_images"),
    ("hoimix.experiment", "split_supervision", "synth_world.split_supervision"),
    ("hoimix.experiment", "batch_schedule", "batching.batch_schedule"),
    ("hoimix.experiment", "assemble_minibatch", "batching.assemble_minibatch"),
    ("hoimix.experiment", "schedule_filter", "optimizer.schedule_filter"),
    ("hoimix.experiment", "forward", "model.forward"),
    ("hoimix.experiment", "backward", "model.backward"),
    ("hoimix.experiment", "ws_loss", "loss.ws_loss"),
    ("hoimix.experiment", "fs_loss", "loss.fs_loss"),
    ("hoimix.experiment", "step", "optimizer.step"),
    ("hoimix.experiment", "evaluate", "evaluation.evaluate"),
    ("hoimix.experiment", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("hoimix.evaluation", "collect_predictions", "evaluation.collect_predictions"),
    ("hoimix.evaluation", "evaluate_predictions", "evaluation.evaluate_predictions"),
    ("hoimix.evaluation", "infer_pairs", "evaluation.infer_pairs"),
    ("hoimix.batching", "element_swap", "batching.element_swap"),
    ("hoimix.batching", "make_fs_targets", "batching.make_fs_targets"),
    ("hoimix.pseudo_label", "iterate_cycles", "pseudo_label.iterate_cycles"),
    ("hoimix.pseudo_label", "forward", "model.forward"),
    ("hoimix.pseudo_label", "us_to_pseudo_fs", "pseudo_label.us_to_pseudo_fs"),
    ("hoimix.pseudo_label", "ws_to_pseudo_fs", "pseudo_label.ws_to_pseudo_fs"),
    ("hoimix.pseudo_label", "evaluate", "evaluation.evaluate"),
    ("hoimix.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
)

# Called too often (once per prediction and ground-truth pair) for a span
# each; these bindings only count their calls.
COUNTED = (
    ("hoimix.batching", "pair_iou", "geometry.pair_iou_calls"),
    ("hoimix.evaluation", "pair_iou", "geometry.pair_iou_calls"),
)

LAYERS = (
    "model",
    "loss",
    "optimizer",
    "batching",
    "synth_world",
    "evaluation",
    "pseudo_label",
    "checkpoint",
    "experiment",
)

# Per-layer metrics and their units. Counts and ratios of counts must repeat
# exactly between two runs at the same seed; the rest are times.
PER_LAYER = {
    "model.forward_us_p50": "us",
    "model.forward_us_tail": "us",
    "model.backward_us_p50": "us",
    "model.backward_us_tail": "us",
    "model.forward_calls": "count",
    "model.backward_calls": "count",
    "model.infer_calls": "count",
    "loss.ws_us": "us",
    "loss.fs_us": "us",
    "loss.ws_calls": "count",
    "loss.fs_calls": "count",
    "optimizer.step_us": "us",
    "optimizer.steps": "count",
    "optimizer.skipped": "count",
    "experiment.iter_us": "us",
    "experiment.train_self_s": "s",
    "experiment.runs": "count",
    "experiment.run_s": "s",
    "experiment.write_outputs_s": "s",
    "evaluation.score_s": "s",
    "evaluation.match_s": "s",
    "evaluation.calls": "count",
    "evaluation.predictions": "count",
    "geometry.pair_iou_calls": "count",
    "batching.assemble_s": "s",
    "batching.batches": "count",
    "batching.iters_per_batch": "ratio",
    "batching.pairs_per_batch": "ratio",
    "batching.element_swap_s": "s",
    "batching.swap_keep_ratio": "ratio",
    "batching.fs_targets_s": "s",
    "synth_world.generate_s": "s",
    "synth_world.generate_calls": "count",
    "synth_world.distinct_world_ratio": "ratio",
    "pseudo_label.relabel_s": "s",
    "pseudo_label.images": "count",
    "pseudo_label.triplets": "count",
    "pseudo_label.cycles": "count",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "count",
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}
EXACT_UNITS = ("count", "ratio")


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count). Below 11 samples no percentile
    has ten beyond it; the largest sample is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 11:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


def _count_skipped(tracer, args, result):
    if not result:
        tracer.counts["optimizer.skipped"] += 1


def _count_batch_pairs(tracer, args, result):
    tracer.counts["batching.pairs"] += result.features.shape[0]


def _count_swap(tracer, args, result):
    pairs1, pairs2 = args[0], args[1]
    humans1 = {p.human_index for p in pairs1}
    objects1 = {p.object_index for p in pairs1}
    humans2 = {p.human_index for p in pairs2}
    objects2 = {p.object_index for p in pairs2}
    built = len(pairs1) + len(pairs2) + len(humans1) * len(objects2) + len(humans2) * len(objects1)
    tracer.counts["batching.swap_candidates"] += built
    tracer.counts["batching.swap_kept"] += len(result)


def _count_predictions(tracer, args, result):
    tracer.counts["evaluation.predictions"] += len(result)


def _record_world(tracer, args, result):
    tracer.worlds.add(args[0])


def _count_checkpoint_bytes(tracer, args, result):
    tracer.counts["checkpoint.bytes"] += os.path.getsize(args[0])


def _count_triplets(tracer, args, result):
    tracer.counts["pseudo_label.triplets"] += len(result)


def _count_cycles(tracer, args, result):
    tracer.counts["pseudo_label.cycles"] += len(result[1])


OBSERVERS = {
    "optimizer.schedule_filter": _count_skipped,
    "batching.assemble_minibatch": _count_batch_pairs,
    "batching.element_swap": _count_swap,
    "evaluation.collect_predictions": _count_predictions,
    "synth_world.generate_world": _record_world,
    "checkpoint.save_checkpoint": _count_checkpoint_bytes,
    "pseudo_label.us_to_pseudo_fs": _count_triplets,
    "pseudo_label.ws_to_pseudo_fs": _count_triplets,
    "pseudo_label.iterate_cycles": _count_cycles,
}


class Tracer:
    """Context manager that wraps the bindings while it is active.

    Not thread-safe, and blind to work done in other processes: both hold
    for the package as it is, which runs every workload on one thread.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.worlds: set = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in SPANNED:
            self._patch(module_name, attr, self._spanned, name)
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, self._counted, name)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _patch(self, module_name: str, attr: str, wrap, name: str) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, wrap(original, name))

    def _spanned(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path: str) -> None:
        """One JSON object per span: id, name, start, end, parent, run."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent if parent >= 0 else None,
                    "run": self.run_id,
                }
                fh.write(json.dumps(record) + "\n")

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced run that took wall_s seconds.

        A span's self time is its duration minus the time its children
        cover; children of one span never overlap on a single thread.
        """
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        durations: defaultdict[str, list[float]] = defaultdict(list)
        self_time: defaultdict[str, float] = defaultdict(float)
        iter_gaps = []
        last_filter: dict[int, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += end - start - covered[i]
            if name == "optimizer.schedule_filter":
                # one schedule_filter call opens every training iteration
                if parent in last_filter:
                    iter_gaps.append(start - last_filter[parent])
                last_filter[parent] = start

        def calls(name):
            return len(durations.get(name, ()))

        def total_s(name):
            return sum(durations.get(name, ()))

        def p50_us(name):
            d = durations.get(name)
            return statistics.median(d) * 1e6 if d else 0.0

        def tail_us(name):
            d = durations.get(name)
            return tail(d)[0] * 1e6 if d else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        counts = self.counts
        batches = calls("batching.assemble_minibatch")
        runs = durations.get("experiment.run_experiment")
        out = {
            "model.forward_us_p50": p50_us("model.forward"),
            "model.forward_us_tail": tail_us("model.forward"),
            "model.backward_us_p50": p50_us("model.backward"),
            "model.backward_us_tail": tail_us("model.backward"),
            "model.forward_calls": calls("model.forward"),
            "model.backward_calls": calls("model.backward"),
            "model.infer_calls": calls("evaluation.infer_pairs"),
            "loss.ws_us": p50_us("loss.ws_loss"),
            "loss.fs_us": p50_us("loss.fs_loss"),
            "loss.ws_calls": calls("loss.ws_loss"),
            "loss.fs_calls": calls("loss.fs_loss"),
            "optimizer.step_us": p50_us("optimizer.step"),
            "optimizer.steps": calls("optimizer.step"),
            "optimizer.skipped": counts["optimizer.skipped"],
            "experiment.iter_us": statistics.median(iter_gaps) * 1e6 if iter_gaps else 0.0,
            "experiment.train_self_s": self_time["experiment.train"],
            "experiment.runs": calls("experiment.run_experiment"),
            "experiment.run_s": statistics.median(runs) if runs else 0.0,
            "experiment.write_outputs_s": total_s("experiment.write_run_outputs"),
            "evaluation.score_s": total_s("evaluation.collect_predictions"),
            "evaluation.match_s": total_s("evaluation.evaluate_predictions"),
            "evaluation.calls": calls("evaluation.evaluate"),
            "evaluation.predictions": counts["evaluation.predictions"],
            "geometry.pair_iou_calls": counts["geometry.pair_iou_calls"],
            "batching.assemble_s": total_s("batching.assemble_minibatch"),
            "batching.batches": batches,
            "batching.iters_per_batch": ratio(calls("optimizer.schedule_filter"), batches),
            "batching.pairs_per_batch": ratio(counts["batching.pairs"], batches),
            "batching.element_swap_s": total_s("batching.element_swap"),
            "batching.swap_keep_ratio": ratio(
                counts["batching.swap_kept"], counts["batching.swap_candidates"]
            ),
            "batching.fs_targets_s": total_s("batching.make_fs_targets"),
            "synth_world.generate_s": total_s("synth_world.generate_world")
            + total_s("synth_world.generate_eval_images"),
            "synth_world.generate_calls": calls("synth_world.generate_world"),
            "synth_world.distinct_world_ratio": ratio(
                len(self.worlds), calls("synth_world.generate_world")
            ),
            "pseudo_label.relabel_s": total_s("pseudo_label.us_to_pseudo_fs")
            + total_s("pseudo_label.ws_to_pseudo_fs"),
            "pseudo_label.images": calls("pseudo_label.us_to_pseudo_fs")
            + calls("pseudo_label.ws_to_pseudo_fs"),
            "pseudo_label.triplets": counts["pseudo_label.triplets"],
            "pseudo_label.cycles": counts["pseudo_label.cycles"],
            "checkpoint.save_s": total_s("checkpoint.save_checkpoint"),
            "checkpoint.load_s": total_s("checkpoint.load_checkpoint"),
            "checkpoint.bytes": counts["checkpoint.bytes"],
        }
        layer_self: defaultdict[str, float] = defaultdict(float)
        for name, seconds in self_time.items():
            layer_self[name.split(".", 1)[0]] += seconds
        for layer in LAYERS:
            out[f"{layer}.share"] = ratio(layer_self[layer], wall_s)
        return out
