"""The benchmark tracer reads element_swap at its hoimix.batching binding.

It spans every call and counts the swap pool from the call itself: the
first two arguments are walked for their pairs' human_index and
object_index, and the result is measured with len(). A change to what
element_swap takes or returns that the tracer cannot read would otherwise
first fail in a traced benchmark run; test_public_names only checks that
the binding resolves.
"""

import os
import sys

from hoimix.batching import BLOCK_ENTRIES, batch_schedule
from hoimix.experiment import ExperimentConfig, _train_seeds, prepare_world
from hoimix.supervision import SupervisionTag
from hoimix.synth_world import WorldConfig

from image_reference import images_of
from pair_reference import build_pairs, reference_element_swap, reference_swap_candidates
from pair_reference import pair_grid as reference_pair_grid
from step_reference import schedule_batches

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.trace import Tracer  # noqa: E402


def test_traced_batches_span_each_ws_entry_and_count_the_reference_pool():
    # WS-heavy, over two blocks, with swapping on
    cfg = ExperimentConfig(
        world=WorldConfig(n_images=200), ws_fraction=0.8, fs_fraction=0.2, element_swap=True
    )
    tagged, _, _ = prepare_world(cfg)
    _, schedule_seed, _ = _train_seeds(cfg.train_seed)
    schedule = batch_schedule(tagged, schedule_seed)
    with Tracer("swap-seam") as tracer:
        batches = schedule_batches(tagged, schedule, cfg)
    metrics = tracer.metrics(wall_s=1.0)

    images = images_of(tagged)
    ws = [(a, b) for a, b in schedule.images.tolist() if images[a].supervision == SupervisionTag.WS]
    kept = candidates = 0
    for a, b in ws:
        pairs = [
            build_pairs(image, reference_pair_grid(image, cfg.world.feature_dim, cfg.top_k))
            for image in (images[a], images[b])
        ]
        candidates += len(reference_swap_candidates(*pairs))
        kept += len(reference_element_swap(*pairs))
    assert len(batches) == len(schedule.images) > BLOCK_ENTRIES
    assert [span[0] for span in tracer.spans].count("batching.element_swap") == len(ws)
    assert metrics["batching.swap_keep_ratio"] == kept / candidates
