"""The acceptance gate's scenario, the openset-sym40 preset at one method
and one seed, its fit, and the process pool that runs its fits."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

from josnc import harness, trainer


def scenario_config(method: str, seed: int, epochs: int = 60) -> dict:
    """The resolved openset-sym40 config of one method at one seed."""
    base = harness.gen_config("openset-sym40")
    return harness.resolve_config({
        **base, "method": method, "dataset": {**base["dataset"], "seed": seed},
        "train": {**base["train"], "seed": seed, "epochs": epochs}})


def fit_scenario(method: str, seed: int, epochs: int = 60):
    """(dataset, FitResult) of the scenario's fit at one method and seed."""
    cfg = scenario_config(method, seed, epochs)
    ds = harness.build_dataset(cfg)
    return ds, trainer.fit(harness.build_train_config(cfg), ds.train,
                           ds.test_x, ds.test_y, ds.n_id_classes)


def run_pool(fn, keys) -> dict:
    """{key: fn(*key)} for each key tuple, run in spawned worker processes,
    at most one per core; fn must be a module-level function."""
    workers = min(os.cpu_count() or 1, len(keys))
    with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        return dict(zip(keys, pool.map(fn, *zip(*keys))))
