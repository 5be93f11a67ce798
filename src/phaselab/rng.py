"""Deterministic random-stream management.

Every operation in the package takes an explicit numpy Generator. Trial i of an experiment
draws from `stream(master, i)`, so its draws do not depend on how many trials run; work done
once for all trials, such as the batched sampler of `reduction.inversion_experiment`, draws
from `stream(master, BATCH)`, an index no trial uses (a batched rejection sampler gives row i
its child `stream(master, BATCH).spawn(k)[i]`). An inversion trial's stream draws, in this
order, its d seed signs, the d' uniforms of its measurement's lattice points, then that
measurement's d' noise normals; the experiment takes those draws trial by trial and does the
rest (f, the lattice lookups) once for the batch. Trial t of row m of
`posterior.acceptance_curve` draws from `child_stream(master, m, t)`, whose SeedSequence spawn
key no `stream` key matches. The row runs its trials as one batch, yet each child stream's
draw order is a lone trial's: its m signs, its measurement's uniforms and normals, then per
rejection round its proposal rows and their acceptance uniforms. A batch takes distinct
generators: one listed twice in a `sample_unconditional` call would draw both its blocks' bit
+1 lattice uniforms before either block's bit -1 uniforms, not as two lone calls would.
"""

from __future__ import annotations

import numpy as np

BATCH = 2**32 - 1  # the batch stream's index; trial indices stay below it
_SIGNS = np.array([-1, 1])


def stream(master_seed: int, index: int = 0) -> np.random.Generator:
    """Return the generator for sub-stream `index` of `master_seed`."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(index)]))


def child_stream(master_seed: int, *path: int) -> np.random.Generator:
    """The generator of SeedSequence(master_seed).spawn descendant `path` (child, grandchild...)."""
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=path))


def signs(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform -1/+1 entries of `shape`: the draws and generator state of
    rng.choice(np.array([-1, 1]), size=shape), at about half its cost."""
    return _SIGNS[rng.integers(0, 2, shape)]
