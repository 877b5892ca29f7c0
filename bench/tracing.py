"""Parent-linked spans around the program's public functions, for the traced run.

Nothing in ``src/`` is edited.  Each wrapper replaces a function under every
name its callers look it up by: the defining module, each module that imported
the name with ``from ... import``, the class for methods, and the CLI's command
table.  ``Tracer.install`` applies the patches; ``Tracer.restore`` undoes them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

SPAN = "span"
COUNT = "count"


def patch_table():
    """(span name, kind, [(owner, attribute), ...]) for every traced function.

    The first location is where the function is defined; the rest are the
    places its callers look it up.  ``roadcarbon.train`` the package attribute
    is the training function (it shadows the submodule), so the submodule is
    reached through ``sys.modules``.
    """
    import roadcarbon
    from roadcarbon import cli, data, graphs, layers, model, optim, tensor

    train_mod = sys.modules["roadcarbon.train"]
    EM = model.EmissionModel
    return [
        ("data.load_dataset", SPAN, [(data, "load_dataset"), (cli, "load_dataset"), (roadcarbon, "load_dataset")]),
        ("model.prepare_dataset", SPAN, [(model, "prepare_dataset"), (cli, "prepare_dataset"), (roadcarbon, "prepare_dataset")]),
        ("model.refresh_region_cache", SPAN, [(model, "refresh_region_cache"), (train_mod, "refresh_region_cache"), (cli, "refresh_region_cache"), (roadcarbon, "refresh_region_cache")]),
        ("model.EmissionModel.predict_region", SPAN, [(EM, "predict_region")]),
        ("model.EmissionModel.intra_representation", SPAN, [(EM, "intra_representation")]),
        ("model.EmissionModel.inter_representation", SPAN, [(EM, "inter_representation")]),
        ("model.load_checkpoint", SPAN, [(model, "load_checkpoint"), (cli, "load_checkpoint"), (roadcarbon, "load_checkpoint")]),
        ("layers.stack_egat", SPAN, [(layers, "stack_egat"), (model, "stack_egat")]),
        ("layers.stack_hetero", SPAN, [(layers, "stack_hetero"), (model, "stack_hetero")]),
        ("layers.egat_layer", COUNT, [(layers, "egat_layer")]),
        ("graphs.community_node_features", SPAN, [(graphs, "community_node_features"), (model, "community_node_features")]),
        ("tensor.backward", SPAN, [(tensor, "backward"), (train_mod, "backward"), (optim, "backward")]),
        ("tensor.toposort", SPAN, [(tensor, "toposort")]),
        ("optim.Adam.step", SPAN, [(optim.Adam, "step")]),
        ("train.evaluate", SPAN, [(train_mod, "evaluate"), (cli, "evaluate"), (roadcarbon, "evaluate")]),
        ("train.train", SPAN, [(train_mod, "train"), (cli, "train"), (roadcarbon, "train")]),
        ("cli.main", SPAN, [(cli, "main")]),
        ("cli.cmd_predict", SPAN, [(cli, "cmd_predict"), (cli.COMMANDS, "predict")]),
    ]


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """In-memory spans ``[name, start, end, parent_index]``, plus call counts
    of the functions patched with ``COUNT``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans[idx][1] = start
            self.spans[idx][2] = end
            self._stack.pop()

    def _wrap(self, fn, name: str, kind: str):
        if kind == COUNT:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, kind, places in patch_table():
            original = _get(*places[0])
            wrapper = self._wrap(original, name, kind)
            for owner, attr in places:
                current = _get(owner, attr)
                if current is not original:
                    raise RuntimeError(f"{name}: {owner!r}.{attr} is not the defining function")
                self._saved.append((owner, attr, current))
                _set(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)

    # -- aggregation ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def ancestors(self, idx: int):
        parent = self.spans[idx][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def total(self, name: str, under: str | None, parent: str | None = None, self_time: bool = False) -> float:
        """Summed time of spans ``name`` with an ancestor ``under`` (any if None).

        ``parent`` further requires the direct parent to carry that name;
        ``self_time`` subtracts child spans.
        """
        times = self.self_times() if self_time else None
        total = 0.0
        for i, (n, start, end, p) in enumerate(self.spans):
            if n != name or (under is not None and under not in self.ancestors(i)):
                continue
            if parent is not None and (p < 0 or self.spans[p][0] != parent):
                continue
            total += times[i] if self_time else end - start
        return total

    def count(self, name: str, under: str) -> int:
        return sum(
            1 for i, s in enumerate(self.spans) if s[0] == name and under in self.ancestors(i)
        )
