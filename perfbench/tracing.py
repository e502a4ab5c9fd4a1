"""Span recorder for the traced run.

The program is traced from outside: public names are replaced, at the module
where their caller looks them up, by wrappers that record a span per call.
A span is (name, start, end, parent, work); spans stay in memory and are
written once the run ends.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

_clock = time.perf_counter_ns


def _rows(index):
    """Work counter: leading dimension of positional argument ``index``."""
    return lambda args: int(args[index].shape[0])


def _pairs(args):
    return int(args[1].shape[0]) * int(args[2].shape[0])


# (module, attribute, span name, work counter).  The module is where the
# caller looks the name up, so only calls from that caller are traced.
MODULE_PATCHES = (
    ("ksivi.train", "siv_sample_batch", "family.sample", None),
    ("ksivi.train", "bandwidth_from_rule", "kernels.bandwidth", None),
    ("ksivi.train", "value_and_grad", "estimators.value_and_grad", None),
    ("ksivi.train", "adam_step", "optim.adam", None),
    ("ksivi.estimators", "f_vectors", "estimators.f_vectors", None),
    ("ksivi.estimators", "eval_matrix", "kernels.gram", _pairs),
    ("ksivi.estimators", "weighted_grad1_sum", "kernels.grad1", _pairs),
    ("ksivi.estimators", "net_vjp_batch_sum", "nets.vjp", _rows(2)),
    ("ksivi.family", "net_forward_batch", "nets.forward", _rows(1)),
    ("ksivi.metrics", "mmd2_ustat", "metrics.mmd2", None),
    ("ksivi.metrics", "mmd2_vstat", "metrics.mmd2_vstat", None),
    ("ksivi.metrics", "sliced_wd", "metrics.sliced_wd", None),
    ("ksivi.metrics", "kl_knn", "metrics.kl_knn", None),
    ("ksivi.metrics", "corr_pairs", "metrics.corr", None),
    ("ksivi.metrics", "upper_triangle", "metrics.corr", None),
    ("ksivi.runio", "read_samples_csv", "runio.read", None),
)

TARGET_METHODS = (
    ("score", "targets.score", _rows(0)),
    ("hvp", "targets.hvp", _rows(0)),
    ("logp", "targets.logp", _rows(0)),
)


class Tracer:
    """In-memory span log with a parent stack (single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.work: list[int] = []
        self.unmeasured: list[str] = []
        self._stack = [-1]
        self._restore: list = []

    def _open(self, name, work):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.work.append(work)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, start):
        self.ends[idx] = _clock()
        self.starts[idx] = start
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, work=0):
        idx = self._open(name, work)
        start = _clock()
        try:
            yield
        finally:
            self._close(idx, start)

    def wrap(self, name, fn, counter=None):
        def traced(*args, **kwargs):
            idx = self._open(name, counter(args) if counter else 0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start)

        return traced

    def _patch(self, owner, attr, name, counter, label):
        if not hasattr(owner, attr):
            self.unmeasured.append(label)
            return
        self._restore.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counter))

    def install(self, target):
        """Wrap every traced name; names a refactor removed are listed as unmeasured."""
        import importlib

        for module_name, attr, name, counter in MODULE_PATCHES:
            module = importlib.import_module(module_name)
            self._patch(module, attr, name, counter, f"{module_name}.{attr}")
        family = importlib.import_module("ksivi.family")
        cls = getattr(family, "SIVParams", None)
        if cls is None or not hasattr(cls, "from_flat"):
            self.unmeasured.append("ksivi.family.SIVParams.from_flat")
        else:
            self._restore.append((cls, "from_flat", vars(cls).get("from_flat")))
            cls.from_flat = staticmethod(self.wrap("family.unflatten", cls.from_flat))
        for attr, name, counter in TARGET_METHODS:
            self._patch(target, attr, name, counter, f"target.{attr}")

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            if raw is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._restore.clear()

    def totals(self):
        """Self time (ns), call count and work, keyed by (root span name, span name)."""
        n = len(self.names)
        child_ns = [0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_ns[p] += self.ends[i] - self.starts[i]
        roots = [0] * n
        for i in range(n):  # parents precede children, so roots resolve in order
            p = self.parents[i]
            roots[i] = self.names[i] if p < 0 else roots[p]
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        work = defaultdict(int)
        for i in range(n):
            key = (roots[i], self.names[i])
            self_ns[key] += self.ends[i] - self.starts[i] - child_ns[i]
            calls[key] += 1
            work[key] += self.work[i]
        return self_ns, calls, work

    def write(self, path):
        """Span log as CSV: index, name, start_ns, end_ns, parent, work."""
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent,work\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]},{self.ends[i]},{self.parents[i]},{self.work[i]}\n")
