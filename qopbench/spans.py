"""Spans around qopcoh's layers, recorded from outside the program.

The tracer replaces each traced function by a wrapper in every qopcoh
namespace that holds it: modules bind names through ``from .linalg import
...``, and ``suites`` dispatches through a dict, so patching the defining
module alone would miss most calls.  Class attributes (``ChoiState``'s
constructor, the cached ``Superoperation.matrix`` build) and the click
command callbacks are wrapped where they live.

Each span records its name, start, end, parent span and operation index.
Spans are kept in memory and written out when the run ends.  A span's self
time is its duration minus the time its child spans cover.
"""

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (metric name, module, attribute) of the traced module-level functions
FUNCTIONS = (
    ("linalg.eig_hermitian", "qopcoh.linalg", "eig_hermitian"),
    ("linalg.sqrt_psd", "qopcoh.linalg", "sqrt_psd"),
    ("channel.is_cptp", "qopcoh.channel", "is_cptp"),
    ("channel.choi_from_operation", "qopcoh.channel", "choi_from_operation"),
    ("coherence.mf_convex_roof", "qopcoh.coherence", "mf_convex_roof"),
    ("coherence.uhlmann_fidelity", "qopcoh.coherence", "uhlmann_fidelity"),
    ("coherence.mf_single_qubit_unitary", "qopcoh.coherence", "mf_single_qubit_unitary"),
    ("superop.classify", "qopcoh.superop", "classify"),
    ("superop.compose", "qopcoh.superop", "compose"),
    ("superop.apply", "qopcoh.superop", "apply"),
    ("superop.sample_class_member", "qopcoh.superop", "sample_class_member"),
    ("suites.theorem11", "qopcoh.suites", "suite_theorem11"),
    ("suites.theorem12", "qopcoh.suites", "suite_theorem12"),
    ("suites.corollary32", "qopcoh.suites", "suite_corollary32"),
    ("suites.theorem21", "qopcoh.suites", "suite_theorem21"),
    ("documents.load_document", "qopcoh.documents", "load_document"),
    ("documents.operation_from_document", "qopcoh.documents", "operation_from_document"),
    ("documents.superoperation_from_document", "qopcoh.documents", "superoperation_from_document"),
    ("documents.dumps_document", "qopcoh.documents", "dumps_document"),
)
CLI_COMMANDS = ("check", "dephase", "convert", "measure", "classify", "verify")
CHOI_STATE = "channel.ChoiState"
MATRIX = "superop.Superoperation.matrix"
LAYERS = (
    [name for name, _, _ in FUNCTIONS if name != "superop.sample_class_member"]
    + [CHOI_STATE, MATRIX]
    + [f"cli.{c}" for c in CLI_COMMANDS]
)


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_index = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = Counter()
        self.self_s = Counter()
        self.counters = Counter()
        self.op = -1
        self._stack = []  # [span index, seconds covered by children]
        self._open = Counter()  # open spans per name
        self._undo = []

    def is_open(self, name) -> bool:
        return self._open[name] > 0

    def _enter(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op_index.append(self.op)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self._open[name] += 1
        self.start.append(time.perf_counter())

    def _exit(self, name):
        t = time.perf_counter()
        idx, covered = self._stack.pop()
        self.end[idx] = t
        duration = t - self.start[idx]
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name, fn, on_enter=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _replace_everywhere(self, original, wrapper):
        """Rebind ``original`` to ``wrapper`` in every qopcoh module and dict."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "qopcoh" or modname.startswith("qopcoh.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((setattr, module, attr, original))
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = wrapper
                            self._undo.append((dict.__setitem__, value, key, original))

    def install(self):
        """Wrap every traced layer of the imported qopcoh package."""
        from qopcoh import channel, cli, superop

        hooks = {
            "coherence.mf_convex_roof": dict(on_return=self._count_restarts),
            "superop.classify": dict(on_enter=self._count_sampled_classify),
            "superop.sample_class_member": dict(on_return=lambda _: self.counters.update(["sampled"])),
        }
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self.wrap(name, original, **hooks.get(name, {})))

        init = channel.ChoiState.__init__
        channel.ChoiState.__init__ = self.wrap(CHOI_STATE, init)
        self._undo.append((setattr, channel.ChoiState, "__init__", init))

        prop = superop.Superoperation.__dict__["matrix"]
        traced_prop = functools.cached_property(self.wrap(MATRIX, prop.func))
        traced_prop.__set_name__(superop.Superoperation, "matrix")
        superop.Superoperation.matrix = traced_prop
        self._undo.append((setattr, superop.Superoperation, "matrix", prop))

        for command in CLI_COMMANDS:
            cmd = cli.main.commands[command]
            self._undo.append((setattr, cmd, "callback", cmd.callback))
            cmd.callback = self.wrap(f"cli.{command}", cmd.callback)

    def uninstall(self):
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def _count_restarts(self, result):
        history = result.history
        self.counters["restarts"] += len(history)
        best = float("inf")
        for value in history:
            if value < best:
                self.counters["improving_restarts"] += 1
                best = value

    def _count_sampled_classify(self):
        if self.is_open("superop.sample_class_member"):
            self.counters["classify_in_sampling"] += 1

    def per_layer_metrics(self, ops: int) -> dict:
        """Per-operation calls and self time of each layer, plus the ratios."""
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (self.calls[layer] / ops, "calls/op")
            metrics[f"{layer}.self_ms"] = (self.self_s[layer] * 1e3 / ops, "ms/op")
        c = self.counters
        metrics["coherence.mf_convex_roof.restarts"] = (c["restarts"] / ops, "count")
        metrics["coherence.mf_convex_roof.improving_restart_share"] = (
            c["improving_restarts"] / c["restarts"] if c["restarts"] else 0.0,
            "1",
        )
        metrics["superop.sample_class_member.accept_ratio"] = (
            c["sampled"] / c["classify_in_sampling"] if c["classify_in_sampling"] else 0.0,
            "1",
        )
        return metrics

    def write(self, path):
        """Write the spans as columns of an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_index, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
