"""Spans and counters recorded around the package's public functions.

The tracer wraps public functions from the benchmark's side: it replaces each
named function in every ``nucontrast`` module that holds it (a function
imported by name into another module is patched there too), records a span
per call, and keeps, per span name, the call count, the total time and the
self time (the span's duration minus the time its child spans cover). A
function that no longer exists is reported as absent, never as a crash.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute): the layer boundaries the benchmark reports.
SPANS = (
    ("linalg.svd", "nucontrast.linalg", "svd"),
    ("linalg.as_matrix", "nucontrast.linalg", "as_matrix"),
    ("contrast.as_label_matrix", "nucontrast.contrast", "as_label_matrix"),
    ("contrast.loss_grad", "nucontrast.contrast", "contrastive_loss_and_gradient"),
    ("contrast.correction", "nucontrast.contrast", "effective_labels"),
    ("losses.bce", "nucontrast.losses", "bce_loss"),
    ("losses.sigmoid", "nucontrast.losses", "sigmoid"),
    ("model.embed_forward", "nucontrast.model", "embed_forward"),
    ("model.classify", "nucontrast.model", "classify"),
    ("model.backward", "nucontrast.model", "backward"),
    ("model.adam_step", "nucontrast.model", "adam_step"),
    ("model.ema_update", "nucontrast.model", "ema_update"),
    ("trainer.train", "nucontrast.trainer", "train"),
    ("trainer.evaluate", "nucontrast.trainer", "evaluate"),
    ("metrics.report", "nucontrast.metrics", "report"),
    ("data.save_dataset", "nucontrast.data", "save_dataset"),
    ("data.load_dataset", "nucontrast.data", "load_dataset"),
    ("model.save_checkpoint", "nucontrast.model", "save_checkpoint"),
    ("model.load_checkpoint", "nucontrast.model", "load_checkpoint"),
)


class Tracer:
    """Records nested spans and counters while installed.

    ``hooks`` maps a span name to ``hook(tracer, args, kwargs, result)``,
    called after the wrapped function returns; hooks add counters and run
    sampled checks, and their own time is charged to no span.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        # [name, start, child time, span index, excluded time]
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter recorded so far."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        # One row per finished span: (name, parent index or -1, start, end).
        self.spans: list[tuple[str, int, float, float]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def exclude(self, seconds: float) -> None:
        """Keep ``seconds`` of foreign work, done inside the innermost open
        span, out of that span's time and its ancestors'."""
        if self._stack:
            self._stack[-1][4] += seconds

    def install(self) -> None:
        """Wrap every function in SPANS wherever a nucontrast module holds it."""
        self.absent = []
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if m is not None and (key == "nucontrast" or key.startswith("nucontrast."))
        ]
        for name, module_name, attr in SPANS:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = len(self.spans)
            self.spans.append((name, parent, 0.0, 0.0))
            frame = [name, clock(), 0.0, index, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1] - frame[4]
                self.spans[index] = (name, parent, frame[1], end)
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                    stack[-1][4] += frame[4]
            hook = self.hooks.get(name)
            if hook is not None:
                hook_start = clock()
                hook(self, args, kwargs, result)
                self.exclude(clock() - hook_start)
            return result

        return wrapper
