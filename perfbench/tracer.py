"""Span tracing of the wamlkit layers, installed from outside the package.

``Tracer.install`` rebinds every public function of every traced module in
every module namespace that holds it (so from-imports such as
``semantics.make_model`` are caught too), and wraps the hand-written
public methods of public classes in place (so ``ModelEvaluator`` is caught
wherever it is referenced).  Dataclass-generated methods are left alone.

A span is (name, start, end, parent span, query id); spans stay in memory
and are written out by ``write``.  A call of a name that is already open
on the stack (a recursive ``mask``) is counted as nested and gets no span
of its own, so it stays inside its outermost span's self time.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

# translate serves only as the oracle, which runs after the timed passes,
# so it is not traced; errors holds no functions
TRACED_MODULES = ("cli", "syntax", "model", "semantics", "bisim", "unravel", "proof", "interp")


def _formula_size(f) -> int:
    # not syntax.ast_size: that is traced, and counting must add no spans
    fields = [getattr(f, k) for k in getattr(f, "__dataclass_fields__", ())]
    return 1 + sum(_formula_size(g) for g in fields if hasattr(g, "__dataclass_fields__"))


def _count_bounded_sat(counts, args, result, error):
    if error is None:
        counts["sat" if result is not None else "unsat"] += 1
    elif type(error).__name__ == "BudgetExceededError":
        counts["budget_exceeded"] += 1


def _count_unravel(counts, args, result, error):
    if error is None:
        counts["nodes"] += len(result.model.worlds)
    elif type(error).__name__ == "BudgetExceededError":
        counts["budget_exceeded"] += 1


def _count_check_script(counts, args, result, error):
    counts["lines"] += len(args[0].lines)


def _count_greatest_bisim(counts, args, result, error):
    if error is None:
        counts["pairs"] += len(result.pairs)


def _count_distinguishing(counts, args, result, error):
    if result is not None:
        counts["formula_size"] += _formula_size(result)


# per-span counters computed from arguments, result or exception
COUNTERS = {
    "semantics.bounded_sat": _count_bounded_sat,
    "unravel.unravel": _count_unravel,
    "proof.check_script": _count_check_script,
    "bisim.greatest_bisim": _count_greatest_bisim,
    "bisim.distinguishing_formula": _count_distinguishing,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.nested: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.query_id = -1
        # open spans: [name, start, time covered by child spans, span index]
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str):
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        self.spans.append(None)  # reserve the index; filled in on exit
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def _exit(self, frame) -> None:
        end = time.perf_counter()
        name, start, covered, index = frame
        self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[index] = (name, start, end, parent, self.query_id)
        self.self_s[name] += duration - covered
        self.total_s[name] += duration

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                tracer.calls[name] += 1
                it = fn(*args, **kwargs)
                while True:
                    frame = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit(frame)
                    tracer.counts[name]["items"] += 1
                    yield item

            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced(*args, **kwargs):
            if tracer._open[name]:
                tracer.nested[name] += 1
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            frame = tracer._enter(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                tracer._exit(frame)
                if counter is not None:
                    counter(tracer.counts[name], args, result, error)

        traced.__wrapped__ = fn
        return traced

    # -- installation -----------------------------------------------------

    def install(self, package: str = "wamlkit") -> None:
        """Rebind the public functions and methods of the traced modules."""
        modules = {
            short: sys.modules[f"{package}.{short}"]
            for short in TRACED_MODULES
            if f"{package}.{short}" in sys.modules
        }
        names = {f"{package}.{short}": short for short in modules}
        wrappers: dict[int, object] = {}  # original callable's id -> wrapper
        for short, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(value, "__module__", None)
                if home not in names:
                    continue
                if inspect.isfunction(value):
                    key = id(value)
                    if key not in wrappers:
                        wrappers[key] = self._wrap(f"{names[home]}.{value.__name__}", value)
                    setattr(module, attr, wrappers[key])
                elif inspect.isclass(value) and id(value) not in wrappers:
                    wrappers[id(value)] = value
                    self._wrap_class(f"{names[home]}.{value.__name__}", value)

    def _wrap_class(self, prefix: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if not inspect.isfunction(value):
                continue
            if attr != "__init__" and attr.startswith("_"):
                continue
            # dataclass-generated methods are compiled from strings
            if not value.__code__.co_filename.endswith(".py"):
                continue
            label = "init" if attr == "__init__" else attr
            setattr(cls, attr, self._wrap(f"{prefix}.{label}", value))

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as gzipped tab-separated lines:
        index, name, start, end, parent index, query id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            for i, (name, start, end, parent, query) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{query}\n")
