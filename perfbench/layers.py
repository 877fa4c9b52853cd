"""Module -> layer table and the per-layer split of a cProfile trace.

Layers are the top-level packages of ``src/repro``.  The measurement
files inside other packages count as ``metrics``, and every module that
is not in one of the twelve layer packages is assigned here too, so this
table is the one place that says which layer a module belongs to.

:func:`split` turns the raw entries of a :class:`cProfile.Profile` into
per-layer self time and cross-layer call counts:

* a ``repro`` function's self time goes to its own layer;
* a builtin or a non-``repro`` Python function (stdlib, dataclass-made
  ``__init__``) has its self time charged to the layers that called it,
  split by the time it spent under each caller and, through further
  non-``repro`` callers, by call counts;
* what has no ``repro`` caller at all is ``unattributed``.

Every second of the profile's total goes to exactly one bucket, so the
layers plus ``unattributed`` add up to the traced total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

LAYERS = (
    "sim", "net", "core", "policy", "sched", "limiters",
    "classify", "cc", "workload", "metrics", "fleet", "runner",
)

UNATTRIBUTED = "unattributed"

#: Caller name for calls that come from outside ``repro`` (the benchmark,
#: the stdlib) in the layer call matrix.
EXTERNAL = "external"

#: Paths relative to ``src/repro``.  A directory entry ("net/") covers
#: every module in it; a file entry overrides its directory.
MODULE_LAYERS = {
    "sim/": "sim",
    "net/": "net",
    "core/": "core",
    "policy/": "policy",
    "sched/": "sched",
    "limiters/": "limiters",
    "classify/": "classify",
    "cc/": "cc",
    "workload/": "workload",
    "metrics/": "metrics",
    "fleet/": "fleet",
    "runner/": "runner",
    # Measurement code counts as metrics wherever it lives.
    "net/trace.py": "metrics",
    "fleet/recorder.py": "metrics",
    "limiters/costs.py": "metrics",
    # Packages that are not layers of their own.
    "experiments/": "runner",
    "validate/": "metrics",
    # Root modules.
    "__init__.py": "runner",
    "churn.py": "policy",
    "scenario.py": "workload",
    "wiring.py": "workload",
    "units.py": "workload",
    "schemes.py": "limiters",
}


def layer_of_relpath(relpath: str) -> str | None:
    """Layer of a module given as a path relative to ``src/repro``."""
    layer = MODULE_LAYERS.get(relpath)
    if layer is not None:
        return layer
    head, sep, _ = relpath.partition("/")
    if sep:
        return MODULE_LAYERS.get(head + "/")
    return None


class LayerMap:
    """Maps code objects (by file name) to layers, with a per-file memo."""

    def __init__(self, package_dir: Path) -> None:
        self._root = str(package_dir.resolve()) + "/"
        self._memo: dict[str, str | None] = {}

    def of_file(self, filename: str) -> str | None:
        """Layer of a source file, or ``None`` outside ``repro``."""
        try:
            return self._memo[filename]
        except KeyError:
            pass
        layer = None
        resolved = str(Path(filename).resolve()) if filename[:1] not in "<~" else ""
        if resolved.startswith(self._root):
            layer = layer_of_relpath(resolved[len(self._root):])
            if layer is None:
                raise KeyError(f"module {resolved} has no layer in MODULE_LAYERS")
        self._memo[filename] = layer
        return layer

    def of(self, code) -> str | None:
        """Layer of a profiler entry's code (``None`` for builtins)."""
        if isinstance(code, str):
            return None
        return self.of_file(code.co_filename)


@dataclass
class Split:
    """One trace split by layer."""

    total_s: float
    self_s: dict[str, float]
    #: Calls entering each layer from another layer (or from outside).
    calls_in: dict[str, int]
    #: ``calls[caller_layer][callee_layer]`` over every call into repro.
    calls: dict[str, dict[str, int]]
    #: Per-function rows ``(label, layer, calls, self_s, cum_s)``.
    functions: list[tuple[str, str | None, int, float, float]] = field(
        default_factory=list
    )

    @property
    def accounted_s(self) -> float:
        return sum(self.self_s.values())


def label(code) -> str:
    """Stable printable name of a profiler entry's code."""
    if isinstance(code, str):
        return code
    return f"{code.co_filename}:{code.co_firstlineno}({code.co_qualname})"


def split(entries, layers: LayerMap) -> Split:
    """Split raw ``Profile.getstats()`` entries by layer."""
    callers: dict[object, list] = {}
    for entry in entries:
        for sub in entry.calls or ():
            callers.setdefault(sub.code, []).append((entry.code, sub))

    owners: dict[object, dict[str, float]] = {}

    def owner(code, visiting: frozenset = frozenset()) -> dict[str, float]:
        """Layer shares of whoever (transitively) called ``code``, by
        call count (deterministic, unlike times)."""
        layer = layers.of(code)
        if layer is not None:
            return {layer: 1.0}
        if code in owners:
            return owners[code]
        weights: dict[str, float] = {}
        if code not in visiting:
            for caller, sub in callers.get(code, ()):
                for who, share in owner(caller, visiting | {code}).items():
                    weights[who] = weights.get(who, 0.0) + sub.callcount * share
        total = sum(weights.values())
        result = (
            {who: w / total for who, w in weights.items()}
            if total > 0 else {UNATTRIBUTED: 1.0}
        )
        if not visiting:
            owners[code] = result
        return result

    def caller_layer(code) -> str:
        """The layer a call is made from: a builtin or stdlib caller
        stands for the layer that (mostly) called it."""
        shares = owner(code)
        who = max(sorted(shares), key=shares.__getitem__)
        return EXTERNAL if who == UNATTRIBUTED else who

    self_s = {layer: 0.0 for layer in LAYERS}
    self_s[UNATTRIBUTED] = 0.0
    calls_in = {layer: 0 for layer in LAYERS}
    calls: dict[str, dict[str, int]] = {}
    functions = []
    total = 0.0
    for entry in entries:
        code = entry.code
        total += entry.inlinetime
        layer = layers.of(code)
        functions.append(
            (label(code), layer, entry.callcount, entry.inlinetime, entry.totaltime)
        )
        incoming = callers.get(code, ())
        if layer is not None:
            self_s[layer] += entry.inlinetime
            counted = 0
            for caller, sub in incoming:
                source = caller_layer(caller)
                row = calls.setdefault(source, {})
                row[layer] = row.get(layer, 0) + sub.callcount
                counted += sub.callcount
                if source != layer:
                    calls_in[layer] += sub.callcount
            # Calls with no profiled caller came from outside the trace.
            top = entry.callcount - counted
            if top:
                row = calls.setdefault(EXTERNAL, {})
                row[layer] = row.get(layer, 0) + top
                calls_in[layer] += top
            continue
        charged = 0.0
        for caller, sub in incoming:
            charged += sub.inlinetime
            for who, share in owner(caller).items():
                self_s[who] += sub.inlinetime * share
        self_s[UNATTRIBUTED] += entry.inlinetime - charged
    functions.sort(key=lambda row: -row[3])
    return Split(
        total_s=total,
        self_s=self_s,
        calls_in=calls_in,
        calls=calls,
        functions=functions,
    )


def _is(code, module: str, qualname: str) -> bool:
    """Whether a profiler entry's code is ``module:qualname`` (``module``
    is a path under ``src/repro``, or ``"~"`` for a builtin's label)."""
    if isinstance(code, str):
        return module == "~" and code == qualname
    return code.co_qualname == qualname and code.co_filename.endswith("/" + module)


def calls_of(entries, module: str, qualname: str, *, caller: str | None = None) -> int:
    """Calls of ``module:qualname``; with ``caller`` (a qualname), only
    the calls made directly by that function."""
    if caller is None:
        return sum(e.callcount for e in entries if _is(e.code, module, qualname))
    return sum(
        sub.callcount
        for e in entries
        if not isinstance(e.code, str) and e.code.co_qualname == caller
        for sub in e.calls or ()
        if _is(sub.code, module, qualname)
    )


def cumulative(entries, module: str, qualname: str) -> tuple[int, float]:
    """``(calls, cumulative seconds)`` of ``module:qualname``."""
    calls, seconds = 0, 0.0
    for e in entries:
        if _is(e.code, module, qualname):
            calls += e.callcount
            seconds += e.totaltime
    return calls, seconds
