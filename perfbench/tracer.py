"""Per-layer tracing of framekit from outside the package.

``Tracer.install`` replaces framekit's public functions, methods and cached
properties with timing wrappers.  A function imported by name into several
modules (``operator_norm`` lives in ``linops`` and is bound again in
``verify``, ``gframe`` and ``gfusion``) is replaced in every module that
binds it, so no call path escapes.  ``Tracer.uninstall`` puts the originals
back; ``installed_wrappers`` lists any wrapper still in place.

Every wrapped call updates in-memory aggregates: calls, inclusive seconds
(outermost calls only, so a generator calling another generator in the same
group is not counted twice) and self seconds (duration minus the time of
wrapped calls made inside it).  Hot primitives (``as_vector``,
``as_operator``) only count calls, and cheap per-call targets are never
stored as spans.  Coarse calls are kept as spans (id, parent, operation,
name, start, end); an operation is one outermost call into framekit.
"""

from __future__ import annotations

import functools
import time

_MARK = "__perfbench_wrapper__"

# (module, attribute, metric name, record spans); attribute "Class.name"
# names a method or cached property.
TIMED = [
    ("linops", "operator_norm", "linops.operator_norm", False),
    ("linops", "loewner_check", "linops.loewner_check", False),
    ("linops", "hermitian_eig", "linops.hermitian_eig", False),
    ("linops", "psd_power", "linops.psd_power", False),
    ("linops", "orthonormal_basis", "linops.orthonormal_basis", False),
    ("linops", "projection", "linops.projection", False),
    ("verify", "run_check", "verify.run_check", False),
    ("verify", "build_instances", "verify.build_instances", True),
    ("verify", "subsets_for", "verify.subsets_for", True),
    ("verify", "run_suite", "verify.run_suite", True),
    ("gframe", "GFrame.__init__", "gframe.init", True),
    ("gframe", "GFrame.inverse", "gframe.inverse", True),
    ("gframe", "GFrame.canonical_dual", "gframe.canonical_dual", True),
    ("gframe", "GFrame.partial_sum", "gframe.partial_sum", False),
    ("gframe", "partition_identity", "gframe.identities", False),
    ("gframe", "parseval_partition_identity", "gframe.identities", False),
    ("gfusion", "GFusionFrame.__init__", "gfusion.init", True),
    ("gfusion", "GFusionFrame.inverse", "gfusion.inverse", True),
    ("gfusion", "GFusionFrame.inverse_sqrt", "gfusion.inverse_sqrt", True),
    ("gfusion", "GFusionFrame.canonical_dual", "gfusion.canonical_dual", True),
    ("gfusion", "GFusionFrame.partial_sum", "gfusion.partial_sum", False),
    ("gfusion", "GFusionFrame.partial_frame_operator", "gfusion.partial_frame_operator", False),
    ("gfusion", "block_energies", "gfusion.block_energies", False),
    ("gfusion", "partition_identity", "gfusion.identities", False),
    ("gfusion", "parseval_partition_identity", "gfusion.identities", False),
    ("gfusion", "whitened_partition_identity", "gfusion.identities", False),
    ("gfusion", "frame_partition_identity", "gfusion.identities", False),
    ("gen", "random_gframe", "gen.frames", True),
    ("gen", "random_parseval_gframe", "gen.frames", True),
    ("gen", "random_gfusion", "gen.frames", True),
    ("gen", "random_parseval_gfusion", "gen.frames", True),
    ("gen", "sample_vectors", "gen.sample_vectors", True),
    ("cli", "save_frame", "cli.save_frame", True),
    ("cli", "load_frame", "cli.load_frame", True),
    ("cli", "report_to_json", "cli.report_to_json", True),
    ("cli", "main", "cli.main", True),
]

COUNTED = [
    ("linops", "as_vector", "linops.as_vector"),
    ("linops", "as_operator", "linops.as_operator"),
]

MODULES = ("linops", "gframe", "gfusion", "gen", "verify", "cli")

# frame constructions made while a generator runs, for gen.attempts_per_frame
_FRAME_INITS = ("gframe.init", "gfusion.init")
_GENERATORS = "gen.frames"


def framekit_modules(fk):
    """The package and its six modules, as loaded."""
    return [fk] + [getattr(fk, name) for name in MODULES]


def resolve(fk, module: str, attr: str):
    """(owner, attribute name, original object) for one TIMED/COUNTED row."""
    owner = getattr(fk, module)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr, vars(owner)[attr]


def original_function(obj):
    """The plain function behind a function or cached property."""
    return obj.func if isinstance(obj, functools.cached_property) else obj


def installed_wrappers(fk) -> list[str]:
    """Names of framekit attributes that are still tracing wrappers."""
    found = []
    for mod in framekit_modules(fk):
        for name, value in vars(mod).items():
            if getattr(original_function(value), _MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(value, type) and value.__module__.startswith("framekit"):
                for attr, member in vars(value).items():
                    if getattr(original_function(member), _MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return sorted(set(found))


class _Stat:
    __slots__ = ("calls", "outer_calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.outer_calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Installs wrappers, aggregates counts and times, keeps coarse spans."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, list[int]] = {}
        self.check_s: dict[str, float] = {}
        self.frames_in_generators = 0
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [child seconds, span id] per active call
        self._next_span = 0
        self._operation = 0
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, span: bool):
        stat = self.stats.setdefault(name, _Stat())
        generators = self.stats.setdefault(_GENERATORS, _Stat())
        counts_frames = name in _FRAME_INITS
        per_check = name == "verify.run_check"
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                self._operation += 1
            parent = stack[-1][1] if stack else None
            span_id = parent
            if span:
                self._next_span += 1
                span_id = self._next_span
            if counts_frames and generators.depth:
                self.frames_in_generators += 1
            entry = [0.0, span_id]
            stack.append(entry)
            stat.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += dt - entry[0]
                if not stat.depth:
                    stat.outer_calls += 1
                    stat.total_s += dt
                if stack:
                    stack[-1][0] += dt
                if per_check:
                    key = str(getattr(args[0], "value", args[0]))
                    self.check_s[key] = self.check_s.get(key, 0.0) + dt
                if span:
                    self.spans.append((span_id, parent, self._operation, name, start, end))

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

    def _counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, _MARK, True)
        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch_everywhere(self, fk, original, replacement):
        for mod in framekit_modules(fk):
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, replacement)

    def install(self, fk):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, name, span in TIMED:
            owner, attr, original = resolve(fk, module, attr)
            if isinstance(original, functools.cached_property):
                prop = functools.cached_property(self._timed(name, original.func, span))
                prop.__set_name__(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, prop)
            elif isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._timed(name, original, span))
            else:
                self._patch_everywhere(fk, original, self._timed(name, original, span))
        for module, attr, name in COUNTED:
            _, _, original = resolve(fk, module, attr)
            self._patch_everywhere(fk, original, self._counted(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name][0]
        return self.stats[name].calls

    def stat(self, name: str) -> _Stat:
        return self.stats[name]

    def spans_as_dicts(self) -> list[dict]:
        keys = ("id", "parent", "operation", "name", "start", "end")
        return [dict(zip(keys, s)) for s in self.spans]
