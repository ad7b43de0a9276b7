"""Outside-in span tracing for the benchmark's traced runs.

Nothing under ``src/`` knows about this module.  For a traced run the
benchmark replaces public functions of the measured ``repro`` modules
with wrappers, at every module that binds the name, so a call made
through any import path is recorded.  Each call becomes one span
(name, start, end, parent) kept in compact in-memory arrays; the spans
are written out when the run ends and self times are computed from
child coverage afterwards.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Instruction class -> step group of ``execute_instruction``.  A class
#: missing here fails the traced run instead of landing in a bucket.
STEP_GROUPS = {
    "Load": "Load",
    "Store": "Store",
    "FetchAndInc": "RMW",
    "CompareAndSwap": "RMW",
    "LoadExclusive": "RMW",
    "StoreExclusive": "RMW",
    "Barrier": "Barrier",
    "VLoad": "VMem",
    "VStore": "VMem",
    "TLBInvalidate": "VMem",
    "Pull": "PushPull",
    "Push": "PushPull",
    "Label": "Control",
    "Nop": "Control",
    "Mov": "Control",
    "Jump": "Control",
    "BranchIfZero": "Control",
    "BranchIfNonZero": "Control",
    "OracleRead": "Control",
    "Panic": "Control",
}
GROUPS = ("Load", "Store", "RMW", "Barrier", "VMem", "PushPull", "Control")


class Spans:
    """Span store: parallel arrays indexed by span number.

    ``aux`` holds one integer per span derived from the call's result
    (successor count for steps, states for explorations).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.aux = array("q")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        fn: Callable,
        name: str,
        aux: Optional[Callable[[object], int]] = None,
        name_of: Optional[Callable[..., str]] = None,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable:
        """A wrapper recording one span per call of *fn*.

        ``name_of(*args)`` picks the span name per call (step groups);
        ``aux(result)`` stores one integer with the span; ``on_result``
        sees every result (engine statistics).
        """
        fixed = self.name_id(name)
        ids: Dict[str, int] = {}
        names, parents, starts, ends, auxes = (
            self.name, self.parent, self.start, self.end, self.aux)
        stack = self._stack
        clock = time.perf_counter_ns
        name_id = self.name_id

        def wrapper(*args, **kwargs):
            nid = fixed
            if name_of is not None:
                label = name_of(*args)
                nid = ids.get(label)
                if nid is None:
                    nid = ids[label] = name_id(label)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            auxes.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if aux is not None:
                auxes[i] = aux(result)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """Dump every span: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self),
            "arrays": [["name", "H"], ["parent", "i"], ["start_ns", "q"],
                       ["end_ns", "q"], ["aux", "q"]],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end,
                        self.aux):
                arr.tofile(fh)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, aux sum.

        Self time is a span's duration minus the part its child spans
        cover; calls on one thread nest, so children never overlap.
        """
        n = len(self)
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        totals = {nid: [0, 0, 0, 0] for nid in range(len(self.names))}
        for i, nid in enumerate(self.name):
            t = totals[nid]
            t[0] += 1
            t[1] += dur[i]
            t[2] += dur[i] - covered[i]
            t[3] += self.aux[i]
        return {
            self.names[nid]: {"calls": calls, "s": incl / 1e9,
                              "self_s": own / 1e9, "aux": aux}
            for nid, (calls, incl, own, aux) in totals.items()
        }

    def child_seconds(self, parent_name: str, child_name: str) -> float:
        """Total duration of *child_name* spans directly under
        *parent_name* spans."""
        pid = self._ids.get(parent_name)
        cid = self._ids.get(child_name)
        if pid is None or cid is None:
            return 0.0
        total = 0
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            if nid == cid and p >= 0 and self.name[p] == pid:
                total += self.end[i] - self.start[i]
        return total / 1e9

    def outermost(self, names: Iterable[str]) -> Tuple[int, float]:
        """Calls and seconds of spans in *names* not nested in another
        span of *names* (a key computed inside a key counts once)."""
        ids = {self._ids[n] for n in names if n in self._ids}
        calls = total = 0
        for i, nid in enumerate(self.name):
            if nid in ids:
                p = self.parent[i]
                if p < 0 or self.name[p] not in ids:
                    calls += 1
                    total += self.end[i] - self.start[i]
        return calls, total / 1e9


class Patches:
    """Installs wrappers at every ``repro`` module binding a function and
    restores the originals on :meth:`restore`."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []
        #: wrapper label -> names of the modules/classes it was installed in
        self.sites: Dict[str, List[str]] = {}

    def function(self, module: str, attr: str, wrapper_for: Callable,
                 label: str) -> None:
        """Replace ``module.attr`` and every other binding of the same
        function object in loaded ``repro`` modules."""
        original = getattr(sys.modules[module], attr)
        wrapper = wrapper_for(original)
        sites = self.sites.setdefault(label, [])
        for name, mod in sorted(sys.modules.items()):
            if mod is None or not (name == "repro" or
                                   name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    sites.append(name)

    def method(self, cls: type, attr: str, wrapper_for: Callable,
               label: str) -> None:
        """Replace a method on its class (bound lookups see the wrapper)."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, wrapper_for(original))
        self.sites.setdefault(label, []).append(
            f"{cls.__module__}.{cls.__qualname__}")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
