"""Span recorder for the traced run, installed from outside the library.

``Tracer.install`` wraps every public function of every ``opslab`` module
(its ``__all__``, or for a module without one, the functions it defines
without a leading underscore) and rebinds the wrapper wherever the
original is bound: module attributes, ``from .x import y`` copies, and
dict, tuple and list tables held at module level (such as
``cli.SUITES``).  It also wraps the dense linear-algebra entry points of
``numpy.linalg``, ``scipy.linalg`` and ``numpy.kron``; they form the
``linalg`` layer.  Matrix products written with ``@`` run inside the
calling layer and count toward its self time.

A wrapper returns exactly what the wrapped function returns and re-raises
the exception it raised.  Spans are recorded only between ``begin_item``
and ``end_item``, so the benchmark's own input building and output
checks never appear.  Each span stores its function, its parent span,
its start and end, and whether it raised; the arrays stay in memory
until ``summary`` reduces them at the end of the run.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "suites", "metric", "conj", "minv", "gen", "matcore", "linalg")
LIBRARY_MODULES = LAYERS[:-1]

# Functions whose inputs are fingerprinted, giving ``unique_frac``: the
# share of calls on input bytes not seen before in the run.
KEYED = ("metric.certify_power_bounded", "metric.invariant_metric")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = []
        self.active = False
        self.seen: dict[int, set] = {}
        self.unique: dict[int, int] = {}
        self.svd_calls = 0
        self.svd_max_dim = 0
        self.flops = 0.0
        self._wrappers: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def begin_item(self) -> None:
        self.active = True

    def end_item(self) -> None:
        self.active = False

    def _open(self, fid: int) -> int:
        idx = len(self.start)
        self.func.append(fid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        keyed = name in KEYED
        is_linalg = layer == "linalg"
        linalg_id = LAYERS.index("linalg")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active or (
                is_linalg and tracer.stack
                and tracer.layer_of[tracer.func[tracer.stack[-1]]] == linalg_id
            ):
                # Outside an item, or a linalg routine called from inside
                # another one: not an entry point the library called.
                return fn(*args, **kwargs)
            if keyed:
                tracer._fingerprint(fid, args, kwargs)
            if is_linalg:
                tracer._count_flops(fn.__name__, args, kwargs)
            idx = tracer._open(fid)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer._close(idx)

        self._wrappers[key] = wrapper
        return wrapper

    def _fingerprint(self, fid: int, args, kwargs) -> None:
        h = hashlib.blake2b(digest_size=16)
        for value in list(args) + sorted(kwargs.items()):
            if isinstance(value, np.ndarray):
                h.update(value.dtype.str.encode() + str(value.shape).encode())
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
        seen = self.seen.setdefault(fid, set())
        digest = h.digest()
        if digest not in seen:
            seen.add(digest)
            self.unique[fid] = self.unique.get(fid, 0) + 1

    def _count_flops(self, name: str, args, kwargs) -> None:
        flops, svd_dim = computed_flops(name, args, kwargs)
        self.flops += flops
        if svd_dim:
            self.svd_calls += 1
            self.svd_max_dim = max(self.svd_max_dim, svd_dim)

    # -- installation ------------------------------------------------------

    def install(self, opslab) -> None:
        """Wrap and rebind; ``opslab`` is the imported package."""
        import scipy.linalg

        originals: dict[int, object] = {}
        for layer in LIBRARY_MODULES:
            mod = getattr(opslab, layer)
            for name in _public_functions(mod):
                fn = getattr(mod, name)
                originals[id(fn)] = self._wrap(fn, f"{layer}.{name}", layer)
        for mod in (np.linalg, scipy.linalg):
            for name in getattr(mod, "__all__", []):
                fn = getattr(mod, name, None)
                if callable(fn) and not inspect.isclass(fn):
                    originals[id(fn)] = self._wrap(fn, f"linalg.{name}", "linalg")
                    setattr(mod, name, originals[id(fn)])
        originals[id(np.kron)] = self._wrap(np.kron, "linalg.kron", "linalg")
        np.kron = originals[id(np.kron)]

        modules = [opslab] + [importlib.import_module(f"{opslab.__name__}.{m}") for m in LIBRARY_MODULES]
        for mod in modules:
            namespace = vars(mod)
            for name, value in list(namespace.items()):
                if not name.startswith("__"):
                    namespace[name] = _rebind(value, originals)

    # -- reduction ---------------------------------------------------------

    def summary(self) -> dict[str, float]:
        n = len(self.start)
        func = np.frombuffer(self.func, dtype=np.int32, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.end, count=n) - np.frombuffer(self.start, count=n)
        raised = np.frombuffer(self.raised, dtype=np.int8, count=n).astype(bool)
        layer_of = np.asarray(self.layer_of, dtype=np.int32)
        layer = layer_of[func] if n else np.zeros(0, dtype=np.int32)

        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        leaves_layer = raised & (parent_layer != layer)

        out: dict[str, float] = {"spans": float(n)}
        for lid, lname in enumerate(LAYERS):
            mask = layer == lid
            out[f"{lname}.calls"] = float(mask.sum())
            out[f"{lname}.self_s"] = float(self_s[mask].sum())
            out[f"{lname}.raised"] = float(leaves_layer[mask].sum())
        # numpy.linalg and scipy.linalg share names (inv, svd, ...); each
        # name sums over both.
        for fname in dict.fromkeys(self.names):
            fids = [fid for fid, other in enumerate(self.names) if other == fname]
            mask = np.isin(func, fids)
            calls = int(mask.sum())
            out[f"{fname}.calls"] = float(calls)
            out[f"{fname}.self_s"] = float(self_s[mask].sum())
            if fname in KEYED:
                unique = sum(self.unique.get(fid, 0) for fid in fids)
                out[f"{fname}.unique_frac"] = unique / calls if calls else 0.0
        # SVDs computed, whether through svd/svdvals or a spectral norm.
        out["linalg.svd.calls"] = float(self.svd_calls)
        out["linalg.svd.max_dim"] = float(self.svd_max_dim)
        out["linalg.gflop_computed"] = self.flops / 1e9
        return out


def _public_functions(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__]
    return [n for n in names if inspect.isfunction(getattr(mod, n))]


def _rebind(value, originals: dict[int, object]):
    if id(value) in originals:
        return originals[id(value)]
    if isinstance(value, dict):
        for key, item in value.items():
            value[key] = _rebind(item, originals)
    elif isinstance(value, list):
        value[:] = [_rebind(item, originals) for item in value]
    elif type(value) is tuple:
        return tuple(_rebind(item, originals) for item in value)
    return value


# ---------------------------------------------------------------------------
# Operation counts computed from operand shapes
# ---------------------------------------------------------------------------

# Leading-order real flop counts of the LAPACK algorithms (Golub and Van
# Loan, "Matrix Computations", 4th ed.); complex operands count four real
# flops per complex multiply-add.  These are computed, not measured.
def computed_flops(name: str, args, kwargs) -> tuple[float, int]:
    """``(flops, svd_dim)``; ``svd_dim`` is the larger side of an SVD, else 0."""
    a = np.asarray(args[0]) if args else None
    if a is None or a.ndim < 2:
        return 0.0, 0
    factor = 4.0 if np.iscomplexobj(a) else 1.0
    m, n = a.shape[-2], a.shape[-1]
    big, small = max(m, n), min(m, n)
    if name in ("svd", "svdvals") or (name == "norm" and _svd_norm(args, kwargs)):
        uv = name == "svd" and kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
        if uv:
            flops = 4 * big * big * small + 8 * big * small * small + 9 * small ** 3
        else:
            flops = 4 * big * small * small - 4 * small ** 3 / 3
        return factor * flops, big
    if name == "norm":
        return factor * 2 * m * n, 0
    if name in ("eigvals",):
        return factor * 10 * n ** 3, 0
    if name in ("eig", "schur"):
        return factor * 25 * n ** 3, 0
    if name == "eigvalsh" or (name == "eigh" and kwargs.get("eigvals_only")):
        return factor * 4 * n ** 3 / 3, 0
    if name == "eigh":
        return factor * 9 * n ** 3, 0
    if name == "inv":
        return factor * 2 * n ** 3, 0
    if name == "solve":
        b = np.asarray(args[1]) if len(args) > 1 else np.zeros((n, 1))
        nrhs = b.shape[-1] if b.ndim > 1 else 1
        return factor * (2 * n ** 3 / 3 + 2 * n * n * nrhs), 0
    if name == "qr":
        return factor * (8 * m * n * n - 8 * n ** 3 / 3), 0
    if name == "matrix_power":
        p = abs(int(args[1] if len(args) > 1 else kwargs.get("n", 1)))
        mults = max(0, p.bit_length() - 1) + max(0, bin(p).count("1") - 1)
        return factor * mults * 2 * n ** 3, 0
    if name == "kron":
        b = np.asarray(args[1])
        return float(a.size * b.size), 0
    if name == "solve_sylvester":
        k = np.asarray(args[1]).shape[0]
        return factor * (25 * n ** 3 + 25 * k ** 3 + 2 * n * k * (n + k)), 0
    return 0.0, 0


def _svd_norm(args, kwargs) -> bool:
    ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
    return ord_ in (2, -2, "nuc")
