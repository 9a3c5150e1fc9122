"""Kernel selection: compiled extension when present, pure Python otherwise.

The kernels run antichain rowmotion over prime-field matrix labels, the hot
loop of the periodicity fuzzer.  The compiled kernel is a toggle product;
the pure-Python kernel is the transfer composition with batched inverses
(see ``_kernel_py``).  Both raise ``SingularValue`` on exactly the inputs
where generic toggle mode does.  Both backends share one interface;
`backend_name()` reports which one is live, and the benchmark drives both
side by side.

The modulus must be a prime the package can certify (``realms.is_prime``).
The compiled kernel's 128-bit products assume p < 2^63, so larger primes go
to the pure kernel unless a module is given explicitly.
"""

from __future__ import annotations

try:
    from . import _speedups as _impl
except ImportError:  # extension not built; fall back to the reference kernel
    from . import _kernel_py as _impl

from . import _kernel_py
from .labeling import Labeling
from .realms import require_prime

COMPILED_P_LIMIT = 2**63


def _module_for(p):
    return _kernel_py if p is not None and p >= COMPILED_P_LIMIT else _impl


def backend_name(p=None):
    """The live backend, or the one ``make_engine`` picks for modulus p."""
    return _module_for(p).BACKEND


def available_backends():
    """Mapping backend name -> kernel module, for side-by-side comparison."""
    out = {_kernel_py.BACKEND: _kernel_py}
    if _impl is not _kernel_py:
        out[_impl.BACKEND] = _impl
    return out


def make_engine(poset, d, p, module=None):
    """Build a rowmotion engine for ``poset`` over d x d matrices mod p.

    Raises ValueError unless p is a certified prime.  The up-sets and
    down-sets, O(n^2) ``leq`` calls, are computed only for the compiled
    toggle kernel; the transfer-form kernel does not read them.
    """
    require_prime(p)
    mod = module or _module_for(p)
    topo = list(poset.topo_order())
    up = [list(poset.up_covers(x)) for x in range(poset.n)]
    down = [list(poset.down_covers(x)) for x in range(poset.n)]
    upsets = downsets = None
    if mod is not _kernel_py:
        upsets = [[x for x in reversed(topo) if poset.leq(v, x)] for v in range(poset.n)]
        downsets = [[x for x in topo if poset.leq(x, v)] for v in range(poset.n)]
    return mod.FpToggleEngine(up, down, topo, upsets, downsets, d, p)


def labeling_to_flat(g):
    """Flatten a prime-field matrix labeling to the kernel wire format."""
    flat = []
    for mat in g.values:
        for row in mat:
            flat.extend(row)
    return flat


def flat_to_labeling(realm, flat):
    """Rebuild a labeling from the kernel wire format."""
    d = realm.d
    dd = d * d
    values = []
    for start in range(0, len(flat), dd):
        block = flat[start:start + dd]
        values.append(tuple(tuple(block[i * d:(i + 1) * d]) for i in range(d)))
    return Labeling(realm, values)
