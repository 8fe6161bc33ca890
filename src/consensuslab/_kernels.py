"""Communication kernels and the hot numeric kernels, vectorized with numpy.

Callers reach `rk4_run` through this module (`_kernels.rk4_run`) at call
time, and its step sizes stay its 4th positional argument: the pipeline
benchmark wraps the module attribute and counts steps from that argument.

The integrator steps its states coordinate-major, shape (..., d, n): batch
axes outermost, agents innermost, so every elementwise op and every
reduction runs its inner loop over the agents (or the agent pairs), not
over the d = 2 or 3 coordinates.  At sweep sizes (n = 5, d = 2) a step costs
numpy's overhead per call, not arithmetic, and an inner loop of two
elements pays that overhead for almost no work.  `rhs_velocity` keeps the
public (..., n, d) layout by swapping axes at its boundary.

For the same reason a step pays for nothing it can leave out.  `rk4_run`
reads its step sizes, pieces and record flags as Python scalars from
memoryviews of the grid, in one step loop, instead of a numpy scalar per
step; a memoryview converts one item at a time and copies nothing of the
grid, whatever its length.  The fields bind their kernel constants once,
dropping ``c *`` when c = 1 and ``** beta`` when beta = 1.  A step
allocates no array either: `rk4_run` allocates one workspace per run, the
state, the stage input and k1 to k4, all (..., d, n), and the field's
scratch (`_sources`): a (..., d, n) product for the constant kernel, or
the (..., d, n, n) pair differences, the (..., n, n) kernel values and the
weights for Cucker-Smale (see below).  The views each field input needs
are built once per run for the state and for the stage input.
Every operation writes into an array of the workspace through ``out=`` or
in place, and the field writes into the output its caller gives it.  The
scratch holds one field's temporaries for the whole run, so the peak is
that of the per-call arrays it replaces; at (n, B) = (128, 128) it also
spares a fresh 32 MiB ``mmap`` and its page faults per field call.  None
of it changes a bit: every sum and product keeps its two operands (IEEE
``+`` and ``*`` commute), an ``out=`` call writes the values the
allocating call returns, ``1.0 * x == x`` and ``x ** 1.0 == x`` hold
exactly, and a Python float is the same double as the numpy scalar it
replaces.

Up to _PAIR_PRODUCT_MAX_N agents the Cucker-Smale field builds its pair
differences as one BLAS product, x @ P, of the (-1, n) flat view of the
states and the `_pair_operator` P, whose entries are 0, +1 and -1; above
it, as the broadcast subtract ``x[..., None, :] - x[..., :, None]``.  At
sweep sizes the subtract runs an inner loop over n = 5 agents per row of
its output, 320 of them at B = 32, d = 2, where BLAS runs one (B*d, n) by
(n, n^2) product.  Its column i * n + j sums x_j * 1, x_i * (-1) and n - 2
products with 0, all exact, so in any order, with or without FMA, it rounds
once, to fl(x_j - x_i), and adding an exact zero keeps a nonzero sum.  A
diagonal column sums only zero products, and BLAS starts from +0 (as
numpy's own loop does), so it reads +0, as x_i - x_i does.  The one bit the
product moves is the sign of (-0) - (+0): -0 from the subtract, +0 from the
product.  No velocity sees it: r2 squares it away, and the weighted sum
over j reads the same nonzero sum, or +0 when every term is a zero, on both
paths (its diagonal term w_ii * (+0) is +0 whenever a_ii > 0).  An
overflowing difference raises FloatingPointError at the same step as the
subtract did, as "overflow encountered in matmul".  P holds n^3 floats and
the product costs n times the subtract's arithmetic, so it stops where it
stops winning (see _PAIR_PRODUCT_MAX_N).

Up to the same size the Cucker-Smale scratch holds the weights once per
coordinate, a (..., d, n, n) array w beside the (..., n, n) kernel values
r.  The field multiplies r by the piece in place, as before, and copies the
product into every coordinate of w with one broadcast assignment,
``w[...] = r[..., None, :, :]``, so the weighted sum
``"...cij,...cij->...ci"`` reads two operands of one contiguous layout.
With the (..., n, n) weights broadcast over the coordinates instead, einsum
takes its broadcast path: at (B, d, n) = (32, 2, 5) the sum took 5.5 us
that way and 3.1 us over per-coordinate weights (median of five best-of-5
timeits, 2 CPUs).  An assignment runs no ufunc iteration: writing w as the
broadcast product ``np.multiply(r[..., None, :, :], adj, out=w)`` instead
allocated two buffers the size of w per call (26.8 kB traced at that
shape, against 7.5 kB for the whole field), and its field ran 6% slower
there and 10-23% slower at n = 12 (B = 32 and 128, in-process pairs).
Every output is still the sum of the same n products w_ij * diff_cij in
einsum's same sum-of-products kernel, so no bit moves.  Above
_PAIR_PRODUCT_MAX_N agents w is r's (..., 1, n, n) view itself, and numpy
skips assigning an array onto itself (same data, shape and strides), so
that field does what it did before: there its arithmetic, not numpy's
per-call overhead, sets its time, and per-coordinate weights would add
B*d*n^2 floats, 32 MiB at (n, B) = (128, 128).

For the same reason only the small-n field makes its piece C-contiguous,
once, when `rk4_run` first steps on it.  A rotating star's pieces are
strided views of one hub, and ``r *= adj`` ran 1.95 us over a strided
piece against 1.39 us over its copy, which holds at most
_PAIR_PRODUCT_MAX_N^2 = 144 floats.  Above that a copy would hold n^2
floats per piece, 64 copies of 32 kB over the pieces of a rotating star
at n = 64, for a multiply that arithmetic sets.

The Cucker-Smale field calls numpy's C einsum, `c_einsum`, for its two
reductions instead of `np.einsum`: a verify sweep makes about 8,000 such
calls, and each paid about 1.2 us of Python dispatch (the
``__array_function__`` protocol, then einsum's Python body).  With
``optimize`` left False, ``np.einsum`` does nothing but ``return
c_einsum(*operands, **kwargs)``, so the result is bitwise np.einsum's.
Overflow behaves as before: einsum reports none under ``np.errstate``, and
the min/max check of each recorded block catches the non-finite state.  No
step calls a numpy Python function: arrays are swapped with their
``swapaxes`` method, not ``np.swapaxes``.

The float text of the CSV and JSON writers is in `_text`, which its callers
import on first use, so a process that writes no float array (certify)
never loads it.

`Record` and `ValueRecord` are the bases of every record of the package.
They behave as frozen dataclasses do, but every process defines the records
of the modules it imports, and each record took 0.65-1.12 ms longer to
define as a dataclass (compile and exec in fresh interpreters, medians of
21, 2 CPUs); with no dataclass left, the package never imports
`dataclasses`.  A record names its fields once, in `_fields`, and
`Record.__init__` binds them; a record that converts or checks its
arguments keeps an `__init__` of its own.
"""
import functools
import math
from typing import Union

import numpy as np

try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum


class Record:
    """An immutable record, compared and hashed by identity.

    A subclass names its fields once, in `_fields`, and `__init__` binds
    them; a record that converts or checks its arguments keeps an
    `__init__` of its own, which sets its fields through ``vars(self)``.
    Assigning or deleting an attribute afterwards raises AttributeError.
    The repr lists `_fields` as a dataclass's does.
    """

    _fields = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        """Bind `args` to `_fields` in order, `kwargs` by name and any field
        left to its `_defaults` value; any other call raises TypeError."""
        rest = self._fields[len(args):]
        given = {**self._defaults, **kwargs}
        if (len(args) > len(self._fields)
                or not kwargs.keys() <= set(rest) <= given.keys()):
            raise TypeError(f"{type(self).__qualname__}{self._fields} cannot take "
                            f"{len(args)} positional arguments and {sorted(kwargs)}")
        vars(self).update(zip(self._fields, args), **{f: given[f] for f in rest})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ValueRecord(Record):
    """A Record compared and hashed by the tuple of its fields."""

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class Constant(ValueRecord):
    """Constant communication kernel phi(r) = c > 0."""

    _fields = ("c",)

    def __init__(self, c: float):
        if not 0 < c < math.inf:
            raise ValueError("c must be finite and > 0")
        vars(self)["c"] = c


class CuckerSmale(ValueRecord):
    """Decreasing communication kernel phi(r) = K / (1 + r^2)^beta."""

    _fields = ("K", "beta")

    def __init__(self, K: float, beta: float):
        if not 0 < K < math.inf:
            raise ValueError("K must be finite and > 0")
        if not 0 <= beta < math.inf:
            raise ValueError("beta must be finite and >= 0")
        vars(self).update(K=K, beta=beta)


Kernel = Union[Constant, CuckerSmale]


def rhs_velocity(pos, adj, kernel: Kernel):
    """Coupling velocity field of the interaction dynamics, shape (..., n, d).

    velocity_i = (1/n) sum_j a_ij * phi(|x_i - x_j|) * (x_j - x_i), with phi
    the communication kernel.  Leading axes of ``pos`` are independent
    configurations sharing ``adj``.

    The constant kernel needs no distances: its field is the Laplacian form
    -(c/n) L x = (c/n) (A x - deg * x), with deg_i = sum_j a_ij, for any
    adjacency, balanced or not.  It costs one (d, n) @ (n, n) product per
    configuration instead of a difference array.

    ``pos`` is copied into the integrator's (..., d, n) layout and the field
    runs on a workspace of its own, so it is bitwise the one `rk4_run`
    evaluates; the result is a (..., n, d) view.
    """
    x = pos.swapaxes(-1, -2).copy()
    v = np.empty_like(x)
    _velocity(adj, kernel)(_sources(x.shape, kernel)(x), v)
    return v.swapaxes(-1, -2)


# agents up to which the Cucker-Smale field builds its pair differences as
# the product x @ P (`_pair_operator`) rather than as a broadcast subtract.
# The product's time over the subtract's (timeit best of 7, d = 2, 2 CPUs,
# OpenBLAS on one thread, three processes) at B = 1, 32 and 128 starts:
# n = 5 0.84-0.87, 0.32-0.34, 0.22-0.23; n = 8 0.77-0.79, 0.30, 0.21;
# n = 12 0.73-0.76, 0.38-0.39, 0.29-0.46 (d = 1 and 3: 0.59-0.83,
# 0.33-0.49, 0.32-0.38); n = 16 0.88-0.98, 0.44-0.51, 0.57-0.61, and
# 0.86-1.03 at B = 128 with OpenBLAS on two threads; n = 32 1.72-2.10,
# 1.21-1.87, 0.99-1.00.  12 is the largest n tried that won at every batch
# size, dimension and thread count, at ratios of 0.86 or less; 16 breaks
# even at B = 1.
# Beyond that P's n^3 floats (16 MiB at n = 128) and the product's
# B*d*n^3 multiply-adds, against the subtract's B*d*n^2, take over.
_PAIR_PRODUCT_MAX_N = 12


@functools.cache
def _pair_operator(n):
    """The (n, n * n) operator P whose product x @ P with a row x of n
    coordinates holds x_j - x_i in column i * n + j: P[j, i * n + j] += 1
    and P[i, i * n + j] -= 1, so the diagonal columns are 0.  Built once
    per n, read-only."""
    op = np.zeros((n, n * n))
    cols = np.arange(n * n)
    i, j = np.divmod(cols, n)
    op[j, cols] += 1.0
    op[i, cols] -= 1.0
    op.setflags(write=False)
    return op


def _sources(shape, kernel):
    """The field workspace of coordinate-major states of ``shape``
    (..., d, n), as a function that makes the field input of a state
    buffer of that shape.  Every input it makes shares one field scratch.

    The constant kernel's input is ``(x, prod)``, prod the (..., d, n)
    product ``deg * x``.  Cucker-Smale's is ``(pairs, a, b, into, diff, r,
    r_c, w)``: ``pairs(a, b, into)`` writes the (..., d, n, n) pair
    differences ``diff[..., c, i, j] = x_j - x_i``; r holds r2, then the
    (..., n, n) kernel values, then the weights; r_c is r's (..., 1, n, n)
    view, and w takes the weights of every coordinate, ``w[...] = r_c``.
    Up to _PAIR_PRODUCT_MAX_N agents that call is the product of x's flat
    (-1, n) view and `_pair_operator` into diff's flat (-1, n * n) view,
    and w is a (..., d, n, n) array of its own, so the weighted sum runs
    over contiguous operands (see the module docstring); above it, the call
    is the subtract of ``x[..., None, :]`` and ``x[..., :, None]`` into
    diff, and w is r_c itself, so the weights take no memory beyond r.
    """
    if isinstance(kernel, Constant):
        prod = np.empty(shape)
        return lambda x: (x, prod)
    n = shape[-1]
    diff = np.empty(shape + (n,))
    r = np.empty(shape[:-2] + (n, n))
    r_c = r[..., None, :, :]
    if n <= _PAIR_PRODUCT_MAX_N:
        op, flat = _pair_operator(n), diff.reshape(-1, n * n)
        w = np.empty_like(diff)
        return lambda x: (np.matmul, x.reshape(-1, n), op, flat, diff, r, r_c,
                          w)
    return lambda x: (np.subtract, x[..., None, :], x[..., :, None], diff,
                      diff, r, r_c, r_c)


def _velocity(adj, kernel):
    """`rhs_velocity` on one adjacency, as a function ``field(src, out)`` of
    a field input (`_sources`) of coordinate-major positions of shape
    (..., d, n) that writes the velocity, of the same shape, into ``out``.

    The degree vector of the constant kernel and the kernel's constants are
    made here, once, and so, up to _PAIR_PRODUCT_MAX_N agents, is a
    C-contiguous copy of a Cucker-Smale piece that is not one already: a
    rotating star's strided piece, of at most 144 floats, that the weight
    multiply would otherwise read strided at every call.  Above that size
    the piece is read as it is, so no piece is copied where copies would be
    large.  Each field writes into its input's scratch and ``out`` (see the
    module docstring), bitwise ``c * (x @ A^T - deg * x) / n`` or the sum
    weighted by ``adj * (K / (1 + r2) ** beta)``, the expressions
    `velocity_expression` in tests/oracles.py keeps.
    """
    # a float, so ``out /= n`` converts no Python int a call
    n = float(adj.shape[-1])
    if isinstance(kernel, Constant):
        c = kernel.c
        deg = adj.sum(axis=-1)
        # (x @ A^T)[c, i] = sum_j a_ij x[c, j].  A view, not a copy: BLAS then
        # runs the product the (n, d) layout ran, bit for bit
        adj_t = adj.T

        def linear(src, out):
            pos, prod = src
            np.matmul(pos, adj_t, out=out)
            np.multiply(deg, pos, out=prod)
            out -= prod
            if c != 1.0:
                out *= c
            out /= n
        return linear

    K, beta = kernel.K, kernel.beta
    if n <= _PAIR_PRODUCT_MAX_N:
        adj = np.ascontiguousarray(adj)  # no copy if it is contiguous

    def field(src, out):
        pairs, a, b, into, diff, r, r_c, w = src
        pairs(a, b, into)  # diff[c, i, j] = x_j - x_i
        # np.einsum with optimize False runs "return c_einsum(*operands,
        # **kwargs)" (numpy/_core/einsumfunc.py): calling it directly keeps
        # every bit and saves about 1.2 us of Python dispatch, twice a field
        c_einsum("...cij,...cij->...ij", diff, diff, out=r)
        # r = adj * (K / (1 + r2) ** beta), built in the r2 it holds
        r += 1.0
        if beta != 1.0:
            r **= beta
        np.divide(K, r, out=r)
        r *= adj
        w[...] = r_c  # a no-op when w is r_c: numpy skips a copy onto itself
        c_einsum("...cij,...cij->...ci", w, diff, out=out)
        out /= n
    return field


def scrambling_min(stack):
    """Minimum over ordered index pairs of the normalized shared-weight sum,
    for every matrix of an (m, n, n) stack; shape (m,).

    The pair sums are symmetric, so row i of every matrix is compared only
    with rows i to n - 1, one row at a time, and the running minimum of each
    matrix is kept across rows.  Every pair sum is still one contiguous
    last-axis sum of n terms, as in a full (n, n, n) broadcast, so the
    result is bitwise the broadcast's, and the temporaries hold at most
    m * n * n floats, the size of the stack.
    """
    m, n = stack.shape[0], stack.shape[-1]
    out = np.full(m, np.inf)
    for i in range(n):
        sums = np.minimum(stack[:, i, None, :], stack[:, i:, :]).sum(axis=2)
        np.minimum(out, sums.min(axis=1), out=out)
    return out / n


def chunk_slices(count, per_item, budget):
    """Slices of ``count`` items, as many a slice as ``budget`` holds at
    ``per_item`` each, and at least one."""
    step = max(1, budget // max(1, per_item))
    return (slice(lo, lo + step) for lo in range(0, count, step))


# floats of recorded states in one block that `rk4_run` hands its sink.  With
# the pipeline benchmark's simulate streaming its (1001, 1, 128, 2) record in
# 2^16- and 2^17-float blocks, `wall_s` read 0.1460 and 0.1411 against 0.1435
# for the whole record, and `peak_rss_mb` 44.38 and 44.89 against 45.74; its
# verify sweep read 40.66 and 41.21 MB against 42.29 (medians of 4 runs of
# 8 s each, 2 CPUs).  Smaller blocks make more, shorter CSV and diameter calls.
_RECORD_BLOCK_FLOATS = 1 << 17


def rk4_run(x0, pieces, piece_idx, hs, rec, kernel: Kernel, sink):
    """Fixed-step RK4 over a prebuilt step grid; hands the recorded states
    to ``sink`` a block at a time.

    ``x0`` holds states of shape (..., n, d), all stepped on the same grid,
    and is left as it is.  ``pieces`` is an (m, n, n) stack of adjacency
    matrices, such as a signal's ``piece_stack``; ``piece_idx`` assigns one
    piece per step (integers), ``hs`` the step sizes (float64), ``rec``
    flags which grid points to record (bool, one more than the steps) and
    ``kernel`` is phi.  ``hs``, ``piece_idx`` and ``rec`` are native-endian
    1-D arrays, of any strides.

    ``sink(lo, block)`` gets every recorded state in order: ``block`` is a
    C-contiguous array of shape (k,) + x0.shape holding records lo to
    lo + k - 1, at most _RECORD_BLOCK_FLOATS floats or one record.  A full
    block is handed over just before the next record is written, and the
    last one after the last step.  The block is reused for the next one, so
    a sink copies what it keeps.

    The states are stepped as one (..., d, n) copy (see the module
    docstring) and written back transposed at each recorded point.  One
    loop reads the step size, piece and record flag of each step as Python
    scalars from memoryviews of the grid, so a step does no numpy scalar
    arithmetic and nothing the run holds grows with the grid's length.
    The run allocates one workspace (see the module docstring) and no step
    allocates an array.  Each stage input is one product into the stage
    buffer, updated in place, ``t = (h/2) * k1; t += x``, and the step sums
    into ``k2``: ``2 k2``, ``+ k1``, ``+ 2 k3``, ``+ k4``, ``* (h/6)``, and
    adds that to ``x`` in place.  Every sum and product has the two
    operands it has in ``x + (h/6) * (k1 + 2 k2 + 2 k3 + k4)``, the sums
    come in the same order, and IEEE ``+`` and ``*`` commute, so every
    state is bitwise that expression's.

    An overflow or an invalid operation raises FloatingPointError at the
    step that produced it, instead of warning and stepping on to the end.
    Only einsum's reductions overflow to inf without a report, so a block
    with a non-finite state raises FloatingPointError before it reaches the
    sink.  The sink runs in the caller's error state, read when the run
    starts.
    """
    outer = np.geterr()  # the caller's error state, in which the sink runs
    count = int(np.count_nonzero(rec))
    rows = max(1, min(count, _RECORD_BLOCK_FLOATS // max(1, x0.size)))
    block = np.empty((rows,) + x0.shape)
    x = np.swapaxes(x0, -1, -2).copy()
    t, k1, k2, k3, k4 = (np.empty_like(x) for _ in range(5))
    source = _sources(x.shape, kernel)
    xs, ts = source(x), source(t)

    def emit(lo, r):
        # NaN and inf fail min/max, so no block-sized mask is built
        done = block[:r]
        if not (np.isfinite(done.min()) and np.isfinite(done.max())):
            raise FloatingPointError("non-finite state in the record")
        sink(lo, done)
        return lo + r

    lo = r = 0
    if rec[0]:
        block[0] = x0
        r = 1
    fields = {}  # piece index -> its velocity, built on the piece's first step
    with np.errstate(over="raise", invalid="raise"):
        # rec[1:] flags the point each step ends on
        for h, p, keep in zip(memoryview(hs), memoryview(piece_idx),
                              memoryview(rec[1:])):
            f = fields.get(p)
            if f is None:
                f = fields[p] = _velocity(pieces[p], kernel)
            half = 0.5 * h
            f(xs, k1)
            np.multiply(half, k1, out=t)
            t += x
            f(ts, k2)
            np.multiply(half, k2, out=t)
            t += x
            f(ts, k3)
            np.multiply(h, k3, out=t)
            t += x
            f(ts, k4)
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= h / 6.0
            x += k2
            if keep:
                if r == rows:
                    with np.errstate(**outer):
                        lo, r = emit(lo, r), 0
                block[r] = x.swapaxes(-1, -2)
                r += 1
    if r:
        emit(lo, r)
