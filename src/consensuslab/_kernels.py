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
grid, whatever its length.  The workspace binds the kernel constants once
a run, dropping ``c *`` when c = 1 and ``** beta`` when beta = 1.  A step
allocates no array either: `rk4_run` allocates one workspace per run, the
state, the stage input and k1 to k4, all (..., d, n), and the field's
scratch (`_sources`): a (..., d, n) product for the constant kernel, or
the (..., d, n, n) pair differences, the (..., n, n) kernel values and the
weights for Cucker-Smale, and the piece slot (see below).  The views each
field input needs are built once per run for the state and for the stage
input.
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

Nor does a step convert a Python scalar.  A ufunc converts every Python
float or int it is handed into a fresh 0-d array, on every call:
``np.multiply(h, k, t)`` took 0.60 us with a Python float h and 0.40 us
with a prebuilt 0-d float64 array at (B, d, n) = (32, 2, 5), and
``r += 1.0`` 0.74 us against 0.53 us (interleaved medians, 2 CPUs).  So
every scalar operand of the step loop is a 0-d float64 array built once:
the workspace builds 1.0, K, n and c, and `rk4_run` builds 2.0, once per
run, and the operands h/2, h and h/6 once per distinct step size, in a
dict of at most _STEP_OPERANDS_MAX step sizes; a step size past the cap,
or a zero one, is handed over as Python floats.  Every ufunc also
takes its output as a positional argument, which numpy parses a little
faster than ``out=``.  Each operand is the same double in the same IEEE
operation, so no bit moves; the states are float64 (`rk4_run` and
`rhs_velocity` convert them), so no operand meets another dtype.
``r **= beta`` keeps its Python float: no workload steps beta != 1, and
ndarray's ``**`` maps some Python exponents, 2 among them, to ufuncs of
their own.  The record writes the state through one (..., n, d) view of
it, built once per run.

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
r.  The field multiplies r by the piece slot in place, and copies the
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

No field ufunc broadcasts its piece either.  The piece reaches the field
through the workspace's piece slot (`_sources`), shaped like the batch: a
(..., n, n) tile of the Cucker-Smale piece up to _PAIR_PRODUCT_MAX_N
agents, a (..., d, n) tile of the degrees for the constant kernel.
`rk4_run` fills it with one assignment, ``slot[...] = tile``, only on a
step whose piece index differs from the step before's, and the field
multiplies by the slot, an operand of its other operand's shape and
layout.  At (B, d, n) = (32, 2, 5) ``r *= adj`` took 1.78-2.09 us over a
rotating star's strided piece and 1.13-1.21 us over a contiguous one, and
0.47-0.51 us over the tile; at (1, 2, 128) ``deg * x`` took 0.86-0.92 us
and the tile's product 0.36-0.41 us.  A fill costs 1.05-1.14 us and
0.15-0.17 us there, once a switch, where a step makes four field calls
(timeit best of 7, five interleaved rounds, BLAS on one thread, 2 CPUs).
The fill reads a strided piece as it is, so no piece is copied first, and
the run holds one slot, B*n^2 floats (B*d*n for the constant kernel),
however many pieces it steps on, where a contiguous copy of each piece
would hold n^2 floats a piece.  The assignment casts the piece or its
degrees to float64, the values each product converted them to before, so
no bit moves; it is an assignment, not ``np.copyto``, which is a numpy
Python function (see below).  Above _PAIR_PRODUCT_MAX_N agents the slot
holds the piece itself and no tile is made: there arithmetic, not a
broadcast operand, sets the multiply's time, and a tile would add B*n^2
floats, 16 MiB at (n, B) = (128, 128).

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

    ``pos`` is converted to float64, as `rk4_run` converts its states, and
    copied into the integrator's (..., d, n) layout; ``adj``, a nested list
    too, is read as an array of its own dtype, so an int or float32 piece
    sums its degrees as `rk4_run` sums them.  The field runs on a workspace
    of its own, its piece slot filled once, so it is bitwise the one
    `rk4_run` evaluates; the result is a (..., n, d) view.
    """
    x = np.asarray(pos, dtype=np.float64).swapaxes(-1, -2).copy()
    v = np.empty_like(x)
    source, fill = _sources(x.shape, kernel)
    tile, field = _velocity(np.asarray(adj), kernel)
    field(source(x), fill(tile), v)
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
    (..., d, n), as two functions: ``source(x)`` makes the field input of a
    state buffer x of that shape, and ``fill(tile)`` puts a piece's tile
    (`_velocity`) into the workspace's piece slot and returns the operand
    the field reads in place of the piece.  Every input shares one field
    scratch, one slot and the kernel's constants, built here once a run.

    The constant kernel's input is ``(x, prod, c, n)``, prod the (..., d,
    n) product ``deg * x`` and c None when c = 1, and its slot a (..., d, n)
    tile of the degrees.  Cucker-Smale's is ``(pairs, a, b, into, diff, r,
    r_c, w, one, K, beta, n)``: ``pairs(a, b, into)`` writes the (..., d,
    n, n) pair differences ``diff[..., c, i, j] = x_j - x_i``; r holds r2,
    then the (..., n, n) kernel values, then the weights; r_c is r's (...,
    1, n, n) view, and w takes the weights of every coordinate, ``w[...] =
    r_c``.  Up to _PAIR_PRODUCT_MAX_N agents that call is the product of
    x's flat (-1, n) view and `_pair_operator` into diff's flat (-1, n * n)
    view, w is a (..., d, n, n) array of its own, so the weighted sum runs
    over contiguous operands, and the slot is a (..., n, n) tile of the
    piece (see the module docstring); above it, the call is the subtract of
    ``x[..., None, :]`` and ``x[..., :, None]`` into diff, w is r_c itself,
    so the weights take no memory beyond r, and the slot holds the piece
    itself: ``fill`` returns it, and no tile is made.
    """
    # every scalar operand a 0-d float64 array, built once: a Python float
    # or int is converted to one on every ufunc call (see the module
    # docstring)
    n = shape[-1]
    count = np.array(float(n))
    if isinstance(kernel, Constant):
        prod = np.empty(shape)
        c = np.array(float(kernel.c)) if kernel.c != 1.0 else None
        return (lambda x: (x, prod, c, count)), _slot(np.empty(shape))
    consts = (np.array(1.0), np.array(float(kernel.K)), kernel.beta, count)
    diff = np.empty(shape + (n,))
    r = np.empty(shape[:-2] + (n, n))
    r_c = r[..., None, :, :]
    if n <= _PAIR_PRODUCT_MAX_N:
        op, flat = _pair_operator(n), diff.reshape(-1, n * n)
        w = np.empty_like(diff)
        return (lambda x: (np.matmul, x.reshape(-1, n), op, flat, diff, r, r_c,
                           w) + consts), _slot(np.empty_like(r))
    return (lambda x: (np.subtract, x[..., None, :], x[..., :, None], diff,
                       diff, r, r_c, r_c) + consts), lambda tile: tile


def _slot(slot):
    """The ``fill`` of a batch-shaped piece slot: ``fill(tile)`` assigns
    ``tile`` to every batch entry of ``slot``, casting it to the slot's
    float64, and returns the slot."""
    def fill(tile):
        slot[...] = tile
        return slot
    return fill


def _velocity(adj, kernel):
    """`rhs_velocity` on one adjacency, as a pair ``(tile, field)``.

    ``tile`` is what the run's piece slot (`_sources`) takes for this
    piece: the degree vector ``deg_i = sum_j a_ij`` of the constant kernel,
    summed in the piece's own dtype, or, for Cucker-Smale, the piece
    itself, strided or not.  ``field(src, piece, out)`` takes a field input
    (`_sources`) of coordinate-major positions of shape (..., d, n) and the
    operand ``piece = fill(tile)`` of the same workspace, and writes the
    velocity, of the positions' shape, into ``out``.

    The tile and the constant kernel's transposed view are made here, once
    per piece; the Cucker-Smale field, `_cucker_smale`, is one function for
    every piece.  Each field writes into its input's scratch and ``out``
    (see the module docstring), bitwise ``c * (x @ A^T - deg * x) / n`` or
    the sum weighted by ``adj * (K / (1 + r2) ** beta)``, the expressions
    `velocity_expression` in tests/oracles.py keeps: the slot holds the
    float64 values that a product with the piece or its degrees converts
    them to.
    """
    if isinstance(kernel, Constant):
        # (x @ A^T)[c, i] = sum_j a_ij x[c, j].  A view, not a copy: BLAS then
        # runs the product the (n, d) layout ran, bit for bit
        adj_t = adj.T

        def linear(src, deg, out):
            pos, prod, c, n = src
            np.matmul(pos, adj_t, out)
            np.multiply(deg, pos, prod)
            out -= prod
            if c is not None:
                np.multiply(out, c, out)
            np.divide(out, n, out)
        return adj.sum(axis=-1), linear
    return adj, _cucker_smale


def _cucker_smale(src, piece, out):
    """The Cucker-Smale field of every piece (`_velocity`)."""
    pairs, a, b, into, diff, r, r_c, w, one, K, beta, n = src
    pairs(a, b, into)  # diff[c, i, j] = x_j - x_i
    # np.einsum with optimize False runs "return c_einsum(*operands,
    # **kwargs)" (numpy/_core/einsumfunc.py): calling it directly keeps
    # every bit and saves about 1.2 us of Python dispatch, twice a field
    c_einsum("...cij,...cij->...ij", diff, diff, out=r)
    # r = adj * (K / (1 + r2) ** beta), built in the r2 it holds
    np.add(r, one, r)
    if beta != 1.0:
        r **= beta
    np.divide(K, r, r)
    r *= piece
    w[...] = r_c  # a no-op when w is r_c: numpy skips a copy onto itself
    c_einsum("...cij,...cij->...ci", w, diff, out=out)
    np.divide(out, n, out)


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

# step sizes whose operands h/2, h and h/6 one `rk4_run` keeps as 0-d arrays;
# a step size past them is handed to its ufuncs as Python floats.  An entry
# traced 437 bytes (three 0-d arrays, their tuple and the key), 112 kB at
# the cap, took 0.52 us to build and saves about 0.2 us on each of the four
# ufunc calls of every step that reuses it ((B, d, n) = (32, 2, 5), timeit
# best of 5, 2 CPUs).  The README and pipeline grids hold 13 to 20 distinct
# step sizes from 10^3 to 10^5 steps; a grid whose piece starts miss the dt
# grid adds one or two a piece start (358 in 1,012 steps of blinking pairs,
# dwell 0.1, at dt 0.0123).
_STEP_OPERANDS_MAX = 256


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

    The states are converted to float64 and stepped as one (..., d, n) copy
    (see the module docstring), written back transposed at each recorded
    point.  One loop reads the step size, piece and record flag of each
    step as Python scalars from memoryviews of the grid, so a step does no
    numpy scalar arithmetic, and hands its ufuncs the 0-d operands of its
    step size, built on the size's first step; past _STEP_OPERANDS_MAX
    sizes it hands them Python floats, so what the run holds stays bounded
    whatever the grid's length.  A step whose piece index differs from the
    step before's fills the piece slot with that piece's tile, built with
    its field on the piece's first step (`_velocity`); every other step
    reads the slot as the step before left it.
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
    x0 = np.asarray(x0, dtype=np.float64)
    count = int(np.count_nonzero(rec))
    rows = max(1, min(count, _RECORD_BLOCK_FLOATS // max(1, x0.size)))
    block = np.empty((rows,) + x0.shape)
    x = x0.swapaxes(-1, -2).copy()
    x_nd = x.swapaxes(-1, -2)  # the state in x0's (..., n, d) layout
    t, k1, k2, k3, k4 = (np.empty_like(x) for _ in range(5))
    source, fill = _sources(x.shape, kernel)
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
    # piece index -> (tile, field), made on the piece's first step
    fields = {}
    last = None  # the piece index of the step before
    steps = {}  # step size -> its operands (h/2, h, h/6), up to the cap
    two = np.array(2.0)
    with np.errstate(over="raise", invalid="raise"):
        # rec[1:] flags the point each step ends on
        for h, p, keep in zip(memoryview(hs), memoryview(piece_idx),
                              memoryview(rec[1:])):
            if p != last:  # a switch: the slot takes the step's piece
                entry = fields.get(p)
                if entry is None:
                    entry = fields[p] = _velocity(pieces[p], kernel)
                tile, f = entry
                piece, last = fill(tile), p
            ops = steps.get(h)
            if ops is None:
                ops = (0.5 * h, h, h / 6.0)
                # a zero step keeps none: -0.0 == 0.0 as a key, but the
                # operands of the two differ in sign
                if h and len(steps) < _STEP_OPERANDS_MAX:
                    ops = steps[h] = tuple(map(np.array, ops))
            half, full, sixth = ops
            f(xs, piece, k1)
            np.multiply(half, k1, t)
            t += x
            f(ts, piece, k2)
            np.multiply(half, k2, t)
            t += x
            f(ts, piece, k3)
            np.multiply(full, k3, t)
            t += x
            f(ts, piece, k4)
            np.multiply(k2, two, k2)
            k2 += k1
            np.multiply(k3, two, k3)
            k2 += k3
            k2 += k4
            np.multiply(k2, sixth, k2)
            x += k2
            if keep:
                if r == rows:
                    with np.errstate(**outer):
                        lo, r = emit(lo, r), 0
                block[r] = x_nd
                r += 1
    if r:
        emit(lo, r)
